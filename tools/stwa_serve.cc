// stwa_serve: line-protocol forecast server over a frozen checkpoint.
//
// Modes:
//   --train-demo <ckpt> [--epochs E]
//       Generate the tiny quickstart-like dataset, train ST-WA for E
//       epochs (default 2) and write a serving checkpoint — a
//       self-contained way to produce a checkpoint for smoke tests.
//   --ckpt <path> [--workers W] [--max-batch B] [--deadline-us D]
//          [--port P] [--precision fp32|bf16]
//       Serve the checkpoint. Default transport is the line protocol on
//       stdin/stdout (see serve/protocol.h); --port instead listens on
//       TCP with one connection thread and one StreamState per client,
//       all sharing the batching server. --precision selects the weight
//       tier every worker session serves at (default fp32); activations
//       stay fp32.

#include <cstdlib>
#include <iostream>
#include <string>

#include "data/traffic_generator.h"
#include "demo_train.h"
#include "line_transport.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/stream_state.h"
#include "simd/lowp.h"

namespace stwa {
namespace {

struct Args {
  std::string train_demo_path;
  int epochs = 2;
  std::string ckpt;
  int workers = 1;
  int64_t max_batch = 8;
  int64_t deadline_us = 1'000'000;
  int port = 0;            // 0 = stdin/stdout
  std::string precision = "fp32";
};

void PrintUsage() {
  std::cerr <<
      "usage:\n"
      "  stwa_serve --train-demo <ckpt> [--epochs E]\n"
      "  stwa_serve --ckpt <path> [--workers W] [--max-batch B]\n"
      "             [--deadline-us D] [--port P] [--precision fp32|bf16]\n";
}

bool ParseArgs(int argc, char** argv, Args* args) {
  auto next_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* v = nullptr;
    if (flag == "--train-demo") {
      if ((v = next_value(i)) == nullptr) return false;
      args->train_demo_path = v;
    } else if (flag == "--epochs") {
      if ((v = next_value(i)) == nullptr) return false;
      args->epochs = std::atoi(v);
    } else if (flag == "--ckpt") {
      if ((v = next_value(i)) == nullptr) return false;
      args->ckpt = v;
    } else if (flag == "--workers") {
      if ((v = next_value(i)) == nullptr) return false;
      args->workers = std::atoi(v);
    } else if (flag == "--max-batch") {
      if ((v = next_value(i)) == nullptr) return false;
      args->max_batch = std::atoll(v);
    } else if (flag == "--deadline-us") {
      if ((v = next_value(i)) == nullptr) return false;
      args->deadline_us = std::atoll(v);
    } else if (flag == "--port") {
      if ((v = next_value(i)) == nullptr) return false;
      args->port = std::atoi(v);
    } else if (flag == "--precision") {
      if ((v = next_value(i)) == nullptr) return false;
      args->precision = v;
    } else if (flag == "--help" || flag == "-h") {
      return false;
    } else {
      std::cerr << "unknown flag '" << flag << "'\n";
      return false;
    }
  }
  return !args->train_demo_path.empty() || !args->ckpt.empty();
}

/// The demo dataset/model (tools/demo_train.h): small enough that two
/// epochs train in seconds, shaped like the quickstart.
int TrainDemo(const Args& args) {
  data::TrafficDataset dataset =
      data::GenerateTraffic(tools::DemoGeneratorOptions());
  tools::TrainDemoCheckpoint("ST-WA", dataset, args.epochs,
                             args.train_demo_path);
  return 0;
}

int Serve(const Args& args) {
  serve::ServerOptions opts;
  opts.workers = args.workers;
  opts.batching.max_batch = args.max_batch;
  opts.default_deadline = std::chrono::microseconds(args.deadline_us);
  opts.session.precision = simd::ParsePrecision(args.precision);
  serve::Server server(args.ckpt, opts);
  const serve::ServingInfo& info = server.info();
  std::cerr << "serving " << info.model << " (" << info.num_sensors
            << " sensors, H=" << info.settings.history
            << " -> U=" << info.settings.horizon << ") with "
            << args.workers << " worker(s), max batch " << args.max_batch
            << ", precision "
            << simd::PrecisionName(opts.session.precision) << "\n";
  if (args.port > 0) return tools::ServeTcp<serve::LineSession>(server, args.port);
  tools::ServeStdio<serve::LineSession>(server);
  return 0;
}

}  // namespace
}  // namespace stwa

int main(int argc, char** argv) {
  stwa::Args args;
  if (!stwa::ParseArgs(argc, argv, &args)) {
    stwa::PrintUsage();
    return 2;
  }
  try {
    if (!args.train_demo_path.empty()) return stwa::TrainDemo(args);
    return stwa::Serve(args);
  } catch (const std::exception& e) {
    std::cerr << "fatal: " << e.what() << "\n";
    return 1;
  }
}
