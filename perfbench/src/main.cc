// stwa_perfbench: the repository's benchmark driver.
//
//   stwa_perfbench --workload <dashboard_small|train_pems08>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  --fleet-binary <path to stwa_fleet> [--commit <id>]
//
// Prints a stamp line (host, nproc, SIMD tier, threads, commit), progress
// lines,
// and as its last line one JSON object with the run's metrics: end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1. Exits 1 when
// any operation failed or any output failed its check.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "runtime/parallel.h"
#include "simd/simd.h"
#include "workloads.h"

namespace {

bool Parse(int argc, char** argv, perfbench::Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      o->workload = v;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::atof(v);
    } else if (flag == "--trace") {
      o->trace = std::atoi(v) != 0;
    } else if (flag == "--fleet-binary") {
      o->fleet_binary = v;
    } else if (flag == "--commit") {
      o->commit = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!Parse(argc, argv, &options)) {
    std::cerr << "usage: stwa_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --fleet-binary PATH\n";
    return 2;
  }
  char host[256] = {0};
  gethostname(host, sizeof(host) - 1);
  std::printf("[perfbench] workload=%s seed=%llu seconds=%g trace=%d "
              "host=%s nproc=%u simd=%s threads=%d commit=%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, host,
              std::thread::hardware_concurrency(), stwa::simd::IsaName(),
              stwa::runtime::NumThreads(), options.commit.c_str());
  std::fflush(stdout);
  try {
    perfbench::Report report;
    if (options.workload == "dashboard_small") {
      report = perfbench::RunServing(perfbench::DashboardSmall(), options);
    } else if (options.workload == "train_pems08") {
      report = perfbench::RunTraining(options);
    } else {
      std::cerr << "unknown workload '" << options.workload << "'\n";
      return 2;
    }
    std::printf("%s\n", report.Json().c_str());
    return report.correct && report.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
