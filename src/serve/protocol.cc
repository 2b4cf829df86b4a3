#include "serve/protocol.h"

#include <atomic>
#include <cstdio>
#include <sstream>

#include "common/string_util.h"

namespace stwa {
namespace serve {
namespace {

/// Spaces inside err= values would break token-oriented clients.
std::string Underscored(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == ' ' || c == '\t' || c == '\n') c = '_';
  }
  return out;
}

}  // namespace

Command ParseCommand(const std::string& line) {
  Command cmd;
  std::vector<std::string> tokens;
  {
    std::istringstream iss(line);
    std::string tok;
    while (iss >> tok) tokens.push_back(tok);
  }
  if (tokens.empty() || tokens[0][0] == '#') {
    return cmd;  // kInvalid with empty error: skip the line
  }
  const std::string& verb = tokens[0];
  if (verb == "obs") {
    cmd.values.reserve(tokens.size() - 1);
    for (size_t i = 1; i < tokens.size(); ++i) {
      float v;
      if (!ParseFloatToken(tokens[i], &v)) {
        cmd.error = "bad value '" + tokens[i] + "'";
        return cmd;
      }
      cmd.values.push_back(v);
    }
    if (cmd.values.empty()) {
      cmd.error = "obs needs at least one value";
      return cmd;
    }
    cmd.kind = Command::Kind::kObs;
    return cmd;
  }
  if (verb == "obs1") {
    if (tokens.size() < 3 || !ParseIntToken(tokens[1], &cmd.sensor)) {
      cmd.error = "usage: obs1 <sensor> <value...>";
      return cmd;
    }
    for (size_t i = 2; i < tokens.size(); ++i) {
      float v;
      if (!ParseFloatToken(tokens[i], &v)) {
        cmd.error = "bad value '" + tokens[i] + "'";
        return cmd;
      }
      cmd.values.push_back(v);
    }
    cmd.kind = Command::Kind::kObsSensor;
    return cmd;
  }
  if (verb == "forecast" && tokens.size() == 1) {
    cmd.kind = Command::Kind::kForecast;
    return cmd;
  }
  if (verb == "stats" && tokens.size() == 1) {
    cmd.kind = Command::Kind::kStats;
    return cmd;
  }
  if (verb == "quit" && tokens.size() == 1) {
    cmd.kind = Command::Kind::kQuit;
    return cmd;
  }
  cmd.error = "unknown command '" + verb + "'";
  return cmd;
}

std::string FormatForecastResponse(const Response& response, int64_t n,
                                   int64_t u, int64_t f) {
  std::ostringstream oss;
  if (!response.ok) {
    oss << "forecast ok=0 degraded=" << (response.degraded ? 1 : 0)
        << " err=" << Underscored(response.error.empty()
                                      ? "unknown"
                                      : response.error);
    return oss.str();
  }
  oss << "forecast ok=1 degraded=" << (response.degraded ? 1 : 0)
      << " n=" << n << " u=" << u;
  char buf[32];
  const float* p = response.forecast.data();
  const int64_t total = n * u * f;
  for (int64_t i = 0; i < total; ++i) {
    // %.9g round-trips binary32 exactly, so piping the protocol output
    // back through strtof reproduces the forecast bytes.
    std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(p[i]));
    oss << ' ' << buf;
  }
  return oss.str();
}

std::string FormatStatsResponse(const ServerStats& stats) {
  std::ostringstream oss;
  oss << "stats submitted=" << stats.submitted
      << " completed=" << stats.completed << " shed=" << stats.shed
      << " non_finite=" << stats.non_finite
      << " batches=" << stats.batches << " mean_batch="
      << FormatFloat(stats.mean_batch, 2)
      << " protocol_errors=" << stats.protocol_errors
      << " p50_us=" << FormatMicros(stats.latency.p50())
      << " p95_us=" << FormatMicros(stats.latency.p95())
      << " p99_us=" << FormatMicros(stats.latency.p99())
      << " queue_p50_us=" << FormatMicros(stats.queue_wait.p50())
      << " queue_p99_us=" << FormatMicros(stats.queue_wait.p99())
      << " sc_output_hits=" << stats.stream_cache.output_hits
      << " sc_misses=" << stats.stream_cache.misses
      << " sc_stale=" << stats.stream_cache.stale_rejected
      << " sc_bypass=" << stats.stream_cache.bypass
      << " sc_flushes=" << stats.stream_cache.flushes
      << " sc_entries=" << stats.stream_cache.entries
      << " sc_bytes=" << stats.stream_cache.bytes;
  return oss.str();
}

std::string FormatErrorResponse(const std::string& reason) {
  return "err " + Underscored(reason);
}

std::optional<std::string> ValidateCommand(const Command& cmd,
                                           int64_t num_sensors,
                                           int64_t features) {
  switch (cmd.kind) {
    case Command::Kind::kObs:
      if (static_cast<int64_t>(cmd.values.size()) !=
          num_sensors * features) {
        return "obs needs " + std::to_string(num_sensors * features) +
               " values, got " + std::to_string(cmd.values.size());
      }
      return std::nullopt;
    case Command::Kind::kObsSensor:
      if (cmd.sensor < 0 || cmd.sensor >= num_sensors) {
        return "sensor " + std::to_string(cmd.sensor) +
               " out of range [0, " + std::to_string(num_sensors) + ")";
      }
      if (static_cast<int64_t>(cmd.values.size()) != features) {
        return "obs1 needs " + std::to_string(features) + " value(s), got " +
               std::to_string(cmd.values.size());
      }
      return std::nullopt;
    default:
      return std::nullopt;
  }
}

namespace {
/// Process-unique stream ids: two concurrent connections must never write
/// the same cache slot.
std::atomic<int64_t> g_next_stream_id{0};
}  // namespace

LineSession::LineSession(Server& server)
    : server_(server),
      state_(server.info().num_sensors, server.info().settings.history,
             server.info().num_features),
      stream_id_(g_next_stream_id.fetch_add(1)) {}

std::optional<std::string> LineSession::Handle(const std::string& line,
                                               bool* quit) {
  const ServingInfo& info = server_.info();
  Command cmd = ParseCommand(line);
  if (cmd.kind == Command::Kind::kInvalid) {
    if (cmd.error.empty()) return std::nullopt;  // blank/comment
    ++protocol_errors_;
    return FormatErrorResponse(cmd.error);
  }
  if (auto invalid =
          ValidateCommand(cmd, state_.num_sensors(), state_.features())) {
    ++protocol_errors_;
    return FormatErrorResponse(*invalid);
  }
  switch (cmd.kind) {
    case Command::Kind::kObs:
      state_.Push(cmd.values);
      return "ok";
    case Command::Kind::kObsSensor:
      state_.PushSensor(cmd.sensor, cmd.values.data());
      return "ok";
    case Command::Kind::kForecast: {
      if (!state_.ready()) {
        return "forecast ok=0 degraded=0 err=warming_up_have_" +
               std::to_string(state_.min_filled()) + "_of_" +
               std::to_string(state_.history());
      }
      Tensor window = state_.Window().Reshape(
          {state_.num_sensors(), state_.history(), state_.features()});
      // Stream-tagged submit: a repeat forecast of this connection's
      // unchanged window is answered from the output memo. Falls back
      // transparently when the memo is off.
      Response resp =
          server_.Submit(std::move(window), stream_id_, state_.anchor())
              .get();
      return FormatForecastResponse(resp, info.num_sensors,
                                    info.settings.horizon,
                                    info.num_features);
    }
    case Command::Kind::kStats: {
      ServerStats stats = server_.Stats();
      stats.protocol_errors = protocol_errors_;
      return FormatStatsResponse(stats);
    }
    case Command::Kind::kQuit:
      *quit = true;
      return "bye";
    case Command::Kind::kInvalid:
      break;  // handled above
  }
  return std::nullopt;
}

}  // namespace serve
}  // namespace stwa
