// The serving workload, dashboard_small, and the serving part of every
// traced run.
//
// Untraced run (the end-to-end numbers): stwa_fleet --port as a child
// process, driven over loopback TCP by the open-loop generator at the
// fixed light rate, then up the max_rate_rps ladder.
//
// Traced run (the per-layer numbers): the same seeded schedule at the
// light rate over TCP and against an in-process FleetNode through
// FleetLineSession::Handle (their p50 difference is the transport gap),
// then through the split forecast path with spans off and with spans on
// (their p50 difference is the tracing overhead), heavy with spans on,
// then the model-layer and training-layer probes.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "fixture.h"
#include "fleet/config.h"
#include "fleet/protocol.h"
#include "loadgen.h"
#include "serve/protocol.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using stwa::fleet::FleetLineSession;
using stwa::fleet::FleetNode;
using stwa::fleet::ModelProfile;

constexpr int kSetupReps = 15;
/// Ladder probes per run. The gallop and bisection find the exact rung
/// within about 40 rungs (a factor of 4.8) of the start in twelve probes;
/// a run whose probes all fail reports no rate and fails.
constexpr int kMaxProbes = 12;
/// Warm-up rows per tile: one full history window.
constexpr int64_t kHistory = 12;
/// PushTile calls timed by the standalone probe.
constexpr int64_t kPushProbes = 2000;

/// Per-forecast server-side fields (in-process runs only).
struct ForecastMeta {
  double queue_us = 0.0;
  double compute_us = 0.0;
  int64_t batch = 0;
};

/// Checked outcome of one rate step.
struct StepResult {
  double rate = 0.0;
  int64_t forecasts = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double lag_p99_ms = 0.0;
  int64_t backlog_max = 0;
  bool backlog_growing = false;
  double seconds = 0.0;
  double response_bytes = 0.0;
  std::vector<double> deciles;
  /// Every forecast's latency (failed ones as +inf).
  std::vector<double> latency_ms;

  double failed_frac() const {
    return attempted > 0 ? static_cast<double>(failed) / attempted : 1.0;
  }
};

/// Schedule state of one serving workload: the fixture plus the per-tile
/// stream positions, carried across the steps of one target.
class ServingRun {
 public:
  ServingRun(const ServingSpec& spec, uint64_t seed, const std::string& dir,
             int conns)
      : spec_(spec), seed_(seed), conns_(conns), fx_(spec, seed, dir, 16) {
    Reset();
  }

  Fixture& fx() { return fx_; }
  int conns() const { return conns_; }

  /// Back to the post-warm-up stream positions: the same step labels then
  /// replay identical schedules against a fresh target.
  void Reset() {
    next_obs_.assign(static_cast<size_t>(spec_.tiles), kHistory);
    next_reload_ = 0;
  }

  /// One full history window per tile, all due at once.
  std::vector<Event> Warmup() const {
    std::vector<Event> events;
    for (int64_t t = 0; t < spec_.tiles; ++t) {
      for (int64_t s = 0; s < kHistory; ++s) {
        events.push_back(Event{Event::Kind::kObs, 0, t,
                               static_cast<int>(t % conns_), s});
      }
    }
    return events;
  }

  std::vector<Event> Step(double rate, int64_t forecasts, uint64_t label) {
    return MakeSchedule(spec_, rate, forecasts, conns_,
                        SubSeed(seed_, 0x5157, label), &next_obs_,
                        &next_reload_);
  }

  std::vector<std::string> Lines(const std::vector<Event>& events) const {
    std::vector<std::string> lines;
    lines.reserve(events.size());
    for (const Event& e : events) {
      switch (e.kind) {
        case Event::Kind::kObs:
          lines.push_back(fx_.ObsLine(e.tile, e.index));
          break;
        case Event::Kind::kForecast:
          lines.push_back(fx_.ForecastLine(e.tile));
          break;
        case Event::Kind::kReload:
          lines.push_back("reload " + fx_.profile() + " " +
                          fx_.ReloadPath(e.index));
          break;
      }
    }
    return lines;
  }

  /// Checks every answer (off the clock) and computes the step's numbers.
  /// A failed forecast counts as missing every latency limit.
  StepResult Evaluate(double rate, const std::vector<Event>& events,
                      const std::vector<Received>& answers,
                      const std::vector<double>& lag_ms) {
    std::vector<std::pair<int64_t, int64_t>> keys;
    for (const Event& e : events) {
      if (e.kind == Event::Kind::kForecast) keys.emplace_back(e.tile, e.index);
    }
    fx_.Prefetch(keys);
    StepResult r;
    r.rate = rate;
    std::vector<double> latency;
    std::vector<double> bytes;
    int64_t end_ns = 0;
    for (size_t i = 0; i < events.size(); ++i) {
      const Event& e = events[i];
      const Received& a = answers[i];
      ++r.attempted;
      end_ns = std::max(end_ns, a.at_ns);
      bool ok = a.at_ns >= 0;
      switch (e.kind) {
        case Event::Kind::kObs:
          ok = ok && a.line == "ok";
          break;
        case Event::Kind::kReload:
          ok = ok && a.line.rfind("reload ok=1 ", 0) == 0;
          break;
        case Event::Kind::kForecast: {
          ++r.forecasts;
          const bool match = ok && fx_.Matches(a.line, e.tile, e.index);
          if (ok && !match && a.line.rfind("forecast ok=1", 0) == 0) {
            ++r.mismatches;
          }
          ok = match;
          latency.push_back(ok ? static_cast<double>(a.at_ns - e.due_ns) * 1e-6
                               : INFINITY);
          bytes.push_back(static_cast<double>(a.line.size() + 1));
          break;
        }
      }
      if (!ok) ++r.failed;
    }
    r.p50_ms = Percentile(latency, 5000).value_or(INFINITY);
    r.p99_ms = Percentile(latency, 9900).value_or(INFINITY);
    r.lag_p99_ms = Percentile(lag_ms, 9900).value_or(INFINITY);
    r.response_bytes = Median(bytes);
    for (int64_t bp : {1000, 2500, 5000, 7500, 9000}) {
      r.deciles.push_back(Percentile(latency, bp).value_or(INFINITY));
    }
    // Backlog: lines due but not yet answered, sampled at each due time.
    std::vector<int64_t> answered_at;
    for (const Received& a : answers) {
      answered_at.push_back(a.at_ns < 0 ? INT64_MAX : a.at_ns);
    }
    std::sort(answered_at.begin(), answered_at.end());
    std::vector<int64_t> backlog(events.size());
    for (size_t i = 0; i < events.size(); ++i) {
      const int64_t done =
          std::upper_bound(answered_at.begin(), answered_at.end(),
                           events[i].due_ns) -
          answered_at.begin();
      backlog[i] = static_cast<int64_t>(i + 1) - done;
      r.backlog_max = std::max(r.backlog_max, backlog[i]);
    }
    // Growing: the last quarter's mean backlog clearly above the first's.
    const size_t q = std::max<size_t>(1, backlog.size() / 4);
    double first = 0.0, last = 0.0;
    for (size_t i = 0; i < q; ++i) {
      first += static_cast<double>(backlog[i]);
      last += static_cast<double>(backlog[backlog.size() - 1 - i]);
    }
    first /= static_cast<double>(q);
    last /= static_cast<double>(q);
    r.backlog_growing = last > 2.0 * first + 2.0 * conns_;
    r.seconds = static_cast<double>(end_ns) * 1e-9;
    r.latency_ms = std::move(latency);
    return r;
  }

  /// True when the step meets the workload's limits (max_rate_rps rule).
  bool Passes(const StepResult& r) const {
    return r.p99_ms <= spec_.p99_limit_ms && r.failed_frac() <= 0.001 &&
           !r.backlog_growing;
  }

 private:
  const ServingSpec& spec_;
  uint64_t seed_;
  int conns_;
  Fixture fx_;
  std::vector<int64_t> next_obs_;
  int64_t next_reload_ = 0;
};

int Connections() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp<unsigned>(hw, 1u, 4u));
}

std::vector<int> ConnOf(const std::vector<Event>& events) {
  std::vector<int> out;
  out.reserve(events.size());
  for (const Event& e : events) out.push_back(e.conn);
  return out;
}

std::vector<int64_t> DueOf(const std::vector<Event>& events) {
  std::vector<int64_t> out;
  out.reserve(events.size());
  for (const Event& e : events) out.push_back(e.due_ns);
  return out;
}

/// A fleet node over TCP, warmed and answering; setup_s measured.
struct TcpTarget {
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<WireClient> client;
  double setup_s = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Spawns stwa_fleet and brings it to its first answered forecast per
/// shard. setup_s spans process spawn to the last of those answers, minus
/// the history warm-up pushes.
TcpTarget StartTcp(ServingRun& run, const Options& options,
                   const std::string& dir) {
  TcpTarget t;
  const double t0 = NowSeconds();
  t.server = std::make_unique<ServerProcess>(
      options.fleet_binary, run.fx().config_path(), dir + "/fleet.log");
  t.client = std::make_unique<WireClient>(*t.server, run.conns(), 120.0);
  const std::vector<Event> warm = run.Warmup();
  const std::vector<std::string> warm_lines = run.Lines(warm);
  const double w0 = NowSeconds();
  const WireOutcome warmed =
      t.client->RunLines(warm_lines, ConnOf(warm), DueOf(warm), 60.0);
  const double warm_s = NowSeconds() - w0;
  for (const Received& r : warmed.responses) {
    ++t.attempted;
    if (r.line != "ok") ++t.failed;
  }
  // One forecast per shard; the shard count is the node's own default.
  const WireOutcome profiles =
      t.client->RunLines({"profiles"}, {0}, {0}, 60.0);
  int64_t shards = 1;
  const std::string& pl = profiles.responses[0].line;
  const size_t at = pl.find(":shards=");
  if (at != std::string::npos) shards = std::atoll(pl.c_str() + at + 8);
  const int64_t tiles = run.fx().spec().tiles;
  std::vector<std::string> lines;
  std::vector<int> conn;
  std::vector<int64_t> tile_of;
  for (int64_t k = 0; k < shards; ++k) {
    const int64_t tile = k * tiles / shards;
    lines.push_back(run.fx().ForecastLine(tile));
    conn.push_back(static_cast<int>(tile % run.conns()));
    tile_of.push_back(tile);
  }
  const WireOutcome first = t.client->RunLines(
      lines, conn, std::vector<int64_t>(lines.size(), 0), 120.0);
  t.setup_s = NowSeconds() - t0 - warm_s;
  for (size_t k = 0; k < lines.size(); ++k) {
    ++t.attempted;
    if (!run.fx().Matches(first.responses[k].line, tile_of[k], kHistory - 1)) {
      ++t.failed;
    }
  }
  return t;
}

StepResult TcpStep(ServingRun& run, TcpTarget& target, double rate,
                   int64_t forecasts, uint64_t label) {
  const std::vector<Event> events = run.Step(rate, forecasts, label);
  const std::vector<std::string> lines = run.Lines(events);
  const WireOutcome out =
      target.client->RunLines(lines, ConnOf(events), DueOf(events), 60.0);
  return run.Evaluate(rate, events, out.responses, out.lag_ms);
}

void PrintStep(const char* what, const StepResult& r) {
  std::printf(
      "  %-24s rate=%8.1f/s forecasts=%6lld sent=%6lld ok=%6lld failed=%lld "
      "p50=%.3fms p99=%.3fms lag_p99=%.3fms backlog_max=%lld%s (%.2fs)\n",
      what, r.rate, static_cast<long long>(r.forecasts),
      static_cast<long long>(r.attempted),
      static_cast<long long>(r.attempted - r.failed),
      static_cast<long long>(r.failed), r.p50_ms, r.p99_ms, r.lag_p99_ms,
      static_cast<long long>(r.backlog_max),
      r.backlog_growing ? " growing" : "", r.seconds);
  std::printf("      p10/25/50/75/90:");
  for (double d : r.deciles) std::printf(" %.2f", d);
  std::printf("\n");
}

/// Forecasts in a step: the spec's floor, or more when the budget allows.
int64_t StepForecasts(int64_t floor, double rate, double budget_s) {
  return std::max<int64_t>(floor, static_cast<int64_t>(rate * budget_s));
}

// --- in-process replay ------------------------------------------------------

struct InprocOutcome {
  std::vector<Received> responses;
  std::vector<double> lag_ms;
  std::vector<ForecastMeta> meta;
  std::vector<SpanBuffer> spans;
};

/// How ReplayInproc answers forecast lines. Obs and reload lines always go
/// through FleetLineSession::Handle.
enum class Replay {
  /// Forecasts through Handle too: the in-process twin of the TCP run.
  kHandle,
  /// Forecasts through the public calls Handle makes (TryAdmit,
  /// ForecastTile, future::get, RecordForecast, FormatForecastResponse),
  /// so each can be timed, with spans off.
  kSplit,
  /// kSplit with a span around every call.
  kSplitTraced,
};

/// Span recording of one replay thread. With spans off every call is a
/// no-op, clock reads included, so kSplit and kSplitTraced differ only by
/// the tracing.
class Tracer {
 public:
  explicit Tracer(SpanBuffer* buf) : buf_(buf) {}
  int64_t Now() const { return buf_ != nullptr ? NowNs() : 0; }
  int32_t Add(int64_t req, int32_t parent, SpanName name, int64_t start_ns,
              int64_t end_ns) {
    return buf_ != nullptr ? buf_->Add(req, parent, name, start_ns, end_ns)
                           : -1;
  }
  void SetEnd(int32_t id, int64_t end_ns) {
    if (buf_ != nullptr) buf_->SetEnd(id, end_ns);
  }

 private:
  SpanBuffer* buf_;
};

/// The forecast branch of FleetLineSession::Handle, call by call, for a
/// tile that is known to be in range. Fills `meta` from the Response.
std::string SplitForecast(FleetNode& node, const FleetLineSession& session,
                          ModelProfile& profile, const std::string& head,
                          int64_t tile, Tracer& tr, int64_t req, int32_t root,
                          ForecastMeta* meta) {
  const int64_t t0 = tr.Now();
  const bool admitted = node.admission().TryAdmit(session.tenant());
  tr.Add(req, root, SpanName::kAdmit, t0, tr.Now());
  if (!admitted) return "throttled tenant=" + session.tenant();
  if (!profile.TileReady(tile)) return "forecast ok=0 degraded=0 err=warming";
  // Handle's own stopwatch for RecordForecast: read with spans off too.
  const int64_t s0 = NowNs();
  auto future = profile.ForecastTile(tile);
  const int64_t s1 = tr.Now();
  tr.Add(req, root, SpanName::kSubmit, s0, s1);
  const stwa::serve::Response resp = future.get();
  const int64_t w1 = NowNs();
  const int32_t wait = tr.Add(req, root, SpanName::kWait, s1, w1);
  // Queue wait and compute, as the server reports them, placed at the end
  // of the wait (where they happened).
  const int64_t c0 =
      std::max(s1, w1 - static_cast<int64_t>(resp.compute_micros * 1e3));
  const int64_t q0 =
      std::max(s1, c0 - static_cast<int64_t>(resp.queue_micros * 1e3));
  tr.Add(req, wait, SpanName::kQueueWait, q0, c0);
  tr.Add(req, wait, SpanName::kCompute, c0, w1);
  *meta = ForecastMeta{resp.queue_micros, resp.compute_micros,
                       resp.batch_size};
  if (resp.ok) {
    node.RecordForecast(session.tenant(), head,
                        static_cast<double>(w1 - s0) * 1e-3);
  }
  const int64_t r1 = tr.Now();
  tr.Add(req, root, SpanName::kRecord, w1, r1);
  const stwa::serve::ServingInfo info = profile.Info();
  std::string line = stwa::serve::FormatForecastResponse(
      resp, info.num_sensors, info.settings.horizon, info.num_features);
  tr.Add(req, root, SpanName::kFormat, r1, tr.Now());
  return line;
}

/// Replays `events` against `node`: one thread per connection, each with
/// its own FleetLineSession, sleeping until each line's due time.
InprocOutcome ReplayInproc(FleetNode& node, Fixture& fx,
                           const std::vector<Event>& events,
                           const std::vector<std::string>& lines, int conns,
                           Replay mode) {
  InprocOutcome out;
  out.responses.resize(events.size());
  out.lag_ms.resize(events.size());
  out.meta.resize(events.size());
  for (int c = 0; c < conns; ++c) {
    out.spans.emplace_back(events.size() * 4 / conns + 64);
  }
  ModelProfile* profile = node.registry().Find(fx.profile());
  const int64_t start = NowNs() + 2'000'000;
  auto worker = [&](int c) {
    FleetLineSession session(node);
    Tracer tr(mode == Replay::kSplitTraced
                  ? &out.spans[static_cast<size_t>(c)]
                  : nullptr);
    bool quit = false;
    for (size_t i = 0; i < events.size(); ++i) {
      const Event& e = events[i];
      if (e.conn != c) continue;
      const int64_t due = start + e.due_ns;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      const int64_t t0 = NowNs();
      out.lag_ms[i] = static_cast<double>(t0 - due) * 1e-6;
      const int64_t req = static_cast<int64_t>(i);
      const int32_t root = tr.Add(req, -1, SpanName::kRequest, due, 0);
      std::string line;
      // A throwing call fails its line instead of ending the process.
      try {
        if (e.kind == Event::Kind::kForecast && mode != Replay::kHandle) {
          line = SplitForecast(node, session, *profile, fx.profile(), e.tile,
                               tr, req, root, &out.meta[i]);
        } else {
          line = session.Handle(lines[i], &quit).value_or("");
          if (e.kind != Event::Kind::kForecast) {
            tr.Add(req, root,
                   e.kind == Event::Kind::kObs ? SpanName::kHandleObs
                                               : SpanName::kReload,
                   t0, tr.Now());
          }
        }
      } catch (const std::exception& ex) {
        line = std::string("err ") + ex.what();
      }
      tr.SetEnd(root, tr.Now());
      out.responses[i].at_ns = NowNs() - start;
      out.responses[i].line = std::move(line);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) threads.emplace_back(worker, c);
  for (std::thread& t : threads) t.join();
  return out;
}

/// Warms every tile of an in-process node through the protocol.
void WarmInproc(FleetNode& node, ServingRun& run, Report* report) {
  FleetLineSession session(node);
  bool quit = false;
  for (const std::string& line : run.Lines(run.Warmup())) {
    ++report->attempted;
    if (session.Handle(line, &quit).value_or("") != "ok") ++report->failed;
  }
}

/// What a step changed in the profile's stats: stream-cache path shares
/// of its forecasts, stale rejections, mean batch and shed share.
struct StatsDelta {
  double output_hit = 0.0, shift_hit = 0.0, miss = 0.0, bypass = 0.0;
  double stale = 0.0;
  double batch_mean = 0.0;
  double shed_frac = 0.0;
};

StatsDelta Delta(const stwa::serve::ServerStats& a,
                 const stwa::serve::ServerStats& b) {
  StatsDelta d;
  const auto& x = a.stream_cache;
  const auto& y = b.stream_cache;
  const double total = static_cast<double>(
      (y.output_hits - x.output_hits) + (y.shift_hits - x.shift_hits) +
      (y.misses - x.misses) + (y.bypass - x.bypass));
  if (total > 0) {
    d.output_hit = static_cast<double>(y.output_hits - x.output_hits) / total;
    d.shift_hit = static_cast<double>(y.shift_hits - x.shift_hits) / total;
    d.miss = static_cast<double>(y.misses - x.misses) / total;
    d.bypass = static_cast<double>(y.bypass - x.bypass) / total;
  }
  d.stale = static_cast<double>(y.stale_rejected - x.stale_rejected);
  const double batches = static_cast<double>(b.batches - a.batches);
  const double requests = b.mean_batch * static_cast<double>(b.batches) -
                          a.mean_batch * static_cast<double>(a.batches);
  d.batch_mean = batches > 0 ? requests / batches : 0.0;
  const double submitted = static_cast<double>(b.submitted - a.submitted);
  d.shed_frac =
      submitted > 0 ? static_cast<double>(b.shed - a.shed) / submitted : 0.0;
  return d;
}

/// Share of the step's wall time the shard workers spent computing.
double BusyFrac(const std::vector<ForecastMeta>& meta, double seconds,
                int64_t workers) {
  double busy_us = 0.0;
  for (const ForecastMeta& m : meta) {
    if (m.batch > 0) busy_us += m.compute_us / static_cast<double>(m.batch);
  }
  return seconds > 0 ? busy_us * 1e-6 / (seconds * static_cast<double>(workers))
                     : 0.0;
}

std::vector<double> MetaField(const std::vector<ForecastMeta>& meta,
                              double ForecastMeta::*field) {
  std::vector<double> out;
  for (const ForecastMeta& m : meta) {
    if (m.batch > 0) out.push_back(m.*field);
  }
  return out;
}

// --- runs -------------------------------------------------------------------

/// Where a traced step's spans are written: kept under .bench_work/traces
/// after the run's own files are removed.
std::string TracePath(const ServingSpec& spec, const Options& options,
                      const std::string& what) {
  std::string tag = what;
  for (char& c : tag) {
    if (c == ' ') c = '_';
  }
  const std::string dir = ".bench_work/traces";
  std::filesystem::create_directories(dir);
  return dir + "/" + spec.name + "-seed" + std::to_string(options.seed) +
         "-" + tag + ".tsv";
}


void Untraced(const ServingSpec& spec, const Options& options,
              const std::string& dir, Report* report) {
  const StealMeter steal;
  const int conns = Connections();
  ServingRun run(spec, options.seed, dir, conns);
  std::vector<double> setups;
  TcpTarget target;
  const double spawns_t0 = NowSeconds();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    target = TcpTarget();  // stops the previous child first
    target = StartTcp(run, options, dir);
    setups.push_back(target.setup_s);
    report->attempted += target.attempted;
    report->failed += target.failed;
  }
  const double setup_s = Median(setups);
  std::printf("  setup          %.4fs (median of %d spawns, %.1fs in all)\n",
              setup_s, kSetupReps, NowSeconds() - spawns_t0);

  // The light rate runs as spec.repeats steps that together take 40% of
  // the budget (each at least the spec's floor of forecasts);
  // latency_ms_light is the median of their pooled forecasts. The ladder
  // and the fine-tune probe use the rest. Latency at the heavy rate and
  // tail latency are reported by the traced run: over a shared host they
  // move by more than any bound between runs of the same code.
  const double share = options.seconds * 0.4 / spec.repeats;
  // Fixed-rate failures include their mismatches; a ladder probe may fail
  // its limits, but a wrong answer there is still a failure.
  int64_t attempted = 0, failed = 0, mismatches = 0, probe_mismatches = 0;
  std::vector<double> light_ms;
  for (int k = 0; k < spec.repeats; ++k) {
    const StepResult r = TcpStep(
        run, target, spec.light_rps,
        StepForecasts(spec.forecasts_per_step, spec.light_rps, share),
        10 + static_cast<uint64_t>(k));
    PrintStep("light", r);
    attempted += r.attempted;
    failed += r.failed;
    mismatches += r.mismatches;
    light_ms.insert(light_ms.end(), r.latency_ms.begin(), r.latency_ms.end());
  }
  const double light_p50 = Percentile(light_ms, 5000).value_or(INFINITY);
  uint64_t label = 100;
  const std::optional<int> best = FindMaxPassing(
      spec.ladder, spec.ladder.Nearest(spec.ladder_start_rps), kMaxProbes,
      [&](int i) {
        const double rate = spec.ladder.Rate(i);
        const StepResult probe =
            TcpStep(run, target, rate, spec.forecasts_per_probe, label++);
        probe_mismatches += probe.mismatches;
        const bool pass = run.Passes(probe);
        PrintStep(pass ? "ladder pass" : "ladder fail", probe);
        return pass;
      });
  const double rss = target.server->PeakRssMb();
  target = TcpTarget();

  report->attempted += attempted;
  report->failed += failed + probe_mismatches;
  if (mismatches + probe_mismatches > 0) report->correct = false;
  // No rung met the limits: the search itself is a failed operation.
  ++report->attempted;
  if (!best) {
    std::printf("  ladder: no probed rung met the limits\n");
    ++report->failed;
  }
  const double max_rate = best ? spec.ladder.Rate(*best) : 0.0;

  // Online fine-tuning throughput of the served model geometry.
  const stwa::data::TrafficDataset traffic =
      ServingDataset(spec, options.seed, 1152);
  const TrainRates rates =
      MeasureTrainRates(traffic, ServingSettings(spec), options.seed,
                        spec.finetune_segments,
                        std::min(8.0, options.seconds / 5.0));
  report->attempted += rates.steps;
  report->failed += rates.nonfinite_losses;
  const double ok_frac =
      1.0 - static_cast<double>(report->failed) /
                static_cast<double>(std::max<int64_t>(1, report->attempted));
  std::printf("  host steal during the run: %.1f%% of the CPU\n",
              100.0 * steal.Share());

  report->Add("setup_s", setup_s, "s");
  report->Add("latency_ms_light", light_p50, "ms");
  report->Add("max_rate_rps", max_rate, "req/s");
  report->Add("ok_frac", ok_frac, "ratio");
  report->Add("train_samples_per_s", rates.train_samples_per_s, "samples/s");
  report->Add("eval_samples_per_s", rates.eval_samples_per_s, "samples/s");
  report->Add("peak_rss_mb", rss, "MiB");
}

}  // namespace

void TraceServingLayers(const ServingSpec& spec, const Options& options,
                        const std::string& dir, Report* report) {
  const int conns = Connections();
  ServingRun run(spec, options.seed, dir, conns);
  const int64_t light_n = spec.forecasts_per_step;
  const int64_t heavy_n = spec.forecasts_per_step;
  auto tally = [&](const StepResult& r) {
    report->attempted += r.attempted;
    report->failed += r.failed;
    if (r.mismatches > 0) report->correct = false;
  };

  // 1. Untraced light step over TCP (transport included), then the same
  // rate from a client with default delayed ACKs on the same node.
  StepResult tcp, delayed_ack;
  {
    TcpTarget target = StartTcp(run, options, dir);
    report->attempted += target.attempted;
    report->failed += target.failed;
    tcp = TcpStep(run, target, spec.light_rps, light_n, 1);
    PrintStep("tcp light", tcp);
    tally(tcp);
    target.client = std::make_unique<WireClient>(*target.server, conns, 60.0,
                                                 /*quick_ack=*/false);
    delayed_ack = TcpStep(run, target, spec.light_rps, light_n, 3);
    PrintStep("tcp light, delayed ACKs", delayed_ack);
    tally(delayed_ack);
  }

  // 2. The same schedule in-process: every line through Handle, then the
  // split forecast path with spans off, each against a fresh node.
  auto inproc_step = [&](Replay mode, const char* what) {
    FleetNode node(stwa::fleet::LoadFleetConfig(run.fx().config_path()));
    WarmInproc(node, run, report);
    run.Reset();
    const std::vector<Event> events = run.Step(spec.light_rps, light_n, 1);
    const InprocOutcome out =
        ReplayInproc(node, run.fx(), events, run.Lines(events), conns, mode);
    const StepResult r =
        run.Evaluate(spec.light_rps, events, out.responses, out.lag_ms);
    PrintStep(what, r);
    tally(r);
    return r;
  };
  const StepResult plain = inproc_step(Replay::kHandle, "inproc light");
  const StepResult split = inproc_step(Replay::kSplit, "inproc split light");

  // 3. Light and heavy on the split path with spans on, against a fresh
  // node (light replays the same schedule as the runs above).
  FleetNode node(stwa::fleet::LoadFleetConfig(run.fx().config_path()));
  ModelProfile* profile = node.registry().Find(run.fx().profile());
  const int64_t workers =
      profile->router().shards() * profile->config().workers;
  WarmInproc(node, run, report);
  run.Reset();
  struct Traced {
    StepResult step;
    InprocOutcome out;
    StatsDelta cache;
  };
  auto traced_step = [&](double rate, int64_t n, uint64_t label,
                         const char* what) {
    Traced t;
    const std::vector<Event> events = run.Step(rate, n, label);
    const stwa::serve::ServerStats before = profile->Stats();
    t.out = ReplayInproc(node, run.fx(), events, run.Lines(events), conns,
                         Replay::kSplitTraced);
    t.cache = Delta(before, profile->Stats());
    t.step = run.Evaluate(rate, events, t.out.responses, t.out.lag_ms);
    PrintStep(what, t.step);
    tally(t.step);
    WriteSpans(t.out.spans, TracePath(spec, options, what));
    return t;
  };
  const Traced light = traced_step(spec.light_rps, light_n, 1, "traced light");
  const Traced heavy = traced_step(spec.heavy_rps, heavy_n, 2, "traced heavy");

  // Hot reloads of byte-identical weights on the idle node.
  std::vector<double> prepare_ms, swap_us, drain_ms;
  for (int k = 0; k < 3; ++k) {
    const stwa::fleet::ReloadResult r =
        profile->Reload(run.fx().ReloadPath(100 + k));
    prepare_ms.push_back(r.prepare_us * 1e-3);
    swap_us.push_back(r.swap_us);
    drain_ms.push_back(r.drain_us * 1e-3);
  }

  // PushTile alone, on the idle node: rows of steps no schedule reaches,
  // tiles in turn.
  std::vector<double> push_us;
  {
    const int64_t tiles = spec.tiles;
    std::vector<std::vector<float>> rows;
    for (int64_t k = 0; k < kPushProbes; ++k) {
      rows.push_back(run.fx().Row(k % tiles, (int64_t{1} << 30) + k / tiles));
    }
    for (int64_t k = 0; k < kPushProbes; ++k) {
      const int64_t t0 = NowNs();
      profile->PushTile(k % tiles, rows[static_cast<size_t>(k)]);
      push_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    }
  }

  const auto& spans = light.out.spans;
  const std::map<SpanName, std::vector<double>> self = SelfTimesUs(spans);
  auto self_med = [&](SpanName name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : Median(it->second);
  };
  for (int k = 0; k < static_cast<int>(SpanName::kCount); ++k) {
    const SpanName name = static_cast<SpanName>(k);
    std::printf("  span %-20s self p50 %9.2f us\n", SpanLabel(name),
                self_med(name));
  }
  auto queue_pct = [](const InprocOutcome& o, int64_t bp) {
    return Percentile(MetaField(o.meta, &ForecastMeta::queue_us), bp)
        .value_or(INFINITY);
  };
  report->Add("loadgen.lag_p99_ms", tcp.lag_p99_ms, "ms");
  report->Add("loadgen.backlog_max", static_cast<double>(tcp.backlog_max),
              "count");
  report->Add("loadgen.p99_ms_light", tcp.p99_ms, "ms");
  report->Add("loadgen.p50_ms_heavy", heavy.step.p50_ms, "ms");
  report->Add("loadgen.p99_ms_heavy", heavy.step.p99_ms, "ms");
  report->Add("transport.gap_p50_ms", tcp.p50_ms - plain.p50_ms, "ms");
  report->Add("transport.delayed_ack_p50_ms", delayed_ack.p50_ms - tcp.p50_ms,
              "ms");
  report->Add("trace.overhead_p50_ms", light.step.p50_ms - split.p50_ms,
              "ms");
  report->Add("protocol.handle_obs_us",
              Median(DurationsUs(spans, SpanName::kHandleObs)), "us");
  report->Add("protocol.format_forecast_us",
              Median(DurationsUs(spans, SpanName::kFormat)), "us");
  report->Add("protocol.response_bytes", light.step.response_bytes, "bytes");
  report->Add("fleet.admit_us", Median(DurationsUs(spans, SpanName::kAdmit)),
              "us");
  report->Add("fleet.push_tile_us", Median(push_us), "us");
  report->Add("fleet.submit_us",
              Median(DurationsUs(spans, SpanName::kSubmit)), "us");
  report->Add("fleet.reload_prepare_ms", Median(prepare_ms), "ms");
  report->Add("fleet.reload_swap_us", Median(swap_us), "us");
  report->Add("fleet.reload_drain_ms", Median(drain_ms), "ms");
  report->Add("queue.wait_p50_us", queue_pct(light.out, 5000), "us");
  report->Add("queue.wait_p99_us", queue_pct(light.out, 9900), "us");
  report->Add("queue.batch_mean", light.cache.batch_mean, "count");
  report->Add("queue.shed_frac", light.cache.shed_frac, "ratio");
  report->Add("queue.wait_p99_us_heavy", queue_pct(heavy.out, 9900), "us");
  report->Add("queue.batch_mean_heavy", heavy.cache.batch_mean, "count");
  report->Add("queue.shed_frac_heavy", heavy.cache.shed_frac, "ratio");
  report->Add("server.compute_p50_us",
              Median(MetaField(light.out.meta, &ForecastMeta::compute_us)),
              "us");
  report->Add("server.busy_frac",
              BusyFrac(light.out.meta, light.step.seconds, workers), "ratio");
  report->Add("server.busy_frac_heavy",
              BusyFrac(heavy.out.meta, heavy.step.seconds, workers), "ratio");
  report->Add("cache.output_hit_frac", light.cache.output_hit, "ratio");
  report->Add("cache.shift_hit_frac", light.cache.shift_hit, "ratio");
  report->Add("cache.miss_frac", light.cache.miss, "ratio");
  report->Add("cache.bypass_frac", light.cache.bypass, "ratio");
  report->Add("cache.bypass_frac_heavy", heavy.cache.bypass, "ratio");
  report->Add("cache.stale", light.cache.stale + heavy.cache.stale, "count");

  ProbeModelLayers(run.fx().checkpoint(), ServingSettings(spec),
                   spec.num_sensors, spec.probe_batch, options.seed, report);
}

Report RunServing(const ServingSpec& spec, const Options& options) {
  WorkDir dir(spec.name);
  Report report;
  if (!options.trace) {
    Untraced(spec, options, dir.path(), &report);
    return report;
  }
  TraceServingLayers(spec, options, dir.path(), &report);
  stwa::baselines::ModelSettings settings = ServingSettings(spec);
  ProbeTrainLayers(ServingDataset(spec, options.seed, 1152), settings,
                   options.seed, &report);
  return report;
}

}  // namespace perfbench
