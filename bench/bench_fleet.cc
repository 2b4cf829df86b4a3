// Fleet serving load generator: two city profiles served concurrently
// from one FleetNode, >= 100k warm sensor streams (tiles x sensors), a
// hot checkpoint reload of cityA mid-run, an over-quota tenant driven
// through the fleet line protocol, and a deliberate overload phase
// against a tiny-deadline profile. Every completed forecast is memcmp'd
// against the offline InferenceSession answer for the same window — the
// shard/queue/reload machinery must never change the bytes — and a
// standalone serve::Server over the same checkpoint must agree too.
// Writes bench_out/BENCH_fleet.json with p50/p95/p99, per-shard
// throughput, reload timings, and drop/throttle/shed counts. Exit code 1
// on any bit mismatch, any dropped in-flight request around the reload,
// or a throttle phase that never throttles.
//
// STWA_BENCH_SMOKE=1 shrinks tiles and request counts to a seconds-long
// CI run that still produces the same JSON (the 100k-stream floor is only
// enforced at full scale).

#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "data/scaler.h"
#include "data/traffic_generator.h"
#include "fleet/protocol.h"
#include "serve/checkpoint.h"
#include "serve/inference_session.h"
#include "serve/server.h"
#include "serve/stream_cache.h"
#include "serve/stream_state.h"
#include "tensor/ops.h"

namespace stwa {
namespace bench {
namespace {

/// Distinct warm-up window patterns per profile; tile t carries pattern
/// t % kPatterns, so responses are verifiable without per-tile storage.
constexpr int64_t kPatterns = 4;

struct CitySpec {
  std::string name;
  int num_roads = 0;
  int sensors_per_road = 0;
  uint64_t seed = 0;
  int64_t tiles = 0;
  int64_t shards = 0;
  int64_t requests = 0;
};

struct CityData {
  data::TrafficDataset dataset;
  std::string ckpt;
  /// Pattern windows [N, H, F] and their offline forecasts.
  std::vector<Tensor> windows;
  std::vector<Tensor> expected;
};

struct LoadResult {
  int64_t requests = 0;
  int64_t mismatches = 0;
  /// Responses that were shed or errored (must stay 0: deadlines are
  /// generous and the reload drains instead of dropping).
  int64_t dropped = 0;
  double seconds = 0.0;
  double rps = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  double mean_batch = 0.0;
  std::vector<double> per_shard_rps;
};

/// Random-init frozen checkpoint for one city (the bench measures fleet
/// mechanics; bit checks are equally strict for any weights).
CityData MakeCity(const CitySpec& spec,
                  const baselines::ModelSettings& settings) {
  data::GeneratorOptions gen;
  gen.name = spec.name;
  gen.num_roads = spec.num_roads;
  gen.sensors_per_road = spec.sensors_per_road;
  gen.num_days = 2;
  gen.steps_per_day = 96;
  gen.seed = spec.seed;
  CityData city{data::GenerateTraffic(gen), "", {}, {}};

  auto model = baselines::MakeModel("ST-WA", city.dataset, settings);
  data::StandardScaler scaler;
  scaler.Fit(city.dataset.values, city.dataset.num_steps() * 6 / 10);
  serve::ServingInfo info;
  info.model = "ST-WA";
  info.settings = settings;
  info.num_sensors = city.dataset.num_sensors();
  info.num_features = city.dataset.num_features();
  info.scaler_mean = scaler.mean();
  info.scaler_std = scaler.stddev();
  info.ckpt_version = 1;
  city.ckpt = BenchOutPath("fleet_" + spec.name + ".bin");
  serve::SaveServingCheckpoint(*model, info, city.ckpt);

  for (int64_t p = 0; p < kPatterns; ++p) {
    const int64_t anchor =
        (p * 29 + 3) % (city.dataset.num_steps() - settings.history);
    city.windows.push_back(
        ops::Slice(city.dataset.values, 1, anchor, settings.history));
  }
  auto offline = serve::InferenceSession::Open(city.ckpt);
  for (const Tensor& w : city.windows) {
    city.expected.push_back(offline->Forecast(w));
  }
  return city;
}

/// Pushes every tile's pattern window into the profile's stream rings.
void WarmTiles(fleet::ModelProfile& profile, const CityData& city) {
  const int64_t n = profile.num_sensors();
  const int64_t h = profile.history();
  const int64_t f = profile.features();
  // Per-pattern, per-step observation rows ([N, F] flattened) extracted
  // from the [N, H, F] pattern windows once, outside the push loop.
  std::vector<std::vector<std::vector<float>>> steps(
      static_cast<size_t>(kPatterns));
  for (int64_t p = 0; p < kPatterns; ++p) {
    const float* w = city.windows[static_cast<size_t>(p)].data();
    steps[static_cast<size_t>(p)].resize(static_cast<size_t>(h));
    for (int64_t s = 0; s < h; ++s) {
      std::vector<float>& row = steps[static_cast<size_t>(p)][
          static_cast<size_t>(s)];
      row.resize(static_cast<size_t>(n * f));
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t j = 0; j < f; ++j) {
          row[static_cast<size_t>(i * f + j)] =
              w[i * h * f + s * f + j];
        }
      }
    }
  }
  for (int64_t t = 0; t < profile.router().tiles(); ++t) {
    const auto& pattern = steps[static_cast<size_t>(t % kPatterns)];
    for (int64_t s = 0; s < h; ++s) {
      profile.PushTile(t, pattern[static_cast<size_t>(s)]);
    }
  }
}

/// Submits `requests` forecasts across all tiles (striding so every shard
/// gets traffic), optionally signalling `halfway` after half of them are
/// in flight (the reload hook), then verifies every response.
LoadResult RunLoad(fleet::ModelProfile& profile, const CityData& city,
                   int64_t requests, std::promise<void>* halfway) {
  LoadResult result;
  result.requests = requests;
  const int64_t tiles = profile.router().tiles();
  std::vector<std::pair<int64_t, std::future<serve::Response>>> futures;
  futures.reserve(static_cast<size_t>(requests));
  Stopwatch watch;
  for (int64_t i = 0; i < requests; ++i) {
    const int64_t tile = (i * 131) % tiles;
    futures.emplace_back(tile, profile.ForecastTile(tile));
    if (halfway != nullptr && i == requests / 2) {
      halfway->set_value();
      halfway = nullptr;
    }
  }
  if (halfway != nullptr) halfway->set_value();
  for (auto& [tile, future] : futures) {
    serve::Response resp = future.get();
    if (!resp.ok || resp.degraded) {
      ++result.dropped;
      continue;
    }
    const Tensor& ref = city.expected[static_cast<size_t>(tile % kPatterns)];
    if (std::memcmp(resp.forecast.data(), ref.data(),
                    sizeof(float) * static_cast<size_t>(ref.size())) != 0) {
      ++result.mismatches;
    }
  }
  result.seconds = watch.ElapsedSeconds();
  result.rps = static_cast<double>(requests) / result.seconds;
  const serve::ServerStats stats = profile.Stats();
  result.p50 = stats.latency.p50();
  result.p95 = stats.latency.p95();
  result.p99 = stats.latency.p99();
  result.mean_batch = stats.mean_batch;
  for (const serve::ServerStats& shard : profile.ShardStats()) {
    result.per_shard_rps.push_back(static_cast<double>(shard.completed) /
                                   result.seconds);
  }
  return result;
}

void Run() {
  SetRunCheckpoint("cityA+cityB", 1);
  ReportRuntime();
  const bool smoke = GetEnvIntOr("STWA_BENCH_SMOKE", 0) != 0;

  baselines::ModelSettings settings;
  settings.history = 12;
  settings.horizon = 12;
  settings.d_model = 8;
  settings.window_sizes = {3, 2, 2};
  settings.latent_dim = 4;
  settings.predictor_hidden = 16;
  settings.seed = 3;

  // cityA: 16 sensors x 4096 tiles = 65536 streams; cityB: 12 x 3072 =
  // 36864. Together 102400 >= the 100k floor (smoke shrinks tiles only).
  CitySpec spec_a{"cityA", 4, 4, 101, smoke ? 64 : 4096, 4,
                  smoke ? 96 : 4096};
  CitySpec spec_b{"cityB", 4, 3, 202, smoke ? 48 : 3072, 4,
                  smoke ? 64 : 3072};
  CityData city_a = MakeCity(spec_a, settings);
  CityData city_b = MakeCity(spec_b, settings);

  auto profile_config = [&](const CitySpec& spec, const CityData& city) {
    fleet::FleetProfileConfig cfg;
    cfg.name = spec.name;
    cfg.checkpoint = city.ckpt;
    cfg.tiles = spec.tiles;
    cfg.shards = spec.shards;
    cfg.workers = 2;
    cfg.max_batch = 8;
    cfg.capacity = spec.requests + 16;
    cfg.deadline_us = 300'000'000;  // load phase must never deadline-shed
    return cfg;
  };
  fleet::FleetConfig config;
  config.profiles.push_back(profile_config(spec_a, city_a));
  config.profiles.push_back(profile_config(spec_b, city_b));
  config.quotas.emplace_back("capped", fleet::TenantQuota{50.0, 10.0});

  Stopwatch startup;
  fleet::FleetNode node(config);
  fleet::ModelProfile& prof_a = node.registry().Get("cityA");
  fleet::ModelProfile& prof_b = node.registry().Get("cityB");
  const double startup_s = startup.ElapsedSeconds();
  const int64_t total_streams =
      prof_a.router().global_sensors() + prof_b.router().global_sensors();
  std::cout << "fleet node: 2 profiles, " << total_streams
            << " sensor streams ("
            << prof_a.router().tiles() << "x" << prof_a.num_sensors()
            << " + " << prof_b.router().tiles() << "x"
            << prof_b.num_sensors() << "), loaded in "
            << FormatFloat(startup_s, 2) << "s\n";

  Stopwatch warm;
  WarmTiles(prof_a, city_a);
  WarmTiles(prof_b, city_b);
  std::cout << "warmed " << prof_a.router().tiles() + prof_b.router().tiles()
            << " tiles in " << FormatFloat(warm.ElapsedSeconds(), 2)
            << "s\n";

  // Concurrent load on both profiles; cityA is hot-reloaded (same file,
  // so post-swap forecasts must be byte-identical) once half its requests
  // are in flight — the in-flight half drains on the old generation.
  LoadResult result_a, result_b;
  std::promise<void> halfway;
  fleet::ReloadResult reload;
  std::thread load_a([&] {
    result_a = RunLoad(prof_a, city_a, spec_a.requests, &halfway);
  });
  std::thread load_b([&] {
    result_b = RunLoad(prof_b, city_b, spec_b.requests, nullptr);
  });
  halfway.get_future().wait();
  reload = prof_a.Reload(city_a.ckpt);
  load_a.join();
  load_b.join();

  auto print_load = [](const std::string& name, const LoadResult& r) {
    std::cout << "  " << name << ": " << r.requests << " requests, "
              << FormatFloat(r.rps, 1) << " req/s, mean batch "
              << FormatFloat(r.mean_batch, 2) << ", p50 "
              << FormatFloat(r.p50 / 1000.0, 2) << "ms p95 "
              << FormatFloat(r.p95 / 1000.0, 2) << "ms p99 "
              << FormatFloat(r.p99 / 1000.0, 2) << "ms, mismatches "
              << r.mismatches << ", dropped " << r.dropped << "\n";
  };
  std::cout << "fleet load (reload of cityA mid-run):\n";
  print_load("cityA", result_a);
  print_load("cityB", result_b);
  std::cout << "  reload: gen=" << reload.version << " prepare "
            << FormatFloat(reload.prepare_us / 1000.0, 1) << "ms, swap stall "
            << FormatFloat(reload.swap_us, 1) << "us, drain "
            << FormatFloat(reload.drain_us / 1000.0, 1) << "ms\n";

  // Standalone serve::Server over the cityA checkpoint must produce the
  // same bytes the fleet shards did (both are checked against the same
  // offline reference, so compare directly to it).
  int64_t standalone_mismatches = 0;
  {
    serve::ServerOptions opts;
    opts.batching.max_batch = 8;
    opts.default_deadline = std::chrono::seconds(300);
    serve::Server standalone(city_a.ckpt, opts);
    for (int64_t p = 0; p < kPatterns; ++p) {
      serve::Response resp =
          standalone.Submit(city_a.windows[static_cast<size_t>(p)]).get();
      const Tensor& ref = city_a.expected[static_cast<size_t>(p)];
      if (!resp.ok ||
          std::memcmp(resp.forecast.data(), ref.data(),
                      sizeof(float) * static_cast<size_t>(ref.size())) !=
              0) {
        ++standalone_mismatches;
      }
    }
  }
  std::cout << "standalone server vs fleet reference: " << kPatterns
            << " windows, " << standalone_mismatches << " mismatches\n";

  // Over-quota tenant through the fleet line protocol: burst 10, 50/s.
  const int64_t throttle_requests = smoke ? 60 : 200;
  int64_t throttled = 0, throttle_ok = 0;
  {
    fleet::FleetLineSession session(node, "capped");
    bool quit = false;
    for (int64_t i = 0; i < throttle_requests; ++i) {
      auto resp = session.Handle(
          "cityA forecast " + std::to_string(i % prof_a.router().tiles()),
          &quit);
      if (resp && resp->rfind("throttled", 0) == 0) {
        ++throttled;
      } else if (resp && resp->rfind("forecast ok=1", 0) == 0) {
        ++throttle_ok;
      }
    }
  }
  std::cout << "over-quota tenant: " << throttle_requests << " requests, "
            << throttle_ok << " served, " << throttled << " throttled\n";

  // Overload shedding: a tiny-deadline, tiny-capacity profile must shed
  // (degraded responses), not crash or hang — the layer below admission.
  int64_t shed_submitted = smoke ? 32 : 128;
  int64_t shed_count = 0;
  {
    fleet::FleetProfileConfig cfg;
    cfg.name = "cityB-overload";
    cfg.checkpoint = city_b.ckpt;
    cfg.tiles = 8;
    cfg.shards = 2;
    cfg.workers = 1;
    cfg.max_batch = 4;
    cfg.capacity = 8;
    cfg.deadline_us = 1;
    fleet::ModelProfile overload(cfg);
    WarmTiles(overload, city_b);
    std::vector<std::future<serve::Response>> futures;
    for (int64_t i = 0; i < shed_submitted; ++i) {
      futures.push_back(overload.ForecastTile(i % cfg.tiles));
    }
    for (auto& f : futures) {
      if (f.get().degraded) ++shed_count;
    }
  }
  std::cout << "overload profile: " << shed_submitted << " submitted, "
            << shed_count << " shed\n";

  // Streaming phase: tiles advance one observation at a time (the fleet's
  // natural traffic shape) against dedicated cityB profiles with the
  // stream cache on and off. Every response is memcmp'd against the
  // offline session answer for a mirrored window.
  const int64_t stream_tiles = 4;
  const int64_t stream_obs = smoke ? 32 : 96;
  const int64_t stream_reads = 3;
  struct StreamPhase {
    int64_t forecasts = 0;
    double cold_rps = 0.0, warm_rps = 0.0, speedup = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
    int64_t output_hits = 0, misses = 0;
    int64_t stale = 0, bypass = 0, mismatches = 0;
  } stream_phase;
  {
    auto offline = serve::InferenceSession::Open(city_b.ckpt);
    const int64_t n = city_b.dataset.num_sensors();
    const int64_t f = city_b.dataset.num_features();
    const int64_t h = settings.history;
    auto drive = [&](bool cache_on, double* rps, serve::ServerStats* stats) {
      const bool saved = serve::StreamCacheEnabled();
      serve::SetStreamCacheMode(cache_on);
      fleet::FleetProfileConfig cfg;
      cfg.name = "cityB-stream";
      cfg.checkpoint = city_b.ckpt;
      cfg.tiles = stream_tiles;
      cfg.shards = 2;
      cfg.workers = 1;
      cfg.max_batch = 1;
      cfg.capacity = 1 << 12;
      cfg.deadline_us = 300'000'000;
      int64_t mismatches = 0;
      {
        fleet::ModelProfile profile(cfg);
        std::vector<serve::StreamState> mirrors(
            static_cast<size_t>(stream_tiles),
            serve::StreamState(n, h, f));
        std::vector<float> row(static_cast<size_t>(n * f));
        Stopwatch watch;
        int64_t served = 0;
        for (int64_t t = 0; t < stream_obs; ++t) {
          for (int64_t tile = 0; tile < stream_tiles; ++tile) {
            const float* v = city_b.dataset.values.data();
            const int64_t steps = city_b.dataset.num_steps();
            const int64_t at = (t + tile * 17) % steps;
            for (int64_t i = 0; i < n; ++i) {
              for (int64_t j = 0; j < f; ++j) {
                row[static_cast<size_t>(i * f + j)] =
                    v[i * steps * f + at * f + j];
              }
            }
            profile.PushTile(tile, row);
            mirrors[static_cast<size_t>(tile)].Push(row);
            if (!mirrors[static_cast<size_t>(tile)].ready()) continue;
            const Tensor ref = offline->Forecast(
                mirrors[static_cast<size_t>(tile)].Window().Reshape(
                    {n, h, f}));
            for (int64_t r = 0; r < stream_reads; ++r) {
              serve::Response resp = profile.ForecastTile(tile).get();
              ++served;
              if (!resp.ok ||
                  std::memcmp(resp.forecast.data(), ref.data(),
                              sizeof(float) *
                                  static_cast<size_t>(ref.size())) != 0) {
                ++mismatches;
              }
            }
          }
        }
        const double seconds = watch.ElapsedSeconds();
        *rps = static_cast<double>(served) / seconds;
        stream_phase.forecasts = served;
        *stats = profile.Stats();
      }
      serve::SetStreamCacheMode(saved);
      return mismatches;
    };
    serve::ServerStats cold_stats, warm_stats;
    stream_phase.mismatches +=
        drive(false, &stream_phase.cold_rps, &cold_stats);
    stream_phase.mismatches +=
        drive(true, &stream_phase.warm_rps, &warm_stats);
    stream_phase.speedup = stream_phase.warm_rps / stream_phase.cold_rps;
    stream_phase.p50 = warm_stats.latency.p50();
    stream_phase.p95 = warm_stats.latency.p95();
    stream_phase.p99 = warm_stats.latency.p99();
    stream_phase.output_hits = warm_stats.stream_cache.output_hits;
    stream_phase.misses = warm_stats.stream_cache.misses;
    stream_phase.stale = warm_stats.stream_cache.stale_rejected;
    stream_phase.bypass = warm_stats.stream_cache.bypass;
  }
  std::cout << "streaming tiles (cityB, reads/obs=" << stream_reads
            << "): cold " << FormatFloat(stream_phase.cold_rps, 1)
            << " -> warm " << FormatFloat(stream_phase.warm_rps, 1)
            << " req/s (" << FormatFloat(stream_phase.speedup, 2)
            << "x), hits " << stream_phase.output_hits << " output, misses "
            << stream_phase.misses << ", stale " << stream_phase.stale
            << ", mismatches " << stream_phase.mismatches << "\n";

  const fleet::FleetNodeStats node_stats = node.Stats();
  const std::string path = BenchOutPath("BENCH_fleet.json");
  {
    std::ofstream out(path);
    out << "{\n  \"profile\": \"" << RunProfileName()
        << "\",\n  \"ckpt_version\": " << RunCheckpointVersion()
        << ",\n  \"smoke\": " << (smoke ? "true" : "false")
        << ",\n  \"total_streams\": " << total_streams
        << ",\n  \"startup_seconds\": " << startup_s
        << ",\n  \"profiles\": [\n";
    const std::vector<std::pair<const CitySpec*, const LoadResult*>> rows =
        {{&spec_a, &result_a}, {&spec_b, &result_b}};
    for (size_t i = 0; i < rows.size(); ++i) {
      const CitySpec& s = *rows[i].first;
      const LoadResult& r = *rows[i].second;
      out << "    {\"name\": \"" << s.name << "\", \"tiles\": " << s.tiles
          << ", \"shards\": " << s.shards << ", \"streams\": "
          << s.tiles * (i == 0 ? prof_a.num_sensors()
                               : prof_b.num_sensors())
          << ", \"requests\": " << r.requests
          << ", \"seconds\": " << r.seconds
          << ", \"requests_per_second\": " << r.rps
          << ", \"mean_batch\": " << r.mean_batch
          << ", \"p50_us\": " << r.p50 << ", \"p95_us\": " << r.p95
          << ", \"p99_us\": " << r.p99
          << ", \"bit_mismatches\": " << r.mismatches
          << ", \"dropped\": " << r.dropped << ", \"per_shard_rps\": [";
      for (size_t k = 0; k < r.per_shard_rps.size(); ++k) {
        out << (k > 0 ? ", " : "") << r.per_shard_rps[k];
      }
      out << "]}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"reload\": {\"profile\": \"cityA\", \"generation\": "
        << reload.version << ", \"ckpt_version\": " << reload.ckpt_version
        << ", \"prepare_us\": " << reload.prepare_us
        << ", \"swap_stall_us\": " << reload.swap_us
        << ", \"drain_us\": " << reload.drain_us
        << "},\n  \"standalone_mismatches\": " << standalone_mismatches
        << ",\n  \"throttle\": {\"tenant\": \"capped\", \"requests\": "
        << throttle_requests << ", \"served\": " << throttle_ok
        << ", \"throttled\": " << throttled
        << "},\n  \"overload\": {\"submitted\": " << shed_submitted
        << ", \"shed\": " << shed_count
        << "},\n  \"streaming\": {\"profile\": \"cityB-stream\", \"tiles\": "
        << stream_tiles << ", \"reads_per_obs\": " << stream_reads
        << ", \"forecasts\": " << stream_phase.forecasts
        << ", \"cold_rps\": " << stream_phase.cold_rps
        << ", \"warm_rps\": " << stream_phase.warm_rps
        << ", \"speedup\": " << stream_phase.speedup
        << ", \"p50_us\": " << stream_phase.p50
        << ", \"p95_us\": " << stream_phase.p95
        << ", \"p99_us\": " << stream_phase.p99
        << ", \"output_hits\": " << stream_phase.output_hits
        << ", \"misses\": " << stream_phase.misses
        << ", \"stale_rejected\": " << stream_phase.stale
        << ", \"bypass\": " << stream_phase.bypass
        << ", \"bit_mismatches\": " << stream_phase.mismatches
        << "},\n  \"node\": {\"admitted\": " << node_stats.admitted
        << ", \"throttled\": " << node_stats.throttled
        << ", \"protocol_errors\": " << node_stats.protocol_errors
        << "}\n}\n";
  }
  std::cout << "wrote " << path << "\n";

  bool failed = false;
  if (result_a.mismatches + result_b.mismatches > 0) {
    std::cerr << "ERROR: fleet forecasts diverged from the offline "
                 "reference (reload or sharding changed bytes)\n";
    failed = true;
  }
  if (result_a.dropped + result_b.dropped > 0) {
    std::cerr << "ERROR: in-flight requests were dropped (reload must "
                 "drain, not shed)\n";
    failed = true;
  }
  if (standalone_mismatches > 0) {
    std::cerr << "ERROR: standalone serve::Server diverged from the fleet "
                 "profiles\n";
    failed = true;
  }
  if (throttled == 0) {
    std::cerr << "ERROR: over-quota tenant was never throttled\n";
    failed = true;
  }
  if (shed_count == 0) {
    std::cerr << "ERROR: overload profile never shed\n";
    failed = true;
  }
  if (stream_phase.mismatches > 0) {
    std::cerr << "ERROR: streaming tiles served bytes that diverged from "
                 "the offline session\n";
    failed = true;
  }
  if (stream_phase.stale > 0) {
    std::cerr << "ERROR: streaming tiles served stale cache entries\n";
    failed = true;
  }
  if (serve::StreamCacheEnabled() &&
      stream_phase.output_hits <= 0) {
    std::cerr << "ERROR: streaming tiles never hit the stream cache\n";
    failed = true;
  }
  if (!smoke && total_streams < 100'000) {
    std::cerr << "ERROR: full-scale run serves " << total_streams
              << " streams (< 100k floor)\n";
    failed = true;
  }
  if (failed) std::exit(1);
}

}  // namespace
}  // namespace bench
}  // namespace stwa

int main() {
  stwa::bench::Run();
  return 0;
}
