// Pure building blocks of the benchmark: its own seeded RNG, percentile
// helper, rate ladder, workload specs, schedule generation and response
// parsing. Nothing here touches the program under test, so the unit tests
// in perfbench/tests exercise it without sockets, threads or a model.
#ifndef PERFBENCH_CORE_H_
#define PERFBENCH_CORE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: the benchmark's own generator, so schedules and inputs do
/// not change when the program's RNG does.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform integer in [0, n).
  int64_t Below(int64_t n);
  /// Exponential with the given mean.
  double Exponential(double mean);

 private:
  uint64_t state_;
};

/// Mixes a run seed with stream labels into an independent sub-seed.
uint64_t SubSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

// --- percentiles ---------------------------------------------------------

/// Samples strictly beyond the nearest-rank percentile `q_bp` (basis
/// points: 9900 = p99) in a sample of `n`.
int64_t SamplesBeyond(int64_t n, int64_t q_bp);

/// True when the percentile has at least ten samples beyond it — the rule
/// every reported percentile of this benchmark follows.
bool PercentileSupported(int64_t n, int64_t q_bp);

/// Nearest-rank percentile (rank ceil(q*n), 1-based) of `values`;
/// nullopt when the sample does not support it.
std::optional<double> Percentile(std::vector<double> values, int64_t q_bp);

/// Median (nearest-rank p50) of a non-empty sample; 0 when empty. Used
/// for repeated-trial medians, where the ten-beyond rule does not apply.
double Median(std::vector<double> values);

// --- rate ladder -----------------------------------------------------------

/// Fixed geometric ladder of offered rates: step i offers base * ratio^i.
struct Ladder {
  double base = 1.0;
  double ratio = 1.04;
  int lo = 0;
  int hi = 0;
  double Rate(int i) const;
  /// Index whose rate is nearest to `rate` (clamped to [lo, hi]).
  int Nearest(double rate) const;
};

/// Finds the highest passing rung. Probes `start`, gallops away from it
/// (1, 3, 7, 15, ... rungs) until the outcome flips or the ladder ends,
/// then bisects the bracket, assuming pass/fail is monotone in the rate.
/// Returns a rung that was probed and passed: the highest one found, or,
/// when `max_probes` runs out first, the highest one probed so far.
/// nullopt when no probed rung passed (the bottom rung failed, or the cap
/// ran out first). `probe(i)` runs rung i and reports whether it met the
/// workload's limits.
std::optional<int> FindMaxPassing(const Ladder& ladder, int start,
                                  int max_probes,
                                  const std::function<bool(int)>& probe);

// --- workloads and schedules -------------------------------------------------

/// Serving workload constants. Rates are absolute (req/s): never derived
/// at run time from the code under test.
struct ServingSpec {
  std::string name;
  /// Model geometry of the profile's checkpoint.
  int64_t num_sensors = 0;
  int64_t d_model = 0;
  int64_t predictor_hidden = 0;
  int64_t latent_dim = 0;
  int64_t tiles = 0;
  /// Forecasts per observation row (dashboard: ~3 reads per row);
  /// 0 means every forecast follows exactly one new row of its tile.
  double reads_per_row = 0.0;
  /// Seconds of schedule between hot reloads; 0 = no reloads.
  double reload_every_s = 0.0;
  double light_rps = 0.0;
  double heavy_rps = 0.0;
  /// p99 limit judged by the max_rate_rps ladder.
  double p99_limit_ms = 0.0;
  Ladder ladder;
  /// Ladder rung the search starts on (near the seed's max rate).
  double ladder_start_rps = 0.0;
  /// Forecasts per rate step (>= 1000 so p99 has ten samples beyond).
  int64_t forecasts_per_step = 1000;
  /// Steps per fixed rate; the reported p50/p99 are their medians.
  int repeats = 1;
  int64_t forecasts_per_probe = 1000;
  /// Batch of the core-module and GEMM probes (serving answers B=1).
  int64_t probe_batch = 1;
  /// Fresh engines the fine-tune throughput probe runs in turn.
  int finetune_segments = 5;
};

const ServingSpec& DashboardSmall();
/// The PEMS08-scale serving profile (one new row per forecast). No longer
/// a workload of its own: train_pems08's traced run serves its pattern.
const ServingSpec& Pems08City();

/// One scheduled client operation.
struct Event {
  enum class Kind { kObs, kForecast, kReload };
  Kind kind = Kind::kForecast;
  /// Due time, nanoseconds from the step start.
  int64_t due_ns = 0;
  int64_t tile = 0;
  /// Connection that carries the line (tiles are pinned: tile % conns).
  int conn = 0;
  /// kObs: stream step of the pushed row. kForecast: the tile's newest
  /// step when the line is due (the window it must be answered on).
  /// kReload: ordinal of the reload within the run.
  int64_t index = 0;
};

/// Open-loop Poisson schedule of one rate step: `forecasts` forecast
/// arrivals at `rate_rps`, observation rows interleaved per the spec,
/// reloads every spec.reload_every_s of schedule (at least one per step
/// when the spec reloads). `next_obs[tile]` is the per-tile observation
/// counter carried across steps (updated). Deterministic in its inputs.
std::vector<Event> MakeSchedule(const ServingSpec& spec, double rate_rps,
                                int64_t forecasts, int conns, uint64_t seed,
                                std::vector<int64_t>* next_obs,
                                int64_t* next_reload);

// --- wire ------------------------------------------------------------------

/// A parsed `forecast ok=1 ...` response line.
struct ForecastLine {
  int64_t n = 0;
  int64_t u = 0;
  std::vector<float> values;
};

/// Parses a successful forecast response (`forecast ok=1 degraded=0 n=N
/// u=U v...`). nullopt for anything else: shed, degraded, malformed, or a
/// value count that does not match n*u*features.
std::optional<ForecastLine> ParseForecastLine(const std::string& line,
                                              int64_t features);

/// Formats one observation row as a fleet `obs` line, %.9g per value (the
/// server's strtof reproduces the exact floats).
std::string FormatObsLine(const std::string& profile, int64_t tile,
                          const float* values, int64_t count);

/// Synthetic flow value of `sensor` in `tile` at stream step `step`: a
/// daily profile plus seeded noise, in raw flow units. Depends only on its
/// arguments.
float FlowValue(uint64_t seed, int64_t tile, int64_t sensor, int64_t step);

}  // namespace perfbench

#endif  // PERFBENCH_CORE_H_
