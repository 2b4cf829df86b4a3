#include "core.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

int64_t SplitMix::Below(int64_t n) {
  return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
}

double SplitMix::Exponential(double mean) {
  return -mean * std::log1p(-Uniform());
}

uint64_t SubSeed(uint64_t seed, uint64_t a, uint64_t b) {
  SplitMix mix(seed ^ (a * 0x632be59bd9b4e019ULL) ^
               (b * 0xd6e8feb86659fd93ULL));
  mix.Next();
  return mix.Next();
}

int64_t SamplesBeyond(int64_t n, int64_t q_bp) {
  if (n <= 0) return 0;
  const int64_t rank = (n * q_bp + 9999) / 10000;  // ceil(q * n)
  return n - rank;
}

bool PercentileSupported(int64_t n, int64_t q_bp) {
  return SamplesBeyond(n, q_bp) >= 10;
}

std::optional<double> Percentile(std::vector<double> values, int64_t q_bp) {
  const int64_t n = static_cast<int64_t>(values.size());
  if (!PercentileSupported(n, q_bp)) return std::nullopt;
  const int64_t rank = std::max<int64_t>(1, (n * q_bp + 9999) / 10000);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[static_cast<size_t>(rank - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = (values.size() - 1) / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

double Ladder::Rate(int i) const { return base * std::pow(ratio, i); }

int Ladder::Nearest(double rate) const {
  const int i = static_cast<int>(
      std::lround(std::log(rate / base) / std::log(ratio)));
  return std::clamp(i, lo, hi);
}

std::optional<int> FindMaxPassing(const Ladder& ladder, int start,
                                  int max_probes,
                                  const std::function<bool(int)>& probe) {
  // Highest rung known to pass and lowest known to fail; lo - 1 and hi + 1
  // stand for "none yet".
  int pass = ladder.lo - 1;
  int fail = ladder.hi + 1;
  int probes = 0;
  auto run = [&](int i) {
    ++probes;
    if (probe(i)) {
      pass = i;
    } else {
      fail = i;
    }
  };
  run(std::clamp(start, ladder.lo, ladder.hi));
  // Gallop up while rungs pass, or down while they fail.
  for (int step = 1; probes < max_probes; step *= 2) {
    if (pass >= ladder.lo && fail > ladder.hi) {
      if (pass == ladder.hi) break;
      run(std::min(ladder.hi, pass + step));
    } else if (pass < ladder.lo) {
      if (fail == ladder.lo) break;
      run(std::max(ladder.lo, fail - step));
    } else {
      break;
    }
  }
  // Bisect between the two.
  while (pass >= ladder.lo && fail - pass > 1 && probes < max_probes) {
    run(pass + (fail - pass) / 2);
  }
  if (pass < ladder.lo) return std::nullopt;
  return pass;
}

const ServingSpec& DashboardSmall() {
  static const ServingSpec spec = [] {
    ServingSpec s;
    s.name = "dashboard_small";
    s.num_sensors = 4;
    s.d_model = 8;
    s.predictor_hidden = 16;
    s.latent_dim = 4;
    s.tiles = 1024;
    s.reads_per_row = 3.0;
    s.reload_every_s = 10.0;
    s.light_rps = 350.0;
    s.heavy_rps = 860.0;
    s.p99_limit_ms = 100.0;
    s.ladder = Ladder{100.0, 1.04, 0, 80};
    s.ladder_start_rps = 1331.0;
    s.forecasts_per_step = 1000;
    s.repeats = 4;
    s.forecasts_per_probe = 3000;
    s.finetune_segments = 25;
    return s;
  }();
  return spec;
}

const ServingSpec& Pems08City() {
  static const ServingSpec spec = [] {
    ServingSpec s;
    s.name = "pems08_city";
    s.num_sensors = 170;
    s.d_model = 16;
    s.predictor_hidden = 64;
    s.latent_dim = 8;
    s.tiles = 4;
    s.reads_per_row = 0.0;
    s.reload_every_s = 0.0;
    s.light_rps = 52.0;
    s.heavy_rps = 136.0;
    s.p99_limit_ms = 250.0;
    s.ladder = Ladder{20.0, 1.04, 0, 80};
    s.ladder_start_rps = 202.0;
    s.forecasts_per_step = 1000;
    s.forecasts_per_probe = 1000;
    return s;
  }();
  return spec;
}

std::vector<Event> MakeSchedule(const ServingSpec& spec, double rate_rps,
                                int64_t forecasts, int conns, uint64_t seed,
                                std::vector<int64_t>* next_obs,
                                int64_t* next_reload) {
  SplitMix rng(seed);
  std::vector<Event> events;
  const double obs_share =
      spec.reads_per_row > 0.0 ? 1.0 / (spec.reads_per_row + 1.0) : 0.0;
  // Combined arrival process: forecasts at rate_rps plus (dashboard) rows
  // at rate_rps / reads_per_row, thinned into kinds by obs_share.
  const double total_rate = rate_rps / (1.0 - obs_share);
  double t = 0.0;
  int64_t issued = 0;
  while (issued < forecasts) {
    t += rng.Exponential(1.0 / total_rate);
    const int64_t due = static_cast<int64_t>(t * 1e9);
    const int64_t tile = rng.Below(spec.tiles);
    const int conn = static_cast<int>(tile % conns);
    const bool obs = obs_share > 0.0 && rng.Uniform() < obs_share;
    if (obs || spec.reads_per_row == 0.0) {
      events.push_back(Event{Event::Kind::kObs, due, tile, conn,
                             (*next_obs)[static_cast<size_t>(tile)]++});
    }
    if (!obs) {
      events.push_back(Event{Event::Kind::kForecast, due, tile, conn,
                             (*next_obs)[static_cast<size_t>(tile)] - 1});
      ++issued;
    }
  }
  if (spec.reload_every_s > 0.0 && !events.empty()) {
    const double span = static_cast<double>(events.back().due_ns) * 1e-9;
    const double period = std::min(spec.reload_every_s, span);
    for (double r = 0.5 * period; r < span; r += period) {
      const int64_t ordinal = (*next_reload)++;
      events.push_back(Event{Event::Kind::kReload,
                             static_cast<int64_t>(r * 1e9), -1,
                             static_cast<int>(ordinal % conns), ordinal});
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) {
                       return a.due_ns < b.due_ns;
                     });
  }
  return events;
}

namespace {

/// Reads "key=<int>" at *p, advancing past it.
bool ReadIntField(const char*& p, const char* key, int64_t* out) {
  const size_t len = std::strlen(key);
  while (*p == ' ') ++p;
  if (std::strncmp(p, key, len) != 0) return false;
  p += len;
  char* end = nullptr;
  *out = std::strtoll(p, &end, 10);
  if (end == p) return false;
  p = end;
  return true;
}

}  // namespace

std::optional<ForecastLine> ParseForecastLine(const std::string& line,
                                              int64_t features) {
  static const char kHead[] = "forecast ok=1 degraded=0";
  if (line.compare(0, sizeof(kHead) - 1, kHead) != 0) return std::nullopt;
  const char* p = line.c_str() + sizeof(kHead) - 1;
  ForecastLine out;
  if (!ReadIntField(p, "n=", &out.n) || !ReadIntField(p, "u=", &out.u) ||
      out.n <= 0 || out.u <= 0) {
    return std::nullopt;
  }
  const int64_t count = out.n * out.u * features;
  out.values.reserve(static_cast<size_t>(count));
  for (;;) {
    while (*p == ' ') ++p;
    if (*p == '\0') break;
    char* end = nullptr;
    const float v = std::strtof(p, &end);
    if (end == p || (*end != ' ' && *end != '\0')) return std::nullopt;
    out.values.push_back(v);
    p = end;
  }
  if (static_cast<int64_t>(out.values.size()) != count) return std::nullopt;
  return out;
}

std::string FormatObsLine(const std::string& profile, int64_t tile,
                          const float* values, int64_t count) {
  std::string line = profile + " obs " + std::to_string(tile);
  char buf[32];
  for (int64_t i = 0; i < count; ++i) {
    std::snprintf(buf, sizeof(buf), " %.9g", static_cast<double>(values[i]));
    line += buf;
  }
  return line;
}

float FlowValue(uint64_t seed, int64_t tile, int64_t sensor, int64_t step) {
  constexpr double kStepsPerDay = 288.0;
  const double phase = static_cast<double>((tile * 53 + sensor * 7) % 288);
  const double hour =
      std::fmod((static_cast<double>(step) + phase) / kStepsPerDay, 1.0) *
      24.0;
  const double level = 60.0 + 15.0 * static_cast<double>(sensor % 5);
  const double peak = 180.0 * std::exp(-0.5 * std::pow((hour - 8.0) / 1.3, 2)) +
                      140.0 * std::exp(-0.5 * std::pow((hour - 17.5) / 1.6, 2));
  SplitMix noise(SubSeed(seed, static_cast<uint64_t>(tile) << 20 |
                                   static_cast<uint64_t>(sensor),
                         static_cast<uint64_t>(step)));
  const double v = level + peak + 16.0 * (noise.Uniform() - 0.5);
  // One decimal keeps the obs lines short; the float is what gets sent.
  return static_cast<float>(std::round(v * 10.0) / 10.0);
}

}  // namespace perfbench
