// Unit tests of the benchmark's own pure parts (no server, no model).
#include <cmath>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core.h"

namespace perfbench {
namespace {

std::vector<Event> Schedule(const ServingSpec& spec, double rate,
                            int64_t forecasts, uint64_t seed) {
  std::vector<int64_t> next_obs(static_cast<size_t>(spec.tiles), 12);
  int64_t next_reload = 0;
  return MakeSchedule(spec, rate, forecasts, 4, seed, &next_obs,
                      &next_reload);
}

bool SameEvents(const std::vector<Event>& a, const std::vector<Event>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].due_ns != b[i].due_ns ||
        a[i].tile != b[i].tile || a[i].conn != b[i].conn ||
        a[i].index != b[i].index) {
      return false;
    }
  }
  return true;
}

TEST(Schedule, IdenticalForAGivenSeed) {
  for (const ServingSpec* spec : {&DashboardSmall(), &Pems08City()}) {
    const auto a = Schedule(*spec, spec->light_rps, 1000, 42);
    const auto b = Schedule(*spec, spec->light_rps, 1000, 42);
    const auto c = Schedule(*spec, spec->light_rps, 1000, 43);
    EXPECT_TRUE(SameEvents(a, b)) << spec->name;
    EXPECT_FALSE(SameEvents(a, c)) << spec->name;
  }
}

TEST(Schedule, DashboardMixesReadsRowsAndReloads) {
  const ServingSpec& spec = DashboardSmall();
  const auto events = Schedule(spec, spec.light_rps, 3000, 7);
  std::map<Event::Kind, int64_t> count;
  for (const Event& e : events) ++count[e.kind];
  EXPECT_EQ(count[Event::Kind::kForecast], 3000);
  // About three reads per observation row.
  const double ratio = static_cast<double>(count[Event::Kind::kForecast]) /
                       static_cast<double>(count[Event::Kind::kObs]);
  EXPECT_GT(ratio, 2.6);
  EXPECT_LT(ratio, 3.4);
  EXPECT_GE(count[Event::Kind::kReload], 1);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].due_ns, events[i].due_ns);
  }
  for (const Event& e : events) {
    if (e.kind != Event::Kind::kReload) EXPECT_EQ(e.conn, e.tile % 4);
  }
}

TEST(Schedule, Pems08ForecastFollowsExactlyOneNewRow) {
  const ServingSpec& spec = Pems08City();
  const auto events = Schedule(spec, spec.light_rps, 1000, 9);
  std::vector<int64_t> last(static_cast<size_t>(spec.tiles), 11);
  ASSERT_EQ(events.size(), 2000u);
  for (size_t i = 0; i < events.size(); i += 2) {
    const Event& obs = events[i];
    const Event& fc = events[i + 1];
    ASSERT_EQ(obs.kind, Event::Kind::kObs);
    ASSERT_EQ(fc.kind, Event::Kind::kForecast);
    EXPECT_EQ(obs.tile, fc.tile);
    EXPECT_EQ(obs.index, last[static_cast<size_t>(obs.tile)] + 1);
    EXPECT_EQ(fc.index, obs.index);
    last[static_cast<size_t>(obs.tile)] = obs.index;
  }
}

TEST(Schedule, OfferedRateMatches) {
  const ServingSpec& spec = Pems08City();
  const auto events = Schedule(spec, 200.0, 20000, 3);
  const double span_s = static_cast<double>(events.back().due_ns) * 1e-9;
  EXPECT_NEAR(20000 / span_s, 200.0, 200.0 * 0.03);
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(SamplesBeyond(1000, 9900), 10);
  EXPECT_TRUE(PercentileSupported(1000, 9900));
  EXPECT_FALSE(PercentileSupported(999, 9900));
  EXPECT_TRUE(PercentileSupported(20, 5000));
  EXPECT_FALSE(PercentileSupported(19, 5000));
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  EXPECT_FALSE(Percentile(v, 9900).has_value());
  v.push_back(1000);
  // Nearest rank ceil(0.99 * 1000) = 990.
  EXPECT_EQ(Percentile(v, 9900).value(), 990.0);
  EXPECT_EQ(Percentile(v, 5000).value(), 500.0);
}

TEST(Percentile, FailuresCountAsMisses) {
  std::vector<double> v(1000, 1.0);
  for (int i = 0; i < 11; ++i) v[static_cast<size_t>(i)] = INFINITY;
  EXPECT_TRUE(std::isinf(Percentile(v, 9900).value()));
}

TEST(Wire, ForecastLineRoundTrips) {
  const std::vector<float> values = {1.5f, -0.0f, 123.456789f, 3.4e-20f,
                                     7.0f, 1e30f};
  std::string line = "forecast ok=1 degraded=0 n=3 u=2";
  char buf[32];
  for (float v : values) {
    std::snprintf(buf, sizeof(buf), " %.9g", static_cast<double>(v));
    line += buf;
  }
  const auto parsed = ParseForecastLine(line, 1);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->n, 3);
  EXPECT_EQ(parsed->u, 2);
  ASSERT_EQ(parsed->values.size(), values.size());
  EXPECT_EQ(std::memcmp(parsed->values.data(), values.data(),
                        sizeof(float) * values.size()),
            0);
}

TEST(Wire, RejectsAnythingButACompleteForecast) {
  EXPECT_FALSE(ParseForecastLine("forecast ok=0 degraded=1 err=shed", 1));
  EXPECT_FALSE(ParseForecastLine("throttled tenant=a profile=b", 1));
  EXPECT_FALSE(ParseForecastLine("forecast ok=1 degraded=0 n=1 u=2 1", 1));
  EXPECT_FALSE(ParseForecastLine("forecast ok=1 degraded=0 n=1 u=1 x", 1));
  EXPECT_FALSE(ParseForecastLine("forecast ok=1 degraded=1 n=1 u=1 1", 1));
}

TEST(Wire, ObsLineCarriesExactFloats) {
  const float row[3] = {FlowValue(5, 2, 0, 40), FlowValue(5, 2, 1, 40),
                        FlowValue(5, 2, 2, 40)};
  const std::string line = FormatObsLine("city", 2, row, 3);
  ASSERT_EQ(line.rfind("city obs 2 ", 0), 0u);
  const auto parsed = ParseForecastLine(
      "forecast ok=1 degraded=0 n=3 u=1" + line.substr(10), 1);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(std::memcmp(parsed->values.data(), row, sizeof(row)), 0);
}

/// Synthetic server: p99 latency explodes as the offered rate nears the
/// capacity `mu` (M/M/1-like), and the limit is met below `limit_rate`.
struct SyntheticCurve {
  double mu = 1000.0;
  double service_ms = 1.0;
  double p99(double rate) const {
    return rate >= mu ? INFINITY : service_ms * 4.6 / (1.0 - rate / mu);
  }
};

TEST(Ladder, FindsTheHighestPassingStep) {
  const Ladder ladder{100.0, 1.04, 0, 80};
  const SyntheticCurve curve;
  const double limit_ms = 10.0;
  // Analytic answer: p99 <= limit  <=>  rate <= mu * (1 - 4.6 / limit).
  const double bound = curve.mu * (1.0 - curve.service_ms * 4.6 / limit_ms);
  int expected = ladder.lo - 1;
  for (int i = ladder.lo; i <= ladder.hi; ++i) {
    if (ladder.Rate(i) <= bound) expected = i;
  }
  for (int start : {0, 20, expected, expected + 1, 60, 80}) {
    int probes = 0;
    const std::optional<int> found =
        FindMaxPassing(ladder, start, 100, [&](int i) {
          ++probes;
          return curve.p99(ladder.Rate(i)) <= limit_ms;
        });
    EXPECT_EQ(found, expected) << "start " << start;
    // Gallop plus bisection: logarithmic in the distance to the answer.
    const int distance = std::abs(start - expected);
    const int log_distance =
        static_cast<int>(std::ceil(std::log2(distance + 1)));
    EXPECT_LE(probes, 2 * log_distance + 2) << "start " << start;
  }
  EXPECT_LE(ladder.Rate(expected + 1) / ladder.Rate(expected), 1.05);
}

TEST(Ladder, NoPassingStep) {
  const Ladder ladder{100.0, 1.04, 0, 10};
  EXPECT_EQ(FindMaxPassing(ladder, 5, 100, [](int) { return false; }),
            std::nullopt);
  EXPECT_EQ(FindMaxPassing(ladder, 5, 100, [](int) { return true; }), 10);
}

TEST(Ladder, ReachesFarFromTheStartWithinTheCap) {
  // Capacity halved (or doubled) relative to the start rung: 18 rungs away
  // on a 4 % ladder. Twelve probes still find the exact rung.
  const Ladder ladder{100.0, 1.04, 0, 80};
  for (const int expected : {22, 58}) {
    int probes = 0;
    EXPECT_EQ(FindMaxPassing(ladder, 40, 12, [&](int i) {
                ++probes;
                return i <= expected;
              }),
              expected);
    EXPECT_LE(probes, 12);
  }
}

TEST(Ladder, CapNeverReportsAnUnprobedRung) {
  const Ladder ladder{100.0, 1.04, 0, 80};
  std::vector<int> probed;
  // Nothing passes: the walk runs out of probes and reports no rate.
  EXPECT_EQ(FindMaxPassing(ladder, 40, 3, [&](int i) {
              probed.push_back(i);
              return false;
            }),
            std::nullopt);
  EXPECT_EQ(probed, (std::vector<int>{40, 39, 37}));
  // Everything passes: the highest rung probed before the cap.
  probed.clear();
  EXPECT_EQ(FindMaxPassing(ladder, 40, 4, [&](int i) {
              probed.push_back(i);
              return true;
            }),
            47);
  EXPECT_EQ(probed, (std::vector<int>{40, 41, 43, 47}));
}

}  // namespace
}  // namespace perfbench
