#include "report.h"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

std::string Report::Json() const {
  std::ostringstream oss;
  oss << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    // Non-finite values are not JSON; they only arise from a broken run,
    // which is already marked failed.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    oss << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << buf << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  oss << "}}";
  return oss.str();
}

WorkDir::WorkDir(const std::string& label) {
  path_ = (std::filesystem::current_path() / ".bench_work" /
           (label + "-" + std::to_string(getpid())))
              .string();
  std::filesystem::create_directories(path_);
}

WorkDir::~WorkDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// (steal, total) jiffies of the aggregate "cpu" line of /proc/stat.
std::pair<uint64_t, uint64_t> CpuTimes() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  uint64_t total = 0, steal = 0, v = 0;
  for (int field = 0; field < 10 && stat >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

}  // namespace

StealMeter::StealMeter() {
  const auto [steal, total] = CpuTimes();
  steal_ = steal;
  total_ = total;
}

double StealMeter::Share() const {
  const auto [steal, total] = CpuTimes();
  return total > total_ ? static_cast<double>(steal - steal_) /
                              static_cast<double>(total - total_)
                        : 0.0;
}

double PeakRssMb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 16, '\n');
  }
  return 0.0;
}

}  // namespace perfbench
