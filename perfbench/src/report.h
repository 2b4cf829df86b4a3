// The result object every workload fills and the JSON line it prints.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Wall-clock seconds since an arbitrary epoch (steady clock).
double NowSeconds();
/// The same clock in nanoseconds.
int64_t NowNs();

/// Counts and metrics of one benchmark invocation.
struct Report {
  /// False when any output failed its check.
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit);
  /// One JSON object: correct, attempted, failed, metrics.
  std::string Json() const;
};

/// Directory for one run's files (checkpoints, config, logs, spans) under
/// the current directory; removed on destruction except for kept files.
class WorkDir {
 public:
  explicit WorkDir(const std::string& label);
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Peak resident set (VmHWM) of process `pid` ("self" for this one), MiB;
/// 0 when it cannot be read.
double PeakRssMb(const std::string& pid);

/// Share of all CPU time that the hypervisor gave to other guests (steal,
/// from /proc/stat) since construction. A shared host steals in bursts
/// that stall every thread for milliseconds, whatever the program does;
/// each run prints its share so noisy runs can be told apart.
class StealMeter {
 public:
  StealMeter();
  double Share() const;

 private:
  uint64_t steal_ = 0;
  uint64_t total_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
