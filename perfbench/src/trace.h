// In-memory spans of the traced run. Spans are recorded by the benchmark
// around its calls into each layer's public functions (nothing in the
// program is instrumented), kept in per-thread buffers, and written out
// when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Layer boundaries a span can mark.
enum class SpanName : uint8_t {
  kRequest,           // one client line, due time to answer
  kHandleObs,         // FleetLineSession::Handle on an obs line
  kAdmit,             // AdmissionController::TryAdmit
  kSubmit,            // ModelProfile::ForecastTile (enqueue)
  kWait,              // future::get on the forecast
  kQueueWait,         // Response::queue_micros, inside kWait
  kCompute,           // Response::compute_micros, inside kWait
  kRecord,            // FleetNode::RecordForecast
  kFormat,            // serve::FormatForecastResponse
  kReload,            // ModelProfile::Reload
  kCount,
};

const char* SpanLabel(SpanName name);

struct Span {
  int64_t request = 0;
  int32_t id = 0;
  /// Span that caused this one; -1 for a request root.
  int32_t parent = -1;
  SpanName name = SpanName::kRequest;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's span buffer. Ids are unique per buffer; a request's spans
/// all live in the buffer of the thread that replayed it.
class SpanBuffer {
 public:
  explicit SpanBuffer(size_t reserve) { spans_.reserve(reserve); }
  /// Appends a span and returns its id.
  int32_t Add(int64_t request, int32_t parent, SpanName name,
              int64_t start_ns, int64_t end_ns);
  /// Closes span `id` (opened with a placeholder end so its children can
  /// name it as their parent).
  void SetEnd(int32_t id, int64_t end_ns) {
    spans_[static_cast<size_t>(id)].end_ns = end_ns;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover, in microseconds; keyed by span name.
std::map<SpanName, std::vector<double>> SelfTimesUs(
    const std::vector<SpanBuffer>& buffers);

/// Durations (microseconds) of every span with `name`.
std::vector<double> DurationsUs(const std::vector<SpanBuffer>& buffers,
                                SpanName name);

/// Writes all spans as tab-separated lines (request, id, parent, name,
/// start_ns, end_ns) to `path`.
void WriteSpans(const std::vector<SpanBuffer>& buffers,
                const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
