#include "trace.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace perfbench {

const char* SpanLabel(SpanName name) {
  switch (name) {
    case SpanName::kRequest: return "request";
    case SpanName::kHandleObs: return "protocol.handle_obs";
    case SpanName::kAdmit: return "fleet.admit";
    case SpanName::kSubmit: return "fleet.submit";
    case SpanName::kWait: return "serve.wait";
    case SpanName::kQueueWait: return "queue.wait";
    case SpanName::kCompute: return "server.compute";
    case SpanName::kRecord: return "fleet.record";
    case SpanName::kFormat: return "protocol.format";
    case SpanName::kReload: return "fleet.reload";
    case SpanName::kCount: break;
  }
  return "?";
}

int32_t SpanBuffer::Add(int64_t request, int32_t parent, SpanName name,
                        int64_t start_ns, int64_t end_ns) {
  const int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back(Span{request, id, parent, name, start_ns, end_ns});
  return id;
}

std::map<SpanName, std::vector<double>> SelfTimesUs(
    const std::vector<SpanBuffer>& buffers) {
  std::map<SpanName, std::vector<double>> out;
  for (const SpanBuffer& buffer : buffers) {
    const std::vector<Span>& spans = buffer.spans();
    std::unordered_map<int32_t, std::vector<const Span*>> children;
    for (const Span& s : spans) {
      if (s.parent >= 0) children[s.parent].push_back(&s);
    }
    for (const Span& s : spans) {
      int64_t covered = 0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        std::vector<std::pair<int64_t, int64_t>> iv;
        for (const Span* c : it->second) {
          const int64_t a = std::max(c->start_ns, s.start_ns);
          const int64_t b = std::min(c->end_ns, s.end_ns);
          if (b > a) iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        int64_t run_a = -1, run_b = -1;
        for (const auto& [a, b] : iv) {
          if (a > run_b) {
            if (run_b > run_a) covered += run_b - run_a;
            run_a = a;
            run_b = b;
          } else {
            run_b = std::max(run_b, b);
          }
        }
        if (run_b > run_a) covered += run_b - run_a;
      }
      out[s.name].push_back(
          static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-3);
    }
  }
  return out;
}

std::vector<double> DurationsUs(const std::vector<SpanBuffer>& buffers,
                                SpanName name) {
  std::vector<double> out;
  for (const SpanBuffer& buffer : buffers) {
    for (const Span& s : buffer.spans()) {
      if (s.name == name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
      }
    }
  }
  return out;
}

void WriteSpans(const std::vector<SpanBuffer>& buffers,
                const std::string& path) {
  std::ofstream out(path);
  out << "request\tid\tparent\tname\tstart_ns\tend_ns\n";
  for (size_t b = 0; b < buffers.size(); ++b) {
    for (const Span& s : buffers[b].spans()) {
      out << s.request << '\t' << b << ':' << s.id << '\t';
      if (s.parent >= 0) {
        out << b << ':' << s.parent;
      } else {
        out << '-';
      }
      out << '\t' << SpanLabel(s.name) << '\t' << s.start_ns << '\t'
          << s.end_ns << '\n';
    }
  }
}

}  // namespace perfbench
