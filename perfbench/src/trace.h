// In-memory spans recorded around calls into each layer, from the
// benchmark's own code (no instrumentation inside the library).
//
// A span has a name, start and end, a parent and an op id. A layer's time
// is its self time: its duration minus the durations of its child spans.
// Children of one span never overlap (every traced replay is one thread),
// so that equals the part of the span its children cover. A child may
// also be recorded out of line: the certificate and side-vertex steps of a
// GLOBAL-CUT are re-run on the same input just before the call and
// attributed to the call's span, so the call's self time is the probe and
// sweep work alone.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;  // index into the recorder's spans, -1 for a root
  std::uint32_t op = 0;
};

/// Not thread-safe: one recorder per thread.
class SpanRecorder {
 public:
  /// Opens a span under the innermost open span. Returns its id.
  int Begin(const char* name, std::uint32_t op);
  void End(int id);
  /// Adds a finished span under `parent` (-1 = root) without opening it.
  int Record(const char* name, std::uint32_t op, int parent,
             Clock::time_point start, Clock::time_point end);
  /// Innermost open span, or -1.
  int Current() const { return open_.empty() ? -1 : open_.back(); }

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time in milliseconds summed per span name.
  std::map<std::string, double> SelfMillisByName() const;
  /// Span count per name.
  std::map<std::string, std::size_t> CountByName() const;
  /// Writes one tab-separated line per span (name, op, parent, start and
  /// end in microseconds from the first span).
  void WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span for the enclosing scope; a no-op when `recorder` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::uint32_t op)
      : recorder_(recorder),
        id_(recorder == nullptr ? -1 : recorder->Begin(name, op)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
