#include "trace.h"

#include <fstream>
#include <stdexcept>

namespace perfbench {

int SpanRecorder::Begin(const char* name, std::uint32_t op) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, Clock::now(), {}, Current(), op});
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span closed out of order");
  }
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
  open_.pop_back();
}

int SpanRecorder::Record(const char* name, std::uint32_t op, int parent,
                         Clock::time_point start, Clock::time_point end) {
  spans_.push_back({name, start, end, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> SpanRecorder::SelfMillisByName() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = MillisBetween(spans_[i].start, spans_[i].end);
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    if (parent >= 0) {
      self[static_cast<std::size_t>(parent)] -=
          MillisBetween(spans_[i].start, spans_[i].end);
    }
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += self[i];
  }
  return by_name;
}

std::map<std::string, std::size_t> SpanRecorder::CountByName() const {
  std::map<std::string, std::size_t> counts;
  for (const Span& span : spans_) ++counts[span.name];
  return counts;
}

void SpanRecorder::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  if (spans_.empty()) return;
  const Clock::time_point origin = spans_.front().start;
  const auto micros = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - origin)
        .count();
  };
  out << "name\top\tparent\tstart_us\tend_us\n";
  for (const Span& span : spans_) {
    out << span.name << '\t' << span.op << '\t' << span.parent << '\t'
        << micros(span.start) << '\t' << micros(span.end) << '\n';
  }
}

}  // namespace perfbench
