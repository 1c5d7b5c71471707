#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perfbench {
namespace {

// Every significant digit; throws on NaN or infinity.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric value is not a finite number");
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::optional<double> Percentile(std::vector<double> samples, double q) {
  if (samples.empty() || !(q > 0.0 && q < 1.0)) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  if (samples.size() - 1 - hi < kMinSamplesBeyond) return std::nullopt;
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double SmallMedian(std::vector<double> samples) {
  if (samples.empty()) throw std::runtime_error("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2;
}

std::string JoinSeconds(const std::vector<double>& seconds) {
  std::string joined;
  for (const double s : seconds) {
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "%s%.3f", joined.empty() ? "" : " ",
                  s);
    joined += buffer;
  }
  return joined;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = {name, value, unit, samples};
      return;
    }
  }
  metrics_.push_back({name, value, unit, samples});
}

void Report::AddPercentile(const std::string& name,
                           const std::vector<double>& samples, double q,
                           const std::string& unit) {
  const std::optional<double> value = Percentile(samples, q);
  if (!value.has_value()) {
    throw std::runtime_error(
        name + ": refused, " + std::to_string(samples.size()) +
        " samples leave fewer than " + std::to_string(kMinSamplesBeyond) +
        " beyond the percentile");
  }
  Add(name, *value, unit, samples.size());
}

void Report::Stamp(const std::string& key, const std::string& value) {
  stamps_[key] = value;
}

bool Report::Has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

std::string Report::Table() const {
  std::ostringstream out;
  for (const auto& [key, value] : stamps_) {
    out << "# " << key << ": " << value << "\n";
  }
  for (const Metric& m : metrics_) {
    char value[32];
    std::snprintf(value, sizeof(value), "%.6g", m.value);
    out << "  " << m.name;
    for (std::size_t pad = m.name.size(); pad < 34; ++pad) out << ' ';
    out << value << " " << m.unit;
    if (m.samples != 0) out << "  (n=" << m.samples << ")";
    out << "\n";
  }
  out << "  fail_share                        "
      << (attempted == 0 ? 1.0
                         : static_cast<double>(failed) /
                               static_cast<double>(attempted))
      << " ratio  (" << failed << " of " << attempted << " ops)\n";
  return out.str();
}

std::string Report::ResultJson(const std::vector<std::string>& names) const {
  std::string json = "{\"correct\": ";
  json += Correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Metric* found = nullptr;
    for (const Metric& m : metrics_) {
      if (m.name == names[i]) found = &m;
    }
    if (found == nullptr) {
      throw std::runtime_error("metric not measured: " + names[i]);
    }
    if (i != 0) json += ", ";
    json += "\"" + found->name + "\": {\"value\": " +
            JsonNumber(found->value) + ", \"unit\": \"" + found->unit + "\"}";
  }
  json += "}}";
  return json;
}

}  // namespace perfbench
