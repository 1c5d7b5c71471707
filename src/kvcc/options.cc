#include "kvcc/options.h"

#include <stdexcept>
#include <utility>

namespace kvcc {

namespace {

constexpr std::pair<JobPriority, const char*> kPriorityNames[] = {
    {JobPriority::kInteractive, "interactive"},
    {JobPriority::kNormal, "normal"},
    {JobPriority::kBulk, "bulk"},
};

}  // namespace

const char* JobPriorityName(JobPriority priority) {
  for (const auto& [value, name] : kPriorityNames) {
    if (value == priority) return name;
  }
  return "normal";
}

std::optional<JobPriority> JobPriorityFromName(const std::string& name) {
  for (const auto& [value, spelling] : kPriorityNames) {
    if (name == spelling) return value;
  }
  return std::nullopt;
}

KvccOptions KvccOptions::FromVariantName(const std::string& name) {
  if (name == "VCCE") return Vcce();
  if (name == "VCCE-N") return VcceN();
  if (name == "VCCE-G") return VcceG();
  if (name == "VCCE*") return VcceStar();
  throw std::invalid_argument("unknown k-VCC algorithm variant: " + name);
}

}  // namespace kvcc
