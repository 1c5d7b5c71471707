#include "kvcc/options.h"

#include <stdexcept>

namespace kvcc {

KvccOptions KvccOptions::FromVariantName(const std::string& name) {
  if (name == "VCCE") return Vcce();
  if (name == "VCCE-N") return VcceN();
  if (name == "VCCE-G") return VcceG();
  if (name == "VCCE*") return VcceStar();
  throw std::invalid_argument("unknown k-VCC algorithm variant: " + name);
}

}  // namespace kvcc
