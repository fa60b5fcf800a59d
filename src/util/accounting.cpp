#include "util/accounting.hpp"

#include <algorithm>
#include <sstream>

namespace dp {

void ResourceMeter::merge(const ResourceMeter& other) noexcept {
  const std::uint64_t peak = std::max(c_[kPeakEdges], other.c_[kPeakEdges]);
  const std::uint64_t peak_resident =
      std::max(c_[kPeakResidentEdges], other.c_[kPeakResidentEdges]);
  for (std::size_t i = 0; i < kCounterCount; ++i) c_[i] += other.c_[i];
  c_[kPeakEdges] = std::max(peak, c_[kStoredEdges]);
  c_[kPeakResidentEdges] = std::max(peak_resident, c_[kResidentEdges]);
}

std::string ResourceMeter::summary() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    os << (i > 0 ? " " : "") << kCounterNames[i] << '=' << c_[i];
  }
  return os.str();
}

}  // namespace dp
