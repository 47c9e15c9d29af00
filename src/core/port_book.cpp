#include "core/port_book.hpp"

namespace gridbw {

namespace {

/// Smallest dead prefix worth folding (see the header's GC policy).
constexpr std::size_t kMinRetireBatch = 64;

}  // namespace

PortBook::PortBook(Bandwidth capacity) : limit_{approx_le_limit(capacity)} {}

std::size_t PortBook::collect(TimePoint horizon, obs::Observer* observer) {
  const std::size_t retirable = profile_.retirable_before(horizon);
  if (retirable < kMinRetireBatch || retirable * 2 < profile_.breakpoint_count()) {
    return 0;
  }
  const std::size_t retired = profile_.retire_before(horizon);
  if (observer != nullptr && retired > 0) {
    observer->count(obs::Counter::kProfileCompactions);
    observer->count(obs::Counter::kBreakpointsRetired, retired);
  }
  return retired;
}

}  // namespace gridbw
