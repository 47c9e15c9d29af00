#include "core/port_book.hpp"

#include <algorithm>
#include <cmath>
#include <span>

namespace gridbw {

namespace {

/// Ports with fewer breakpoints never build an index: the flat scan over a
/// handful of contiguous doubles beats any tree traversal.
constexpr std::size_t kMinIndexBreakpoints = 64;

/// Smallest dead prefix worth folding (see the header's GC policy).
constexpr std::size_t kMinRetireBatch = 64;

}  // namespace

PortBook::PortBook(Bandwidth capacity)
    : capacity_{capacity}, limit_{approx_le_limit(capacity)} {}

// gridbw:hot
bool PortBook::fits(TimePoint t0, TimePoint t1, Bandwidth add,
                    obs::Observer* observer) const {
  const double extra = add.to_bytes_per_second();
  if (index_.fresh()) {
    const double lhs = index_.peak_over(t0, t1) + extra;
    const double guard = index_.error_bound();
    if (guard == 0.0 || std::fabs(lhs - limit_) > guard) {
      if (observer != nullptr) observer->count(obs::Counter::kResidualIndexProbes);
      return admits(lhs);
    }
    // Inside a patched tree's guard band only the exact scan decides.
  }
  const double peak = profile_.max_over(t0, t1);
  const std::span<const double> times = profile_.merged_times_view();
  const auto first = std::upper_bound(times.begin(), times.end(), t0.to_seconds());
  const auto last = std::lower_bound(times.begin(), times.end(), t1.to_seconds());
  scan_debt_ += static_cast<double>(last - first) + 1.0;
  if (observer != nullptr) observer->count(obs::Counter::kResidualIndexFallbacks);
  if (times.size() >= kMinIndexBreakpoints &&
      scan_debt_ >= static_cast<double>(times.size())) {
    index_.rebuild(profile_);
    scan_debt_ = 0.0;
    if (observer != nullptr) observer->count(obs::Counter::kResidualIndexRebuilds);
  }
  return admits(peak + extra);
}

// gridbw:hot
void PortBook::apply(TimePoint t0, TimePoint t1, double delta) {
  profile_.add_in_place(t0, t1, delta);
  // A fresh index follows along; an endpoint its snapshot lacks makes it go
  // stale, and `fits` scans until the debt pays for a rebuild.
  (void)index_.apply(t0, t1, delta);
}

std::size_t PortBook::collect(TimePoint horizon, obs::Observer* observer) {
  const std::size_t retirable = profile_.retirable_before(horizon);
  if (retirable < kMinRetireBatch || retirable * 2 < profile_.breakpoint_count()) {
    return 0;
  }
  const std::size_t retired = profile_.retire_before(horizon);
  index_.invalidate();  // its snapshot no longer matches the folded arrays
  scan_debt_ = 0.0;
  if (observer != nullptr && retired > 0) {
    observer->count(obs::Counter::kProfileCompactions);
    observer->count(obs::Counter::kBreakpointsRetired, retired);
  }
  return retired;
}

}  // namespace gridbw
