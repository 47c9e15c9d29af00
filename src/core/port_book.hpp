// gridbw/core/port_book.hpp
//
// One port's exact reservation state, the kernel of both time-aware books
// (NetworkLedger per port, AdmissionService per port shard):
//  * the TimelineProfile, written with `add_in_place` so a probe-then-commit
//    loop never pays a buffered merge;
//  * the one fit predicate, "peak over [t0, t1) + bw <= capacity" under
//    approx_le's bandwidth tolerance;
//  * the ResidualIndex upkeep (DESIGN.md §5g): scans charge their window
//    width as debt; the index is rebuilt once that matches a build's O(n);
//  * the GC policy (DESIGN.md §5h): fold the dead prefix only when at least
//    kMinRetireBatch breakpoints retire and they are at least half the
//    residents. The caller computes the watermark (safe-horizon rule of
//    TimelineProfile::retire_before).
// `fits` mutates the index and its debt although it is const: a PortBook has
// one owner at a time (the service guards each with its shard mutex).

#pragma once

#include <cstddef>

#include "core/residual_index.hpp"
#include "core/timeline_profile.hpp"
#include "obs/observer.hpp"
#include "util/quantity.hpp"

namespace gridbw {

class PortBook {
 public:
  explicit PortBook(Bandwidth capacity);

  /// Would `add` more over [t0, t1) stay within capacity? Decided by the
  /// index when it can, else by the scan, which pays toward a rebuild.
  /// Bumps the kResidualIndex* counters on a non-null observer.
  [[nodiscard]] bool fits(TimePoint t0, TimePoint t1, Bandwidth add,
                          obs::Observer* observer) const;

  /// The same decision from the profile scan alone: no index, no counters.
  [[nodiscard]] bool fits_by_scan(TimePoint t0, TimePoint t1, Bandwidth add) const {
    return admits(profile_.max_over(t0, t1) + add.to_bytes_per_second());
  }

  /// Peak load over [t0, t1), from the index only while it is exact.
  [[nodiscard]] double peak_over(TimePoint t0, TimePoint t1) const {
    return index_.exact() ? index_.peak_over(t0, t1) : profile_.max_over(t0, t1);
  }

  /// Commits `bw` over [t0, t1) in place; does not re-check `fits`.
  void commit(TimePoint t0, TimePoint t1, Bandwidth bw) {
    apply(t0, t1, bw.to_bytes_per_second());
  }

  /// Reverses a `commit` with identical arguments.
  void release(TimePoint t0, TimePoint t1, Bandwidth bw) {
    apply(t0, t1, -bw.to_bytes_per_second());
  }

  /// Folds the breakpoints before `horizon` when the GC policy says it pays;
  /// returns how many retired. A fold invalidates the index and bumps
  /// kProfileCompactions / kBreakpointsRetired on a non-null observer.
  std::size_t collect(TimePoint horizon, obs::Observer* observer);

  [[nodiscard]] const TimelineProfile& profile() const { return profile_; }
  [[nodiscard]] Bandwidth capacity() const { return capacity_; }

 private:
  [[nodiscard]] bool admits(double load) const { return load <= limit_; }
  void apply(TimePoint t0, TimePoint t1, double delta);

  TimelineProfile profile_;
  Bandwidth capacity_;
  double limit_;  // approx_le_limit(capacity_)
  mutable ResidualIndex index_;
  mutable double scan_debt_{0.0};
};

}  // namespace gridbw
