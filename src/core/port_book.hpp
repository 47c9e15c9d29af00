// gridbw/core/port_book.hpp
//
// One port's exact reservation state, the kernel of both time-aware books
// (NetworkLedger per port, AdmissionService per port shard):
//  * the TimelineProfile, written with `add_in_place` so a probe-then-commit
//    loop never pays a buffered merge;
//  * the one fit predicate, "peak over [t0, t1) + bw <= capacity" under
//    approx_le's bandwidth tolerance, decided by a scan of the flat profile;
//  * the GC policy (DESIGN.md §5h): fold the dead prefix only when at least
//    kMinRetireBatch breakpoints retire and they are at least half the
//    residents. The caller computes the watermark (safe-horizon rule of
//    TimelineProfile::retire_before).
// `fits` is const but may run the profile's lazy merge: a PortBook has one
// owner at a time (the service guards each with its shard mutex).

#pragma once

#include <cstddef>

#include "core/timeline_profile.hpp"
#include "obs/observer.hpp"
#include "util/quantity.hpp"

namespace gridbw {

class PortBook {
 public:
  explicit PortBook(Bandwidth capacity);

  /// Would `add` more over [t0, t1) stay within capacity?
  // gridbw:hot
  [[nodiscard]] bool fits(TimePoint t0, TimePoint t1, Bandwidth add) const {
    return admits(profile_.max_over(t0, t1) + add.to_bytes_per_second());
  }

  /// Commits `bw` over [t0, t1) in place; does not re-check `fits`.
  void commit(TimePoint t0, TimePoint t1, Bandwidth bw) {
    profile_.add_in_place(t0, t1, bw.to_bytes_per_second());
  }

  /// Reverses a `commit` with identical arguments.
  void release(TimePoint t0, TimePoint t1, Bandwidth bw) {
    profile_.add_in_place(t0, t1, -bw.to_bytes_per_second());
  }

  /// Folds the breakpoints before `horizon` when the GC policy says it pays;
  /// returns how many retired. A fold bumps kProfileCompactions /
  /// kBreakpointsRetired on a non-null observer.
  std::size_t collect(TimePoint horizon, obs::Observer* observer);

  [[nodiscard]] const TimelineProfile& profile() const { return profile_; }

 private:
  [[nodiscard]] bool admits(double load) const { return load <= limit_; }

  TimelineProfile profile_;
  double limit_;  // approx_le_limit of the port capacity
};

}  // namespace gridbw
