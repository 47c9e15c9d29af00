// gridbw/core/timeline_profile.hpp
//
// Flat, cache-friendly drop-in for StepFunction: the same piecewise-constant
// right-continuous port-load profile, stored as sorted breakpoint/delta
// vectors (SoA) with lazily rebuilt prefix-sum and prefix-max caches instead
// of a std::map of deltas.
//
//  * Two write entry points, one per call pattern:
//    - `add` is O(1): it appends to a pending buffer that the next query
//      merges (stable sort + one linear merge + a full cache rebuild), so
//      bulk builders (validator, dataplane replay, Gantt renderer) pay
//      O(n log n) once.
//    - `add_in_place` edits the merged arrays now: a binary search per
//      endpoint, `+=` onto an existing instant or one inserted breakpoint,
//      and the caches repaired from the first touched index on. O(log n +
//      tail), no sort and no fresh vectors: the probe-then-commit path of
//      PortBook, where `add` would force a whole merge on the next probe.
//    Both yield the same arrays bit for bit and may be mixed on one profile.
//  * `value_at` is O(log n): binary search into the prefix-sum cache.
//  * `global_max` is O(1) off the prefix-max cache.
//  * `max_over` / `integral` are O(log n + w) where w is the number of
//    breakpoints inside the queried window (contiguous scans, no pointer
//    chasing); left-anchored max windows resolve O(log n) off the cache.
//
// Numerical contract: every query returns the bit-identical double that
// StepFunction would return for the same sequence of `add`/`add_in_place`
// calls. Deltas landing on the same instant accumulate in call order
// (exactly like the map's `operator+=`), prefix sums run left-to-right over
// the merged deltas (exactly like the map scans), and `integral` sums the same
// per-segment products in the same order. tests/timeline_profile_test.cpp
// and tests/profile_inplace_test.cpp differential-test this with EXPECT_EQ
// on raw doubles.
//
// Thread safety: queries may trigger the lazy merge and therefore mutate
// internal caches even though they are declared `const`. A profile is safe
// to share across threads for read-only queries only once `ensure_merged()`
// has run and no further write happens; two threads racing the first query
// on an unmerged profile is a data race that ThreadSanitizer reports
// (tests/tsan_stress_test.cpp exercises the merged path). Whoever fans a
// profile out to concurrent readers calls `ensure_merged()` first; distinct
// profiles are always independent.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/quantity.hpp"

namespace gridbw {

class TimelineProfile {
 public:
  /// Adds `delta` to the function over [t0, t1). No-op when t0 >= t1.
  /// O(1): buffered until the next query.
  void add(TimePoint t0, TimePoint t1, double delta);

  /// `add` applied to the merged arrays now (see the header comment), for
  /// one reservation between two queries: same no-op rule, same arrays.
  void add_in_place(TimePoint t0, TimePoint t1, double delta);

  /// Pre-sizes the pending buffer for `interval_count` upcoming `add`s.
  void reserve(std::size_t interval_count);

  /// Merges the pending buffer into the sorted arrays now. Queries do this
  /// implicitly; call it explicitly before concurrent read-only access —
  /// after this returns (and until the next write), every query is
  /// a pure read and any number of threads may query concurrently.
  void ensure_merged() const;

  /// True when no pending adds are buffered, i.e. queries are pure reads.
  [[nodiscard]] bool merged() const { return pending_.empty(); }

  /// Value at time t (right-continuous: the value on [t, next breakpoint)).
  [[nodiscard]] double value_at(TimePoint t) const;

  /// Maximum over the half-open interval [t0, t1). Returns 0 for an empty
  /// function or an empty interval.
  [[nodiscard]] double max_over(TimePoint t0, TimePoint t1) const;

  /// Maximum over the whole time axis.
  [[nodiscard]] double global_max() const;

  /// Integral over [t0, t1) (value x seconds).
  [[nodiscard]] double integral(TimePoint t0, TimePoint t1) const;

  /// Times at which the function changes value, in increasing order.
  [[nodiscard]] std::vector<TimePoint> breakpoints() const;

  /// Zero-copy views of the merged SoA arrays: breakpoint instants and the
  /// prefix-sum value holding on [times[k], times[k+1]). Merges pending
  /// first; invalidated by any write. For differential tests that compare
  /// two profiles' storage, cancelled breakpoints included.
  [[nodiscard]] std::span<const double> merged_times_view() const;
  [[nodiscard]] std::span<const double> merged_values_view() const;

  [[nodiscard]] bool empty() const { return times_.empty() && pending_.empty(); }

  /// Number of stored breakpoints (including delta-cancelled ones that
  /// `compact` has not yet dropped). Merges pending first.
  [[nodiscard]] std::size_t breakpoint_count() const;

  /// Removes breakpoints whose accumulated delta has cancelled to ~0 (after
  /// many add/release pairs). Values within `tolerance` of zero are dropped
  /// and the caches are rebuilt.
  void compact(double tolerance = 1e-9);

  /// Retired-breakpoint GC: folds every breakpoint strictly before `horizon`
  /// into one standing breakpoint at the last retired instant, carrying the
  /// prefix value there as its delta. Returns the number retired. Re-folding
  /// from that exact double keeps `value_at` / `max_over` / `integral`
  /// bit-identical for every window with t >= horizon, and for any later
  /// add landing at or after `horizon` — callers must never add before a
  /// retired horizon. Whole-axis queries (`global_max`, windows reaching
  /// before `horizon`) see the standing load, not the retired history.
  std::size_t retire_before(TimePoint horizon);

  /// Number of breakpoints `retire_before(horizon)` would retire, without
  /// mutating. O(log n); used by callers to amortize compaction.
  [[nodiscard]] std::size_t retirable_before(TimePoint horizon) const;

 private:
  struct Event {
    double time;
    double delta;
  };

  void merge_pending() const;
  /// Recomputes values_/prefix_max_ from index `from` to the end.
  void rebuild_caches(std::size_t from = 0) const;
  /// Folds `delta` onto the breakpoint at `t`, inserting it if absent;
  /// returns its index. Leaves the caches stale from that index on.
  std::size_t accumulate_at(double t, double delta);

  /// First index k with times_[k] > t, i.e. t's value is values_[k-1].
  [[nodiscard]] std::size_t upper_index(double t) const;
  /// First index k with times_[k] >= t.
  [[nodiscard]] std::size_t lower_index(double t) const;

  // Unmerged add() events, in call order.
  mutable std::vector<Event> pending_;
  // SoA breakpoint storage, sorted by time, one entry per distinct instant.
  mutable std::vector<double> times_;
  mutable std::vector<double> deltas_;      // combined delta applied at times_[k]
  mutable std::vector<double> values_;      // prefix sum: value on [times_[k], times_[k+1])
  mutable std::vector<double> prefix_max_;  // running max of values_[0..k]
};

}  // namespace gridbw
