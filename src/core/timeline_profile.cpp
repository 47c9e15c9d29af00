#include "core/timeline_profile.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gridbw {

void TimelineProfile::add(TimePoint t0, TimePoint t1, double delta) {
  if (!(t0 < t1) || delta == 0.0) return;
  pending_.push_back(Event{t0.to_seconds(), delta});
  pending_.push_back(Event{t1.to_seconds(), -delta});
}

// gridbw:hot
void TimelineProfile::add_in_place(TimePoint t0, TimePoint t1, double delta) {
  if (!(t0 < t1) || delta == 0.0) return;
  merge_pending();
  // The same per-instant left fold merge_pending applies to these two
  // events, then the same prefix fold from the first touched index on.
  const std::size_t first = accumulate_at(t0.to_seconds(), delta);
  (void)accumulate_at(t1.to_seconds(), -delta);
  rebuild_caches(first);
}

std::size_t TimelineProfile::accumulate_at(double t, double delta) {
  const std::size_t k = lower_index(t);
  if (k < times_.size() && times_[k] == t) {
    deltas_[k] += delta;
  } else {
    times_.insert(times_.begin() + static_cast<std::ptrdiff_t>(k), t);
    deltas_.insert(deltas_.begin() + static_cast<std::ptrdiff_t>(k), delta);
  }
  return k;
}

void TimelineProfile::reserve(std::size_t interval_count) {
  pending_.reserve(pending_.size() + 2 * interval_count);
}

void TimelineProfile::ensure_merged() const { merge_pending(); }

void TimelineProfile::merge_pending() const {
  if (pending_.empty()) return;
  // Stable by time so that deltas landing on the same instant accumulate in
  // call order — the exact floating-point sums the delta map would produce.
  std::stable_sort(pending_.begin(), pending_.end(),
                   [](const Event& a, const Event& b) { return a.time < b.time; });

  std::vector<double> merged_times;
  std::vector<double> merged_deltas;
  merged_times.reserve(times_.size() + pending_.size());
  merged_deltas.reserve(times_.size() + pending_.size());

  // Two-pointer merge; at equal instants the existing combined delta comes
  // first, then pending deltas fold onto it left-to-right.
  std::size_t i = 0;  // over times_/deltas_
  std::size_t j = 0;  // over pending_
  while (i < times_.size() || j < pending_.size()) {
    const bool take_existing =
        j == pending_.size() || (i < times_.size() && times_[i] <= pending_[j].time);
    const Event next = take_existing ? Event{times_[i], deltas_[i]} : pending_[j];
    ++(take_existing ? i : j);
    if (!merged_times.empty() && merged_times.back() == next.time) {
      merged_deltas.back() += next.delta;
    } else {
      merged_times.push_back(next.time);
      merged_deltas.push_back(next.delta);
    }
  }

  times_ = std::move(merged_times);
  deltas_ = std::move(merged_deltas);
  pending_.clear();
  rebuild_caches();
}

void TimelineProfile::rebuild_caches(std::size_t from) const {
  values_.resize(times_.size());
  prefix_max_.resize(times_.size());
  // Entries before `from` are untouched, so seeding from them continues the
  // exact left-to-right fold a full rebuild would run.
  double acc = from == 0 ? 0.0 : values_[from - 1];
  double best = from == 0 ? -std::numeric_limits<double>::infinity() : prefix_max_[from - 1];
  for (std::size_t k = from; k < times_.size(); ++k) {
    acc += deltas_[k];
    values_[k] = acc;
    best = std::max(best, acc);
    prefix_max_[k] = best;
  }
}

std::size_t TimelineProfile::upper_index(double t) const {
  return static_cast<std::size_t>(
      std::upper_bound(times_.begin(), times_.end(), t) - times_.begin());
}

std::size_t TimelineProfile::lower_index(double t) const {
  return static_cast<std::size_t>(
      std::lower_bound(times_.begin(), times_.end(), t) - times_.begin());
}

// gridbw:hot
double TimelineProfile::value_at(TimePoint t) const {
  merge_pending();
  const std::size_t idx = upper_index(t.to_seconds());
  return idx == 0 ? 0.0 : values_[idx - 1];
}

// gridbw:hot
double TimelineProfile::max_over(TimePoint t0, TimePoint t1) const {
  if (!(t0 < t1)) return 0.0;
  merge_pending();
  const double lo = t0.to_seconds();
  const double hi = t1.to_seconds();
  // Breakpoints strictly inside (lo, hi): indices [first, last).
  const std::size_t first = upper_index(lo);
  const std::size_t last = lower_index(hi);
  double best = 0.0;
  if (first < last) {
    if (first == 0) {
      best = std::max(best, prefix_max_[last - 1]);  // O(1) left-anchored window
    } else {
      for (std::size_t k = first; k < last; ++k) best = std::max(best, values_[k]);
    }
  }
  // The value holding at the window's left edge counts too.
  best = std::max(best, first == 0 ? 0.0 : values_[first - 1]);
  return best;
}

// gridbw:hot
double TimelineProfile::global_max() const {
  merge_pending();
  if (times_.empty()) return 0.0;
  return std::max(0.0, prefix_max_.back());
}

// gridbw:hot
double TimelineProfile::integral(TimePoint t0, TimePoint t1) const {
  if (!(t0 < t1)) return 0.0;
  merge_pending();
  const double lo = t0.to_seconds();
  const double hi = t1.to_seconds();
  const std::size_t first = upper_index(lo);
  double acc = first == 0 ? 0.0 : values_[first - 1];
  double result = 0.0;
  double prev = lo;
  for (std::size_t k = first; k < times_.size(); ++k) {
    const double upto = std::min(times_[k], hi);
    if (upto > prev) {
      result += acc * (upto - prev);
      prev = upto;
    }
    if (times_[k] >= hi) return result;
    acc = values_[k];
  }
  if (hi > prev) result += acc * (hi - prev);
  return result;
}

std::vector<TimePoint> TimelineProfile::breakpoints() const {
  merge_pending();
  std::vector<TimePoint> points;
  points.reserve(times_.size());
  for (std::size_t k = 0; k < times_.size(); ++k) {
    if (deltas_[k] != 0.0) points.push_back(TimePoint::at_seconds(times_[k]));
  }
  return points;
}

std::size_t TimelineProfile::breakpoint_count() const {
  merge_pending();
  return times_.size();
}

std::span<const double> TimelineProfile::merged_times_view() const {
  merge_pending();
  return {times_.data(), times_.size()};
}

std::span<const double> TimelineProfile::merged_values_view() const {
  merge_pending();
  return {values_.data(), values_.size()};
}

void TimelineProfile::compact(double tolerance) {
  merge_pending();
  std::size_t kept = 0;
  for (std::size_t k = 0; k < times_.size(); ++k) {
    if (std::fabs(deltas_[k]) <= tolerance) continue;
    times_[kept] = times_[k];
    deltas_[kept] = deltas_[k];
    ++kept;
  }
  times_.resize(kept);
  deltas_.resize(kept);
  rebuild_caches();
}

std::size_t TimelineProfile::retirable_before(TimePoint horizon) const {
  merge_pending();
  const std::size_t cut = lower_index(horizon.to_seconds());
  // Folding always keeps one standing breakpoint, so a prefix of one (or
  // zero) retires nothing.
  return cut > 1 ? cut - 1 : 0;
}

std::size_t TimelineProfile::retire_before(TimePoint horizon) {
  merge_pending();
  const std::size_t cut = lower_index(horizon.to_seconds());
  if (cut <= 1) return 0;
  // The standing breakpoint keeps the last retired instant and carries the
  // prefix sum accumulated there. rebuild_caches() then re-folds starting
  // from exactly that double (0.0 + values_[cut-1] == values_[cut-1]), so
  // every retained prefix sum is recomputed through the same operations it
  // was originally built from — bit-identical post-horizon queries.
  times_[0] = times_[cut - 1];
  deltas_[0] = values_[cut - 1];
  times_.erase(times_.begin() + 1, times_.begin() + static_cast<std::ptrdiff_t>(cut));
  deltas_.erase(deltas_.begin() + 1, deltas_.begin() + static_cast<std::ptrdiff_t>(cut));
  rebuild_caches();
  return cut - 1;
}

}  // namespace gridbw
