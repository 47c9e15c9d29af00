// TimelineProfile::add_in_place: differential proof that the in-place
// single-reservation update is bit-identical to the buffered `add` path and
// to the StepFunction reference. Commits and releases are interleaved with
// value_at / max_over / integral / global_max queries and retire_before
// passes, on a coarse time grid so that endpoints keep landing on existing
// instants, releases cancel deltas to exactly 0.0, and adds land on the
// retire horizon itself. A fourth profile mixes both write paths.
//
// EXPECT_EQ on raw doubles is deliberate: the in-place path performs the
// same floating-point operations in the same order as a merge.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <tuple>
#include <vector>

#include "core/step_function.hpp"
#include "core/timeline_profile.hpp"
#include "util/random.hpp"

namespace gridbw {
namespace {

TimePoint at(double s) { return TimePoint::at_seconds(s); }

void expect_same_arrays(const TimelineProfile& a, const TimelineProfile& b) {
  const std::span<const double> ta = a.merged_times_view();
  const std::span<const double> tb = b.merged_times_view();
  const std::span<const double> va = a.merged_values_view();
  const std::span<const double> vb = b.merged_values_view();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t k = 0; k < ta.size(); ++k) {
    EXPECT_EQ(ta[k], tb[k]) << "time at " << k;
    EXPECT_EQ(va[k], vb[k]) << "value at " << k;
  }
  EXPECT_EQ(a.global_max(), b.global_max());
}

TEST(ProfileInPlace, EmptyOrInvertedOrZeroIsNoop) {
  TimelineProfile f;
  f.add_in_place(at(5), at(5), 3.0);
  f.add_in_place(at(6), at(2), 3.0);
  f.add_in_place(at(1), at(9), 0.0);
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.breakpoint_count(), 0u);
}

TEST(ProfileInPlace, EndpointsOnExistingInstantsAddNoBreakpoints) {
  TimelineProfile f;
  TimelineProfile buffered;
  for (const auto& [lo, hi, bw] : {std::tuple{0.0, 10.0, 1.5}, std::tuple{0.0, 10.0, 0.1},
                                   std::tuple{5.0, 10.0, 0.7}, std::tuple{0.0, 5.0, 0.2}}) {
    f.add_in_place(at(lo), at(hi), bw);
    buffered.add(at(lo), at(hi), bw);
  }
  EXPECT_EQ(f.breakpoint_count(), 3u);
  expect_same_arrays(f, buffered);
  EXPECT_EQ(f.value_at(at(5)), buffered.value_at(at(5)));
}

TEST(ProfileInPlace, ReleaseCancelsDeltaToExactZeroAndKeepsTheBreakpoint) {
  TimelineProfile f;
  StepFunction oracle;
  const double bw = 1e9 / 3.0;
  f.add_in_place(at(10), at(20), bw);
  f.add_in_place(at(10), at(20), -bw);
  oracle.add(at(10), at(20), bw);
  oracle.add(at(10), at(20), -bw);
  // Cancelled deltas stay as 0.0 breakpoints, exactly as a merge keeps them.
  EXPECT_EQ(f.breakpoint_count(), 2u);
  EXPECT_EQ(f.value_at(at(15)), 0.0);
  EXPECT_EQ(f.max_over(at(0), at(30)), oracle.max_over(at(0), at(30)));
  EXPECT_EQ(f.breakpoints(), oracle.breakpoints());
  EXPECT_TRUE(f.breakpoints().empty());
}

TEST(ProfileInPlace, AddAtTheRetireHorizonInstant) {
  TimelineProfile f;
  TimelineProfile buffered;
  for (int k = 0; k < 8; ++k) {
    f.add_in_place(at(k), at(k + 3), 0.25 * (k + 1));
    buffered.add(at(k), at(k + 3), 0.25 * (k + 1));
  }
  ASSERT_EQ(f.retire_before(at(4)), buffered.retire_before(at(4)));
  f.add_in_place(at(4), at(9), 0.3);  // starts exactly on the horizon
  buffered.add(at(4), at(9), 0.3);
  expect_same_arrays(f, buffered);
  EXPECT_EQ(f.max_over(at(4), at(9)), buffered.max_over(at(4), at(9)));
}

TEST(ProfileInPlace, PendingAddsMergeBeforeAnInPlaceWrite) {
  TimelineProfile mixed;
  TimelineProfile buffered;
  mixed.add(at(0), at(10), 0.1);
  mixed.add(at(5), at(15), 0.2);
  mixed.add_in_place(at(5), at(10), 0.3);  // folds onto the buffered instants
  mixed.add(at(10), at(12), 0.4);
  for (const auto& [lo, hi, bw] : {std::tuple{0.0, 10.0, 0.1}, std::tuple{5.0, 15.0, 0.2},
                                   std::tuple{5.0, 10.0, 0.3}, std::tuple{10.0, 12.0, 0.4}}) {
    buffered.add(at(lo), at(hi), bw);
  }
  expect_same_arrays(mixed, buffered);
}

struct Live {
  double lo, hi, bw;
};

// Randomized interleaving. `in_place` is the subject, `buffered` the merge
// path, `mixed` picks a path per write, and `oracle` never retires, so it is
// compared only on windows at or after the highest horizon retired so far.
TEST(ProfileInPlace, RandomizedDifferentialAgainstBufferedAndStepFunction) {
  constexpr double kRates[] = {1e6, 2.5e6, 0.1, 3.0, 1e9 / 3.0, 7e7 / 9.0};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng{seed};
    TimelineProfile in_place;
    TimelineProfile buffered;
    TimelineProfile mixed;
    StepFunction oracle;
    std::vector<Live> live;
    double now = 0.0;
    double horizon_floor = -std::numeric_limits<double>::infinity();
    std::size_t retired_total = 0;

    const auto write = [&](double lo, double hi, double delta) {
      in_place.add_in_place(at(lo), at(hi), delta);
      buffered.add(at(lo), at(hi), delta);
      if (rng.uniform01() < 0.5) {
        mixed.add(at(lo), at(hi), delta);
      } else {
        mixed.add_in_place(at(lo), at(hi), delta);
      }
      oracle.add(at(lo), at(hi), delta);
    };
    const auto grid = [&](double base, int spread) {
      const double t = base + static_cast<double>(rng.uniform_int(0, spread));
      return rng.uniform01() < 0.2 ? t + 0.5 : t;
    };

    for (int step = 0; step < 400; ++step) {
      const double pick = rng.uniform01();
      if (pick < 0.45 || live.empty()) {
        const double lo = grid(now, 10);
        const double hi = lo + static_cast<double>(rng.uniform_int(1, 20));
        const double bw = kRates[rng.uniform_int(0, 5)];
        write(lo, hi, bw);
        live.push_back(Live{lo, hi, bw});
      } else if (pick < 0.75) {
        // Half the releases retire the oldest reservation, so the safe
        // horizon keeps moving; the rest pick one at random.
        const auto k = rng.uniform01() < 0.5
                           ? static_cast<std::size_t>(
                                 std::min_element(live.begin(), live.end(),
                                                  [](const Live& x, const Live& y) {
                                                    return x.lo < y.lo;
                                                  }) -
                                 live.begin())
                           : static_cast<std::size_t>(rng.uniform_int(
                                 0, static_cast<std::int64_t>(live.size()) - 1));
        write(live[k].lo, live[k].hi, -live[k].bw);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      } else if (pick < 0.93) {
        const double t0 = std::max(horizon_floor, grid(now - 10.0, 40));
        const double t1 = t0 + static_cast<double>(rng.uniform_int(0, 25));
        EXPECT_EQ(in_place.value_at(at(t0)), oracle.value_at(at(t0)));
        EXPECT_EQ(in_place.max_over(at(t0), at(t1)), oracle.max_over(at(t0), at(t1)));
        EXPECT_EQ(in_place.integral(at(t0), at(t1)), oracle.integral(at(t0), at(t1)));
        EXPECT_EQ(in_place.max_over(at(t0), at(t1)), buffered.max_over(at(t0), at(t1)));
        EXPECT_EQ(in_place.integral(at(t0), at(t1)), mixed.integral(at(t0), at(t1)));
        if (retired_total == 0) {
          EXPECT_EQ(in_place.global_max(), oracle.global_max());
        }
      } else {
        // Safe horizon: never past now, never past a live reservation start.
        double horizon = now;
        for (const Live& r : live) horizon = std::min(horizon, r.lo);
        const std::size_t n = in_place.retire_before(at(horizon));
        ASSERT_EQ(buffered.retire_before(at(horizon)), n);
        ASSERT_EQ(mixed.retire_before(at(horizon)), n);
        retired_total += n;
        horizon_floor = std::max(horizon_floor, horizon);
        // The next reservation starts exactly on the horizon instant.
        const double hi = horizon + static_cast<double>(rng.uniform_int(1, 10));
        const double bw = kRates[rng.uniform_int(0, 5)];
        write(horizon, hi, bw);
        live.push_back(Live{horizon, hi, bw});
      }
      now += static_cast<double>(rng.uniform_int(0, 2));
      expect_same_arrays(in_place, buffered);
      expect_same_arrays(in_place, mixed);
      if (testing::Test::HasFailure()) return;
    }
    EXPECT_GT(retired_total, 0u) << "seed " << seed << " never exercised retire_before";
  }
}

}  // namespace
}  // namespace gridbw
