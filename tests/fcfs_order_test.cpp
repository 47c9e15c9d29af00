// Tests for the FCFS arrival order shared by every online engine
// (heuristics/fcfs_order.hpp): one comparator, a linear pass on input that
// is already in order, a stable sort otherwise, and the engines'
// submit/degenerate-window preamble.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "heuristics/fcfs_order.hpp"
#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
#include "util/random.hpp"

namespace gridbw::heuristics {
namespace {

/// Integer-second releases, three window lengths and three rates: many
/// requests share a release, and many of those share a MinRate too.
std::vector<Request> tie_heavy(std::uint64_t seed, std::size_t count) {
  Rng rng{seed};
  std::vector<Request> out;
  for (RequestId id = 1; id <= count; ++id) {
    const double release = static_cast<double>(rng.uniform_int(0, 20));
    const double window = 10.0 * static_cast<double>(rng.uniform_int(1, 3));
    const Bandwidth rate =
        Bandwidth::megabytes_per_second(100.0 * static_cast<double>(rng.uniform_int(1, 3)));
    out.push_back(RequestBuilder{id}
                      .from(IngressId{0})
                      .to(EgressId{0})
                      .rigid(TimePoint::at_seconds(release), Duration::seconds(window), rate)
                      .build());
  }
  return out;
}

std::vector<RequestId> ids_of(const std::vector<const Request*>& order) {
  std::vector<RequestId> ids;
  for (const Request* r : order) ids.push_back(r->id);
  return ids;
}

/// Ids in the order a stable sort of the requests themselves gives.
std::vector<RequestId> sorted_ids(std::vector<Request> requests) {
  sort_fcfs(requests);
  std::vector<RequestId> ids;
  for (const Request& r : requests) ids.push_back(r.id);
  return ids;
}

TEST(FcfsOrder, OrderedReversedAndShuffledInputsGiveOneOrder) {
  std::vector<Request> ordered = tie_heavy(1, 400);
  sort_fcfs(ordered);
  std::vector<Request> reversed{ordered.rbegin(), ordered.rend()};
  std::vector<Request> shuffled = ordered;
  Rng rng{2};
  rng.shuffle(shuffled);

  const std::vector<RequestId> expected = sorted_ids(ordered);
  EXPECT_EQ(ids_of(fcfs_order(ordered)), expected);
  EXPECT_EQ(ids_of(fcfs_order(reversed)), expected);
  EXPECT_EQ(ids_of(fcfs_order(shuffled)), expected);
  EXPECT_EQ(sorted_ids(shuffled), expected);
}

TEST(FcfsOrder, TieHeavyInputExercisesBothTieBreaks) {
  std::vector<Request> rs = tie_heavy(3, 400);
  sort_fcfs(rs);
  std::size_t same_release = 0;
  std::size_t same_release_and_rate = 0;
  for (std::size_t k = 1; k < rs.size(); ++k) {
    if (rs[k].release != rs[k - 1].release) continue;
    ++same_release;
    EXPECT_TRUE(rs[k - 1].min_rate() <= rs[k].min_rate());
    if (rs[k].min_rate() == rs[k - 1].min_rate()) {
      ++same_release_and_rate;
      EXPECT_LT(rs[k - 1].id, rs[k].id);
    }
  }
  EXPECT_GT(same_release, 100u);
  EXPECT_GT(same_release_and_rate, 50u);
}

TEST(FcfsOrder, ReleaseOrderWithUnorderedTiesIsSorted) {
  // In release order but with ties in random order: the linear check must
  // look at the whole key, not the release alone, and hand this to the sort.
  std::vector<Request> rs = tie_heavy(9, 400);
  std::stable_sort(rs.begin(), rs.end(), [](const Request& a, const Request& b) {
    return a.release < b.release;
  });
  ASSERT_FALSE(std::is_sorted(rs.begin(), rs.end(), fcfs_before));
  EXPECT_EQ(ids_of(fcfs_order(rs)), sorted_ids(rs));
}

TEST(FcfsOrder, OrderedInputIsKeptAsGiven) {
  std::vector<Request> rs = tie_heavy(4, 200);
  sort_fcfs(rs);
  const auto order = fcfs_order(rs);
  ASSERT_EQ(order.size(), rs.size());
  for (std::size_t k = 0; k < rs.size(); ++k) EXPECT_EQ(order[k], &rs[k]);
}

TEST(FcfsOrder, PointsIntoTheCallersSpan) {
  std::vector<Request> rs = tie_heavy(5, 200);
  Rng rng{6};
  rng.shuffle(rs);
  const auto order = fcfs_order(rs);
  ASSERT_EQ(order.size(), rs.size());
  for (const Request* r : order) {
    EXPECT_GE(r, rs.data());
    EXPECT_LT(r, rs.data() + rs.size());
  }
  std::vector<const Request*> distinct = order;
  std::sort(distinct.begin(), distinct.end());
  EXPECT_EQ(std::unique(distinct.begin(), distinct.end()), distinct.end());
}

TEST(FcfsOrder, EqualKeysKeepInputOrder) {
  // Duplicate ids make whole keys equal: the sort must be stable, on the
  // sort path as well as the fast path. Enough requests that the sort
  // cannot fall back to an insertion sort, which is stable by accident.
  std::vector<Request> rs;
  Rng rng{8};
  for (std::size_t k = 0; k < 300; ++k) {
    rs.push_back(RequestBuilder{7}
                     .from(IngressId{0})
                     .to(EgressId{0})
                     .rigid(TimePoint::at_seconds(static_cast<double>(rng.uniform_int(1, 3))),
                            Duration::seconds(10), Bandwidth::megabytes_per_second(100))
                     .build());
  }
  std::vector<const Request*> expected;
  for (const double release : {1.0, 2.0, 3.0}) {
    for (const Request& r : rs) {
      if (r.release == TimePoint::at_seconds(release)) expected.push_back(&r);
    }
  }
  ASSERT_FALSE(std::is_sorted(rs.begin(), rs.end(), fcfs_before));
  EXPECT_EQ(fcfs_order(rs), expected);

  std::vector<Request> same(40, rs[0]);
  const auto kept = fcfs_order(same);
  for (std::size_t k = 0; k < same.size(); ++k) EXPECT_EQ(kept[k], &same[k]);
}

TEST(FcfsOrder, EmptyInput) {
  EXPECT_TRUE(fcfs_order({}).empty());
  ScheduleResult result;
  EXPECT_TRUE(admission_order({}, result, nullptr).empty());
  EXPECT_TRUE(result.rejected.empty());
}

/// Two valid requests out of order with a degenerate (zero-length) and an
/// inverted window between them.
std::vector<Request> with_degenerate_windows() {
  std::vector<Request> rs;
  rs.push_back(RequestBuilder{1}
                   .from(IngressId{0})
                   .to(EgressId{0})
                   .rigid(TimePoint::at_seconds(5), Duration::seconds(10),
                          Bandwidth::megabytes_per_second(100))
                   .build());
  Request zero = rs.front();
  zero.id = 2;
  zero.deadline = zero.release;
  rs.push_back(zero);
  Request inverted = rs.front();
  inverted.id = 3;
  inverted.deadline = TimePoint::at_seconds(1);
  rs.push_back(inverted);
  rs.push_back(RequestBuilder{4}
                   .from(IngressId{0})
                   .to(EgressId{0})
                   .rigid(TimePoint::at_seconds(2), Duration::seconds(10),
                          Bandwidth::megabytes_per_second(100))
                   .build());
  return rs;
}

TEST(AdmissionOrder, RejectsDegenerateWindowsAndOrdersTheRest) {
  const auto rs = with_degenerate_windows();
  ScheduleResult result;
  const auto order = admission_order(rs, result, nullptr);
  EXPECT_EQ(ids_of(order), (std::vector<RequestId>{4, 1}));
  EXPECT_EQ(result.rejected, (std::vector<RequestId>{2, 3}));
  EXPECT_EQ(result.schedule.accepted_count(), 0u);
}

TEST(AdmissionOrder, ObserverSeesSubmissionsInInputOrder) {
  // Every request is submitted in input order, each degenerate window is
  // rejected right after its own submission, and nothing else is emitted.
  const auto rs = with_degenerate_windows();
  obs::MemorySink sink;
  obs::Observer observer{&sink, nullptr};
  ScheduleResult result;
  (void)admission_order(rs, result, &observer);

  struct Expected {
    obs::EventKind kind;
    RequestId id;
  };
  const std::vector<Expected> expected{
      {obs::EventKind::kSubmitted, 1}, {obs::EventKind::kSubmitted, 2},
      {obs::EventKind::kRejected, 2},  {obs::EventKind::kSubmitted, 3},
      {obs::EventKind::kRejected, 3},  {obs::EventKind::kSubmitted, 4}};
  const auto& events = sink.events();
  ASSERT_EQ(events.size(), expected.size());
  for (std::size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(events[k].kind, expected[k].kind) << k;
    EXPECT_EQ(events[k].request, expected[k].id) << k;
    EXPECT_EQ(events[k].when, rs[events[k].request - 1].release) << k;
    if (events[k].kind == obs::EventKind::kRejected) {
      EXPECT_EQ(events[k].reason, obs::RejectReason::kDegenerateWindow) << k;
    }
  }
}

}  // namespace
}  // namespace gridbw::heuristics
