// PortBook: the one port-state kernel behind NetworkLedger and the
// admission service. Pinned here:
//
//  * the fit predicate sits exactly on approx_le's bandwidth tolerance
//    (capacity + 1 B/s + 1e-9 * capacity), through both the indexed and the
//    scan-only entry point;
//  * the indexed `fits` decides like the scan on every probe;
//  * the GC policy folds only a batch that is at least half the residents;
//  * one predicate, one decision: on a trace whose loads sit at capacity
//    and just either side of the tolerance, the 1-shard AdmissionService
//    and schedule_rigid_fcfs (NetworkLedger) agree id by id, GC on and off.

#include "core/port_book.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/network.hpp"
#include "heuristics/rigid_fcfs.hpp"
#include "obs/counters.hpp"
#include "service/admission_service.hpp"
#include "util/random.hpp"

namespace gridbw {
namespace {

TimePoint at(double s) { return TimePoint::at_seconds(s); }
Bandwidth bps(double b) { return Bandwidth::bytes_per_second(b); }

// 1 MB/s keeps the relative term (1e-3 B/s) far below the 1 B/s absolute
// one, so +0.5 B/s is inside the tolerance and +1.5 B/s outside it.
constexpr double kCap = 1e6;

TEST(PortBook, FitPredicateIsApproxLeOnBothEntryPoints) {
  PortBook book{bps(kCap)};
  for (const double extra : {0.0, 0.5, 1.0, 1.5, 2.0}) {
    const bool expected = approx_le(bps(kCap + extra), bps(kCap));
    EXPECT_EQ(book.fits(at(0), at(10), bps(kCap + extra), nullptr), expected) << extra;
    EXPECT_EQ(book.fits_by_scan(at(0), at(10), bps(kCap + extra)), expected) << extra;
  }
  EXPECT_TRUE(book.fits(at(0), at(10), bps(kCap + 0.5), nullptr));
  EXPECT_FALSE(book.fits(at(0), at(10), bps(kCap + 1.5), nullptr));

  book.commit(at(2), at(4), bps(kCap / 2));
  EXPECT_TRUE(book.fits(at(0), at(10), bps(kCap / 2 + 0.5), nullptr));
  EXPECT_FALSE(book.fits(at(0), at(10), bps(kCap / 2 + 1.5), nullptr));
  EXPECT_TRUE(book.fits(at(4), at(10), bps(kCap), nullptr));  // half-open
  book.release(at(2), at(4), bps(kCap / 2));
  EXPECT_EQ(book.profile().max_over(at(0), at(10)), 0.0);
}

TEST(PortBook, IndexedFitsDecidesLikeTheScan) {
  PortBook book{bps(kCap)};
  obs::CounterRegistry counters;
  obs::Observer observer{nullptr, &counters};
  Rng rng{42};
  for (int k = 0; k < 200; ++k) {
    const double lo = static_cast<double>(rng.uniform_int(0, 400));
    book.commit(at(lo), at(lo + static_cast<double>(rng.uniform_int(1, 30))),
                bps(rng.uniform(0.0, kCap / 20)));
  }
  for (int k = 0; k < 5000; ++k) {
    const double lo = static_cast<double>(rng.uniform_int(0, 400));
    const TimePoint t0 = at(lo);
    const TimePoint t1 = at(lo + static_cast<double>(rng.uniform_int(1, 200)));
    const Bandwidth add = bps(kCap - book.profile().max_over(t0, t1) + rng.uniform(-2.0, 2.0));
    ASSERT_EQ(book.fits(t0, t1, add, &observer), book.fits_by_scan(t0, t1, add)) << k;
  }
  EXPECT_GT(counters.value(obs::Counter::kResidualIndexRebuilds), 0u);
  EXPECT_GT(counters.value(obs::Counter::kResidualIndexProbes), 0u);
}

TEST(PortBook, CollectFoldsOnlyABatchOfAtLeastHalfTheResidents) {
  PortBook book{bps(kCap)};
  for (int k = 0; k < 40; ++k) book.commit(at(k), at(k + 0.5), bps(1.0));
  // 39 retirable before t = 20: below the 64-breakpoint batch.
  EXPECT_EQ(book.collect(at(20), nullptr), 0u);
  for (int k = 0; k < 200; ++k) book.commit(at(100 + k), at(400), bps(1.0));
  // 79 retirable against 281 residents: a batch, but not yet half.
  EXPECT_EQ(book.collect(at(50), nullptr), 0u);
  obs::CounterRegistry counters;
  obs::Observer observer{nullptr, &counters};
  const std::size_t before = book.profile().breakpoint_count();
  const std::size_t retired = book.collect(at(250), &observer);
  EXPECT_GT(retired, 0u);
  EXPECT_EQ(book.profile().breakpoint_count(), before - retired);
  EXPECT_EQ(counters.value(obs::Counter::kProfileCompactions), 1u);
  EXPECT_EQ(counters.value(obs::Counter::kBreakpointsRetired), retired);
}

/// Distinct releases, power-of-two windows (so min_rate == the chosen rate
/// exactly), and rates at capacity, just inside and just outside the
/// tolerance, plus halves and quarters that stack onto the threshold.
std::vector<Request> borderline_trace(std::uint64_t seed, std::size_t count) {
  constexpr double kRates[] = {kCap,         kCap + 0.5,         kCap + 1.5,
                               kCap / 2,     kCap / 2 + 0.5,     kCap / 2 + 0.75,
                               kCap / 4,     kCap / 4 + 0.375};
  constexpr double kWindows[] = {2.0, 4.0, 8.0, 16.0};
  Rng rng{seed};
  std::vector<Request> out;
  for (std::size_t k = 0; k < count; ++k) {
    const double rate = kRates[rng.uniform_int(0, 7)];
    const double window = kWindows[rng.uniform_int(0, 3)];
    Request r;
    r.id = static_cast<RequestId>(k + 1);
    r.ingress = IngressId{static_cast<std::size_t>(rng.uniform_int(0, 3))};
    r.egress = EgressId{static_cast<std::size_t>(rng.uniform_int(0, 3))};
    r.release = at(0.5 * static_cast<double>(k));
    r.deadline = at(0.5 * static_cast<double>(k) + window);
    r.volume = Volume::bytes(rate * window);
    r.max_rate = bps(rate);
    out.push_back(r);
  }
  return out;
}

TEST(OnePredicate, ServiceMatchesFcfsIdByIdAtTheToleranceEdge) {
  const Network net = Network::uniform(4, 4, bps(kCap));
  const std::vector<Request> trace = borderline_trace(2024, 3000);
  const ScheduleResult fcfs = heuristics::schedule_rigid_fcfs(net, trace);
  std::size_t over_tolerance_admitted = 0;
  std::size_t at_edge_admitted = 0;
  for (const Request& r : trace) {
    if (!fcfs.schedule.is_accepted(r.id)) continue;
    if (r.max_rate == bps(kCap + 1.5)) ++over_tolerance_admitted;
    if (r.max_rate == bps(kCap + 0.5)) ++at_edge_admitted;
  }
  EXPECT_EQ(over_tolerance_admitted, 0u);
  EXPECT_GT(at_edge_admitted, 0u);
  EXPECT_GT(fcfs.rejected.size(), 0u);

  for (const bool gc : {true, false}) {
    service::AdmissionService svc{net, {.shards = 1, .gc = gc, .gc_batch = 1}};
    for (const Request& r : trace) svc.submit(r);
    const service::ServiceReport report = svc.drain();
    EXPECT_EQ(report.admitted, fcfs.schedule.accepted_count()) << "gc " << gc;
    if (gc) {
      EXPECT_GT(report.breakpoints_retired, 0u);
    }
    for (const Request& r : trace) {
      ASSERT_EQ(svc.was_admitted(r.id), fcfs.schedule.is_accepted(r.id))
          << "request " << r.id << " gc " << gc;
    }
  }
}

}  // namespace
}  // namespace gridbw
