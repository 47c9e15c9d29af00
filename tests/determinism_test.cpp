// Determinism: every scheduler is a pure function of (network, requests,
// options) — two runs over the same inputs produce byte-identical
// schedules. This is a load-bearing property for the experiment harness
// (replications must be reproducible) and for debugging.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "heuristics/distributed.hpp"
#include "heuristics/flexible_window.hpp"
#include "heuristics/flexible_bookahead.hpp"
#include "heuristics/parse.hpp"
#include "heuristics/retry.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace gridbw {
namespace {

/// Canonical fingerprint of a schedule result.
std::vector<std::tuple<RequestId, double, double>> fingerprint(
    const ScheduleResult& result) {
  std::vector<std::tuple<RequestId, double, double>> out;
  for (const Assignment& a : result.schedule.assignments()) {
    out.emplace_back(a.request, a.start.to_seconds(), a.bw.to_bytes_per_second());
  }
  std::sort(out.begin(), out.end());
  auto rejected = result.rejected;
  std::sort(rejected.begin(), rejected.end());
  for (RequestId id : rejected) out.emplace_back(id, -1.0, -1.0);
  return out;
}

/// Every registry engine that serves requests in the FCFS arrival order
/// (heuristics/fcfs_order.hpp).
constexpr const char* kFcfsOrderSpecs[] = {"fcfs",
                                           "greedy:f=1",
                                           "greedy:minrate",
                                           "window:step=100,f=0.8",
                                           "window:step=10,minrate",
                                           "bookahead:step=100,ahead=4,f=1",
                                           "mgreedy:minrate",
                                           "mwindow:step=100,minrate"};

/// Outcome of the distributed engine (which is not in the registry),
/// egress conflicts included.
std::pair<std::vector<std::tuple<RequestId, double, double>>, std::size_t>
distributed_fingerprint(const Network& network, std::span<const Request> requests) {
  heuristics::DistributedOptions options;
  options.sync_period = Duration::seconds(30);
  const auto out = heuristics::schedule_flexible_distributed(network, requests, options);
  return {fingerprint(out.result), out.egress_conflicts};
}

class SchedulerDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(SchedulerDeterminism, TwoRunsAreByteIdentical) {
  const workload::Scenario scenario =
      workload::paper_flexible(Duration::seconds(1), Duration::seconds(300), 4.0);
  Rng rng{801};
  const auto requests = workload::generate(scenario.spec, rng);

  const auto scheduler = heuristics::parse_scheduler(GetParam());
  const auto first = scheduler.run(scenario.network, requests);
  const auto second = scheduler.run(scenario.network, requests);
  EXPECT_EQ(fingerprint(first), fingerprint(second)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, SchedulerDeterminism,
                         ::testing::Values("fcfs", "cumulated", "minbw", "minvol",
                                           "greedy:f=1", "greedy:minrate",
                                           "window:step=100,f=0.8",
                                           "window:step=100,minrate,hotspot=1",
                                           "bookahead:step=100,ahead=4,f=1"));

TEST(SchedulerDeterminism, InputOrderDoesNotMatter) {
  // Heuristics sort internally (FCFS order with full tie-breaking), so a
  // shuffled request vector must give the same outcome.
  const workload::Scenario scenario =
      workload::paper_flexible(Duration::seconds(1), Duration::seconds(300), 4.0);
  Rng rng{802};
  auto requests = workload::generate(scenario.spec, rng);
  auto shuffled = requests;
  rng.shuffle(shuffled);

  for (const char* spec : kFcfsOrderSpecs) {
    const auto scheduler = heuristics::parse_scheduler(spec);
    const auto a = scheduler.run(scenario.network, requests);
    const auto b = scheduler.run(scenario.network, shuffled);
    EXPECT_EQ(fingerprint(a), fingerprint(b)) << spec;
  }
  const auto minbw = heuristics::parse_scheduler("minbw");
  EXPECT_EQ(fingerprint(minbw.run(scenario.network, requests)),
            fingerprint(minbw.run(scenario.network, shuffled)));
  EXPECT_EQ(distributed_fingerprint(scenario.network, requests),
            distributed_fingerprint(scenario.network, shuffled));
}

TEST(SchedulerDeterminism, TieHeavyTraceGivesOneOutcomeInEveryInputOrder) {
  // Integer-second releases with repeated volumes and windows: equal
  // releases and equal MinRates both occur, so the FCFS order leans on the
  // MinRate and id tie-breaks. Three inputs of the same requests:
  //  * FCFS-ordered (the linear fast path of the arrival order);
  //  * release-ordered with ties shuffled (out of FCFS order: the sort path);
  //  * fully shuffled (the sort path).
  const Network net = Network::uniform(4, 4, Bandwidth::gigabytes_per_second(1));
  Rng rng{805};
  std::vector<Request> ordered;
  for (RequestId id = 1; id <= 600; ++id) {
    const double release = static_cast<double>(rng.uniform_int(0, 60));
    const double window = 20.0 * static_cast<double>(rng.uniform_int(1, 3));
    const Volume volume = Volume::gigabytes(static_cast<double>(rng.uniform_int(1, 3)));
    const double slack = static_cast<double>(rng.uniform_int(1, 2));
    ordered.push_back(
        RequestBuilder{id}
            .from(IngressId{static_cast<std::size_t>(rng.uniform_int(0, 3))})
            .to(EgressId{static_cast<std::size_t>(rng.uniform_int(0, 3))})
            .window(TimePoint::at_seconds(release), TimePoint::at_seconds(release + window))
            .volume(volume)
            .max_rate(volume / Duration::seconds(window) * slack)
            .build());
  }
  sort_fcfs(ordered);
  std::size_t release_ties = 0;
  std::size_t min_rate_ties = 0;
  for (std::size_t k = 1; k < ordered.size(); ++k) {
    if (ordered[k].release != ordered[k - 1].release) continue;
    ++release_ties;
    if (ordered[k].min_rate() == ordered[k - 1].min_rate()) ++min_rate_ties;
  }
  ASSERT_GT(release_ties, 100u);
  ASSERT_GT(min_rate_ties, 20u);

  auto release_only = ordered;
  rng.shuffle(release_only);
  std::stable_sort(release_only.begin(), release_only.end(),
                   [](const Request& a, const Request& b) { return a.release < b.release; });
  ASSERT_FALSE(std::is_sorted(release_only.begin(), release_only.end(), fcfs_before));
  auto shuffled = ordered;
  rng.shuffle(shuffled);

  for (const char* spec : kFcfsOrderSpecs) {
    const auto scheduler = heuristics::parse_scheduler(spec);
    const auto a = fingerprint(scheduler.run(net, ordered));
    EXPECT_EQ(a, fingerprint(scheduler.run(net, release_only))) << spec;
    EXPECT_EQ(a, fingerprint(scheduler.run(net, shuffled))) << spec;
  }
  const auto d = distributed_fingerprint(net, ordered);
  EXPECT_EQ(d, distributed_fingerprint(net, release_only));
  EXPECT_EQ(d, distributed_fingerprint(net, shuffled));
}

TEST(SchedulerDeterminism, RetryAndDistributedAreDeterministic) {
  const workload::Scenario scenario =
      workload::paper_flexible(Duration::seconds(1), Duration::seconds(300), 4.0);
  Rng rng{803};
  const auto requests = workload::generate(scenario.spec, rng);

  heuristics::RetryPolicy retry;
  retry.max_attempts = 3;
  const auto r1 = heuristics::schedule_greedy_with_retries(
      scenario.network, requests, heuristics::BandwidthPolicy::fraction_of_max(1.0),
      retry);
  const auto r2 = heuristics::schedule_greedy_with_retries(
      scenario.network, requests, heuristics::BandwidthPolicy::fraction_of_max(1.0),
      retry);
  EXPECT_EQ(fingerprint(r1.result), fingerprint(r2.result));

  heuristics::DistributedOptions dist;
  dist.sync_period = Duration::seconds(30);
  const auto d1 =
      heuristics::schedule_flexible_distributed(scenario.network, requests, dist);
  const auto d2 =
      heuristics::schedule_flexible_distributed(scenario.network, requests, dist);
  EXPECT_EQ(fingerprint(d1.result), fingerprint(d2.result));
  EXPECT_EQ(d1.egress_conflicts, d2.egress_conflicts);
}

TEST(WindowTieBreak, NearEqualCostsBreakTiesByRequestId) {
  // Two candidates whose costs differ only at the 1e-12 relative level
  // contend for an egress that fits one of them. An exact `<` comparison
  // would let the infinitesimally cheaper (higher-id) candidate win or lose
  // depending on rounding; the epsilon-aware tie-break must deterministically
  // pick the smaller request id — in both selection engines.
  const Bandwidth out_cap = Bandwidth::megabytes_per_second(100);
  const Bandwidth in_cap = Bandwidth::megabytes_per_second(99);
  // Request 2's ingress is a hair *larger*, so its cost is a hair *smaller*:
  // exact comparison would prefer id 2; the tie-break must prefer id 1.
  const Bandwidth in_cap_eps =
      Bandwidth::bytes_per_second(in_cap.to_bytes_per_second() * (1.0 + 1e-12));
  const Network net{{in_cap, in_cap_eps}, {out_cap}};

  std::vector<Request> rs;
  for (RequestId id : {RequestId{1}, RequestId{2}}) {
    rs.push_back(RequestBuilder{id}
                     .from(IngressId{id - 1})
                     .to(EgressId{0})
                     .window(TimePoint::at_seconds(0), TimePoint::at_seconds(1000))
                     .volume(Volume::megabytes(60))
                     .max_rate(Bandwidth::megabytes_per_second(60))
                     .build());
  }

  heuristics::WindowOptions opt;
  opt.step = Duration::seconds(10);
  opt.policy = heuristics::BandwidthPolicy::fraction_of_max(1.0);
  for (const auto engine :
       {heuristics::WindowEngine::kScan, heuristics::WindowEngine::kHeap}) {
    opt.engine = engine;
    const auto result = heuristics::schedule_flexible_window(net, rs, opt);
    EXPECT_TRUE(result.schedule.is_accepted(1)) << to_string(engine);
    EXPECT_FALSE(result.schedule.is_accepted(2)) << to_string(engine);
  }
}

TEST(WindowOrders, AllOrdersProduceValidDistinctNames) {
  using heuristics::CandidateOrder;
  EXPECT_EQ(to_string(CandidateOrder::kMinCost), "mincost");
  EXPECT_EQ(to_string(CandidateOrder::kEarliestDeadline), "edf");
  EXPECT_EQ(to_string(CandidateOrder::kShortestJob), "sjf");
}

TEST(WindowOrders, EdfSavesTheUrgentRequest) {
  // Two candidates, one port slot: EDF must pick the tight deadline even
  // though the loose one has lower utilization cost.
  const Network net = Network::uniform(2, 1, Bandwidth::megabytes_per_second(100));
  std::vector<Request> rs;
  // Tight: large bw (cost higher), deadline soon after the decision time.
  rs.push_back(RequestBuilder{1}
                   .from(IngressId{0})
                   .to(EgressId{0})
                   .window(TimePoint::at_seconds(0), TimePoint::at_seconds(25))
                   .volume(Volume::megabytes(100) * 10.0)
                   .max_rate(Bandwidth::megabytes_per_second(100))
                   .build());
  // Loose: small bw, deadline far away.
  rs.push_back(RequestBuilder{2}
                   .from(IngressId{1})
                   .to(EgressId{0})
                   .window(TimePoint::at_seconds(0), TimePoint::at_seconds(1000))
                   .volume(Volume::megabytes(60) * 10.0)
                   .max_rate(Bandwidth::megabytes_per_second(60))
                   .build());
  heuristics::WindowOptions opt;
  opt.step = Duration::seconds(5);
  opt.policy = heuristics::BandwidthPolicy::fraction_of_max(1.0);

  opt.order = heuristics::CandidateOrder::kMinCost;
  const auto mincost = heuristics::schedule_flexible_window(net, rs, opt);
  EXPECT_TRUE(mincost.schedule.is_accepted(2));   // cheaper candidate
  EXPECT_FALSE(mincost.schedule.is_accepted(1));  // 100+60 > 100 on egress

  opt.order = heuristics::CandidateOrder::kEarliestDeadline;
  const auto edf = heuristics::schedule_flexible_window(net, rs, opt);
  EXPECT_TRUE(edf.schedule.is_accepted(1));
  EXPECT_FALSE(edf.schedule.is_accepted(2));
}

}  // namespace
}  // namespace gridbw
