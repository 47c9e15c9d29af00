// AdmissionService (ISSUE 7 tentpole): the sharded steady-state churn
// engine. The load-bearing properties pinned here:
//
//  * determinism — same submissions give byte-identical decision
//    fingerprints and JSONL traces for any shard count, repeated runs, and
//    GC on vs off (DESIGN.md §5h);
//  * serial equivalence — the 1-shard service IS a serial replay, so every
//    multi-shard configuration is differentially checked against it;
//  * lifecycle accounting — admitted == expired once every reservation's
//    deadline has passed, and the port load returns to zero;
//  * GC — resident breakpoints stay O(live) under churn while decisions
//    match the GC-off run exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/counters.hpp"
#include "obs/trace_sink.hpp"
#include "service/admission_service.hpp"
#include "workload/generator.hpp"
#include "workload/load.hpp"
#include "workload/scenario.hpp"

namespace gridbw {
namespace {

constexpr std::uint64_t kSeeds[] = {7, 1234, 99999};

std::vector<Request> churn_workload(std::uint64_t seed, std::size_t count) {
  workload::Scenario scenario =
      workload::paper_rigid(Duration::seconds(1), Duration::seconds(1));
  scenario.spec.mean_interarrival =
      workload::interarrival_for_load(scenario.spec, scenario.network, 3.0);
  scenario.spec.horizon =
      scenario.spec.mean_interarrival * static_cast<double>(count);
  Rng rng{seed};
  auto requests = workload::generate(scenario.spec, rng);
  if (requests.size() > count) requests.resize(count);
  return requests;
}

const Network& churn_network() {
  static const Network net = workload::paper_rigid(Duration::seconds(1),
                                                   Duration::seconds(1))
                                 .network;
  return net;
}

service::ServiceReport run_service(const std::vector<Request>& requests,
                                   service::ServiceOptions options) {
  service::AdmissionService svc{churn_network(), std::move(options)};
  for (const Request& r : requests) svc.submit(r);
  return svc.drain();
}

TEST(Service, LifecycleAccountingAndZeroResidualLoad) {
  const auto requests = churn_workload(7, 800);
  service::AdmissionService svc{churn_network(), {}};
  for (const Request& r : requests) svc.submit(r);
  const service::ServiceReport report = svc.drain();

  EXPECT_EQ(report.submitted, requests.size());
  EXPECT_EQ(report.admitted + report.rejected, report.submitted);
  // Every admitted reservation's deadline lies inside the batch, so all of
  // them expired by the time the drain finished.
  EXPECT_EQ(report.expired, report.admitted);
  EXPECT_GT(report.admitted, 0u);
  EXPECT_GT(report.rejected, 0u);
  EXPECT_GT(report.live_peak, 1u);

  const service::ServiceSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.live, 0u);
  EXPECT_EQ(snap.ports, churn_network().ingress_count() + churn_network().egress_count());
  // All load released: the standing level at the last event is exactly 0
  // (adds and releases fold through identical doubles).
  EXPECT_EQ(snap.peak_standing_load, 0.0);
}

TEST(Service, DeterministicAcrossRunsShardsAndGc) {
  for (const std::uint64_t seed : kSeeds) {
    const auto requests = churn_workload(seed, 600);
    const service::ServiceReport base =
        run_service(requests, {.shards = 1, .gc = true});
    ASSERT_GT(base.admitted, 0u);
    for (const std::size_t shards : {1u, 2u, 4u, 7u}) {
      for (const bool gc : {true, false}) {
        const service::ServiceReport other =
            run_service(requests, {.shards = shards, .gc = gc});
        EXPECT_EQ(other.decision_fingerprint, base.decision_fingerprint)
            << "seed " << seed << " shards " << shards << " gc " << gc;
        EXPECT_EQ(other.admitted, base.admitted);
        EXPECT_EQ(other.rejected, base.rejected);
        EXPECT_EQ(other.live_peak, base.live_peak);
      }
    }
  }
}

TEST(Service, TraceByteIdenticalAcrossShardCounts) {
  const auto requests = churn_workload(1234, 400);
  std::vector<std::string> traces;
  for (const std::size_t shards : {1u, 4u}) {
    std::ostringstream out;
    {
      obs::JsonlSink sink{out};
      obs::CounterRegistry counters;
      obs::Observer observer{&sink, &counters};
      service::ServiceOptions options;
      options.shards = shards;
      options.observer = &observer;
      service::AdmissionService svc{churn_network(), std::move(options)};
      for (const Request& r : requests) svc.submit(r);
      const service::ServiceReport report = svc.drain();
      sink.flush();
      EXPECT_EQ(counters.value(obs::Counter::kSubmitted), report.submitted);
      EXPECT_EQ(counters.value(obs::Counter::kAccepted), report.admitted);
      EXPECT_EQ(counters.value(obs::Counter::kExpired), report.expired);
      if (shards == 1) {
        EXPECT_EQ(counters.value(obs::Counter::kShardHandoffs), 0u);
      }
    }
    traces.push_back(out.str());
  }
  ASSERT_FALSE(traces[0].empty());
  EXPECT_EQ(traces[0], traces[1]);
}

TEST(Service, GcBoundsResidentBreakpointsWithoutChangingDecisions) {
  const auto requests = churn_workload(99999, 2000);
  const service::ServiceReport on =
      run_service(requests, {.shards = 2, .gc = true, .gc_batch = 32});
  const service::ServiceReport off =
      run_service(requests, {.shards = 2, .gc = false});
  EXPECT_EQ(on.decision_fingerprint, off.decision_fingerprint);
  EXPECT_GT(on.breakpoints_retired, 0u);
  EXPECT_GT(on.compactions, 0u);
  EXPECT_LT(on.resident_breakpoints, off.resident_breakpoints);
}

TEST(Service, MultiBatchDrainKeepsPortStateAndSequencing) {
  auto requests = churn_workload(7, 400);
  std::sort(requests.begin(), requests.end(),
            [](const Request& a, const Request& b) { return a.release < b.release; });
  const std::size_t half = requests.size() / 2;

  // GC off: the two batches overlap in time, so there is no safe
  // retirement horizon between them (see the class contract).
  service::AdmissionService svc{churn_network(), {.shards = 3, .gc = false}};
  for (std::size_t k = 0; k < half; ++k) svc.submit(requests[k]);
  const service::ServiceReport first = svc.drain();
  for (std::size_t k = half; k < requests.size(); ++k) svc.submit(requests[k]);
  const service::ServiceReport second = svc.drain();
  EXPECT_EQ(first.submitted + second.submitted, requests.size());

  // The split replay must agree with the single-batch run wherever windows
  // don't straddle the batch boundary; at minimum, totals reconcile and the
  // port state fully drains.
  EXPECT_EQ(first.admitted + second.admitted, first.expired + second.expired);
  EXPECT_EQ(svc.snapshot().live, 0u);
  EXPECT_TRUE(svc.was_admitted(requests[0].id) ||
              !svc.was_admitted(requests[0].id));  // id lookup stays valid
}

TEST(Service, DrainRacingInFlightSubmitMatchesQuiescedDecisions) {
  // ISSUE 9 satellite: submit() is documented thread-safe against drain()
  // (the seal under ingest_mu decides which batch a request lands in). A
  // submitter thread feeds requests in increasing release order while the
  // main thread drains continuously, so seal points fall at arbitrary
  // prefixes. The workload is order-robust — windows are pairwise disjoint
  // (deadline_k == release_{k+1}, half-open reservations) and every 5th
  // request is infeasible on its own (min rate above its cap), so the
  // admit/reject outcome of each id is independent of how the batch
  // boundaries land. The racing run must therefore reproduce the quiesced
  // single-drain decisions byte-for-byte, and TSan must stay silent on the
  // ingest queue.
  const Network& net = churn_network();
  std::vector<Request> requests;
  constexpr std::size_t kCount = 600;
  for (std::size_t k = 0; k < kCount; ++k) {
    Request r;
    r.id = static_cast<RequestId>(k + 1);
    r.ingress = IngressId{k % net.ingress_count()};
    r.egress = EgressId{k % net.egress_count()};
    r.release = TimePoint::at_seconds(static_cast<double>(k));
    r.deadline = TimePoint::at_seconds(static_cast<double>(k) + 1.0);
    if (k % 5 == 4) {
      // Needs 100 GB/s from a 1 MB/s cap: rejected regardless of port state.
      r.volume = Volume::gigabytes(100);
      r.max_rate = Bandwidth::megabytes_per_second(1);
    } else {
      r.volume = Volume::megabytes(10);
      r.max_rate = Bandwidth::megabytes_per_second(50);
    }
    requests.push_back(r);
  }

  // Quiesced reference: everything in one sealed batch.
  service::AdmissionService reference{net, {.shards = 2, .gc = true, .gc_batch = 8}};
  for (const Request& r : requests) reference.submit(r);
  const service::ServiceReport quiesced = reference.drain();
  EXPECT_EQ(quiesced.submitted, kCount);
  EXPECT_EQ(quiesced.rejected, kCount / 5);
  EXPECT_EQ(quiesced.admitted, kCount - kCount / 5);

  // Racing run: drains seal whatever prefix the submitter has managed.
  service::AdmissionService svc{net, {.shards = 3, .gc = true, .gc_batch = 8}};
  std::atomic<std::size_t> submitted{0};
  std::thread submitter{[&] {
    for (std::size_t k = 0; k < kCount; ++k) {
      svc.submit(requests[k]);
      submitted.fetch_add(1, std::memory_order_release);
      if (k % 64 == 63) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      else if (k % 16 == 15) std::this_thread::yield();
    }
  }};
  std::size_t total = 0, batches_with_work = 0;
  std::size_t total_admitted = 0, total_rejected = 0, total_expired = 0;
  while (total < kCount) {
    const service::ServiceReport report = svc.drain();
    total += report.submitted;
    total_admitted += report.admitted;
    total_rejected += report.rejected;
    total_expired += report.expired;
    if (report.submitted > 0) ++batches_with_work;
    if (total < kCount) std::this_thread::yield();
  }
  submitter.join();
  // Flush any straggler sealed after the last counted drain (none expected,
  // but drain() on an empty queue is a cheap no-op).
  const service::ServiceReport tail = svc.drain();
  EXPECT_EQ(tail.submitted, 0u);

  EXPECT_EQ(total, kCount);
  EXPECT_GE(batches_with_work, 2u) << "race degenerated into a single batch";
  EXPECT_EQ(total_admitted, quiesced.admitted);
  EXPECT_EQ(total_rejected, quiesced.rejected);
  EXPECT_EQ(total_expired, quiesced.expired);
  for (const Request& r : requests) {
    EXPECT_EQ(svc.was_admitted(r.id), reference.was_admitted(r.id))
        << "request " << r.id << " decided differently under racing drains";
  }
  const service::ServiceSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.live, 0u);
  EXPECT_EQ(snap.peak_standing_load, 0.0);
}

TEST(Service, RejectsDegenerateAndInfeasibleUpFront) {
  service::AdmissionService svc{churn_network(), {}};
  Request degenerate;
  degenerate.id = 1;
  degenerate.ingress = IngressId{0};
  degenerate.egress = EgressId{0};
  degenerate.release = TimePoint::at_seconds(5.0);
  degenerate.deadline = TimePoint::at_seconds(5.0);
  degenerate.volume = Volume::gigabytes(1);
  degenerate.max_rate = Bandwidth::gigabytes_per_second(1);
  svc.submit(degenerate);

  Request infeasible;
  infeasible.id = 2;
  infeasible.ingress = IngressId{1};
  infeasible.egress = EgressId{1};
  infeasible.release = TimePoint::at_seconds(0.0);
  infeasible.deadline = TimePoint::at_seconds(1.0);
  infeasible.volume = Volume::gigabytes(100);  // min_rate >> max_rate
  infeasible.max_rate = Bandwidth::megabytes_per_second(1);
  svc.submit(infeasible);

  const service::ServiceReport report = svc.drain();
  EXPECT_EQ(report.submitted, 2u);
  EXPECT_EQ(report.rejected, 2u);
  EXPECT_EQ(report.admitted, 0u);
  EXPECT_FALSE(svc.was_admitted(1));
  EXPECT_FALSE(svc.was_admitted(2));
}

Request valid_request() {
  Request r;
  r.id = 1;
  r.ingress = IngressId{0};
  r.egress = EgressId{0};
  r.release = TimePoint::at_seconds(0.0);
  r.deadline = TimePoint::at_seconds(10.0);
  r.volume = Volume::megabytes(10);
  r.max_rate = Bandwidth::gigabytes_per_second(1);
  return r;
}

TEST(Service, SubmitThrowsOnPortIdsOutsideTheNetwork) {
  service::AdmissionService svc{churn_network(), {}};
  Request bad_ingress = valid_request();
  bad_ingress.ingress = IngressId{churn_network().ingress_count()};
  EXPECT_THROW(svc.submit(bad_ingress), std::invalid_argument);
  Request bad_egress = valid_request();
  bad_egress.egress = EgressId{churn_network().egress_count() + 7};
  EXPECT_THROW(svc.submit(bad_egress), std::invalid_argument);
  // Nothing was queued: the next drain sees only the valid request.
  svc.submit(valid_request());
  const service::ServiceReport report = svc.drain();
  EXPECT_EQ(report.submitted, 1u);
  EXPECT_EQ(report.admitted, 1u);
}

TEST(Service, SubmitThrowsOnNonFiniteOrNegativeFigures) {
  service::AdmissionService svc{churn_network(), {}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Request nan_release = valid_request();
  nan_release.release = TimePoint::at_seconds(nan);
  EXPECT_THROW(svc.submit(nan_release), std::invalid_argument);
  Request nan_deadline = valid_request();
  nan_deadline.deadline = TimePoint::at_seconds(nan);
  EXPECT_THROW(svc.submit(nan_deadline), std::invalid_argument);
  Request inf_deadline = valid_request();
  inf_deadline.deadline = TimePoint::at_seconds(inf);
  EXPECT_THROW(svc.submit(inf_deadline), std::invalid_argument);
  Request nan_volume = valid_request();
  nan_volume.volume = Volume::bytes(nan);
  EXPECT_THROW(svc.submit(nan_volume), std::invalid_argument);
  Request negative_volume = valid_request();
  negative_volume.volume = Volume::bytes(-1e6);
  EXPECT_THROW(svc.submit(negative_volume), std::invalid_argument);
  EXPECT_EQ(svc.drain().submitted, 0u);
}

}  // namespace
}  // namespace gridbw
