// Unit tests for the two allocation books.

#include "core/ledger.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/step_function.hpp"
#include "util/random.hpp"
#include "workload/generator.hpp"
#include "workload/load.hpp"
#include "workload/scenario.hpp"

namespace gridbw {
namespace {

TimePoint at(double s) { return TimePoint::at_seconds(s); }
Bandwidth mbps(double m) { return Bandwidth::megabytes_per_second(m); }

class NetworkLedgerTest : public ::testing::Test {
 protected:
  Network net_ = Network::uniform(2, 2, mbps(100));
  NetworkLedger ledger_{net_};
};

TEST_F(NetworkLedgerTest, FreshLedgerFitsUpToCapacity) {
  EXPECT_TRUE(ledger_.fits(IngressId{0}, EgressId{0}, at(0), at(10), mbps(100)));
  EXPECT_FALSE(ledger_.fits(IngressId{0}, EgressId{0}, at(0), at(10), mbps(101)));
}

TEST_F(NetworkLedgerTest, ReserveConsumesBothPorts) {
  ledger_.reserve(IngressId{0}, EgressId{1}, at(0), at(10), mbps(60));
  EXPECT_FALSE(ledger_.fits(IngressId{0}, EgressId{0}, at(5), at(8), mbps(50)));
  EXPECT_FALSE(ledger_.fits(IngressId{1}, EgressId{1}, at(5), at(8), mbps(50)));
  EXPECT_TRUE(ledger_.fits(IngressId{1}, EgressId{0}, at(5), at(8), mbps(100)));
  EXPECT_TRUE(ledger_.fits(IngressId{0}, EgressId{0}, at(5), at(8), mbps(40)));
}

TEST_F(NetworkLedgerTest, DisjointTimesDoNotConflict) {
  ledger_.reserve(IngressId{0}, EgressId{0}, at(0), at(10), mbps(100));
  EXPECT_TRUE(ledger_.fits(IngressId{0}, EgressId{0}, at(10), at(20), mbps(100)));
}

TEST_F(NetworkLedgerTest, ReleaseRestoresHeadroom) {
  ledger_.reserve(IngressId{0}, EgressId{0}, at(0), at(10), mbps(80));
  EXPECT_FALSE(ledger_.fits(IngressId{0}, EgressId{0}, at(0), at(10), mbps(30)));
  ledger_.release(IngressId{0}, EgressId{0}, at(0), at(10), mbps(80));
  EXPECT_TRUE(ledger_.fits(IngressId{0}, EgressId{0}, at(0), at(10), mbps(100)));
}

TEST_F(NetworkLedgerTest, ExactFillAcceptedWithinTolerance) {
  ledger_.reserve(IngressId{0}, EgressId{0}, at(0), at(10), mbps(60));
  ledger_.reserve(IngressId{0}, EgressId{0}, at(0), at(10), mbps(40));
  // Sum is exactly the capacity; one more byte/s must fail, zero must fit.
  EXPECT_TRUE(ledger_.fits(IngressId{0}, EgressId{0}, at(0), at(10), Bandwidth::zero()));
  EXPECT_FALSE(ledger_.fits(IngressId{0}, EgressId{0}, at(0), at(10), mbps(1)));
}

TEST_F(NetworkLedgerTest, ProfilesAreExposedForInspection) {
  ledger_.reserve(IngressId{1}, EgressId{0}, at(2), at(4), mbps(10));
  EXPECT_DOUBLE_EQ(ledger_.ingress_profile(IngressId{1}).value_at(at(3)), 1e7);
  EXPECT_DOUBLE_EQ(ledger_.egress_profile(EgressId{0}).value_at(at(3)), 1e7);
  EXPECT_DOUBLE_EQ(ledger_.ingress_profile(IngressId{0}).value_at(at(3)), 0.0);
}

/// Drives an FCFS-style admit/release sequence over `requests`, mirroring
/// every reservation into per-port StepFunction oracles, and checks each
/// `fits` against approx_le over the oracles' peaks.
void check_fits_against_oracle(const Network& network, std::span<const Request> requests) {
  NetworkLedger ledger{network};
  std::vector<StepFunction> in_oracle(network.ingress_count());
  std::vector<StepFunction> out_oracle(network.egress_count());
  const auto mirror = [&](const Request& r, double bw) {
    in_oracle[r.ingress.value].add(r.release, r.deadline, bw);
    out_oracle[r.egress.value].add(r.release, r.deadline, bw);
  };
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  for (const Request& r : requests) {
    if (!(r.deadline > r.release)) continue;
    const Bandwidth bw = r.min_rate();
    const double b = bw.to_bytes_per_second();
    const bool want =
        approx_le(Bandwidth::bytes_per_second(
                      in_oracle[r.ingress.value].max_over(r.release, r.deadline) + b),
                  network.ingress_capacity(r.ingress)) &&
        approx_le(Bandwidth::bytes_per_second(
                      out_oracle[r.egress.value].max_over(r.release, r.deadline) + b),
                  network.egress_capacity(r.egress));
    ASSERT_EQ(ledger.fits(r.ingress, r.egress, r.release, r.deadline, bw), want)
        << r.describe();
    if (!want) {
      ++rejected;
      continue;
    }
    ledger.reserve(r.ingress, r.egress, r.release, r.deadline, bw);
    mirror(r, b);
    ++admitted;
    // Exercise release on a third of admissions.
    if (admitted % 3 == 0) {
      ledger.release(r.ingress, r.egress, r.release, r.deadline, bw);
      mirror(r, -b);
    }
  }
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(NetworkLedgerFitTest, FitsMatchesStepFunctionOracleOnFig4Workloads) {
  for (const std::uint64_t seed : {11u, 4242u, 987654321u}) {
    workload::Scenario scenario =
        workload::paper_rigid(Duration::seconds(1), Duration::seconds(1));
    scenario.spec.mean_interarrival =
        workload::interarrival_for_load(scenario.spec, scenario.network, 3.0);
    scenario.spec.horizon = scenario.spec.mean_interarrival * 10000.0;
    Rng rng{seed};
    auto requests = workload::generate(scenario.spec, rng);
    requests.resize(std::min<std::size_t>(requests.size(), 10000));
    ASSERT_GT(requests.size(), 1000u) << "seed=" << seed;
    check_fits_against_oracle(scenario.network, requests);
  }
}

TEST(NetworkLedgerFitTest, EffectivelyZeroCapacityPortsNeverAdmit) {
  // Network requires positive capacities, so "zero-capacity port" means a
  // capacity below the admission tolerance (1 byte/s): nothing above the
  // tolerance can ever fit, on a dense profile of sub-capacity reservations.
  const Network net = Network::uniform(2, 2, Bandwidth::bytes_per_second(1e-3));
  NetworkLedger ledger{net};
  for (int k = 0; k < 200; ++k) {
    ledger.reserve(IngressId{0}, EgressId{0}, at(k), at(k + 1),
                   Bandwidth::bytes_per_second(1e-6));
  }
  for (int k = 0; k < 500; ++k) {
    EXPECT_FALSE(ledger.fits(IngressId{0}, EgressId{0}, at(k % 100), at(k % 100 + 5),
                             Bandwidth::bytes_per_second(2.0)));
    EXPECT_TRUE(ledger.fits(IngressId{0}, EgressId{0}, at(k % 100), at(k % 100 + 5),
                            Bandwidth::zero()));
  }
}

TEST(NetworkLedgerFitTest, SliverWindowsReleaseEqualsDeadline) {
  const Network net = Network::uniform(2, 2, mbps(100));
  NetworkLedger ledger{net};
  for (int k = 0; k < 300; ++k) {
    ledger.reserve(IngressId{0}, EgressId{0}, at(k), at(k + 2), mbps(1));
  }
  for (int k = 0; k < 300; ++k) {
    const TimePoint t = at(k + 0.5);
    // Zero-width [t, t) windows (release == deadline slivers): a rate that
    // fits next to the standing load, and one that exceeds the port outright.
    for (const double mb : {50.0, 500.0}) {
      const bool want = mb <= 99.0;  // 1 MB/s standing load on a 100 MB/s port
      EXPECT_EQ(ledger.fits(IngressId{0}, EgressId{0}, t, t, mbps(mb)), want)
          << "t=" << t.to_seconds() << " bw=" << mb;
      EXPECT_EQ(ledger.fits_ingress(IngressId{0}, t, t, mbps(mb)), want);
      EXPECT_EQ(ledger.fits_egress(EgressId{0}, t, t, mbps(mb)), want);
    }
  }
}

class CounterLedgerTest : public ::testing::Test {
 protected:
  Network net_ = Network::uniform(2, 2, mbps(100));
  CounterLedger counters_{net_};
};

TEST_F(CounterLedgerTest, StartsEmpty) {
  EXPECT_EQ(counters_.allocated_ingress(IngressId{0}), Bandwidth::zero());
  EXPECT_EQ(counters_.allocated_egress(EgressId{1}), Bandwidth::zero());
  EXPECT_TRUE(counters_.fits(IngressId{0}, EgressId{0}, mbps(100)));
}

TEST_F(CounterLedgerTest, AllocateAndReclaim) {
  counters_.allocate(IngressId{0}, EgressId{1}, mbps(70));
  EXPECT_EQ(counters_.allocated_ingress(IngressId{0}), mbps(70));
  EXPECT_EQ(counters_.allocated_egress(EgressId{1}), mbps(70));
  EXPECT_FALSE(counters_.fits(IngressId{0}, EgressId{0}, mbps(40)));
  EXPECT_TRUE(counters_.fits(IngressId{0}, EgressId{0}, mbps(30)));
  counters_.reclaim(IngressId{0}, EgressId{1}, mbps(70));
  EXPECT_TRUE(counters_.fits(IngressId{0}, EgressId{1}, mbps(100)));
}

TEST_F(CounterLedgerTest, FitsChecksBothPorts) {
  counters_.allocate(IngressId{0}, EgressId{0}, mbps(90));
  EXPECT_FALSE(counters_.fits(IngressId{0}, EgressId{1}, mbps(20)));  // ingress full
  EXPECT_FALSE(counters_.fits(IngressId{1}, EgressId{0}, mbps(20)));  // egress full
  EXPECT_TRUE(counters_.fits(IngressId{1}, EgressId{1}, mbps(100)));
}

TEST_F(CounterLedgerTest, UtilizationWithHypotheticalRequest) {
  counters_.allocate(IngressId{0}, EgressId{0}, mbps(50));
  EXPECT_DOUBLE_EQ(counters_.ingress_util_with(IngressId{0}, mbps(25)), 0.75);
  EXPECT_DOUBLE_EQ(counters_.egress_util_with(EgressId{0}, mbps(50)), 1.0);
  EXPECT_DOUBLE_EQ(counters_.ingress_util_with(IngressId{1}, Bandwidth::zero()), 0.0);
}

TEST_F(CounterLedgerTest, ReclaimClampsDriftBelowZero) {
  counters_.allocate(IngressId{0}, EgressId{0}, mbps(10));
  counters_.reclaim(IngressId{0}, EgressId{0},
                    mbps(10) + Bandwidth::bytes_per_second(1e-4));
  EXPECT_GE(counters_.allocated_ingress(IngressId{0}).to_bytes_per_second(), 0.0);
  EXPECT_GE(counters_.allocated_egress(EgressId{0}).to_bytes_per_second(), 0.0);
}

TEST_F(CounterLedgerTest, DriftWithinToleranceStaysSilent) {
  // FP noise (sub-byte/s undershoot) is clamped without waking the anomaly
  // hook: no assertion, no kLedgerDriftClamped bump.
  obs::CounterRegistry registry;
  obs::Observer observer{nullptr, &registry};
  counters_.attach_observer(&observer);
  counters_.allocate(IngressId{0}, EgressId{0}, mbps(10));
  counters_.reclaim(IngressId{0}, EgressId{0},
                    mbps(10) + Bandwidth::bytes_per_second(0.5));
  EXPECT_EQ(registry.value(obs::Counter::kLedgerDriftClamped), 0u);
  EXPECT_EQ(counters_.allocated_ingress(IngressId{0}), Bandwidth::zero());
}

// Regression (ISSUE 6 satellite): reclaiming more than was allocated — a
// mismatched allocate/reclaim pair — used to be clamped to zero silently,
// hiding the accounting bug while leaving fits() optimistically biased for
// the rest of the run. It now trips a debug assertion; in assertion-free
// builds it bumps kLedgerDriftClamped on the attached observer instead.
TEST_F(CounterLedgerTest, ReclaimDriftBeyondToleranceIsLoud) {
  obs::CounterRegistry registry;
  obs::Observer observer{nullptr, &registry};
  counters_.attach_observer(&observer);
  counters_.allocate(IngressId{0}, EgressId{0}, mbps(10));
#ifndef NDEBUG
  EXPECT_DEATH(counters_.reclaim(IngressId{0}, EgressId{0}, mbps(20)),
               "drift beyond tolerance");
#else
  counters_.reclaim(IngressId{0}, EgressId{0}, mbps(20));
  // Both the ingress and the egress counter went 10 MB/s negative.
  EXPECT_EQ(registry.value(obs::Counter::kLedgerDriftClamped), 2u);
  // The clamp itself still holds: counters never stay negative.
  EXPECT_EQ(counters_.allocated_ingress(IngressId{0}), Bandwidth::zero());
  EXPECT_EQ(counters_.allocated_egress(EgressId{0}), Bandwidth::zero());
#endif
}

TEST_F(CounterLedgerTest, DriftHookDetachesWithNull) {
  obs::CounterRegistry registry;
  obs::Observer observer{nullptr, &registry};
  counters_.attach_observer(&observer);
  counters_.attach_observer(nullptr);
  counters_.allocate(IngressId{0}, EgressId{0}, mbps(10));
#ifdef NDEBUG
  counters_.reclaim(IngressId{0}, EgressId{0}, mbps(20));
  EXPECT_EQ(registry.value(obs::Counter::kLedgerDriftClamped), 0u);
#endif
}

TEST_F(CounterLedgerTest, ManyAllocReclaimCyclesStayExact) {
  for (int k = 0; k < 10000; ++k) {
    counters_.allocate(IngressId{0}, EgressId{0}, mbps(33.3));
    counters_.reclaim(IngressId{0}, EgressId{0}, mbps(33.3));
  }
  EXPECT_NEAR(counters_.allocated_ingress(IngressId{0}).to_bytes_per_second(), 0.0, 1.0);
  EXPECT_TRUE(counters_.fits(IngressId{0}, EgressId{0}, mbps(100)));
}

TEST_F(CounterLedgerTest, ResetZeroesInPlace) {
  counters_.allocate(IngressId{0}, EgressId{1}, mbps(70));
  counters_.allocate(IngressId{1}, EgressId{0}, mbps(40));
  counters_.reset();
  EXPECT_EQ(counters_.allocated_ingress(IngressId{0}), Bandwidth::zero());
  EXPECT_EQ(counters_.allocated_ingress(IngressId{1}), Bandwidth::zero());
  EXPECT_EQ(counters_.allocated_egress(EgressId{0}), Bandwidth::zero());
  EXPECT_EQ(counters_.allocated_egress(EgressId{1}), Bandwidth::zero());
}

class AdmissionLedgerTest : public ::testing::Test {
 protected:
  Network net_ = Network::uniform(2, 2, mbps(100));
  AdmissionLedger book_{net_, 4};
};

TEST_F(AdmissionLedgerTest, TryAdmitAllocatesAndRecords) {
  EXPECT_TRUE(book_.try_admit(0, IngressId{0}, EgressId{0}, mbps(60)));
  EXPECT_TRUE(book_.is_admitted(0));
  EXPECT_EQ(book_.admitted_bw(0), mbps(60));
  EXPECT_EQ(book_.counters().allocated_ingress(IngressId{0}), mbps(60));
}

TEST_F(AdmissionLedgerTest, TryAdmitRejectsWithoutSideEffects) {
  EXPECT_TRUE(book_.try_admit(0, IngressId{0}, EgressId{0}, mbps(80)));
  EXPECT_FALSE(book_.try_admit(1, IngressId{0}, EgressId{1}, mbps(30)));
  EXPECT_FALSE(book_.is_admitted(1));
  EXPECT_EQ(book_.counters().allocated_ingress(IngressId{0}), mbps(80));
  EXPECT_EQ(book_.counters().allocated_egress(EgressId{1}), Bandwidth::zero());
}

TEST_F(AdmissionLedgerTest, DropReclaimsExactlyOnce) {
  ASSERT_TRUE(book_.try_admit(0, IngressId{0}, EgressId{0}, mbps(80)));
  book_.drop(0, IngressId{0}, EgressId{0});
  EXPECT_FALSE(book_.is_admitted(0));
  EXPECT_EQ(book_.counters().allocated_ingress(IngressId{0}), Bandwidth::zero());
  // A second drop of the same member must be a no-op.
  book_.drop(0, IngressId{0}, EgressId{0});
  EXPECT_EQ(book_.counters().allocated_ingress(IngressId{0}), Bandwidth::zero());
  EXPECT_TRUE(book_.try_admit(1, IngressId{0}, EgressId{0}, mbps(100)));
}

TEST_F(AdmissionLedgerTest, DropOfNeverAdmittedIsNoOp) {
  book_.drop(3, IngressId{1}, EgressId{1});
  EXPECT_EQ(book_.counters().allocated_ingress(IngressId{1}), Bandwidth::zero());
}

TEST_F(AdmissionLedgerTest, ResetClearsEverything) {
  ASSERT_TRUE(book_.try_admit(0, IngressId{0}, EgressId{0}, mbps(50)));
  ASSERT_TRUE(book_.try_admit(1, IngressId{1}, EgressId{1}, mbps(50)));
  book_.reset();
  EXPECT_FALSE(book_.is_admitted(0));
  EXPECT_FALSE(book_.is_admitted(1));
  EXPECT_TRUE(book_.try_admit(2, IngressId{0}, EgressId{0}, mbps(100)));
}

}  // namespace
}  // namespace gridbw
