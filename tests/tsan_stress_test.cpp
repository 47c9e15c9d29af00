// Concurrency stress tests, written to run under ThreadSanitizer
// (GRIDBW_SANITIZE=thread / scripts/check.sh --tsan) as the race-detection
// wall for the parallel surfaces. They also run in every plain build as
// functional tests; only under TSan do they additionally prove the absence
// of data races.
//
// The shared-profile tests are the regression for the lazy-merge hazard:
// TimelineProfile queries mutate `mutable` caches on the first query after
// a batch of adds, so sharing an *unmerged* profile across threads is a
// data race. The validator's parallel engine materializes every port
// profile in a dedicated pre-pass (validate.cpp) before its query sweep;
// these tests pin both that path and the direct shared-query contract.
// Dropping `ensure_merged()` below (or the validator's pre-pass) makes TSan
// halt with a report.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/timeline_profile.hpp"
#include "core/validate.hpp"
#include "obs/counters.hpp"
#include "service/admission_service.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"
#include "workload/load.hpp"
#include "workload/scenario.hpp"

namespace gridbw {
namespace {

constexpr std::uint64_t kSeeds[] = {7, 1234, 99999};

struct BigWorkload {
  workload::Scenario scenario;
  std::vector<Request> requests;
};

BigWorkload big_workload(std::uint64_t seed, std::size_t count) {
  workload::Scenario scenario =
      workload::paper_flexible(Duration::seconds(1), Duration::seconds(1), 4.0);
  scenario.spec.mean_interarrival =
      workload::interarrival_for_load(scenario.spec, scenario.network, 3.0);
  scenario.spec.horizon =
      scenario.spec.mean_interarrival * static_cast<double>(count);
  Rng rng{seed};
  auto requests = workload::generate(scenario.spec, rng);
  if (requests.size() > count) requests.resize(count);
  return BigWorkload{std::move(scenario), std::move(requests)};
}

TEST(TsanStress, ParallelValidation10kRequestsAcrossSeeds) {
  for (const std::uint64_t seed : kSeeds) {
    const auto [scenario, requests] = big_workload(seed, 10000);
    ASSERT_GT(requests.size(), 5000u);

    // Accept-all at MinRate overloads the ports, so the parallel sweep has
    // real capacity violations to find and merge deterministically.
    std::vector<Assignment> assignments;
    assignments.reserve(requests.size());
    for (const Request& r : requests) {
      assignments.push_back(Assignment{r.id, r.release, r.min_rate()});
    }

    ValidateOptions parallel_opts;
    parallel_opts.engine = ValidateEngine::kParallel;
    parallel_opts.threads = 8;
    const auto parallel =
        validate_assignments(scenario.network, requests, assignments, parallel_opts);

    ValidateOptions serial_opts;
    serial_opts.engine = ValidateEngine::kSerial;
    const auto serial =
        validate_assignments(scenario.network, requests, assignments, serial_opts);

    EXPECT_FALSE(parallel.ok()) << "seed=" << seed;
    ASSERT_EQ(parallel.violations.size(), serial.violations.size()) << "seed=" << seed;
    for (std::size_t k = 0; k < parallel.violations.size(); ++k) {
      EXPECT_EQ(parallel.violations[k].detail, serial.violations[k].detail)
          << "seed=" << seed << " #" << k;
    }
  }
}

TEST(TsanStress, SharedMergedProfileSurvivesConcurrentQueries) {
  TimelineProfile profile;
  for (int k = 0; k < 5000; ++k) {
    const double t0 = static_cast<double>((k * 37) % 1000);
    profile.add(TimePoint::at_seconds(t0),
                TimePoint::at_seconds(t0 + 5.0 + static_cast<double>(k % 7)), 1.0);
  }
  // THE FIX UNDER TEST: materialize the lazy caches before sharing. Remove
  // this line and the first concurrent queries below race on the merge.
  profile.ensure_merged();
  ASSERT_TRUE(profile.merged());

  const double expected_peak = profile.global_max();
  const double expected_integral =
      profile.integral(TimePoint::origin(), TimePoint::at_seconds(1100.0));

  ThreadPool pool{8};
  std::atomic<int> mismatches{0};
  parallel_for_index(pool, 64, [&](std::size_t i) {
    const auto t = TimePoint::at_seconds(static_cast<double>(i % 1000));
    if (profile.value_at(t) < 0.0) ++mismatches;
    if (profile.global_max() != expected_peak) ++mismatches;
    if (profile.max_over(t, t + Duration::seconds(50)) > expected_peak) ++mismatches;
    if (profile.integral(TimePoint::origin(), TimePoint::at_seconds(1100.0)) !=
        expected_integral) {
      ++mismatches;
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(profile.merged()) << "concurrent queries must not unmerge";
}

TEST(TsanStress, ParallelForIndexExceptionPropagationUnderLoad) {
  ThreadPool pool{8};
  for (int round = 0; round < 20; ++round) {
    try {
      parallel_for_index(pool, 256, [&](std::size_t i) {
        if (i % 50 == 3) {  // fails at 3, 53, 103, ... — 3 must win
          throw std::runtime_error{std::to_string(i)};
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3") << "round " << round;
    }
  }
}

TEST(TsanStress, CounterRegistryHammeredFromPoolMergesExactly) {
  // The observability counters take relaxed atomic adds on per-thread
  // shards; the merge must be exact once writers quiesce, independent of
  // how the pool interleaved them. Under TSan this also proves the
  // shard-growth lock and the thread-local shard cache are race-free.
  obs::CounterRegistry registry;
  ThreadPool pool{8};
  constexpr std::size_t kTasks = 512;
  constexpr std::uint64_t kPerTask = 1000;
  parallel_for_index(pool, kTasks, [&](std::size_t) {
    for (std::uint64_t k = 0; k < kPerTask; ++k) {
      registry.add(obs::Counter::kSubmitted);
      if (k % 3 == 0) registry.add(obs::Counter::kAccepted, 2);
    }
    // Concurrent reads must see a consistent lower bound, never garbage.
    if (registry.value(obs::Counter::kSubmitted) > kTasks * kPerTask) {
      ADD_FAILURE() << "merged value overshot the writers";
    }
  });
  EXPECT_EQ(registry.value(obs::Counter::kSubmitted), kTasks * kPerTask);
  EXPECT_EQ(registry.value(obs::Counter::kAccepted),
            2 * kTasks * ((kPerTask + 2) / 3));
  registry.reset();
  EXPECT_EQ(registry.value(obs::Counter::kSubmitted), 0u);
}

TEST(TsanStress, TwoRegistriesHammeredConcurrentlyStayIsolated) {
  obs::CounterRegistry a;
  obs::CounterRegistry b;
  ThreadPool pool{8};
  parallel_for_index(pool, 256, [&](std::size_t i) {
    obs::CounterRegistry& target = (i % 2 == 0) ? a : b;
    for (int k = 0; k < 500; ++k) target.add(obs::Counter::kRejected);
  });
  EXPECT_EQ(a.value(obs::Counter::kRejected), 128u * 500u);
  EXPECT_EQ(b.value(obs::Counter::kRejected), 128u * 500u);
}

TEST(TsanStress, SubmitRacingShutdownNeverDropsOrDeadlocks) {
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> ran{0};
    std::atomic<int> rejected{0};
    auto pool = std::make_unique<ThreadPool>(4);
    ThreadPool submitters{4};
    std::vector<std::future<void>> feeds;
    for (int s = 0; s < 4; ++s) {
      feeds.push_back(submitters.submit([&] {
        for (int k = 0; k < 200; ++k) {
          try {
            (void)pool->submit([&ran] { ++ran; });
          } catch (const std::runtime_error&) {
            ++rejected;
          }
        }
      }));
    }
    pool->shutdown();  // races against the feeders
    for (auto& f : feeds) f.get();
    pool.reset();
    // Every submit either executed (shutdown drains the queue) or threw.
    EXPECT_EQ(ran.load() + rejected.load(), 800) << "round " << round;
  }
}

// The sharded churn service is the newest parallel surface (DESIGN.md §5h):
// worker threads execute per-port sequence-gated events under two-shard
// lock ordering while the GC folds retired breakpoints under the same
// locks. This hammer drives concurrent ingest (4 submitter threads) into an
// 8-shard drain with an aggressive GC cadence, across seeds, and checks the
// decisions still match the serial 1-shard GC-off replay bit for bit. Under
// TSan this additionally proves the ingest queue, the shard condvars, and
// the GC mutations race-free.
TEST(TsanStress, ShardedAdmissionServiceMatchesSerialReplayUnderHammer) {
  for (const std::uint64_t seed : kSeeds) {
    const auto [scenario, requests] = big_workload(seed, 4000);
    ASSERT_GT(requests.size(), 1000u);

    service::ServiceOptions serial_opts;
    serial_opts.shards = 1;
    serial_opts.gc = false;
    service::AdmissionService serial{scenario.network, std::move(serial_opts)};
    for (const Request& r : requests) serial.submit(r);
    const service::ServiceReport expected = serial.drain();

    service::ServiceOptions sharded_opts;
    sharded_opts.shards = 8;
    sharded_opts.gc = true;
    sharded_opts.gc_batch = 8;  // aggressive: many folds under contention
    service::AdmissionService sharded{scenario.network, std::move(sharded_opts)};
    {
      ThreadPool submitters{4};
      std::vector<std::future<void>> feeds;
      for (int t = 0; t < 4; ++t) {
        feeds.push_back(submitters.submit([&, t] {
          for (std::size_t k = static_cast<std::size_t>(t); k < requests.size(); k += 4) {
            sharded.submit(requests[k]);
          }
        }));
      }
      for (auto& f : feeds) f.get();
    }
    const service::ServiceReport actual = sharded.drain();

    EXPECT_EQ(actual.decision_fingerprint, expected.decision_fingerprint)
        << "seed " << seed;
    EXPECT_EQ(actual.admitted, expected.admitted);
    EXPECT_EQ(actual.expired, expected.expired);
    EXPECT_LE(actual.resident_breakpoints, expected.resident_breakpoints);
  }
}

}  // namespace
}  // namespace gridbw
