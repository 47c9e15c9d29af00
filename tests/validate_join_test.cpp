// Differential proof that the flat validator (kSerial: merge join by id,
// flat TimelineProfile port sweep) emits the same ValidationReport as the
// kReference oracle (hashed id lookup, StepFunction port profiles) — same
// violations, same order, same detail text. Randomized 10k-request workloads
// across several seeds, clean and with injected violations of every
// per-request kind, plus the inputs that steer the join: shuffled request
// spans and assignment lists, duplicate ids on either side, unknown ids
// around the known ones, and an empty schedule.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/validate.hpp"
#include "util/random.hpp"
#include "workload/generator.hpp"
#include "workload/load.hpp"
#include "workload/scenario.hpp"

namespace gridbw {
namespace {

constexpr std::uint64_t kSeeds[] = {11, 4242, 987654321};

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

/// Accept-all schedule at MinRate, with a sprinkling of deliberate
/// per-request violations so the reports are non-trivial.
std::vector<Assignment> assignments_with_faults(std::span<const Request> requests) {
  std::vector<Assignment> assignments;
  assignments.reserve(requests.size());
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const Request& r = requests[k];
    Assignment a{r.id, r.release, r.min_rate()};
    if (k % 97 == 13) a.start = r.release - Duration::seconds(5);   // too early
    if (k % 131 == 7) a.bw = r.max_rate * 1.5;                      // above MaxRate
    if (k % 173 == 11) a.bw = Bandwidth::zero();                    // non-positive
    assignments.push_back(a);
  }
  return assignments;
}

void expect_same_report(const ValidationReport& a, const ValidationReport& b,
                        const std::string& label) {
  ASSERT_EQ(a.violations.size(), b.violations.size()) << label;
  for (std::size_t k = 0; k < a.violations.size(); ++k) {
    EXPECT_EQ(a.violations[k].kind, b.violations[k].kind) << label << " #" << k;
    EXPECT_EQ(a.violations[k].request, b.violations[k].request) << label << " #" << k;
    EXPECT_EQ(a.violations[k].port, b.violations[k].port) << label << " #" << k;
    EXPECT_EQ(a.violations[k].detail, b.violations[k].detail) << label << " #" << k;
  }
  EXPECT_EQ(a.to_string(), b.to_string()) << label;
}

ValidateOptions with_engine(ValidateEngine engine, double f = 0.0) {
  ValidateOptions options;
  options.min_rate_guarantee = f;
  options.engine = engine;
  return options;
}

/// Validates with both engines, checks the reports are identical, and
/// returns the flat engine's.
ValidationReport validate_both(const Network& network, std::span<const Request> requests,
                               std::span<const Assignment> assignments,
                               const std::string& label, double f = 0.0) {
  const auto reference = validate_assignments(network, requests, assignments,
                                              with_engine(ValidateEngine::kReference, f));
  auto flat = validate_assignments(network, requests, assignments,
                                   with_engine(ValidateEngine::kSerial, f));
  expect_same_report(reference, flat, label);
  return flat;
}

std::size_t count_kind(const ValidationReport& report, ViolationKind kind) {
  return static_cast<std::size_t>(
      std::count_if(report.violations.begin(), report.violations.end(),
                    [&](const Violation& v) { return v.kind == kind; }));
}

TEST(ValidateEngines, IdenticalReportsOnRandomized10kWorkloads) {
  for (const std::uint64_t seed : kSeeds) {
    const auto [scenario, requests] = big_workload(seed, 10000);
    ASSERT_GT(requests.size(), 5000u);
    const auto assignments = assignments_with_faults(requests);
    const auto report = validate_both(scenario.network, requests, assignments,
                                      "seed=" + std::to_string(seed));
    // The overloaded accept-all schedule must actually trip port capacity.
    EXPECT_FALSE(report.ok()) << "seed=" << seed;
  }
}

TEST(ValidateEngines, IdenticalReportsWithGuaranteeFloor) {
  const auto [scenario, requests] = big_workload(kSeeds[0], 10000);
  const auto assignments = assignments_with_faults(requests);
  validate_both(scenario.network, requests, assignments, "guarantee-floor", 0.5);
}

TEST(ValidateEngines, ScheduleOverloadAgreesWithAssignmentSpan) {
  const auto [scenario, requests] = big_workload(kSeeds[2], 2000);
  Schedule schedule;
  for (const Request& r : requests) schedule.accept(r.id, r.release, r.min_rate());
  const auto via_schedule =
      validate_schedule(scenario.network, requests, schedule, ValidateOptions{});
  const auto via_span = validate_assignments(scenario.network, requests,
                                             schedule.assignments(), ValidateOptions{});
  expect_same_report(via_schedule, via_span, "schedule-vs-span");
}

TEST(ValidateEngines, DuplicateAssignmentsFlaggedIdenticallyByAllEngines) {
  const auto [scenario, requests] = big_workload(kSeeds[0], 2000);
  auto assignments = assignments_with_faults(requests);
  // Duplicate every 211th assignment (same id, different placement).
  const std::size_t original = assignments.size();
  for (std::size_t k = 0; k < original; k += 211) {
    Assignment copy = assignments[k];
    copy.start += Duration::seconds(1);
    assignments.push_back(copy);
  }
  const auto report =
      validate_both(scenario.network, requests, assignments, "duplicates");
  EXPECT_EQ(count_kind(report, ViolationKind::kDuplicateAssignment),
            (original + 210) / 211);
}

TEST(ValidateJoin, ShuffledRequestSpanGivesTheInOrderReport) {
  for (const std::uint64_t seed : kSeeds) {
    const auto [scenario, requests] = big_workload(seed, 10000);
    const auto assignments = assignments_with_faults(requests);
    auto shuffled = requests;
    Rng rng{seed + 1};
    rng.shuffle(shuffled);
    const std::string label = "shuffled requests seed=" + std::to_string(seed);
    const auto in_order = validate_both(scenario.network, requests, assignments, label);
    const auto report = validate_both(scenario.network, shuffled, assignments, label);
    expect_same_report(in_order, report, label + " vs in order");
  }
}

TEST(ValidateJoin, ShuffledAssignmentListMatchesReference) {
  for (const std::uint64_t seed : kSeeds) {
    const auto [scenario, requests] = big_workload(seed, 10000);
    auto assignments = assignments_with_faults(requests);
    Rng rng{seed + 2};
    rng.shuffle(assignments);
    const std::string label = "shuffled assignments seed=" + std::to_string(seed);
    const auto report = validate_both(scenario.network, requests, assignments, label);
    EXPECT_FALSE(report.ok());
  }
}

TEST(ValidateJoin, EarliestDuplicateKeepsTheLoadWhereverItSits) {
  const auto [scenario, requests] = big_workload(kSeeds[1], 4000);
  auto assignments = assignments_with_faults(requests);
  // Put a copy of every 97th assignment *before* the whole list, so the copy
  // (starting too early) is the first one seen and the original is the
  // duplicate; every 89th assignment gets one more copy at the end.
  std::vector<Assignment> front;
  for (std::size_t k = 0; k < assignments.size(); k += 97) {
    Assignment copy = assignments[k];
    copy.start = requests[k].release - Duration::seconds(3);
    copy.bw = requests[k].min_rate();
    front.push_back(copy);
  }
  const std::size_t original = assignments.size();
  for (std::size_t k = 0; k < original; k += 89) assignments.push_back(assignments[k]);
  std::reverse(front.begin(), front.end());  // copies out of id order, too
  assignments.insert(assignments.begin(), front.begin(), front.end());

  const auto report = validate_both(scenario.network, requests, assignments,
                                    "front duplicates");
  const std::size_t flagged = count_kind(report, ViolationKind::kDuplicateAssignment);
  EXPECT_EQ(flagged, front.size() + (original + 88) / 89);
  // The early copies, not the originals, carry the start-before-release checks.
  ASSERT_FALSE(report.violations.empty());
  EXPECT_EQ(report.violations.front().kind, ViolationKind::kStartBeforeRelease);
  EXPECT_EQ(report.violations.front().request, front.front().request);

  Rng rng{kSeeds[1]};
  rng.shuffle(assignments);
  validate_both(scenario.network, requests, assignments, "shuffled front duplicates");
}

TEST(ValidateJoin, UnknownIdsBelowBetweenAndAboveTheRequestIds) {
  auto [scenario, requests] = big_workload(kSeeds[2], 3000);
  // Spread the ids out (3k + 5) so there are gaps to fall into.
  for (Request& r : requests) r.id = r.id * 3 + 5;
  auto assignments = assignments_with_faults(requests);
  const RequestId top = std::max_element(requests.begin(), requests.end(),
                                         [](const Request& a, const Request& b) {
                                           return a.id < b.id;
                                         })->id;
  const Request& probe = requests[requests.size() / 2];
  std::vector<RequestId> unknown{0, 1, 4, top + 1, top + 1000, 3 * 17 + 6, 3 * 500 + 7};
  unknown.push_back(unknown.front());  // a repeated unknown id is never a duplicate
  for (std::size_t k = 0; k < unknown.size(); ++k) {
    const Assignment a{unknown[k], probe.release, probe.min_rate()};
    assignments.insert(assignments.begin() + static_cast<std::ptrdiff_t>(k * 331), a);
  }
  const auto report =
      validate_both(scenario.network, requests, assignments, "unknown ids");
  EXPECT_EQ(count_kind(report, ViolationKind::kUnknownRequest), unknown.size());
  EXPECT_EQ(count_kind(report, ViolationKind::kDuplicateAssignment), 0u);

  Rng rng{kSeeds[2]};
  rng.shuffle(assignments);
  rng.shuffle(requests);
  validate_both(scenario.network, requests, assignments, "shuffled unknown ids");
  // Every assignment unknown: no requests at all.
  const auto none = validate_both(scenario.network, {}, assignments, "no requests");
  EXPECT_EQ(count_kind(none, ViolationKind::kUnknownRequest), assignments.size());
}

TEST(ValidateJoin, DuplicateRequestIdsResolveToTheFirstCopy) {
  const auto [scenario, clean] = big_workload(kSeeds[0], 4000);
  const auto assignments = assignments_with_faults(clean);
  const auto expected =
      validate_both(scenario.network, clean, assignments, "no duplicate requests");
  // Later copies of every 61st request open 5 s later, so matching a copy
  // would flag start-before-release on an assignment that is on time.
  auto requests = clean;
  for (std::size_t k = 0; k < clean.size(); k += 61) {
    Request copy = clean[k];
    copy.release += Duration::seconds(5);
    copy.deadline += Duration::seconds(5);
    requests.push_back(copy);
  }
  expect_same_report(
      expected, validate_both(scenario.network, requests, assignments, "appended copies"),
      "appended copies vs none");
  // Out of id order, the stable sort must still put the first copy first.
  const auto copies_begin = requests.begin() + static_cast<std::ptrdiff_t>(clean.size());
  std::reverse(requests.begin(), copies_begin);
  expect_same_report(
      expected,
      validate_both(scenario.network, requests, assignments, "reversed originals"),
      "reversed originals vs none");
  // Copies placed before their originals are the first copies, and win.
  std::rotate(requests.begin(), copies_begin, requests.end());
  const auto copies_first =
      validate_both(scenario.network, requests, assignments, "copies first");
  EXPECT_GT(count_kind(copies_first, ViolationKind::kStartBeforeRelease),
            count_kind(expected, ViolationKind::kStartBeforeRelease));
}

TEST(ValidateJoin, EmptyScheduleIsValidOverAnyRequestOrder) {
  const auto [scenario, requests] = big_workload(kSeeds[1], 10000);
  EXPECT_TRUE(validate_both(scenario.network, requests, {}, "empty").ok());
  auto shuffled = requests;
  Rng rng{kSeeds[1]};
  rng.shuffle(shuffled);
  EXPECT_TRUE(validate_both(scenario.network, shuffled, {}, "empty shuffled").ok());
  EXPECT_TRUE(validate_both(scenario.network, {}, {}, "nothing").ok());
}

}  // namespace
}  // namespace gridbw
