// perfbench --selftest: feeds the benchmark's output checks outputs with a
// known fault and requires each check to fail. Exit 0 when every fault is
// caught, 1 otherwise.

#include <iostream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/rate_profile.hpp"
#include "core/validate.hpp"
#include "heuristics/malleable.hpp"
#include "heuristics/rigid_fcfs.hpp"
#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
#include "service/admission_service.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace gridbw;

namespace {

constexpr std::uint64_t kSeed = 7;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
  if (!ok) ++g_failures;
}

std::string check(const Inputs& in, const ScheduleResult& result) {
  const std::vector<Request>& requests = in.trace.requests;
  return check_result(requests, result, validate_schedule(in.network, requests, result.schedule));
}

/// `result` with the assignment at `victim` replaced by `edit(assignment)`.
template <typename Edit>
ScheduleResult rebuilt(const ScheduleResult& result, std::size_t victim, Edit edit) {
  ScheduleResult out;
  out.rejected = result.rejected;
  const auto assignments = result.schedule.assignments();
  for (std::size_t i = 0; i < assignments.size(); ++i) {
    Assignment a = assignments[i];
    if (i == victim) a = edit(a);
    if (a.is_profiled()) {
      out.schedule.accept_profile(a.request, a.profile);
    } else {
      out.schedule.accept(a.request, a.start, a.bw);
    }
  }
  return out;
}

void rigid_faults() {
  Sizes sizes = Sizes::make(true);
  sizes.rigid = 600;
  Tracer tracer;
  const Inputs in = make_inputs(Kind::kPaperRigid, kSeed, sizes, tracer);
  const ScheduleResult good =
      heuristics::schedule_rigid_fcfs(in.network, in.trace.requests);
  expect(check(in, good).empty(), "FCFS schedule passes the checks");
  expect(good.accepted_count() > 0 && !good.rejected.empty(),
         "FCFS both admits and rejects on the fixture");

  const ScheduleResult overloaded = rebuilt(good, 0, [](Assignment a) {
    a.bw = a.bw * 1000.0;
    return a;
  });
  expect(!check(in, overloaded).empty(), "an over-capacity rate fails validation");

  ScheduleResult dropped = good;
  dropped.rejected.pop_back();
  expect(!check(in, dropped).empty(), "an undecided request fails the check");

  ScheduleResult twice = good;
  twice.rejected.push_back(good.schedule.assignments()[0].request);
  expect(!check(in, twice).empty(), "a request both admitted and rejected fails");

  // A flipped decision keeps the schedule feasible; the comparison with the
  // reference repetition catches it.
  ScheduleResult flipped = rebuilt(good, 0, [](Assignment a) { return a; });
  flipped.schedule.withdraw(good.schedule.assignments()[0].request);
  flipped.rejected.push_back(good.schedule.assignments()[0].request);
  expect(fingerprint(flipped) != fingerprint(good),
         "a flipped batch decision changes the output fingerprint");
}

void malleable_faults() {
  Sizes sizes = Sizes::make(true);
  sizes.flexible = 400;
  Tracer tracer;
  const Inputs in = make_inputs(Kind::kPaperFlexible, kSeed, sizes, tracer);
  const ScheduleResult good =
      heuristics::schedule_malleable_greedy(in.network, in.trace.requests, {});
  expect(check(in, good).empty(), "mGREEDY schedule passes the checks");
  std::size_t victim = good.schedule.accepted_count();
  for (std::size_t i = 0; i < good.schedule.accepted_count(); ++i) {
    if (good.schedule.assignments()[i].profile.size() > 1) {
      victim = i;
      break;
    }
  }
  expect(victim < good.schedule.accepted_count(), "mGREEDY reshapes some flow");
  if (victim == good.schedule.accepted_count()) return;
  const ScheduleResult short_volume = rebuilt(good, victim, [](Assignment a) {
    RateProfile p;
    const auto steps = a.profile.steps();
    for (std::size_t k = 0; k < steps.size(); ++k) {
      p.append(steps[k].from, k == 0 ? steps[k].rate * 0.5 : steps[k].rate);
    }
    p.set_end(a.profile.end());
    a.profile = p;
    return a;
  });
  expect(!check(in, short_volume).empty(), "a rate profile short of its volume fails");
}

void churn_faults() {
  Sizes sizes = Sizes::make(true);
  sizes.churn = 3000;
  Tracer tracer;
  const Inputs in = make_inputs(Kind::kChurn, kSeed, sizes, tracer);
  const std::vector<Request>& trace = in.trace.requests;

  struct Recorder final : obs::TraceSink {
    std::vector<char> admitted;
    void record(const obs::AdmissionEvent& e) override {
      if (e.kind == obs::EventKind::kAccepted) admitted[e.request - 1] = 1;
    }
    void annotate(std::string_view, std::string_view) override {}
  } recorder;
  recorder.admitted.assign(trace.size(), 0);
  obs::Observer observer{&recorder, nullptr};
  service::ServiceOptions options;
  options.observer = &observer;
  service::AdmissionService svc{in.network, options};
  for (const Request& r : trace) svc.submit(r);
  const service::ServiceReport report = svc.drain();

  const std::size_t prefix = trace.size();
  expect(check_fcfs_prefix(in.network, trace, recorder.admitted, prefix).empty(),
         "service decisions match FCFS");
  expect(report.rejected > 0, "the churn fixture rejects some requests");
  std::vector<char> flipped = recorder.admitted;
  std::size_t k = 0;
  while (k + 1 < flipped.size() && flipped[k] != 0) ++k;  // first rejection
  flipped[k] = flipped[k] != 0 ? 0 : 1;
  expect(!check_fcfs_prefix(in.network, trace, flipped, prefix).empty(),
         "a flipped service decision fails the FCFS comparison");

  expect(check_same_report(report, report, true).empty(), "a report equals itself");
  service::ServiceReport drifted = report;
  drifted.decision_fingerprint ^= 1;
  expect(!check_same_report(report, drifted, false).empty(),
         "a changed decision fingerprint fails the repetition check");
  drifted = report;
  drifted.compactions += 1;
  expect(!check_same_report(report, drifted, true).empty(),
         "a changed GC count fails the repetition check");
}

}  // namespace

int run_selftest() {
  rigid_faults();
  malleable_faults();
  churn_faults();
  std::cout << (g_failures == 0 ? "selftest passed" : "selftest FAILED") << "\n";
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
