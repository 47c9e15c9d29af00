#include "heuristics/flexible_window.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>
#include <vector>

#include "core/ledger.hpp"
#include "heuristics/fcfs_order.hpp"

namespace gridbw::heuristics {
namespace {

constexpr std::size_t kInvalid = static_cast<std::size_t>(-1);

/// Measured scan/heap break-even batch size (release build, 10x10 uniform
/// network, paper_flexible workload, best-of-N wall clock per drain):
/// at 8 candidates the heap is ~1.12x slower than the scan, at 16 it is
/// already ~0.91x, and from 64 up it wins by 2.3x and more. kAuto switches
/// engines at this batch size; anywhere in [12, 16] the two are within
/// noise of each other, so the exact constant is uncritical.
constexpr std::size_t kHeapBreakEvenBatch = 16;

struct Completion {
  TimePoint finish;
  RequestId request;
  IngressId ingress;
  EgressId egress;
  Bandwidth bw;
};

struct LaterFinish {
  bool operator()(const Completion& a, const Completion& b) const {
    return a.finish > b.finish;
  }
};

struct Candidate {
  const Request* request;
  Bandwidth bw;  // rate the policy would grant at the decision instant
};

double candidate_cost(const CounterLedger& counters, const Candidate& c,
                      double hotspot_weight) {
  const Request& r = *c.request;
  double cost = std::max(counters.ingress_util_with(r.ingress, c.bw),
                         counters.egress_util_with(r.egress, c.bw));
  if (hotspot_weight > 0.0) {
    const double standing =
        (counters.ingress_util_with(r.ingress, Bandwidth::zero()) +
         counters.egress_util_with(r.egress, Bandwidth::zero())) /
        2.0;
    cost += hotspot_weight * standing;
  }
  return cost;
}

double selection_cost(const CounterLedger& counters, const Candidate& c,
                      const WindowOptions& options) {
  switch (options.order) {
    case CandidateOrder::kMinCost:
      return candidate_cost(counters, c, options.hotspot_weight);
    case CandidateOrder::kEarliestDeadline:
      return c.request->deadline.to_seconds();
    case CandidateOrder::kShortestJob:
      return (c.request->volume / c.bw).to_seconds();
  }
  throw std::logic_error{"selection_cost: bad candidate order"};
}

/// Costs within the approx_le tolerance of the minimum are treated as equal
/// and broken by request id: exact float equality would make the candidate
/// order depend on platform rounding (libm, FMA contraction, ...).
bool cost_tied(double cost, double min_cost) { return approx_le(cost, min_cost); }

/// Admits/rejects the chosen candidate; shared by both selection engines.
void decide(const Candidate& chosen, TimePoint decision, CounterLedger& counters,
            std::priority_queue<Completion, std::vector<Completion>, LaterFinish>&
                completions,
            ScheduleResult& result, obs::Observer* observer) {
  // The admission test is the pure capacity ratio even when the hot-spot
  // penalty inflates the selection cost. With the penalty disabled the two
  // coincide, and "minimum cost > 1" means no candidate fits — matching the
  // paper's stopping rule exactly.
  const Request& r = *chosen.request;
  if (candidate_cost(counters, chosen, 0.0) > 1.0 + 1e-12) {
    result.rejected.push_back(r.id);
    if (observer != nullptr) {
      obs::note_rejected(
          observer, r.id, decision,
          obs::classify_saturation(
              counters.ingress_util_with(r.ingress, chosen.bw) <= 1.0 + 1e-12,
              counters.egress_util_with(r.egress, chosen.bw) <= 1.0 + 1e-12));
    }
    return;
  }
  counters.allocate(r.ingress, r.egress, chosen.bw);
  result.schedule.accept(r.id, decision, chosen.bw);
  obs::note_accepted(observer, r.id, decision, decision, chosen.bw);
  completions.push(Completion{decision + r.volume / chosen.bw, r.id, r.ingress,
                              r.egress, chosen.bw});
}

/// Reference engine: re-evaluate every remaining candidate per admission.
void drain_by_scan(std::vector<Candidate>& candidates, const WindowOptions& options,
                   TimePoint decision, CounterLedger& counters,
                   std::priority_queue<Completion, std::vector<Completion>, LaterFinish>&
                       completions,
                   ScheduleResult& result, std::vector<double>& cost_scratch,
                   obs::Observer* observer) {
  while (!candidates.empty()) {
    cost_scratch.resize(candidates.size());
    double min_cost = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < candidates.size(); ++k) {
      cost_scratch[k] = selection_cost(counters, candidates[k], options);
      min_cost = std::min(min_cost, cost_scratch[k]);
    }
    std::size_t best = kInvalid;
    for (std::size_t k = 0; k < candidates.size(); ++k) {
      if (!cost_tied(cost_scratch[k], min_cost)) continue;
      if (best == kInvalid || candidates[k].request->id < candidates[best].request->id) {
        best = k;
      }
    }
    const Candidate chosen = candidates[best];
    candidates[best] = candidates.back();
    candidates.pop_back();
    decide(chosen, decision, counters, completions, result, observer);
  }
}

/// Heap entry: `cost` is a lower bound of the candidate's current cost
/// (counters only fill up while draining, so costs never decrease).
struct HeapEntry {
  double cost;
  RequestId id;
  std::size_t slot;  // index into the interval's candidate array
};

struct WorseEntry {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.cost != b.cost) return a.cost > b.cost;
    return a.id > b.id;
  }
};

/// Heap engine: pop-and-refresh until the top is current, then gather the
/// epsilon tie band and break it by id, exactly like the scan.
void drain_by_heap(std::vector<Candidate>& candidates, const WindowOptions& options,
                   TimePoint decision, CounterLedger& counters,
                   std::priority_queue<Completion, std::vector<Completion>, LaterFinish>&
                       completions,
                   ScheduleResult& result, std::vector<HeapEntry>& tie_scratch,
                   obs::Observer* observer) {
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, WorseEntry> heap;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    heap.push(HeapEntry{selection_cost(counters, candidates[k], options),
                        candidates[k].request->id, k});
  }
  while (!heap.empty()) {
    HeapEntry top = heap.top();
    heap.pop();
    const double current = selection_cost(counters, candidates[top.slot], options);
    if (current > top.cost) {
      top.cost = current;  // stale lower bound: refresh and retry
      heap.push(top);
      continue;
    }
    // `top` holds the true numeric minimum. Gather every candidate whose
    // *current* cost ties it within tolerance; stale keys are lower bounds,
    // so any tied candidate's key is <= the tie threshold and gets popped.
    tie_scratch.clear();
    tie_scratch.push_back(top);
    while (!heap.empty() && cost_tied(heap.top().cost, top.cost)) {
      HeapEntry e = heap.top();
      heap.pop();
      e.cost = selection_cost(counters, candidates[e.slot], options);
      if (cost_tied(e.cost, top.cost)) {
        tie_scratch.push_back(e);
      } else {
        heap.push(e);
      }
    }
    std::size_t chosen_at = 0;
    for (std::size_t k = 1; k < tie_scratch.size(); ++k) {
      if (tie_scratch[k].id < tie_scratch[chosen_at].id) chosen_at = k;
    }
    const std::size_t slot = tie_scratch[chosen_at].slot;
    for (std::size_t k = 0; k < tie_scratch.size(); ++k) {
      if (k != chosen_at) heap.push(tie_scratch[k]);
    }
    decide(candidates[slot], decision, counters, completions, result, observer);
  }
  candidates.clear();
}

}  // namespace

std::string to_string(CandidateOrder order) {
  switch (order) {
    case CandidateOrder::kMinCost: return "mincost";
    case CandidateOrder::kEarliestDeadline: return "edf";
    case CandidateOrder::kShortestJob: return "sjf";
  }
  return "unknown";
}

std::string to_string(WindowEngine engine) {
  switch (engine) {
    case WindowEngine::kScan: return "scan";
    case WindowEngine::kHeap: return "heap";
    case WindowEngine::kAuto: return "auto";
  }
  return "unknown";
}

ScheduleResult schedule_flexible_window(const Network& network,
                                        std::span<const Request> requests,
                                        const WindowOptions& options,
                                        obs::Observer* observer) {
  // Written as negated >= / <= so NaN fails every gate (NaN comparisons are
  // false, so `step < x` style checks would wave NaN straight through).
  if (!options.step.is_positive() || !std::isfinite(options.step.to_seconds())) {
    throw std::invalid_argument{
        "schedule_flexible_window: step must be positive and finite"};
  }
  if (!(options.hotspot_weight >= 0.0) || !std::isfinite(options.hotspot_weight)) {
    throw std::invalid_argument{
        "schedule_flexible_window: hotspot_weight must be finite and >= 0"};
  }

  ScheduleResult result;
  const std::vector<const Request*> order = admission_order(requests, result, observer);
  if (order.empty()) return result;

  CounterLedger counters{network};
  std::priority_queue<Completion, std::vector<Completion>, LaterFinish> completions;
  std::vector<Candidate> candidates;
  std::vector<double> cost_scratch;
  std::vector<HeapEntry> tie_scratch;

  std::size_t next_arrival = 0;
  TimePoint interval_start = order.front()->release;

  while (next_arrival < order.size()) {
    const TimePoint decision = interval_start + options.step;

    // Candidates: requests whose arrival lies inside [interval_start, decision).
    candidates.clear();
    while (next_arrival < order.size() && order[next_arrival]->release < decision) {
      const Request& r = *order[next_arrival++];
      const auto bw = options.policy.assign(r, decision);
      if (bw.has_value()) {
        candidates.push_back(Candidate{&r, *bw});
      } else {
        // Even MaxRate cannot finish the transfer from the decision instant.
        result.rejected.push_back(r.id);
        obs::note_rejected(observer, r.id, decision,
                           obs::RejectReason::kInfeasibleRate);
      }
    }

    // Reclaim transfers finished by the decision instant.
    while (!completions.empty() && completions.top().finish <= decision) {
      const Completion done = completions.top();
      completions.pop();
      counters.reclaim(done.ingress, done.egress, done.bw);
      obs::note_reclaimed(observer, done.request, done.finish, done.bw);
    }

    // Repeatedly admit the best candidate (by the configured order) while
    // it fits (capacity-ratio cost <= 1).
    // kAuto resolves per interval: both engines make identical decisions,
    // so the batch size alone picks the cheaper one.
    WindowEngine engine = options.engine;
    if (engine == WindowEngine::kAuto) {
      engine = candidates.size() < kHeapBreakEvenBatch ? WindowEngine::kScan
                                                       : WindowEngine::kHeap;
    }
    // Pin which engine actually drained the batch (the kAuto tie test
    // asserts a batch of exactly kHeapBreakEvenBatch lands on the heap).
    if (observer != nullptr && !candidates.empty()) {
      observer->count(engine == WindowEngine::kScan ? obs::Counter::kWindowScanDrains
                                                    : obs::Counter::kWindowHeapDrains);
    }
    switch (engine) {
      case WindowEngine::kScan:
        drain_by_scan(candidates, options, decision, counters, completions, result,
                      cost_scratch, observer);
        break;
      case WindowEngine::kHeap:
        drain_by_heap(candidates, options, decision, counters, completions, result,
                      tie_scratch, observer);
        break;
      case WindowEngine::kAuto:
        break;  // unreachable: resolved above
    }

    // Next interval: contiguous tiling, but skip idle gaps so sparse
    // workloads do not spin through empty intervals.
    if (next_arrival < order.size()) {
      interval_start = gridbw::max(decision, order[next_arrival]->release);
    }
  }

  // Close every accepted transfer's lifecycle in the trace (observability
  // only; without an observer the ledger dies with the function).
  if (observer != nullptr) {
    while (!completions.empty()) {
      const Completion done = completions.top();
      completions.pop();
      counters.reclaim(done.ingress, done.egress, done.bw);
      obs::note_reclaimed(observer, done.request, done.finish, done.bw);
    }
  }
  return result;
}

}  // namespace gridbw::heuristics
