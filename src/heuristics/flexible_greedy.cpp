#include "heuristics/flexible_greedy.hpp"

#include <queue>
#include <vector>

#include "core/ledger.hpp"
#include "heuristics/fcfs_order.hpp"

namespace gridbw::heuristics {
namespace {

/// A committed transfer awaiting completion (for bandwidth reclaim).
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

}  // namespace

ScheduleResult schedule_flexible_greedy(const Network& network,
                                        std::span<const Request> requests,
                                        BandwidthPolicy policy,
                                        obs::Observer* observer) {
  ScheduleResult result;
  const std::vector<const Request*> order = admission_order(requests, result, observer);

  CounterLedger counters{network};
  std::priority_queue<Completion, std::vector<Completion>, LaterFinish> completions;

  for (const Request* rp : order) {
    const Request& r = *rp;
    // Reclaim every transfer finished by this arrival instant.
    while (!completions.empty() && completions.top().finish <= r.release) {
      const Completion done = completions.top();
      completions.pop();
      counters.reclaim(done.ingress, done.egress, done.bw);
      obs::note_reclaimed(observer, done.request, done.finish, done.bw);
    }

    const auto bw = policy.assign(r, r.release);
    if (bw.has_value() && counters.fits(r.ingress, r.egress, *bw)) {
      counters.allocate(r.ingress, r.egress, *bw);
      result.schedule.accept(r.id, r.release, *bw);
      obs::note_accepted(observer, r.id, r.release, r.release, *bw);
      completions.push(
          Completion{r.release + r.volume / *bw, r.id, r.ingress, r.egress, *bw});
    } else {
      result.rejected.push_back(r.id);
      if (observer != nullptr) {
        const obs::RejectReason reason =
            bw.has_value() ? obs::classify_saturation(
                                 counters.fits_ingress(r.ingress, *bw),
                                 counters.fits_egress(r.egress, *bw))
                           : obs::RejectReason::kInfeasibleRate;
        obs::note_rejected(observer, r.id, r.release, reason);
      }
    }
  }

  // Drain the outstanding completions so the trace closes every accepted
  // transfer's lifecycle. Observability only: without an observer the ledger
  // is torn down with the function and the drain would be dead work.
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
