#include "heuristics/distributed.hpp"

#include <queue>
#include <vector>

#include "core/ledger.hpp"
#include "heuristics/fcfs_order.hpp"

namespace gridbw::heuristics {
namespace {

struct Completion {
  TimePoint finish;
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

DistributedResult schedule_flexible_distributed(const Network& network,
                                                std::span<const Request> requests,
                                                const DistributedOptions& options) {
  if (options.sync_period.is_negative()) {
    throw std::invalid_argument{"schedule_flexible_distributed: negative sync period"};
  }
  DistributedResult out;
  const std::vector<const Request*> order =
      admission_order(requests, out.result, /*observer=*/nullptr);

  CounterLedger truth{network};  // ground-truth counters (ingress exact + egress exact)
  std::priority_queue<Completion, std::vector<Completion>, LaterFinish> completions;

  // Stale egress view shared by all ingress routers, refreshed every
  // sync_period from the ground truth.
  std::vector<Bandwidth> egress_view(network.egress_count(), Bandwidth::zero());
  TimePoint last_sync = TimePoint::origin() - Duration::seconds(1);

  auto refresh_view = [&](TimePoint now) {
    if (options.sync_period == Duration::zero() ||
        now - last_sync >= options.sync_period) {
      for (std::size_t e = 0; e < egress_view.size(); ++e) {
        egress_view[e] = truth.allocated_egress(EgressId{e});
      }
      last_sync = now;
    }
  };

  for (const Request* rp : order) {
    const Request& r = *rp;
    while (!completions.empty() && completions.top().finish <= r.release) {
      const Completion done = completions.top();
      completions.pop();
      truth.reclaim(done.ingress, done.egress, done.bw);
    }
    refresh_view(r.release);

    const auto bw = options.policy.assign(r, r.release);
    if (!bw.has_value()) {
      out.result.rejected.push_back(r.id);
      continue;
    }

    // Ingress-local decision: exact own counter, stale egress view.
    const bool ingress_ok =
        approx_le(truth.allocated_ingress(r.ingress) + *bw,
                  network.ingress_capacity(r.ingress));
    const bool egress_view_ok = approx_le(egress_view[r.egress.value] + *bw,
                                          network.egress_capacity(r.egress));
    if (!ingress_ok || !egress_view_ok) {
      out.result.rejected.push_back(r.id);
      continue;
    }

    // The data plane enforces the true egress capacity: an optimistic
    // admission that would overflow it is NACKed.
    const bool egress_truth_ok = approx_le(truth.allocated_egress(r.egress) + *bw,
                                           network.egress_capacity(r.egress));
    if (!egress_truth_ok) {
      ++out.egress_conflicts;
      out.result.rejected.push_back(r.id);
      continue;
    }

    truth.allocate(r.ingress, r.egress, *bw);
    out.result.schedule.accept(r.id, r.release, *bw);
    completions.push(Completion{r.release + r.volume / *bw, r.ingress, r.egress, *bw});
  }
  return out;
}

}  // namespace gridbw::heuristics
