#include "heuristics/rigid_slots.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/ledger.hpp"

namespace gridbw::heuristics {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// State shared by both sweep engines: validity flags, slice boundaries,
/// and the release-order cursor. Requests with a non-positive window are
/// rejected up front — their cost factor would be NaN/inf and poison the
/// per-slice sort — and contribute no slice boundaries.
struct SweepSetup {
  std::vector<char> alive;
  std::vector<TimePoint> boundaries;
  std::vector<std::size_t> by_release;
};

SweepSetup prepare_sweep(std::span<const Request> requests) {
  SweepSetup s;
  s.alive.assign(requests.size(), 1);
  s.boundaries.reserve(requests.size() * 2);
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const Request& r = requests[k];
    if (!(r.deadline > r.release)) {
      s.alive[k] = 0;
      continue;
    }
    s.boundaries.push_back(r.release);
    s.boundaries.push_back(r.deadline);
  }
  std::sort(s.boundaries.begin(), s.boundaries.end());
  s.boundaries.erase(std::unique(s.boundaries.begin(), s.boundaries.end()),
                     s.boundaries.end());

  s.by_release.reserve(requests.size());
  for (std::size_t k = 0; k < requests.size(); ++k) {
    if (s.alive[k]) s.by_release.push_back(k);
  }
  std::sort(s.by_release.begin(), s.by_release.end(),
            [&](std::size_t a, std::size_t b) {
              if (requests[a].release != requests[b].release) {
                return requests[a].release < requests[b].release;
              }
              return requests[a].id < requests[b].id;
            });
  return s;
}

/// Final accept/reject assembly, identical for both engines.
ScheduleResult assemble(std::span<const Request> requests,
                        const std::vector<char>& alive, obs::Observer* observer) {
  ScheduleResult result;
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const Request& r = requests[k];
    if (alive[k] && approx_le(r.min_rate(), r.max_rate)) {
      result.schedule.accept(r.id, r.release, r.min_rate());
      obs::note_accepted(observer, r.id, r.release, r.release, r.min_rate());
    } else {
      result.rejected.push_back(r.id);
      if (observer != nullptr) {
        obs::RejectReason reason = obs::RejectReason::kRetroRemoved;
        if (!(r.deadline > r.release)) {
          reason = obs::RejectReason::kDegenerateWindow;
        } else if (!approx_le(r.min_rate(), r.max_rate)) {
          reason = obs::RejectReason::kInfeasibleRate;
        }
        obs::note_rejected(observer, r.id, r.release, reason);
      }
    }
  }
  return result;
}

/// Returns a per-request retro-removal timestamp buffer, pre-filled with
/// each request's release so "never removed" compares as "not preempted".
/// Empty (no allocation) when there is no observer.
std::vector<TimePoint> make_removal_clock(std::span<const Request> requests,
                                          obs::Observer* observer) {
  std::vector<TimePoint> removed_at;
  if (observer != nullptr) {
    removed_at.reserve(requests.size());
    for (const Request& r : requests) removed_at.push_back(r.release);
  }
  return removed_at;
}

/// Emits a preempted event for every retro-removed request that had held
/// bandwidth in an earlier slice (dropped strictly after its release).
/// Kept out of the sweep loops: even a never-taken out-of-line call on the
/// removal path bloats the admission loop measurably, so the sweeps record
/// plain timestamp stores and the narration happens once, here.
void narrate_preemptions(std::span<const Request> requests,
                         const std::vector<char>& alive,
                         const std::vector<TimePoint>& removed_at,
                         obs::Observer* observer) {
  if (observer == nullptr) return;
  for (std::size_t k = 0; k < requests.size(); ++k) {
    if (!alive[k] && requests[k].release < removed_at[k]) {
      obs::note_preempted(observer, requests[k].id, removed_at[k]);
    }
  }
}

/// Paper-literal reference: every slice re-sorts the active set and rebuilds
/// a fresh CounterLedger. Kept as the differential-test oracle; its buffers
/// live outside the slice loop, so a large oracle run pays for the sort and
/// the admissions only.
ScheduleResult sweep_rebuild(const Network& network, std::span<const Request> requests,
                             SlotCost cost, SweepSetup& s, SlotsTelemetry* telemetry,
                             obs::Observer* observer) {
  std::size_t next_release = 0;
  std::vector<std::size_t> running;
  std::vector<std::size_t> order;  // the slice's active set, by (cost, id)
  order.reserve(requests.size());
  std::vector<double> costs(requests.size());  // read only for `order` members
  std::vector<TimePoint> removed_at = make_removal_clock(requests, observer);

  CounterLedger counters{network};
  counters.attach_observer(observer);  // drift-anomaly hook only
  for (std::size_t b = 0; b + 1 < s.boundaries.size(); ++b) {
    const TimePoint t1 = s.boundaries[b];
    const TimePoint t2 = s.boundaries[b + 1];
    if (telemetry != nullptr) ++telemetry->slices;

    // Update the running set: drop finished/rejected, add newly released.
    std::erase_if(running, [&](std::size_t k) {
      return !s.alive[k] || !(requests[k].deadline >= t2);
    });
    while (next_release < s.by_release.size() &&
           requests[s.by_release[next_release]].release <= t1) {
      const std::size_t k = s.by_release[next_release++];
      if (s.alive[k] && requests[k].deadline >= t2) running.push_back(k);
    }
    if (running.empty()) continue;

    // Sort the slice's active requests by non-decreasing cost.
    order.assign(running.begin(), running.end());
    for (std::size_t k : order) costs[k] = slot_cost(network, requests[k], cost, t1, t2);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b2) {
      if (costs[a] != costs[b2]) return costs[a] < costs[b2];
      return requests[a].id < requests[b2].id;
    });

    // Fresh per-slice counters (no request starts or stops inside a slice,
    // so per-slice admission is exact).
    counters.reset();
    for (std::size_t k : order) {
      const Request& r = requests[k];
      const Bandwidth bw = r.min_rate();
      const bool rate_ok = approx_le(bw, r.max_rate);
      // admission_checks counts ledger probes only — a request whose min
      // rate exceeds its own cap never reaches the ledger, in either
      // engine (the incremental sweeps precompute this as feasible[]).
      if (rate_ok && telemetry != nullptr) ++telemetry->admission_checks;
      if (rate_ok && counters.fits(r.ingress, r.egress, bw)) {
        counters.allocate(r.ingress, r.egress, bw);
      } else {
        // Retro-removal: the request is discarded permanently. Earlier
        // slices already processed keep their decisions (the paper frees
        // the bookkeeping but does not revisit them).
        s.alive[k] = 0;
        if (observer != nullptr) removed_at[k] = t1;
      }
    }
  }
  narrate_preemptions(requests, s.alive, removed_at, observer);
  return assemble(requests, s.alive, observer);
}

/// Slice-boundary bookkeeping shared by the two incremental sweeps: the
/// release-order arrival cursor, a min-heap of (deadline, k) over every
/// request that entered the active set, and the skip rule. Entries of
/// retro-removed requests stay in the heap; they only make their deadline's
/// slice count as non-skipped, and the sweeps ignore them when popped. All
/// storage is reserved for the full request set, so the sweeps' slice loops
/// never allocate.
class SliceEvents {
 public:
  SliceEvents(std::span<const Request> requests, const SweepSetup& s)
      : requests_{requests}, s_{&s} {
    newcomers_.reserve(requests.size());
    departures_.reserve(requests.size());
  }

  /// Opens slice [t1, t2): gathers the live arrivals due by t1 that outlive
  /// t2 and enters them into the departure heap (their deadlines are >= t2,
  /// so none is due in this slice). Returns false when the slice changes
  /// nothing — no arrival, no departure due, no retro-removal in the
  /// previous slice — so the previous decisions stand and the slice is
  /// skipped.
  bool open(TimePoint t1, TimePoint t2, SlotsTelemetry* telemetry) {
    if (telemetry != nullptr) ++telemetry->slices;
    t2_ = t2.to_seconds();
    newcomers_.clear();
    while (next_release_ < s_->by_release.size() &&
           requests_[s_->by_release[next_release_]].release <= t1) {
      const std::size_t k = s_->by_release[next_release_++];
      if (!(s_->alive[k] && requests_[k].deadline >= t2)) continue;
      newcomers_.push_back(k);
      departures_.emplace_back(requests_[k].deadline.to_seconds(), k);
      std::push_heap(departures_.begin(), departures_.end(), std::greater<>{});
    }
    const bool departures_due =
        !departures_.empty() && departures_.front().first < t2_;
    if (newcomers_.empty() && !departures_due && !dirty) {
      if (telemetry != nullptr) ++telemetry->skipped_slices;
      return false;
    }
    dirty = false;
    return true;
  }

  /// Pops the next request whose deadline falls before the slice's end, in
  /// (deadline, k) order; kNone once there is none.
  std::size_t pop_departure() {
    if (departures_.empty() || !(departures_.front().first < t2_)) return kNone;
    std::pop_heap(departures_.begin(), departures_.end(), std::greater<>{});
    const std::size_t k = departures_.back().second;
    departures_.pop_back();
    return k;
  }

  [[nodiscard]] std::vector<std::size_t>& newcomers() { return newcomers_; }

  /// Set by a sweep that retro-removed a request during this slice: the
  /// next slice is then processed even if its membership did not change.
  bool dirty = false;

 private:
  std::span<const Request> requests_;
  const SweepSetup* s_;
  std::size_t next_release_ = 0;
  double t2_ = 0.0;
  std::vector<std::size_t> newcomers_;
  std::vector<std::pair<double, std::size_t>> departures_;  // min-heap
};

/// Incremental engine for the static-cost kernels (MINBW/MINVOL — any cost
/// whose factor does not depend on the slice). The sorted active set and the
/// AdmissionLedger survive across slices; boundaries apply finish and
/// retro-removal deltas, and greedy admission is replayed only from the
/// first position whose decision inputs changed. Two invariants carry the
/// engine (shared with sweep_cumulated below):
///
///  * every live member of the active set is currently admitted (a member
///    that failed admission was retro-removed on the spot), so the active
///    set is jointly feasible;
///  * a jointly feasible set re-admits fully under ANY greedy order, so
///    pure departures never need a replay — dropping a member only frees
///    capacity — and a newcomer slice replays only from the first
///    newcomer's position (the prefix is all-admitted and stands).
///
/// Work per slice is proportional to what changes, not to the active set:
///
///  * departures come off the deadline heap and are dropped in (cost, id)
///    order — the order a walk over `order` would meet them — so the ledger
///    sums match a compaction sweep bit for bit;
///  * departed and retro-removed members stay in `order` as tombstones
///    (`member[k] == 0`). A tombstone holds no bandwidth, so the fast path's
///    suffix scan and the replay's drop loop pass over it unchanged, and the
///    replay skips it. `order` is compacted once tombstones are the majority;
///  * newcomers are merged in backwards from their upper bounds, in place.
// gridbw:hot
ScheduleResult sweep_incremental(const Network& network,
                                 std::span<const Request> requests, SlotCost cost,
                                 SweepSetup& s, SlotsTelemetry* telemetry,
                                 obs::Observer* observer) {
  const std::size_t n = requests.size();

  // Per-request constants (static cost: computed once, any slice bounds do).
  std::vector<Bandwidth> rates(n, Bandwidth::zero());
  std::vector<char> feasible(n, 0);
  std::vector<double> costs(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    if (!s.alive[k]) continue;
    const Request& r = requests[k];
    rates[k] = r.min_rate();
    feasible[k] = approx_le(rates[k], r.max_rate) ? 1 : 0;
    costs[k] = slot_cost(network, r, cost, r.release, r.deadline);
  }
  const auto by_cost = [&](std::size_t a, std::size_t b) {
    if (costs[a] != costs[b]) return costs[a] < costs[b];
    return requests[a].id < requests[b].id;
  };

  AdmissionLedger book{network, n};
  book.attach_observer(observer);  // drift-anomaly hook only
  std::vector<TimePoint> removed_at = make_removal_clock(requests, observer);
  SliceEvents events{requests, s};
  std::vector<std::size_t> order;  // active set and tombstones, by (cost, id)
  order.reserve(n);
  std::vector<char> member(n, 0);  // 1 = live member of the active set
  std::size_t live = 0;
  std::vector<std::size_t> leaving;  // the slice's departures
  leaving.reserve(n);

  const auto retro_remove = [&](std::size_t k, TimePoint at) {
    s.alive[k] = 0;  // permanent
    member[k] = 0;
    --live;
    events.dirty = true;
    if (observer != nullptr) removed_at[k] = at;
  };

  for (std::size_t b = 0; b + 1 < s.boundaries.size(); ++b) {
    const TimePoint t1 = s.boundaries[b];
    if (!events.open(t1, s.boundaries[b + 1], telemetry)) continue;

    // Departures. Dropping a member only frees capacity, and every
    // surviving member is currently admitted (jointly feasible), so
    // departures alone never force a replay — only newcomers can change
    // later decisions.
    leaving.clear();
    for (std::size_t k = events.pop_departure(); k != kNone; k = events.pop_departure()) {
      if (member[k]) leaving.push_back(k);
    }
    std::sort(leaving.begin(), leaving.end(), by_cost);
    for (const std::size_t k : leaving) {
      book.drop(k, requests[k].ingress, requests[k].egress);
      member[k] = 0;
    }
    live -= leaving.size();
    if (order.size() - live > live) {  // tombstones are the majority
      std::erase_if(order, [&](std::size_t k) { return !member[k]; });
    }

    std::vector<std::size_t>& newcomers = events.newcomers();
    if (newcomers.empty()) continue;  // pure departures: decisions stand

    // Merge the sorted newcomers in from the back: each lands at its upper
    // bound among the old entries (after any equal key), and every old
    // entry moves at most once.
    std::sort(newcomers.begin(), newcomers.end(), by_cost);
    const std::size_t old_size = order.size();
    order.resize(old_size + newcomers.size());
    auto old_end = order.begin() + static_cast<std::ptrdiff_t>(old_size);
    auto write_end = order.end();
    for (auto it = newcomers.rbegin(); it != newcomers.rend(); ++it) {
      const auto pos = std::upper_bound(order.begin(), old_end, *it, by_cost);
      write_end = std::move_backward(pos, old_end, write_end);
      *--write_end = *it;
      old_end = pos;
      member[*it] = 1;
    }
    live += newcomers.size();

    // Static-cost fast path (DESIGN.md §5h). Every live member is currently
    // admitted, so the active set is jointly feasible. Probe each newcomer,
    // cheapest first, against the *total* current load:
    //
    //  * fits the total → {members} ∪ {newcomer} is jointly feasible, and a
    //    jointly feasible set re-admits fully under any greedy order — the
    //    canonical suffix replay would admit the newcomer and re-admit every
    //    old member unchanged. One ledger probe replaces the O(suffix)
    //    drop-and-replay.
    //  * fails the total → the canonical decision is made against the order
    //    *prefix* (members cheaper than the newcomer). Reconstruct the
    //    prefix load on the newcomer's two ports by subtracting the suffix
    //    members' holdings (the replay's drop loop, restricted to two ports,
    //    clamp included). Fails the prefix too → retro-removed on the spot;
    //    it never allocates, so every other decision stands and no ledger
    //    probe is spent. Fits the prefix but not the total → admitting it
    //    must displace someone: fall back to the full suffix replay below.
    std::size_t replay_from = kNone;
    for (const std::size_t k : newcomers) {
      const Request& r = requests[k];
      if (!feasible[k]) {
        retro_remove(k, t1);  // never allocates: no other decision can change
        continue;
      }
      // admission_checks counts ledger probes only (same contract as the
      // rebuild engine): infeasible-rate requests never reach the book.
      if (telemetry != nullptr) ++telemetry->admission_checks;
      if (book.try_admit(k, r.ingress, r.egress, rates[k])) continue;
      const auto pos = static_cast<std::size_t>(
          std::lower_bound(order.begin(), order.end(), k, by_cost) -
          order.begin());
      double in_load =
          book.counters().allocated_ingress(r.ingress).to_bytes_per_second();
      double out_load =
          book.counters().allocated_egress(r.egress).to_bytes_per_second();
      for (std::size_t idx = pos + 1; idx < order.size(); ++idx) {
        const std::size_t m = order[idx];
        const Bandwidth held = book.admitted_bw(m);
        if (!held.is_positive()) continue;
        if (requests[m].ingress == r.ingress) {
          in_load -= held.to_bytes_per_second();
          if (in_load < 0.0) in_load = 0.0;  // mirrors reclaim's clamp
        }
        if (requests[m].egress == r.egress) {
          out_load -= held.to_bytes_per_second();
          if (out_load < 0.0) out_load = 0.0;
        }
      }
      const bool prefix_fits =
          approx_le(Bandwidth::bytes_per_second(in_load) + rates[k],
                    network.ingress_capacity(r.ingress)) &&
          approx_le(Bandwidth::bytes_per_second(out_load) + rates[k],
                    network.egress_capacity(r.egress));
      if (prefix_fits) {
        replay_from = pos;  // true displacement: replay the suffix
        break;
      }
      retro_remove(k, t1);
    }
    if (replay_from == kNone) continue;

    // Displacement replay: release the suffix's held allocations, then
    // re-run greedy admission in cost order. The prefix's decisions are
    // untouched (greedy admission depends only on the order prefix); the
    // newcomers the fast path already settled all sit strictly before
    // `replay_from` (they are cheaper than the displacing newcomer).
    for (std::size_t idx = replay_from; idx < order.size(); ++idx) {
      const std::size_t k = order[idx];
      book.drop(k, requests[k].ingress, requests[k].egress);
    }
    for (std::size_t idx = replay_from; idx < order.size(); ++idx) {
      const std::size_t k = order[idx];
      if (!member[k]) continue;  // tombstone
      const Request& r = requests[k];
      if (feasible[k]) {
        if (telemetry != nullptr) ++telemetry->admission_checks;
        if (book.try_admit(k, r.ingress, r.egress, rates[k])) continue;
      }
      retro_remove(k, t1);
    }
  }
  narrate_preemptions(requests, s.alive, removed_at, observer);
  return assemble(requests, s.alive, observer);
}

/// Per-sweep scratch for the CUMULATED kernel, sized once before the sweep
/// loop and reused every slice — the sweep body is `gridbw:hot`, which bans
/// stray allocation, and every per-slice buffer below has capacity for the
/// full request set so refills never grow it.
///
/// Request-indexed arrays are SoA mirrors of the fields the inner loops
/// touch, and admission runs on raw double port loads.
struct CumulatedArena {
  // Indexed by request k. rate/ratio/rel/win reproduce slot_cost's inputs
  // bit-for-bit: cost = ratio / ((t2 - rel) / win), the exact operation
  // sequence slot_cost performs, so the sort order matches the oracle's.
  std::vector<double> rate;      // min_rate, bytes/s
  std::vector<double> ratio;     // min_rate / bottleneck (cost numerator)
  std::vector<double> rel;       // release, seconds
  std::vector<double> win;       // deadline - release, seconds
  std::vector<double> cost;      // cost at the slice it was last computed
  std::vector<char> feasible;    // min_rate <= max_rate (approx_le)
  std::vector<char> member;      // 1 = live member of the active set
  std::vector<std::uint32_t> iport;
  std::vector<std::uint32_t> eport;
  std::vector<double> held;      // admitted bandwidth, 0 = not admitted
  // Indexed by port: raw-double CounterLedger with the approx_le threshold
  // precomputed (approx_le_limit of the capacity).
  std::vector<double> load_in, load_out;
  std::vector<double> limit_in, limit_out;
  // Max-heap of (cost when last computed, k) over the live members, plus
  // lazy entries of departed ones.
  std::vector<std::pair<double, std::size_t>> by_stale_cost;
  std::vector<std::size_t> suffix;    // the slice's replayed members
  std::vector<std::size_t> re_keyed;  // examined members that stay in the prefix
};

/// CUMULATED-SLOTS incremental kernel. The cost factor is slice-dependent,
/// but the two sweep invariants (see sweep_incremental) still hold, and
/// they carry all the savings:
///
///  * pure-departure slices apply their drops and stop: the surviving set
///    is jointly feasible and re-admits fully under any order, so the
///    replay would be a no-op — skip it entirely;
///  * newcomer slices replay only the members that sort at or after the
///    cheapest newcomer (`lead`): everything cheaper is an admitted member
///    whose admission stands, whatever its order among the others.
///
/// Finding that suffix does not need every member's current cost. The cost
/// ratio / ((t2 - rel) / win) is non-increasing in t2 — even in IEEE
/// arithmetic, since each correctly rounded operation is monotone — so a
/// cost computed at an earlier slice is an upper bound on today's. Members
/// sit in a max-heap keyed by the cost they were last computed at; popping
/// while the key reaches lead's cost, and re-costing exactly what is popped,
/// visits every member that can join the suffix. Popped members that stay
/// cheaper than lead are pushed back with their fresh cost; the suffix is
/// sorted, dropped and replayed, and its survivors re-enter the heap.
/// Departed members leave lazy heap entries, discarded when popped, and the
/// heap is rebuilt once they outnumber the live members.
// gridbw:hot
ScheduleResult sweep_cumulated(const Network& network,
                               std::span<const Request> requests, SweepSetup& s,
                               SlotsTelemetry* telemetry, obs::Observer* observer) {
  const std::size_t n = requests.size();

  CumulatedArena a;
  a.rate.assign(n, 0.0);
  a.ratio.assign(n, 0.0);
  a.rel.assign(n, 0.0);
  a.win.assign(n, 0.0);
  a.cost.assign(n, 0.0);
  a.feasible.assign(n, 0);
  a.member.assign(n, 0);
  a.iport.assign(n, 0);
  a.eport.assign(n, 0);
  a.held.assign(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    if (!s.alive[k]) continue;
    const Request& r = requests[k];
    a.rate[k] = r.min_rate().to_bytes_per_second();
    a.ratio[k] = r.min_rate() / network.bottleneck(r.ingress, r.egress);
    a.rel[k] = r.release.to_seconds();
    a.win[k] = (r.deadline - r.release).to_seconds();
    a.feasible[k] = approx_le(r.min_rate(), r.max_rate) ? 1 : 0;
    a.iport[k] = static_cast<std::uint32_t>(r.ingress.value);
    a.eport[k] = static_cast<std::uint32_t>(r.egress.value);
  }
  a.load_in.assign(network.ingress_count(), 0.0);
  a.load_out.assign(network.egress_count(), 0.0);
  a.limit_in.resize(network.ingress_count());
  a.limit_out.resize(network.egress_count());
  for (std::size_t p = 0; p < network.ingress_count(); ++p) {
    a.limit_in[p] = approx_le_limit(network.ingress_capacity(IngressId{p}));
  }
  for (std::size_t p = 0; p < network.egress_count(); ++p) {
    a.limit_out[p] = approx_le_limit(network.egress_capacity(EgressId{p}));
  }
  a.by_stale_cost.reserve(n);
  a.suffix.reserve(n);
  a.re_keyed.reserve(n);

  // Mirrors CounterLedger::reclaim's clamp: FP noise may dip a counter a
  // hair below zero; anything past the admission tolerance is a bug.
  const auto drop_held = [&a](std::size_t k) {
    const double held = a.held[k];
    if (held == 0.0) return;
    a.held[k] = 0.0;
    const std::uint32_t ip = a.iport[k];
    const std::uint32_t ep = a.eport[k];
    a.load_in[ip] -= held;
    a.load_out[ep] -= held;
    assert(a.load_in[ip] >= -1.0 && a.load_out[ep] >= -1.0);
    if (a.load_in[ip] < 0.0) a.load_in[ip] = 0.0;
    if (a.load_out[ep] < 0.0) a.load_out[ep] = 0.0;
  };
  const auto by_cost = [&](std::size_t x, std::size_t y) {
    if (a.cost[x] != a.cost[y]) return a.cost[x] < a.cost[y];
    return requests[x].id < requests[y].id;
  };
  // slot_cost's CUMULATED operation sequence, bit for bit.
  const auto recost = [&a](std::size_t k, double t2s) {
    a.cost[k] = a.ratio[k] / ((t2s - a.rel[k]) / a.win[k]);
  };
  const auto push_keyed = [&a](std::size_t k) {
    a.by_stale_cost.emplace_back(a.cost[k], k);
    std::push_heap(a.by_stale_cost.begin(), a.by_stale_cost.end());
  };

  std::vector<TimePoint> removed_at = make_removal_clock(requests, observer);
  SliceEvents events{requests, s};
  std::size_t live = 0;

  for (std::size_t b = 0; b + 1 < s.boundaries.size(); ++b) {
    const TimePoint t1 = s.boundaries[b];
    if (!events.open(t1, s.boundaries[b + 1], telemetry)) continue;

    for (std::size_t k = events.pop_departure(); k != kNone; k = events.pop_departure()) {
      if (!a.member[k]) continue;  // entry of a retro-removed request
      drop_held(k);
      a.member[k] = 0;
      --live;
    }

    const std::vector<std::size_t>& newcomers = events.newcomers();
    if (newcomers.empty()) continue;  // pure departures: decisions stand

    // Newcomers join the active set and are costed fresh; `lead` is the
    // cheapest of them.
    const double t2s = s.boundaries[b + 1].to_seconds();
    a.suffix.assign(newcomers.begin(), newcomers.end());
    for (const std::size_t k : newcomers) {
      recost(k, t2s);
      a.member[k] = 1;
    }
    live += newcomers.size();
    std::size_t lead = newcomers.front();
    for (const std::size_t k : newcomers) {
      if (by_cost(k, lead)) lead = k;
    }

    // Every member whose stale key is below lead's cost is cheaper than
    // lead today and stays in the prefix; re-cost the rest exactly.
    a.re_keyed.clear();
    while (!a.by_stale_cost.empty() && a.by_stale_cost.front().first >= a.cost[lead]) {
      std::pop_heap(a.by_stale_cost.begin(), a.by_stale_cost.end());
      const std::size_t k = a.by_stale_cost.back().second;
      a.by_stale_cost.pop_back();
      if (!a.member[k]) continue;  // lazy entry of a departed member
      recost(k, t2s);
      (by_cost(k, lead) ? a.re_keyed : a.suffix).push_back(k);
    }
    for (const std::size_t k : a.re_keyed) push_keyed(k);

    // Exactly the tail a full sort of the active set would put at and after
    // lead's position, in the same order.
    std::sort(a.suffix.begin(), a.suffix.end(), by_cost);
    for (const std::size_t k : a.suffix) drop_held(k);
    for (const std::size_t k : a.suffix) {
      if (a.feasible[k]) {
        // admission_checks counts ledger probes only (same contract as the
        // other engines).
        if (telemetry != nullptr) ++telemetry->admission_checks;
        const double bw = a.rate[k];
        const std::uint32_t ip = a.iport[k];
        const std::uint32_t ep = a.eport[k];
        if (a.load_in[ip] + bw <= a.limit_in[ip] &&
            a.load_out[ep] + bw <= a.limit_out[ep]) {
          a.load_in[ip] += bw;
          a.load_out[ep] += bw;
          a.held[k] = bw;
          push_keyed(k);
          continue;
        }
      }
      a.member[k] = 0;
      --live;
      s.alive[k] = 0;  // retro-removal, permanent
      events.dirty = true;
      if (observer != nullptr) removed_at[k] = t1;
    }

    if (a.by_stale_cost.size() > 2 * live) {
      std::erase_if(a.by_stale_cost, [&a](const auto& e) { return !a.member[e.second]; });
      std::make_heap(a.by_stale_cost.begin(), a.by_stale_cost.end());
    }
  }
  narrate_preemptions(requests, s.alive, removed_at, observer);
  return assemble(requests, s.alive, observer);
}

}  // namespace

std::string to_string(SlotCost cost) {
  switch (cost) {
    case SlotCost::kCumulated: return "CUMULATED-SLOTS";
    case SlotCost::kMinBandwidth: return "MINBW-SLOTS";
    case SlotCost::kMinVolume: return "MINVOL-SLOTS";
  }
  return "unknown";
}

std::string to_string(SlotsEngine engine) {
  switch (engine) {
    case SlotsEngine::kRebuild: return "rebuild";
    case SlotsEngine::kIncremental: return "incremental";
  }
  return "unknown";
}

double slot_cost(const Network& network, const Request& r, SlotCost cost, TimePoint t1,
                 TimePoint t2) {
  (void)t1;  // the priority factor only involves the slice's upper bound
  switch (cost) {
    case SlotCost::kCumulated: {
      // priority in (0, 1]: the fraction of the request's window that will
      // have been covered once this slice completes. Longer-served (and
      // shorter) requests get smaller cost, hence higher priority.
      const double priority = (t2 - r.release) / (r.deadline - r.release);
      const Bandwidth b_min = network.bottleneck(r.ingress, r.egress);
      return (r.min_rate() / b_min) / priority;
    }
    case SlotCost::kMinBandwidth:
      return r.min_rate().to_bytes_per_second();
    case SlotCost::kMinVolume:
      return r.volume.to_bytes();
  }
  // sweep_incremental calls this once per request before its slice loop;
  // every SlotCost value returns above.
  // GRIDBW-ALLOW(hot-propagation): bad-enum guard, unreachable hot
  throw std::logic_error{"slot_cost: bad cost kind"};
}

ScheduleResult schedule_rigid_slots(const Network& network,
                                    std::span<const Request> requests, SlotCost cost,
                                    obs::Observer* observer) {
  return schedule_rigid_slots(network, requests, cost, SlotsEngine::kIncremental,
                              nullptr, observer);
}

ScheduleResult schedule_rigid_slots(const Network& network,
                                    std::span<const Request> requests, SlotCost cost,
                                    SlotsEngine engine, SlotsTelemetry* telemetry,
                                    obs::Observer* observer) {
  if (observer != nullptr) {
    for (const Request& r : requests) obs::note_submitted(observer, r.id, r.release);
  }
  SweepSetup setup = prepare_sweep(requests);
  switch (engine) {
    case SlotsEngine::kRebuild:
      return sweep_rebuild(network, requests, cost, setup, telemetry, observer);
    case SlotsEngine::kIncremental:
      // CUMULATED's slice-dependent cost gets its own batched kernel; the
      // static-cost kernels share the ordered-merge engine.
      if (cost == SlotCost::kCumulated) {
        return sweep_cumulated(network, requests, setup, telemetry, observer);
      }
      return sweep_incremental(network, requests, cost, setup, telemetry, observer);
  }
  throw std::logic_error{"schedule_rigid_slots: bad engine"};
}

}  // namespace gridbw::heuristics
