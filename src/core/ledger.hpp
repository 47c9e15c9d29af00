// gridbw/core/ledger.hpp
//
// Two bandwidth-accounting books:
//
//  * NetworkLedger — the exact, time-aware book. Each port is a PortBook
//    (flat TimelineProfile + one scan fit predicate + GC policy, see
//    core/port_book.hpp); `fits` asks whether an extra `bw` over [t0, t1)
//    would exceed the port capacity anywhere. Used by the rigid heuristics
//    (whose reservations span arbitrary future windows), the BOOK-AHEAD
//    feasibility probes, and the optimality solvers.
//
//  * CounterLedger — the paper's O(1) online book (`ali`/`ale` in
//    Algorithms 2 and 3): one running counter per port, increased on accept
//    and reclaimed when a transfer finishes. Valid only for *online* use
//    where all active allocations share the current instant.
//
//  * AdmissionLedger — the incremental slice-sweep book used by the
//    *-SLOTS heuristics: CounterLedger counters that survive across time
//    slices, plus the per-request admitted bandwidth so that a departure
//    (finish delta) or retro-removal (release delta) subtracts exactly what
//    the request contributed instead of reconstructing the counters from
//    scratch each slice.

#pragma once

#include <vector>

#include "core/ids.hpp"
#include "core/network.hpp"
#include "core/port_book.hpp"
#include "core/timeline_profile.hpp"
#include "obs/observer.hpp"
#include "util/quantity.hpp"

namespace gridbw {

/// Exact time-aware allocation book over all ports of a network.
///
/// Thread safety: like TimelineProfile queries, `fits` may run the
/// profile's lazy merge even though it is const. A NetworkLedger must not be
/// shared across threads; every scheduling engine owns its own instance.
class NetworkLedger {
 public:
  explicit NetworkLedger(const Network& network);

  /// Would adding `bw` on ports (i, e) over [t0, t1) keep both within
  /// capacity everywhere? (Uses the approx_le tolerance.)
  [[nodiscard]] bool fits(IngressId i, EgressId e, TimePoint t0, TimePoint t1,
                          Bandwidth bw) const;

  /// Per-port halves of `fits`, for rejection-reason classification. No
  /// observer counters.
  [[nodiscard]] bool fits_ingress(IngressId i, TimePoint t0, TimePoint t1, Bandwidth bw) const {
    return ingress_.at(i.value).fits(t0, t1, bw);
  }
  [[nodiscard]] bool fits_egress(EgressId e, TimePoint t0, TimePoint t1, Bandwidth bw) const {
    return egress_.at(e.value).fits(t0, t1, bw);
  }

  /// Commits `bw` on (i, e) over [t0, t1). Does not re-check `fits`.
  void reserve(IngressId i, EgressId e, TimePoint t0, TimePoint t1, Bandwidth bw);

  /// Reverses a previous `reserve` with identical arguments.
  void release(IngressId i, EgressId e, TimePoint t0, TimePoint t1, Bandwidth bw);

  [[nodiscard]] const TimelineProfile& ingress_profile(IngressId i) const {
    return ingress_.at(i.value).profile();
  }
  [[nodiscard]] const TimelineProfile& egress_profile(EgressId e) const {
    return egress_.at(e.value).profile();
  }

  /// Mirrors fits/reserve/release into the observer's ledger counters
  /// (kLedgerFitsChecks, ...). Null detaches; the disabled path is one
  /// branch per call.
  void attach_observer(obs::Observer* observer) { observer_ = observer; }

  /// Steady-state churn GC: moves the retirement watermark forward
  /// (monotonic max) and arms the release path to drive per-port breakpoint
  /// compaction. The caller guarantees no future reserve/release touches an
  /// instant before `horizon` (<= now and <= every live reservation start),
  /// which keeps every later decision bit-identical (TimelineProfile::
  /// retire_before). Returns the breakpoints retired by the pass this call
  /// ran, 0 when release-debt batching deferred it.
  std::size_t advance_horizon(TimePoint horizon);

  /// Runs the retirement pass now, regardless of accumulated release debt.
  /// Each port applies PortBook::collect's amortization policy.
  std::size_t collect_retired();

  /// Total resident (merged) breakpoints across every port profile — the
  /// figure the churn bench asserts stays O(live requests) under GC.
  [[nodiscard]] std::size_t resident_breakpoints() const;

 private:
  std::vector<PortBook> ingress_;
  std::vector<PortBook> egress_;
  obs::Observer* observer_{nullptr};
  // GC state: watermark, whether advance_horizon armed the release path, and
  // releases since the last pass (a pass is O(ports · log n) even idle).
  TimePoint gc_horizon_{};
  bool gc_armed_{false};
  std::size_t gc_release_debt_{0};
};

/// The paper's online counters: ali(i), ale(e).
///
/// Uninstrumented on its hot paths: the O(1) methods sit inside slice-sweep
/// loops that call them millions of times, so engines narrate admissions via
/// the note_* helpers instead. The one exception is the clamp path: `reclaim`
/// driving a counter below zero by more than the admission tolerance is a
/// mismatched allocate/reclaim pair, asserted in debug builds and counted
/// (kLedgerDriftClamped) when an observer is attached.
class CounterLedger {
 public:
  explicit CounterLedger(const Network& network);

  /// ali(i) + bw <= B_in(i) and ale(e) + bw <= B_out(e)?
  [[nodiscard]] bool fits(IngressId i, EgressId e, Bandwidth bw) const;

  /// ali(i) += bw; ale(e) += bw. Does not re-check `fits`.
  void allocate(IngressId i, EgressId e, Bandwidth bw);

  /// Reclaims a finished transfer's bandwidth. Counters dipping a hair
  /// below zero (FP noise on long allocate/reclaim chains) are clamped
  /// silently; drift beyond the 1 byte/s admission tolerance trips a debug
  /// assertion and bumps kLedgerDriftClamped on the attached observer.
  void reclaim(IngressId i, EgressId e, Bandwidth bw);

  /// Attaches the drift-anomaly observer (see class comment). Null detaches.
  void attach_observer(obs::Observer* observer) { observer_ = observer; }

  /// Zeroes every counter in place (no reallocation) — the cheap
  /// alternative to constructing a fresh ledger per time slice.
  void reset();

  [[nodiscard]] Bandwidth allocated_ingress(IngressId i) const {
    return ingress_.at(i.value);
  }
  [[nodiscard]] Bandwidth allocated_egress(EgressId e) const { return egress_.at(e.value); }

  /// Utilization ratios used by the WINDOW heuristic's cost function:
  /// (ali(i) + bw) / B_in(i) and (ale(e) + bw) / B_out(e).
  [[nodiscard]] double ingress_util_with(IngressId i, Bandwidth bw) const;
  [[nodiscard]] double egress_util_with(EgressId e, Bandwidth bw) const;

  /// Per-port halves of `fits`, for rejection-reason classification.
  [[nodiscard]] bool fits_ingress(IngressId i, Bandwidth bw) const {
    return approx_le(ingress_.at(i.value) + bw, network_->ingress_capacity(i));
  }
  [[nodiscard]] bool fits_egress(EgressId e, Bandwidth bw) const {
    return approx_le(egress_.at(e.value) + bw, network_->egress_capacity(e));
  }

  [[nodiscard]] const Network& network() const { return *network_; }

 private:
  /// Cold half of the reclaim clamp: asserts/counts when `value` is below
  /// -1 byte/s. Out of line so the hot loop only pays a call on the
  /// (already rare) negative branch.
  void note_negative_drift(Bandwidth value) const;

  const Network* network_;
  std::vector<Bandwidth> ingress_;
  std::vector<Bandwidth> egress_;
  obs::Observer* observer_{nullptr};
};

/// Incremental admission book for slice sweeps over a fixed request set.
///
/// Requests are addressed by their dense index k in [0, request_count).
/// The book remembers, for every admitted request, the bandwidth it holds on
/// its two ports, so the sweep can apply *deltas* at slice boundaries:
/// `drop` subtracts a departing or retro-removed request's contribution, and
/// `try_admit` re-runs the greedy fit-then-allocate step for exactly the
/// suffix of the per-slice order whose decisions can have changed. Port
/// counters are never rebuilt from scratch.
class AdmissionLedger {
 public:
  AdmissionLedger(const Network& network, std::size_t request_count);

  /// Greedy admission step: if `bw` fits on (i, e) given all currently
  /// admitted allocations, records it for request `k` and returns true.
  /// `k` must not already be admitted.
  bool try_admit(std::size_t k, IngressId i, EgressId e, Bandwidth bw);

  /// Subtracts request `k`'s admitted bandwidth from its ports (finish or
  /// retro-removal delta). No-op if `k` is not admitted.
  void drop(std::size_t k, IngressId i, EgressId e);

  [[nodiscard]] bool is_admitted(std::size_t k) const {
    return admitted_.at(k).is_positive();
  }
  [[nodiscard]] Bandwidth admitted_bw(std::size_t k) const { return admitted_.at(k); }

  /// Forgets every admission and zeroes the counters in place.
  void reset();

  /// Forwards the drift-anomaly observer to the underlying counters.
  void attach_observer(obs::Observer* observer) { counters_.attach_observer(observer); }

  [[nodiscard]] const CounterLedger& counters() const { return counters_; }

 private:
  CounterLedger counters_;
  std::vector<Bandwidth> admitted_;  // zero = not admitted
};

}  // namespace gridbw
