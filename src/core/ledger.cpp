#include "core/ledger.hpp"

#include <algorithm>
#include <cassert>

namespace gridbw {

namespace {

/// Releases between GC retirement passes: each pass costs O(ports · log n)
/// in watermark binary searches even when nothing folds, so the release
/// path batches it rather than paying per departure.
constexpr std::size_t kGcReleaseBatch = 64;

}  // namespace

NetworkLedger::NetworkLedger(const Network& network) {
  ingress_.reserve(network.ingress_count());
  egress_.reserve(network.egress_count());
  for (std::size_t p = 0; p < network.ingress_count(); ++p) {
    ingress_.emplace_back(network.ingress_capacity(IngressId{p}));
  }
  for (std::size_t p = 0; p < network.egress_count(); ++p) {
    egress_.emplace_back(network.egress_capacity(EgressId{p}));
  }
}

// gridbw:hot
bool NetworkLedger::fits(IngressId i, EgressId e, TimePoint t0, TimePoint t1,
                         Bandwidth bw) const {
  const bool ok = ingress_[i.value].fits(t0, t1, bw) && egress_[e.value].fits(t0, t1, bw);
  if (observer_ != nullptr) {
    observer_->count(obs::Counter::kLedgerFitsChecks);
    if (!ok) observer_->count(obs::Counter::kLedgerFitsRejected);
  }
  return ok;
}

// gridbw:hot
void NetworkLedger::reserve(IngressId i, EgressId e, TimePoint t0, TimePoint t1,
                            Bandwidth bw) {
  ingress_.at(i.value).commit(t0, t1, bw);
  egress_.at(e.value).commit(t0, t1, bw);
  if (observer_ != nullptr) observer_->count(obs::Counter::kLedgerReservations);
}

// gridbw:hot
void NetworkLedger::release(IngressId i, EgressId e, TimePoint t0, TimePoint t1,
                            Bandwidth bw) {
  ingress_.at(i.value).release(t0, t1, bw);
  egress_.at(e.value).release(t0, t1, bw);
  if (observer_ != nullptr) observer_->count(obs::Counter::kLedgerReleases);
  // Departures drive the breakpoint GC once advance_horizon has armed it.
  if (gc_armed_ && ++gc_release_debt_ >= kGcReleaseBatch) (void)collect_retired();
}

std::size_t NetworkLedger::advance_horizon(TimePoint horizon) {
  if (!gc_armed_ || gc_horizon_ < horizon) gc_horizon_ = horizon;
  gc_armed_ = true;
  if (gc_release_debt_ < kGcReleaseBatch) return 0;
  return collect_retired();
}

std::size_t NetworkLedger::collect_retired() {
  if (!gc_armed_) return 0;
  gc_release_debt_ = 0;
  std::size_t retired = 0;
  for (PortBook& book : ingress_) retired += book.collect(gc_horizon_, observer_);
  for (PortBook& book : egress_) retired += book.collect(gc_horizon_, observer_);
  return retired;
}

std::size_t NetworkLedger::resident_breakpoints() const {
  std::size_t total = 0;
  for (const PortBook& book : ingress_) total += book.profile().breakpoint_count();
  for (const PortBook& book : egress_) total += book.profile().breakpoint_count();
  return total;
}

CounterLedger::CounterLedger(const Network& network)
    : network_{&network},
      ingress_(network.ingress_count(), Bandwidth::zero()),
      egress_(network.egress_count(), Bandwidth::zero()) {}

// gridbw:hot
bool CounterLedger::fits(IngressId i, EgressId e, Bandwidth bw) const {
  // Deliberately uninstrumented: each call is a handful of instructions and
  // the slice sweeps issue millions of them, so even a disabled-observer
  // pointer test shows up in unoptimized builds. Engine-level note_* events
  // carry the admission story for CounterLedger users.
  return approx_le(ingress_.at(i.value) + bw, network_->ingress_capacity(i)) &&
         approx_le(egress_.at(e.value) + bw, network_->egress_capacity(e));
}

// gridbw:hot
void CounterLedger::allocate(IngressId i, EgressId e, Bandwidth bw) {
  ingress_.at(i.value) += bw;
  egress_.at(e.value) += bw;
}

// gridbw:hot
void CounterLedger::reclaim(IngressId i, EgressId e, Bandwidth bw) {
  ingress_.at(i.value) -= bw;
  egress_.at(e.value) -= bw;
  // FP noise on long allocate/reclaim chains legitimately dips a hair below
  // zero — clamp it. Drift past the admission tolerance is a mismatched
  // allocate/reclaim pair; note_negative_drift asserts (debug) / counts it
  // so the accounting bug surfaces instead of biasing fits() optimistically.
  if (ingress_.at(i.value) < Bandwidth::zero()) {
    note_negative_drift(ingress_.at(i.value));
    ingress_.at(i.value) = Bandwidth::zero();
  }
  if (egress_.at(e.value) < Bandwidth::zero()) {
    note_negative_drift(egress_.at(e.value));
    egress_.at(e.value) = Bandwidth::zero();
  }
}

void CounterLedger::note_negative_drift(Bandwidth value) const {
  // Same 1 byte/s absolute tolerance as approx_le(Bandwidth, Bandwidth):
  // anything within it is expected rounding noise, not an accounting bug.
  if (value.to_bytes_per_second() >= -1.0) return;
  assert(false &&
         "CounterLedger::reclaim: counter drift beyond tolerance "
         "(mismatched allocate/reclaim pair)");
  if (observer_ != nullptr) observer_->count(obs::Counter::kLedgerDriftClamped);
}

void CounterLedger::reset() {
  std::fill(ingress_.begin(), ingress_.end(), Bandwidth::zero());
  std::fill(egress_.begin(), egress_.end(), Bandwidth::zero());
}

double CounterLedger::ingress_util_with(IngressId i, Bandwidth bw) const {
  return (ingress_.at(i.value) + bw) / network_->ingress_capacity(i);
}

double CounterLedger::egress_util_with(EgressId e, Bandwidth bw) const {
  return (egress_.at(e.value) + bw) / network_->egress_capacity(e);
}

AdmissionLedger::AdmissionLedger(const Network& network, std::size_t request_count)
    : counters_{network}, admitted_(request_count, Bandwidth::zero()) {}

// gridbw:hot
bool AdmissionLedger::try_admit(std::size_t k, IngressId i, EgressId e, Bandwidth bw) {
  if (!counters_.fits(i, e, bw)) return false;
  counters_.allocate(i, e, bw);
  admitted_.at(k) = bw;
  return true;
}

void AdmissionLedger::drop(std::size_t k, IngressId i, EgressId e) {
  Bandwidth& held = admitted_.at(k);
  if (!held.is_positive()) return;
  counters_.reclaim(i, e, held);
  held = Bandwidth::zero();
}

void AdmissionLedger::reset() {
  counters_.reset();
  std::fill(admitted_.begin(), admitted_.end(), Bandwidth::zero());
}

}  // namespace gridbw
