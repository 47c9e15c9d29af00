#include "obs/counters.hpp"

#include <utility>

namespace gridbw::obs {

std::string to_string(Counter counter) {
  switch (counter) {
    case Counter::kSubmitted: return "submitted";
    case Counter::kAccepted: return "accepted";
    case Counter::kRejected: return "rejected";
    case Counter::kRetried: return "retried";
    case Counter::kPreempted: return "preempted";
    case Counter::kReclaimed: return "reclaimed";
    case Counter::kExpired: return "expired";
    case Counter::kRevoked: return "revoked";
    case Counter::kReshaped: return "reshaped";
    case Counter::kLedgerFitsChecks: return "ledger_fits_checks";
    case Counter::kLedgerFitsRejected: return "ledger_fits_rejected";
    case Counter::kLedgerReservations: return "ledger_reservations";
    case Counter::kLedgerReleases: return "ledger_releases";
    case Counter::kLedgerDriftClamped: return "ledger_drift_clamped";
    case Counter::kProfileCompactions: return "profile_compactions";
    case Counter::kBreakpointsRetired: return "breakpoints_retired";
    case Counter::kShardHandoffs: return "shard_handoffs";
    case Counter::kWindowScanDrains: return "window_scan_drains";
    case Counter::kWindowHeapDrains: return "window_heap_drains";
    case Counter::kValidatorRuns: return "validator_runs";
    case Counter::kValidatorAssignments: return "validator_assignments";
    case Counter::kValidatorViolations: return "validator_violations";
    case Counter::kRetryResidualBps: return "retry_residual_bps";
    case Counter::kCount: break;
  }
  return "unknown";
}

namespace {

std::uint64_t next_registry_id() {
  static std::atomic<std::uint64_t> next{1};
  // Uniqueness is the only requirement, no ordering with any other memory.
  // GRIDBW-ALLOW(atomic-discipline): relaxed id allocation.
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

CounterRegistry::CounterRegistry() : id_{next_registry_id()} {}

// The steady state is a thread-local cache hit (one compare); the
// allocation and registry lock below run once per (thread, registry) —
// first-touch shard creation, amortized to nothing on the hot path.
// GRIDBW-ALLOW(hot-propagation): amortized first-touch shard creation
CounterRegistry::Shard& CounterRegistry::local_shard() const {
  struct Entry {
    std::uint64_t id{0};
    Shard* shard{nullptr};
  };
  // Single-entry fast cache (the common case touches one registry per
  // thread) backed by a small per-thread list for tests that juggle several
  // registries. Ids are process-unique, so a stale entry can never alias a
  // newer registry reusing the same address.
  thread_local Entry last;
  thread_local std::vector<Entry> rest;

  if (last.id == id_) return *last.shard;
  for (Entry& e : rest) {
    if (e.id == id_) {
      std::swap(e, last);
      return *last.shard;
    }
  }
  auto shard = std::make_unique<Shard>();
  Shard* raw = shard.get();
  {
    std::lock_guard lock{mutex_};
    shards_.push_back(std::move(shard));
  }
  if (last.id != 0) rest.push_back(last);
  last = Entry{id_, raw};
  return *raw;
}

void CounterRegistry::add(Counter counter, std::uint64_t delta) {
  local_shard().cells[static_cast<std::size_t>(counter)].fetch_add(
      // The merge is exact after quiescence whatever order increments land in.
      // GRIDBW-ALLOW(atomic-discipline): commutative shard add.
      delta, std::memory_order_relaxed);
}

void CounterRegistry::set(Counter counter, std::uint64_t value) {
  local_shard().cells[static_cast<std::size_t>(counter)].store(
      // Gauge write to the caller's own shard cell; nothing else published.
      // GRIDBW-ALLOW(atomic-discipline): relaxed gauge store.
      value, std::memory_order_relaxed);
}

std::uint64_t CounterRegistry::value(Counter counter) const {
  const std::size_t c = static_cast<std::size_t>(counter);
  std::uint64_t total = 0;
  std::lock_guard lock{mutex_};
  for (const auto& shard : shards_) {
    // A consistent lower bound while writers run, exact after quiescence.
    // GRIDBW-ALLOW(atomic-discipline): commutative-sum read.
    total += shard->cells[c].load(std::memory_order_relaxed);
  }
  return total;
}

std::array<std::uint64_t, kCounterCount> CounterRegistry::snapshot() const {
  std::array<std::uint64_t, kCounterCount> totals{};
  std::lock_guard lock{mutex_};
  for (const auto& shard : shards_) {
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      // GRIDBW-ALLOW(atomic-discipline): same commutative-sum read as value().
      totals[c] += shard->cells[c].load(std::memory_order_relaxed);
    }
  }
  return totals;
}

void CounterRegistry::reset() {
  std::lock_guard lock{mutex_};
  for (const auto& shard : shards_) {
    // The reset contract requires quiesced writers; no ordering is relied on.
    // GRIDBW-ALLOW(atomic-discipline): quiesced reset store.
    for (auto& cell : shard->cells) cell.store(0, std::memory_order_relaxed);
  }
}

}  // namespace gridbw::obs
