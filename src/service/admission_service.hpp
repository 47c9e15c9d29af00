// gridbw/service/admission_service.hpp
//
// Steady-state churn engine (ROADMAP direction #1): the long-running
// counterpart to the closed-batch schedulers. Requests are ingested into a
// queue, sequenced into one deterministic event order (arrivals at release,
// departures at deadline), and executed by worker threads over per-port
// shards (DESIGN.md §5h):
//
//  * One shard per port (ingress and egress ports share one id space): the
//    port's PortBook (core/port_book.hpp), a mutex + condition variable, an
//    applied-event counter, and the GC bookkeeping (live-start heap,
//    departures since the last retirement scan).
//  * drain() sorts the batch's events by (time, departure-before-arrival,
//    request id) and gives each a sequence number on both its ports. Worker
//    w executes the requests whose ingress id is w mod workers, in order.
//  * An event runs only once BOTH its ports have applied exactly the events
//    sequenced before it (lower-id shard locked and waited on first), so
//    every decision sees the serial-order state: outcomes are byte-identical
//    to a serial replay for any worker count and thread schedule.
//  * Every `gc_batch` departures a shard offers PortBook::collect the safe
//    watermark min(current event time, earliest live start on the port).
//    Decisions are bit-identical with GC on or off (retire_before's
//    contract); only resident breakpoint counts differ.
//  * Traces are emitted in a single-threaded post-pass in event order, so
//    same-seed runs produce byte-identical JSONL regardless of shard count.
//
// Wall clocks never appear in this module (gridbw-wall-clock): admission
// latency capture is injected by the caller as an opaque `clock` callback
// (the churn bench passes a steady-clock lambda; the library never reads
// real time itself).

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/network.hpp"
#include "core/request.hpp"
#include "obs/observer.hpp"
#include "util/quantity.hpp"

namespace gridbw::service {

struct ServiceOptions {
  /// Worker threads; each owns the requests whose ingress port id is
  /// congruent to its index (mod shards). 1 = serial execution. The
  /// admission decisions do not depend on this value.
  std::size_t shards{1};
  /// Retired-breakpoint GC on departures. Off = profiles only grow;
  /// decisions are bit-identical either way.
  bool gc{true};
  /// Departures a shard absorbs between GC watermark scans.
  std::size_t gc_batch{64};
  /// Optional (nullable) observability: counters + trace, emitted in
  /// deterministic event order after the workers join.
  obs::Observer* observer{nullptr};
  /// Optional monotonic clock (seconds, arbitrary epoch) for per-admission
  /// latency capture. Null = no latency capture. Injected so the service
  /// itself never reads wall clocks.
  std::function<double()> clock{};
};

/// What drain() hands back for the batch it executed.
struct ServiceReport {
  std::size_t submitted{0};
  std::size_t admitted{0};
  std::size_t rejected{0};
  std::size_t expired{0};
  /// Peak simultaneously-live admitted reservations (event-order replay).
  std::size_t live_peak{0};
  /// Sum of resident (merged) breakpoints across all port shards after the
  /// batch — the figure the GC keeps O(live) instead of O(history).
  std::size_t resident_breakpoints{0};
  /// GC activity since construction (cumulative across drains).
  std::size_t compactions{0};
  std::size_t breakpoints_retired{0};
  /// FNV-1a over (request id, admitted) in event order: two runs (any shard
  /// count, GC on or off) must agree byte-for-byte.
  std::uint64_t decision_fingerprint{0};
  /// Per-admission decision latency in `clock` units, indexed by arrival
  /// order. Empty when no clock was injected. Values are timing (not
  /// deterministic); everything else in this struct is.
  std::vector<double> latency;
};

/// Post-drain control-surface snapshot of the shard state.
struct ServiceSnapshot {
  std::size_t ports{0};
  std::size_t resident_breakpoints{0};
  /// Admitted reservations that have not yet expired.
  std::size_t live{0};
  /// Largest standing load (bytes/s) any port carries at the last executed
  /// event time — ~0 once every reservation has expired.
  double peak_standing_load{0.0};
};

/// Sharded online admission loop. Lifecycle: construct, submit() any number
/// of requests (thread-safe), drain() to execute the batch and collect the
/// report; repeat submit/drain for later batches (port state persists, so
/// later batches must not release work before already-drained instants).
/// snapshot() reads the shard state between batches.
class AdmissionService {
 public:
  AdmissionService(const Network& network, ServiceOptions options);
  ~AdmissionService();

  AdmissionService(const AdmissionService&) = delete;
  AdmissionService& operator=(const AdmissionService&) = delete;

  /// Queues a request for the next drain(). Thread-safe; the batch's event
  /// order is independent of submission interleaving (ids break ties).
  /// Throws std::invalid_argument when a port id lies outside the network or
  /// release, deadline or volume is not finite, or the volume is negative.
  /// A degenerate window or an infeasible rate is a rejection, not an error.
  void submit(const Request& request);

  /// Seals the ingest queue, executes every queued event across the shard
  /// workers, joins them, and emits the batch's trace in event order.
  ServiceReport drain();

  [[nodiscard]] ServiceSnapshot snapshot() const;

  /// Admission outcome of an already-drained request id; false for unknown
  /// ids. Exposed for differential tests against batch engines.
  [[nodiscard]] bool was_admitted(RequestId id) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gridbw::service
