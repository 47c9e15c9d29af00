#include "service/admission_service.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/port_book.hpp"
#include "obs/counters.hpp"
#include "obs/event.hpp"

namespace gridbw::service {
namespace {

// FNV-1a, the same construction the validator uses for schedule digests.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

// Min-heap of reservation start instants with lazy deletion: departures
// push the matching start onto `dead` and the purge cancels equal tops.
// After a purge, live.top() is a lower bound on the earliest live start —
// exact once every older departure has been applied, conservative (never
// too high) in between, which is the safe direction for a GC watermark.
struct StartHeap {
  std::priority_queue<double, std::vector<double>, std::greater<>> live;
  std::priority_queue<double, std::vector<double>, std::greater<>> dead;

  void admit(double start) { live.push(start); }
  void expire(double start) {
    dead.push(start);
    while (!dead.empty() && !live.empty() && dead.top() == live.top()) {
      dead.pop();
      live.pop();
    }
  }
  [[nodiscard]] bool any_live() const { return !live.empty(); }
  [[nodiscard]] double min_live_start() const { return live.top(); }
};

}  // namespace

struct AdmissionService::Impl {
  // One shard per port. `applied` counts executed events on this port; a
  // worker touches the rest of the cell only while holding `mu` AND having
  // seen `applied` equal its event's per-port sequence number.
  struct PortCell {
    // GRIDBW-ALLOW(guarded-by): construction, before any worker sees the cell
    explicit PortCell(Bandwidth capacity) : book{capacity} {}

    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t applied{0};  // gridbw:guarded_by(mu)
    std::uint64_t next_seq{0};  // drain-time sequencing cursor (no lock needed)
    PortBook book;  // gridbw:guarded_by(mu)
    StartHeap starts;  // gridbw:guarded_by(mu)
    std::size_t departures_since_gc{0};  // gridbw:guarded_by(mu)
    std::size_t compactions{0};  // gridbw:guarded_by(mu)
    std::size_t retired{0};  // gridbw:guarded_by(mu)
  };

  // One arrival or departure, fully sequenced before execution starts. The
  // departure of a request that ends up rejected still occupies its slots in
  // both ports' sequences (as a no-op), so the sequence numbers — and with
  // them the execution order — never depend on load-dependent outcomes.
  struct Event {
    double t{0.0};
    std::uint32_t req{0};
    bool departure{false};
    std::uint32_t cell_lo{0}, cell_hi{0};  // global port cells, lo < hi
    std::uint64_t seq_lo{0}, seq_hi{0};
  };

  const Network* network;
  ServiceOptions options;
  // deque, not vector: PortCell holds a mutex (immovable) and workers keep
  // raw references into the container, so elements must never relocate.
  std::deque<PortCell> cells;

  std::mutex ingest_mu;
  std::vector<Request> inbox;  // gridbw:guarded_by(ingest_mu)

  // Batch-persistent request state, indexed by accepted order across drains.
  std::vector<Request> requests;
  std::vector<double> rate;               // granted bandwidth (min_rate), bytes/s
  std::vector<std::uint8_t> admitted;     // written once by the home worker
  std::vector<std::uint8_t> reason;       // RejectReason when not admitted
  std::vector<double> latency;            // clock units; NaN-free, arrivals only
  std::size_t drained{0};                 // requests already executed
  double last_event_t{0.0};
  std::size_t live{0};

  explicit Impl(const Network& net, ServiceOptions opts)
      : network(&net), options(std::move(opts)) {
    if (options.shards == 0) options.shards = 1;
    if (options.gc_batch == 0) options.gc_batch = 1;
    for (std::size_t p = 0; p < net.ingress_count(); ++p) {
      cells.emplace_back(net.ingress_capacity(IngressId{p}));
    }
    for (std::size_t p = 0; p < net.egress_count(); ++p) {
      cells.emplace_back(net.egress_capacity(EgressId{p}));
    }
  }

  [[nodiscard]] std::size_t cell_of_ingress(IngressId i) const { return i.value; }
  [[nodiscard]] std::size_t cell_of_egress(EgressId e) const {
    return network->ingress_count() + e.value;
  }
  [[nodiscard]] std::size_t home_worker(std::uint32_t req) const {
    return requests[req].ingress.value % options.shards;
  }

  // ---- batch construction -------------------------------------------------

  std::vector<Event> sequence_batch() {
    {
      std::scoped_lock lk{ingest_mu};
      // Sort the new batch by id so the event order is independent of the
      // (possibly concurrent) submission interleaving.
      std::sort(inbox.begin(), inbox.end(),
                [](const Request& a, const Request& b) { return a.id < b.id; });
      requests.insert(requests.end(), inbox.begin(), inbox.end());
      inbox.clear();
    }
    const std::size_t first = drained;
    const std::size_t total = requests.size();
    rate.resize(total, 0.0);
    admitted.resize(total, 0);
    reason.resize(total, static_cast<std::uint8_t>(obs::RejectReason::kNone));
    latency.resize(total, 0.0);

    std::vector<Event> events;
    events.reserve(2 * (total - first));
    for (std::size_t k = first; k < total; ++k) {
      const Request& r = requests[k];
      Event ev;
      ev.req = static_cast<std::uint32_t>(k);
      const std::size_t ci = cell_of_ingress(r.ingress);
      const std::size_t ce = cell_of_egress(r.egress);
      ev.cell_lo = static_cast<std::uint32_t>(std::min(ci, ce));
      ev.cell_hi = static_cast<std::uint32_t>(std::max(ci, ce));
      ev.t = r.release.to_seconds();
      ev.departure = false;
      events.push_back(ev);
      // Window and rate feasibility are static: decide them here, so only
      // requests that may be admitted get a departure event.
      if (!(r.deadline > r.release)) {
        reason[k] = static_cast<std::uint8_t>(obs::RejectReason::kDegenerateWindow);
      } else if (!approx_le(r.min_rate(), r.max_rate)) {
        reason[k] = static_cast<std::uint8_t>(obs::RejectReason::kInfeasibleRate);
      } else {
        rate[k] = r.min_rate().to_bytes_per_second();
        ev.t = r.deadline.to_seconds();
        ev.departure = true;
        events.push_back(ev);
      }
    }
    // Global deterministic order: time, then departures before arrivals at
    // equal instants (reservations are half-open, so bandwidth ending at t
    // is available to work released at t), then request id.
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) {
                       if (a.t != b.t) return a.t < b.t;
                       if (a.departure != b.departure) return a.departure;
                       return a.req < b.req;
                     });
    for (Event& ev : events) {
      ev.seq_lo = cells[ev.cell_lo].next_seq++;
      ev.seq_hi = cells[ev.cell_hi].next_seq++;
    }
    return events;
  }

  // ---- execution ----------------------------------------------------------

  // gridbw:hot
  // gridbw:requires(mu)
  void execute_arrival(const Event& ev) {
    const Request& r = requests[ev.req];
    if (reason[ev.req] != static_cast<std::uint8_t>(obs::RejectReason::kNone)) {
      return;  // rejected at sequencing time
    }
    PortCell& in = cells[cell_of_ingress(r.ingress)];
    PortCell& eg = cells[cell_of_egress(r.egress)];
    const Bandwidth bw = Bandwidth::bytes_per_second(rate[ev.req]);
    // Both ports are probed (no short-circuit) to classify the rejection.
    // By scan, not index: nearly every admission adds new endpoints, which
    // leaves a port's index stale after each commit, so rebuilds never pay.
    const bool in_fits = in.book.fits_by_scan(r.release, r.deadline, bw);
    const bool eg_fits = eg.book.fits_by_scan(r.release, r.deadline, bw);
    if (!in_fits || !eg_fits) {
      reason[ev.req] =
          static_cast<std::uint8_t>(obs::classify_saturation(in_fits, eg_fits));
      return;
    }
    in.book.commit(r.release, r.deadline, bw);
    eg.book.commit(r.release, r.deadline, bw);
    in.starts.admit(r.release.to_seconds());
    eg.starts.admit(r.release.to_seconds());
    admitted[ev.req] = 1;
  }

  // gridbw:hot
  // gridbw:requires(mu)
  void execute_departure(const Event& ev) {
    if (admitted[ev.req] == 0) return;  // rejected: sequence no-op
    const Request& r = requests[ev.req];
    const Bandwidth bw = Bandwidth::bytes_per_second(rate[ev.req]);
    for (PortCell* cell : {&cells[cell_of_ingress(r.ingress)],
                           &cells[cell_of_egress(r.egress)]}) {
      cell->book.release(r.release, r.deadline, bw);
      cell->starts.expire(r.release.to_seconds());
      if (options.gc && ++cell->departures_since_gc >= options.gc_batch) {
        cell->departures_since_gc = 0;
        collect_cell(*cell, ev.t);
      }
    }
  }

  // Offer one port's dead breakpoint prefix to PortBook::collect under the
  // safe watermark: never past the earliest live reservation start (future
  // departures re-touch their start instant) and never past the current
  // event time (future arrivals release at or after it).
  // gridbw:requires(mu)
  // GRIDBW-ALLOW(hot-propagation): amortized GC tail, off the per-event path
  void collect_cell(PortCell& cell, double now) {
    double horizon = now;
    if (cell.starts.any_live()) {
      horizon = std::min(horizon, cell.starts.min_live_start());
    }
    const std::size_t n = cell.book.collect(TimePoint::at_seconds(horizon), options.observer);
    if (n == 0) return;
    cell.compactions += 1;
    cell.retired += n;
  }

  // Worker loop over `mine`, this worker's slice of the global event order:
  // lock the lower-id port and wait until it has applied exactly the events
  // sequenced before ours, then the same on the higher-id port. A blocked
  // worker always waits on a strictly earlier event, so every blocking
  // chain ends; with both counts matched, the state is the serial replay's.
  //
  // gridbw:lock-order(lo.mu < hi.mu)
  void run_worker(const std::vector<Event>& events, const std::vector<std::uint32_t>& mine) {
    const bool timed = static_cast<bool>(options.clock);
    for (const std::uint32_t idx : mine) {
      const Event& ev = events[idx];
      // GRIDBW-ALLOW(wall-clock): injected latency clock, never drives decisions
      const double t0 = timed && !ev.departure ? options.clock() : 0.0;
      PortCell& lo = cells[ev.cell_lo];
      PortCell& hi = cells[ev.cell_hi];
      std::unique_lock llo{lo.mu};
      lo.cv.wait(llo, [&] { return lo.applied == ev.seq_lo; });
      std::unique_lock lhi{hi.mu};
      hi.cv.wait(lhi, [&] { return hi.applied == ev.seq_hi; });
      if (ev.departure) {
        execute_departure(ev);
      } else {
        execute_arrival(ev);
        // GRIDBW-ALLOW(wall-clock): same injected latency clock as above.
        if (timed) latency[ev.req] = options.clock() - t0;
      }
      lo.applied += 1;
      hi.applied += 1;
      lhi.unlock();
      llo.unlock();
      lo.cv.notify_all();
      hi.cv.notify_all();
    }
  }

  ServiceReport drain() {
    const std::vector<Event> events = sequence_batch();
    const std::size_t first = drained;
    drained = requests.size();

    const std::size_t workers =
        std::min<std::size_t>(options.shards, std::max<std::size_t>(events.size(), 1));
    std::vector<std::vector<std::uint32_t>> slices(workers);
    for (std::uint32_t k = 0; k < events.size(); ++k) {
      slices[home_worker(events[k].req) % workers].push_back(k);
    }
    if (workers == 1) {
      run_worker(events, slices[0]);
    } else {
      std::vector<std::thread> pool;
      std::vector<std::exception_ptr> failures(workers);
      pool.reserve(workers);
      for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([this, &events, &slices, &failures, w] {
          try {
            run_worker(events, slices[w]);
          } catch (...) {
            failures[w] = std::current_exception();
          }
        });
      }
      for (std::thread& t : pool) t.join();
      for (const std::exception_ptr& e : failures) {
        if (e) std::rethrow_exception(e);
      }
    }

    // Single-threaded post-pass in event order: the trace, the lifecycle
    // counters, and the report are all derived here, so they are
    // byte-identical across shard counts and repeated same-seed runs.
    ServiceReport report;
    report.submitted = requests.size() - first;
    report.decision_fingerprint = kFnvOffset;
    obs::Observer* observer = options.observer;
    const std::size_t egress_base = network->ingress_count();
    for (const Event& ev : events) {
      const Request& r = requests[ev.req];
      last_event_t = ev.t;
      if (ev.departure) {
        if (admitted[ev.req] != 0) {
          obs::note_expired(observer, r.id, r.deadline,
                            Bandwidth::bytes_per_second(rate[ev.req]));
          report.expired += 1;
          live -= 1;
        }
        continue;
      }
      obs::note_submitted(observer, r.id, r.release);
      if (admitted[ev.req] != 0) {
        obs::note_accepted(observer, r.id, r.release, r.release,
                           Bandwidth::bytes_per_second(rate[ev.req]));
        report.admitted += 1;
        live += 1;
        report.live_peak = std::max(report.live_peak, live);
      } else {
        obs::note_rejected(observer, r.id, r.release,
                           static_cast<obs::RejectReason>(reason[ev.req]));
        report.rejected += 1;
      }
      report.decision_fingerprint =
          fnv_mix(report.decision_fingerprint,
                  fnv_mix(kFnvOffset, r.id) * 2 + admitted[ev.req]);
      // An egress port outside the executing worker's shard set is a shard
      // handoff: a static property of the port pair, counted per arrival.
      if ((egress_base + r.egress.value) % options.shards != home_worker(ev.req) &&
          observer != nullptr) {
        observer->count(obs::Counter::kShardHandoffs);
      }
    }
    for (const PortCell& cell : cells) {
      // GRIDBW-ALLOW(guarded-by): workers joined — single-threaded post-pass
      report.resident_breakpoints += cell.book.profile().breakpoint_count();
      // GRIDBW-ALLOW(guarded-by): same post-pass; the tallies are cumulative
      report.compactions += cell.compactions;
      // GRIDBW-ALLOW(guarded-by): same post-pass
      report.breakpoints_retired += cell.retired;
    }
    if (options.clock) {
      report.latency.reserve(report.submitted);
      for (const Event& ev : events) {
        if (!ev.departure) report.latency.push_back(latency[ev.req]);
      }
    }
    return report;
  }

  [[nodiscard]] ServiceSnapshot snapshot() const {
    ServiceSnapshot snap;
    snap.ports = cells.size();
    snap.live = live;
    const TimePoint t = TimePoint::at_seconds(last_event_t);
    for (const PortCell& cell : cells) {
      // GRIDBW-ALLOW(guarded-by): snapshot is documented single-threaded
      snap.resident_breakpoints += cell.book.profile().breakpoint_count();
      // GRIDBW-ALLOW(guarded-by): snapshot is documented single-threaded
      snap.peak_standing_load = std::max(snap.peak_standing_load, cell.book.profile().value_at(t));
    }
    return snap;
  }
};

AdmissionService::AdmissionService(const Network& network, ServiceOptions options)
    : impl_(std::make_unique<Impl>(network, std::move(options))) {}

AdmissionService::~AdmissionService() = default;

void AdmissionService::submit(const Request& request) {
  // Refused rather than decided: an out-of-network id would index past the
  // cells, and a non-finite or negative figure would poison or undo loads.
  const Network& net = *impl_->network;
  const double volume = request.volume.to_bytes();
  if (request.ingress.value >= net.ingress_count() ||
      request.egress.value >= net.egress_count() || !std::isfinite(volume) || volume < 0.0 ||
      !std::isfinite(request.release.to_seconds()) ||
      !std::isfinite(request.deadline.to_seconds())) {
    throw std::invalid_argument{"AdmissionService::submit: ill-formed request " +
                                request.describe()};
  }
  std::scoped_lock lk{impl_->ingest_mu};
  impl_->inbox.push_back(request);
}

ServiceReport AdmissionService::drain() { return impl_->drain(); }

ServiceSnapshot AdmissionService::snapshot() const { return impl_->snapshot(); }

bool AdmissionService::was_admitted(RequestId id) const {
  for (std::size_t k = 0; k < impl_->drained; ++k) {
    if (impl_->requests[k].id == id) return impl_->admitted[k] != 0;
  }
  return false;
}

}  // namespace gridbw::service
