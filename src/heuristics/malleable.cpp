#include "heuristics/malleable.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/ledger.hpp"
#include "heuristics/fcfs_order.hpp"

namespace gridbw::heuristics {
namespace {

constexpr std::size_t kInvalid = static_cast<std::size_t>(-1);

/// Same layout and comparator as the constant engines' completion queue —
/// with reshaping off the push sequence is identical too, so the pop order
/// (ties included) reproduces flexible_greedy/flexible_window exactly.
/// `bw` is the admission guarantee: what the ledger reclaims at completion.
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

/// One admitted transfer in flight. The fluid state (remaining volume,
/// current rate) is rebased lazily: `remaining_bytes` is exact as of
/// `updated`, and `finish` is the cached completion prediction at the
/// current rate. A flow whose rate never changes keeps the finish computed
/// at admission (`when + vol/g`, the constant engines' expression), so the
/// reshape-off mode is FP-identical to them.
struct Flow {
  const Request* request{nullptr};
  Bandwidth guarantee;
  double rate_bps{0.0};
  double remaining_bytes{0.0};
  TimePoint updated;
  TimePoint finish;
  RateProfile profile;
  bool live{false};
};

/// The execution half of the malleable engines: runs admitted flows as a
/// fluid system, water-filling residual port capacity across them between
/// admission events. Owns completion sequencing and profile finalization;
/// admission itself stays in the caller's CounterLedger (the guarantee
/// book), which this class only touches to reclaim a finished guarantee.
class FluidBook {
 public:
  FluidBook(const Network& network, bool reshape, obs::Observer* observer,
            ScheduleResult& result)
      : network_{&network}, reshape_{reshape}, observer_{observer}, result_{&result} {}

  /// Starts an admitted flow at its guarantee rate. The caller has already
  /// allocated the guarantee in its ledger and emitted note_accepted.
  void admit(const Request& r, TimePoint when, Bandwidth guarantee) {
    Flow f;
    f.request = &r;
    f.guarantee = guarantee;
    f.rate_bps = guarantee.to_bytes_per_second();
    f.remaining_bytes = r.volume.to_bytes();
    f.updated = when;
    f.finish = when + r.volume / guarantee;
    f.profile.append(when, guarantee);
    f.live = true;
    index_.emplace(r.id, flows_.size());
    flows_.push_back(std::move(f));
    ++live_count_;
    completions_.push(
        Completion{flows_.back().finish, r.id, r.ingress, r.egress, guarantee});
    if (reshape_) refill(when);
  }

  /// Processes every completion predicted at or before `t` (and the upward
  /// reshapes each departure triggers, which may pull further completions
  /// under `t`). Reclaims each finished guarantee from `counters`.
  void run_until(TimePoint t, CounterLedger& counters) {
    while (!completions_.empty() && completions_.top().finish <= t) {
      step_one(counters);
    }
  }

  /// Finalizes every outstanding flow (end-of-run drain).
  void drain_all(CounterLedger& counters) {
    while (!completions_.empty()) step_one(counters);
  }

 private:
  void step_one(CounterLedger& counters) {
    const Completion done = completions_.top();
    completions_.pop();
    Flow& f = flows_[index_.at(done.request)];
    // A reshape superseded this prediction; the flow's live entry carries
    // its current finish. (With reshaping off every entry is current.)
    if (!f.live || f.finish != done.finish) return;
    f.live = false;
    --live_count_;
    f.profile.set_end(done.finish);
    result_->schedule.accept_profile(*f.request, std::move(f.profile));
    counters.reclaim(done.ingress, done.egress, done.bw);
    obs::note_reclaimed(observer_, done.request, done.finish, done.bw);
    if (reshape_ && live_count_ > 0) refill(done.finish);
  }

  /// Rebases every live flow's remaining volume to `t`, recomputes the
  /// water-fill, and turns rate changes into profile steps + reshaped
  /// events + fresh completion predictions.
  void refill(TimePoint t) {
    live_scratch_.clear();
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      // A flow whose completion is due at `t` itself (simultaneous
      // departures) ends here: it takes no share of the fill, and a step
      // at `t` would leave it an empty last segment.
      if (flows_[i].live && flows_[i].finish > t) live_scratch_.push_back(i);
    }
    if (live_scratch_.empty()) return;
    for (const std::size_t i : live_scratch_) {
      Flow& f = flows_[i];
      if (f.updated < t) {
        f.remaining_bytes = std::max(
            0.0, f.remaining_bytes - f.rate_bps * (t - f.updated).to_seconds());
        f.updated = t;
      }
    }
    water_fill();
    // Sub-millibyte/s rate moves are FP wobble from recomputing the fill,
    // not decisions — suppress them so profiles stay meaningful. The
    // threshold must stay far below the validator's 1 B/s port tolerance:
    // every suppressed *decrease* leaves the flow marginally above its
    // water-fill share, and those slivers sum across flows.
    constexpr double kStepEps = 1e-3;
    for (std::size_t k = 0; k < live_scratch_.size(); ++k) {
      Flow& f = flows_[live_scratch_[k]];
      const double next = rates_[k];
      if (std::fabs(next - f.rate_bps) <= kStepEps) continue;
      f.rate_bps = next;
      const Bandwidth rate = Bandwidth::bytes_per_second(next);
      f.profile.append(t, rate);
      // Reshapes at one instant that take the flow away and back to its
      // rate coalesce the profile to one step, and accept_profile records a
      // single-step profile as a constant assignment ending at
      // start + vol/rate (and throws if the profile ends elsewhere).
      // Predict exactly that end: the rebased
      // t + remaining/rate can land a few ulps earlier, reclaiming the
      // capacity while the recorded transfer still holds it. (Never before
      // `t`: completions must not run backwards past this reshape.)
      f.finish = f.profile.size() == 1
                     ? gridbw::max(t, f.profile.start() + f.request->volume / rate)
                     : t + Duration::seconds(f.remaining_bytes / next);
      completions_.push(Completion{f.finish, f.request->id, f.request->ingress,
                                   f.request->egress, f.guarantee});
      obs::note_reshaped(observer_, f.request->id, t, rate);
    }
  }

  /// Progressive filling above the guarantees: every unfrozen flow's rate
  /// rises at the same speed until its MaxRate or one of its ports binds —
  /// max-min fairness over the residual capacity, computed in admission
  /// order so reruns are bit-identical.
  // gridbw:hot
  void water_fill() {
    const std::size_t n = live_scratch_.size();
    rates_.resize(n);
    frozen_.assign(n, false);
    in_load_.assign(network_->ingress_count(), 0.0);
    out_load_.assign(network_->egress_count(), 0.0);
    for (std::size_t k = 0; k < n; ++k) {
      const Flow& f = flows_[live_scratch_[k]];
      const double g = f.guarantee.to_bytes_per_second();
      rates_[k] = g;
      in_load_[f.request->ingress.value] += g;
      out_load_[f.request->egress.value] += g;
    }
    in_count_.resize(in_load_.size());
    out_count_.resize(out_load_.size());
    constexpr double kEps = 1e-6;  // bytes/s; far below any real rate
    for (std::size_t round = 0; round < 2 * n + 2; ++round) {
      std::fill(in_count_.begin(), in_count_.end(), 0.0);
      std::fill(out_count_.begin(), out_count_.end(), 0.0);
      double inc = std::numeric_limits<double>::infinity();
      std::size_t active = 0;
      for (std::size_t k = 0; k < n; ++k) {
        if (frozen_[k]) continue;
        const Flow& f = flows_[live_scratch_[k]];
        const double max_bps = f.request->max_rate.to_bytes_per_second();
        const std::size_t in = f.request->ingress.value;
        const std::size_t out = f.request->egress.value;
        const double head_in =
            network_->ingress_capacity(IngressId{in}).to_bytes_per_second() -
            in_load_[in];
        const double head_out =
            network_->egress_capacity(EgressId{out}).to_bytes_per_second() -
            out_load_[out];
        if (rates_[k] >= max_bps - kEps || head_in <= kEps || head_out <= kEps) {
          frozen_[k] = true;
          continue;
        }
        ++active;
        in_count_[in] += 1.0;
        out_count_[out] += 1.0;
        inc = std::min(inc, max_bps - rates_[k]);
      }
      if (active == 0) break;
      for (std::size_t p = 0; p < in_load_.size(); ++p) {
        if (in_count_[p] > 0.0) {
          inc = std::min(
              inc, (network_->ingress_capacity(IngressId{p}).to_bytes_per_second() -
                    in_load_[p]) /
                       in_count_[p]);
        }
      }
      for (std::size_t p = 0; p < out_load_.size(); ++p) {
        if (out_count_[p] > 0.0) {
          inc = std::min(
              inc, (network_->egress_capacity(EgressId{p}).to_bytes_per_second() -
                    out_load_[p]) /
                       out_count_[p]);
        }
      }
      if (!(inc > 0.0)) break;
      for (std::size_t k = 0; k < n; ++k) {
        if (frozen_[k]) continue;
        const Flow& f = flows_[live_scratch_[k]];
        rates_[k] += inc;
        in_load_[f.request->ingress.value] += inc;
        out_load_[f.request->egress.value] += inc;
      }
    }
  }

  const Network* network_;
  bool reshape_;
  obs::Observer* observer_;
  ScheduleResult* result_;
  std::vector<Flow> flows_;
  std::unordered_map<RequestId, std::size_t> index_;
  std::priority_queue<Completion, std::vector<Completion>, LaterFinish> completions_;
  std::size_t live_count_{0};
  // Scratch (refill/water_fill working state; member-owned to avoid
  // per-event allocation).
  std::vector<std::size_t> live_scratch_;
  std::vector<double> rates_;
  std::vector<bool> frozen_;
  std::vector<double> in_load_;
  std::vector<double> out_load_;
  std::vector<double> in_count_;
  std::vector<double> out_count_;
};

// --- WINDOW candidate selection (mirrors flexible_window.cpp's scan
// engine expression-for-expression; the differential suite pins the two) ---

struct Candidate {
  const Request* request;
  Bandwidth bw;  // the guarantee the policy would grant at the decision instant
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
                      const MalleableOptions& options) {
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

bool cost_tied(double cost, double min_cost) { return approx_le(cost, min_cost); }

}  // namespace

ScheduleResult schedule_malleable_greedy(const Network& network,
                                         std::span<const Request> requests,
                                         const MalleableOptions& options,
                                         obs::Observer* observer) {
  ScheduleResult result;
  const std::vector<const Request*> order = admission_order(requests, result, observer);

  CounterLedger counters{network};
  FluidBook book{network, options.reshape, observer, result};

  for (const Request* rp : order) {
    const Request& r = *rp;
    book.run_until(r.release, counters);
    const auto g = options.policy.assign(r, r.release);
    if (g.has_value() && counters.fits(r.ingress, r.egress, *g)) {
      counters.allocate(r.ingress, r.egress, *g);
      obs::note_accepted(observer, r.id, r.release, r.release, *g);
      book.admit(r, r.release, *g);
    } else {
      result.rejected.push_back(r.id);
      if (observer != nullptr) {
        const obs::RejectReason reason =
            g.has_value() ? obs::classify_saturation(
                                counters.fits_ingress(r.ingress, *g),
                                counters.fits_egress(r.egress, *g))
                          : obs::RejectReason::kInfeasibleRate;
        obs::note_rejected(observer, r.id, r.release, reason);
      }
    }
  }
  book.drain_all(counters);
  return result;
}

ScheduleResult schedule_malleable_window(const Network& network,
                                         std::span<const Request> requests,
                                         const MalleableOptions& options,
                                         obs::Observer* observer) {
  if (!options.step.is_positive() || !std::isfinite(options.step.to_seconds())) {
    throw std::invalid_argument{
        "schedule_malleable_window: step must be positive and finite"};
  }
  if (!(options.hotspot_weight >= 0.0) || !std::isfinite(options.hotspot_weight)) {
    throw std::invalid_argument{
        "schedule_malleable_window: hotspot_weight must be finite and >= 0"};
  }

  ScheduleResult result;
  const std::vector<const Request*> order = admission_order(requests, result, observer);
  if (order.empty()) return result;

  CounterLedger counters{network};
  FluidBook book{network, options.reshape, observer, result};
  std::vector<Candidate> candidates;
  std::vector<double> cost_scratch;

  std::size_t next_arrival = 0;
  TimePoint interval_start = order.front()->release;

  while (next_arrival < order.size()) {
    const TimePoint decision = interval_start + options.step;

    candidates.clear();
    while (next_arrival < order.size() && order[next_arrival]->release < decision) {
      const Request& r = *order[next_arrival++];
      const auto g = options.policy.assign(r, decision);
      if (g.has_value()) {
        candidates.push_back(Candidate{&r, *g});
      } else {
        result.rejected.push_back(r.id);
        obs::note_rejected(observer, r.id, decision,
                           obs::RejectReason::kInfeasibleRate);
      }
    }

    // Fluid events (completions + the reshapes they trigger) up to the
    // decision instant — the counter state every admission below sees is
    // exactly what the constant WINDOW's lazy reclaim produces.
    book.run_until(decision, counters);

    // Scan-engine drain (the reference selection; flexible_window's heap
    // makes identical decisions, so one engine suffices here).
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
        if (best == kInvalid ||
            candidates[k].request->id < candidates[best].request->id) {
          best = k;
        }
      }
      const Candidate chosen = candidates[best];
      candidates[best] = candidates.back();
      candidates.pop_back();

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
        continue;
      }
      counters.allocate(r.ingress, r.egress, chosen.bw);
      obs::note_accepted(observer, r.id, decision, decision, chosen.bw);
      book.admit(r, decision, chosen.bw);
    }

    if (next_arrival < order.size()) {
      interval_start = gridbw::max(decision, order[next_arrival]->release);
    }
  }
  book.drain_all(counters);
  return result;
}

}  // namespace gridbw::heuristics
