#include "workloads.hpp"

#include <stdexcept>

#include "heuristics/bandwidth_policy.hpp"
#include "heuristics/flexible_greedy.hpp"
#include "heuristics/flexible_window.hpp"
#include "heuristics/malleable.hpp"
#include "heuristics/rigid_fcfs.hpp"
#include "util/random.hpp"
#include "workload/generator.hpp"
#include "workload/load.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

using namespace gridbw;

namespace {

constexpr std::size_t kChurnPorts = 32;
/// Offered load of the paper workloads: inside Fig. 4's range, about 58% of
/// the rigid requests admitted.
constexpr double kPaperLoad = 3.0;

/// Sets a preset's arrival rate to kPaperLoad and its arrival window to
/// `count` expected requests.
void size_to_load(workload::Scenario& s, std::size_t count) {
  const Duration ia = workload::interarrival_for_load(s.spec, s.network, kPaperLoad);
  s.spec.mean_interarrival = ia;
  s.spec.horizon = Duration::seconds(ia.to_seconds() * static_cast<double>(count));
}

Engine window_engine(std::string name, heuristics::WindowEngine engine) {
  return {std::move(name), [engine](const Network& n, std::span<const Request> r,
                                    heuristics::SlotsTelemetry*) {
            heuristics::WindowOptions options;  // 400 s, MinRate policy
            options.engine = engine;
            return heuristics::schedule_flexible_window(n, r, options);
          }};
}

Engine slots_engine(std::string name, heuristics::SlotCost cost) {
  return {std::move(name), [cost](const Network& n, std::span<const Request> r,
                                  heuristics::SlotsTelemetry* t) {
            return heuristics::schedule_rigid_slots(
                n, r, cost, heuristics::SlotsEngine::kIncremental, t);
          }};
}

}  // namespace

Kind parse_kind(const std::string& name) {
  if (name == "churn") return Kind::kChurn;
  if (name == "paper_rigid") return Kind::kPaperRigid;
  if (name == "paper_flexible") return Kind::kPaperFlexible;
  throw std::invalid_argument{"unknown workload '" + name + "'"};
}

std::string to_string(Kind kind) {
  switch (kind) {
    case Kind::kChurn: return "churn";
    case Kind::kPaperRigid: return "paper_rigid";
    case Kind::kPaperFlexible: return "paper_flexible";
  }
  return "?";
}

Sizes Sizes::make(bool quick) {
  if (!quick) return Sizes{};
  return Sizes{20000, 3000, 50000, 1500, 5000};
}

std::size_t Sizes::of(Kind kind) const {
  switch (kind) {
    case Kind::kChurn: return churn;
    case Kind::kPaperRigid: return rigid;
    case Kind::kPaperFlexible: return flexible;
  }
  return 0;
}

std::vector<Request> churn_trace(std::uint64_t seed, std::size_t count) {
  Rng rng{seed};
  std::vector<Request> out;
  out.reserve(count);
  double now = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    now += rng.exponential(0.3);
    const double window = rng.uniform(20.0, 100.0);
    Request r;
    r.id = static_cast<RequestId>(k + 1);
    r.ingress = IngressId{static_cast<std::size_t>(rng.uniform_int(0, kChurnPorts - 1))};
    r.egress = EgressId{static_cast<std::size_t>(rng.uniform_int(0, kChurnPorts - 1))};
    r.release = TimePoint::at_seconds(now);
    r.deadline = TimePoint::at_seconds(now + window);
    const double frac = rng.uniform(0.02, 0.15);  // rigid: MinRate == MaxRate
    r.volume = Volume::bytes(frac * 1e9 * window);
    r.max_rate = Bandwidth::bytes_per_second(frac * 1e9);
    out.push_back(r);
  }
  return out;
}

Inputs make_inputs(Kind kind, std::uint64_t seed, const Sizes& sizes, Tracer& tracer) {
  const std::size_t count = sizes.of(kind);
  if (kind == Kind::kChurn) {
    std::vector<Request> trace;
    tracer.timed("workload.generate", [&] { trace = churn_trace(seed, count); });
    const TimePoint horizon = trace.empty() ? TimePoint::origin() : trace.back().release;
    return Inputs{Network::uniform(kChurnPorts, kChurnPorts, Bandwidth::gigabytes_per_second(1)),
                  Trace{std::move(trace), horizon}};
  }
  const Duration unset = Duration::seconds(1);
  workload::Scenario s = kind == Kind::kPaperRigid
                             ? workload::paper_rigid(unset, unset)
                             : workload::paper_flexible(unset, unset, 4.0);
  size_to_load(s, count);
  std::vector<Request> requests;
  tracer.timed("workload.generate", [&] {
    Rng rng{seed};
    requests = workload::generate(s.spec, rng);
  });
  return Inputs{std::move(s.network),
                Trace{std::move(requests), TimePoint::origin() + s.spec.horizon}};
}

std::vector<Engine> lineup(Kind kind) {
  using heuristics::SlotCost;
  switch (kind) {
    case Kind::kChurn:
      return {};
    case Kind::kPaperRigid:
      return {{"fcfs",
               [](const Network& n, std::span<const Request> r, heuristics::SlotsTelemetry*) {
                 return heuristics::schedule_rigid_fcfs(n, r);
               }},
              slots_engine("cumulated_slots", SlotCost::kCumulated),
              slots_engine("minbw_slots", SlotCost::kMinBandwidth),
              slots_engine("minvol_slots", SlotCost::kMinVolume)};
    case Kind::kPaperFlexible:
      return {{"greedy",
               [](const Network& n, std::span<const Request> r, heuristics::SlotsTelemetry*) {
                 return heuristics::schedule_flexible_greedy(
                     n, r, heuristics::BandwidthPolicy::min_rate());
               }},
              window_engine("window", heuristics::WindowEngine::kAuto)};
  }
  return {};
}

std::vector<TracedExtra> traced_extras(Kind kind) {
  if (kind != Kind::kPaperFlexible) return {};
  // MalleableOptions defaults: MinRate guarantee, reshape on, 400 s step.
  return {{window_engine("window_scan", heuristics::WindowEngine::kScan)},
          {window_engine("window_heap", heuristics::WindowEngine::kHeap)},
          {{"mgreedy",
            [](const Network& n, std::span<const Request> r, heuristics::SlotsTelemetry*) {
              return heuristics::schedule_malleable_greedy(n, r, {});
            }},
           true},
          {{"mwindow",
            [](const Network& n, std::span<const Request> r, heuristics::SlotsTelemetry*) {
              return heuristics::schedule_malleable_window(n, r, {});
            }},
           true}};
}

}  // namespace perfbench
