// perfbench/src/workloads.hpp
//
// The four benchmark workloads: their inputs, made from the seed alone, and
// the engine lineup each one times. README.md gives why each was chosen.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "core/request.hpp"
#include "core/schedule.hpp"
#include "heuristics/rigid_slots.hpp"
#include "spans.hpp"

namespace perfbench {

enum class Kind { kChurn, kPaperRigid, kPaperFlexible };

/// Parses a workload name; throws std::invalid_argument on unknown names.
[[nodiscard]] Kind parse_kind(const std::string& name);
[[nodiscard]] std::string to_string(Kind kind);

/// Request counts per workload. `quick` shrinks every workload for smoke
/// tests; the full sizes are the ones the benchmark reports.
struct Sizes {
  std::size_t churn{300000};
  std::size_t rigid{25000};
  std::size_t flexible{1000000};
  /// Leading paper_flexible requests the traced run feeds the malleable
  /// engines.
  std::size_t malleable{20000};
  /// Leading churn requests whose decisions are checked against FCFS.
  std::size_t fcfs_prefix{20000};

  [[nodiscard]] static Sizes make(bool quick);
  [[nodiscard]] std::size_t of(Kind kind) const;
};

/// One request set (ids 1..N) and the end of its arrival window
/// [0, horizon), the span `util` averages over.
struct Trace {
  std::vector<gridbw::Request> requests;
  gridbw::TimePoint horizon;
};

struct Inputs {
  gridbw::Network network;
  Trace trace;
};

/// The churn trace: a 32x32 fabric at 1 GB/s per port, Poisson arrivals
/// (mean 0.3 s), rigid 20-100 s windows at 2-15% of a port.
[[nodiscard]] std::vector<gridbw::Request> churn_trace(std::uint64_t seed,
                                                       std::size_t count);

/// Generates the workload's inputs from `seed`; the generator call is a
/// `workload.generate` span.
[[nodiscard]] Inputs make_inputs(Kind kind, std::uint64_t seed, const Sizes& sizes,
                                 Tracer& tracer);

/// One engine of a batch lineup. `run` fills `telemetry` for SLOTS engines.
struct Engine {
  std::string name;  ///< span "heuristics.<name>", metric "heuristics.<name>_s"
  std::function<gridbw::ScheduleResult(const gridbw::Network&,
                                       std::span<const gridbw::Request>,
                                       gridbw::heuristics::SlotsTelemetry*)>
      run;
};

/// The engines a batch workload times in every repetition (empty for churn).
[[nodiscard]] std::vector<Engine> lineup(Kind kind);

/// An engine only the traced run times, for a per-layer breakdown, on the
/// whole trace or on its first Sizes::malleable requests.
struct TracedExtra {
  Engine engine;
  bool on_prefix{false};
};

/// paper_flexible: WINDOW with its scan and heap engines forced, and
/// mGREEDY/mWINDOW with reshaping on the prefix (water-filling costs
/// 100-700x more per request than the constant-rate engines).
[[nodiscard]] std::vector<TracedExtra> traced_extras(Kind kind);

}  // namespace perfbench
