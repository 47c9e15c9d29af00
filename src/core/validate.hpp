// gridbw/core/validate.hpp
//
// Independent feasibility checking. Every heuristic maintains its own
// running book while scheduling; the validator ignores those books and
// replays the finished schedule against the constraint set (1) of the paper
// using exact port-load profiles. Tests validate every schedule any
// algorithm produces, so allocation bugs cannot hide behind agreeing
// bookkeeping.
//
// Two engines produce identical ValidationReports:
//
//  * kSerial (default) — joins assignments to requests by a merge over both
//    in id order (no hashing; input already in id order costs one linear
//    check), then sweeps flat TimelineProfile port profiles.
//  * kReference — a hashed id lookup and StepFunction (std::map) port
//    profiles, kept as the obviously-correct oracle the flat engine is
//    differential-tested against (tests/validate_join_test.cpp).

#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/ids.hpp"
#include "core/network.hpp"
#include "core/request.hpp"
#include "core/schedule.hpp"
#include "obs/observer.hpp"

namespace gridbw {

enum class ViolationKind {
  kUnknownRequest,        // assignment references an id not in the request set
  kDuplicateAssignment,   // a request id appears in more than one assignment
  kStartBeforeRelease,    // σ(r) < t_s(r)
  kEndAfterDeadline,      // τ(r) > t_f(r)
  kRateAboveMax,          // bw(r) > MaxRate(r) (peak step rate when profiled)
  kRateNotPositive,       // bw(r) <= 0
  kIngressOverCapacity,   // sum of bw at an ingress exceeds B_in(i)
  kEgressOverCapacity,    // sum of bw at an egress exceeds B_out(e)
  kProfileMalformed,      // rate profile fails RateProfile::defect
  kProfileVolumeMismatch, // profile integral != vol(r)
};

[[nodiscard]] std::string to_string(ViolationKind kind);

struct Violation {
  ViolationKind kind;
  /// Offending request (0 for port-level violations).
  RequestId request{0};
  /// Offending port index (request's port for per-request checks).
  std::size_t port{0};
  std::string detail;
};

struct ValidationReport {
  std::vector<Violation> violations;
  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] std::string to_string() const;
};

enum class ValidateEngine { kSerial, kReference };

struct ValidateOptions {
  /// The tuning factor f of §2.3: also check
  /// bw(r) >= max(f * MaxRate(r), MinRate-from-start); 0 disables.
  double min_rate_guarantee{0.0};
  ValidateEngine engine{ValidateEngine::kSerial};
  /// Optional observability hook: bumps kValidatorRuns / kValidatorAssignments
  /// / kValidatorViolations. Counters only — no events are emitted, so both
  /// engines leave any attached trace byte-identical.
  obs::Observer* observer{nullptr};
};

/// Checks a schedule against the request set and network capacities.
[[nodiscard]] ValidationReport validate_schedule(const Network& network,
                                                 std::span<const Request> requests,
                                                 const Schedule& schedule,
                                                 const ValidateOptions& options);

/// Back-compatible form: `min_rate_guarantee` only, default engine.
[[nodiscard]] ValidationReport validate_schedule(const Network& network,
                                                 std::span<const Request> requests,
                                                 const Schedule& schedule,
                                                 double min_rate_guarantee = 0.0);

/// Validates a raw assignment list that need not satisfy the Schedule
/// class's uniqueness invariant: the earliest assignment of an id carries
/// its load, and each later one is a kDuplicateAssignment. A request id
/// repeated in `requests` resolves to its first copy.
[[nodiscard]] ValidationReport validate_assignments(const Network& network,
                                                    std::span<const Request> requests,
                                                    std::span<const Assignment> assignments,
                                                    const ValidateOptions& options = {});

}  // namespace gridbw
