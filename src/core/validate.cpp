#include "core/validate.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/step_function.hpp"
#include "core/timeline_profile.hpp"

namespace gridbw {

std::string to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kUnknownRequest: return "unknown-request";
    case ViolationKind::kDuplicateAssignment: return "duplicate-assignment";
    case ViolationKind::kStartBeforeRelease: return "start-before-release";
    case ViolationKind::kEndAfterDeadline: return "end-after-deadline";
    case ViolationKind::kRateAboveMax: return "rate-above-max";
    case ViolationKind::kRateNotPositive: return "rate-not-positive";
    case ViolationKind::kIngressOverCapacity: return "ingress-over-capacity";
    case ViolationKind::kEgressOverCapacity: return "egress-over-capacity";
    case ViolationKind::kProfileMalformed: return "profile-malformed";
    case ViolationKind::kProfileVolumeMismatch: return "profile-volume-mismatch";
  }
  return "unknown";
}

std::string ValidationReport::to_string() const {
  if (ok()) return "valid";
  std::ostringstream oss;
  oss << violations.size() << " violation(s):\n";
  for (const Violation& v : violations) {
    oss << "  [" << gridbw::to_string(v.kind) << "] r" << v.request << " port "
        << v.port << ": " << v.detail << '\n';
  }
  return oss.str();
}

namespace {

/// One accepted load on one port, kept for the reference engine's peak.
struct LoadSegment {
  TimePoint start;
  TimePoint end;
  double bw;
};

/// The reference engine's port peak, from one StepFunction per port.
double reference_peak(std::span<const LoadSegment> segments) {
  StepFunction load;
  for (const LoadSegment& s : segments) load.add(s.start, s.end, s.bw);
  return load.global_max();
}

/// What the id join found for one assignment: its request (nullptr for an
/// unknown id) and whether an earlier assignment already claimed that id.
struct Match {
  const Request* request{nullptr};
  bool duplicate{false};
};

/// (id, position) of `items` in ascending id order, equal ids in input
/// order; empty when the items already are in that order. One linear check,
/// and a stable sort only for out-of-order input.
template <typename T, typename IdOf>
std::vector<std::pair<RequestId, std::size_t>> id_order(std::span<const T> items,
                                                        IdOf id_of) {
  const auto by_id = [&](const T& a, const T& b) { return id_of(a) < id_of(b); };
  if (std::is_sorted(items.begin(), items.end(), by_id)) return {};
  std::vector<std::pair<RequestId, std::size_t>> order;
  order.reserve(items.size());
  for (std::size_t k = 0; k < items.size(); ++k) order.emplace_back(id_of(items[k]), k);
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  return order;
}

/// The flat engine's join: a merge of requests and assignments, both walked
/// in id order. A request id repeated in the set resolves to its first copy;
/// among assignments sharing an id the earliest keeps the load, and each
/// later one follows an equal id in the stable order: a duplicate.
std::vector<Match> merge_join(std::span<const Request> requests,
                              std::span<const Assignment> assignments) {
  const auto request_order = id_order(requests, [](const Request& r) { return r.id; });
  const auto assignment_order =
      id_order(assignments, [](const Assignment& a) { return a.request; });
  const auto request_at = [&](std::size_t i) -> const Request& {
    return requests[request_order.empty() ? i : request_order[i].second];
  };
  std::vector<Match> matches(assignments.size());
  std::size_t i = 0;
  std::optional<RequestId> previous;
  for (std::size_t k = 0; k < assignments.size(); ++k) {
    const std::size_t pos = assignment_order.empty() ? k : assignment_order[k].second;
    const RequestId id = assignments[pos].request;
    while (i < requests.size() && request_at(i).id < id) ++i;
    if (i < requests.size() && request_at(i).id == id) {
      matches[pos] = Match{&request_at(i), previous == id};
    }
    previous = id;
  }
  return matches;
}

/// The reference engine's join, kept hashed so the differential tests check
/// the merge join against an independent lookup.
std::vector<Match> hashed_join(std::span<const Request> requests,
                               std::span<const Assignment> assignments) {
  std::unordered_map<RequestId, const Request*> by_id;
  by_id.reserve(requests.size());
  for (const Request& r : requests) by_id.emplace(r.id, &r);
  std::unordered_set<RequestId> seen;
  std::vector<Match> matches(assignments.size());
  for (std::size_t k = 0; k < assignments.size(); ++k) {
    const auto it = by_id.find(assignments[k].request);
    if (it != by_id.end()) matches[k] = Match{it->second, !seen.insert(it->first).second};
  }
  return matches;
}

}  // namespace

ValidationReport validate_assignments(const Network& network,
                                      std::span<const Request> requests,
                                      std::span<const Assignment> assignments,
                                      const ValidateOptions& options) {
  ValidationReport report;
  auto flag = [&](ViolationKind kind, RequestId id, std::size_t port,
                  std::string detail) {
    report.violations.push_back(Violation{kind, id, port, std::move(detail)});
  };

  const bool reference = options.engine == ValidateEngine::kReference;
  const std::vector<Match> matches =
      reference ? hashed_join(requests, assignments) : merge_join(requests, assignments);

  const std::size_t in_count = network.ingress_count();
  const std::size_t port_count = in_count + network.egress_count();

  // Pass 1, in assignment order: per-request checks, plus every accepted load
  // added to its two ports (ingress first, then egress): raw segment lists for
  // kReference, TimelineProfiles for the flat engine. Each port sees its loads
  // in assignment order either way, so the peaks are bit-identical.
  std::vector<std::vector<LoadSegment>> segments(reference ? port_count : 0);
  std::vector<TimelineProfile> profiles(reference ? 0 : port_count);

  for (std::size_t k = 0; k < assignments.size(); ++k) {
    const Assignment& a = assignments[k];
    if (matches[k].request == nullptr) {
      flag(ViolationKind::kUnknownRequest, a.request, 0, "no such request in the set");
      continue;
    }
    const Request& r = *matches[k].request;

    if (matches[k].duplicate) {
      // The first copy already contributed its load; counting the duplicate
      // too would double-book the port without naming the culprit.
      flag(ViolationKind::kDuplicateAssignment, r.id, 0,
           "request assigned more than once");
      continue;
    }
    if (!a.bw.is_positive()) {
      flag(ViolationKind::kRateNotPositive, r.id, 0,
           "assigned rate " + gridbw::to_string(a.bw));
      continue;  // end time undefined; skip further checks for this one
    }
    if (a.is_profiled()) {
      // A malformed profile has no well-defined load; don't charge it.
      if (const auto why = a.profile.defect(a.start)) {
        flag(ViolationKind::kProfileMalformed, r.id, 0, *why);
        continue;
      }
      // The profile's integral IS the transferred volume; a mismatch means
      // the engine either starved or over-served the request.
      const double carried = a.profile.carried().to_bytes();
      const double vol = r.volume.to_bytes();
      if (!approx_eq(carried, vol, 64.0, 1e-9)) {
        std::array<char, 96> buf{};
        std::snprintf(buf.data(), buf.size(), "carried %.3f B != vol %.3f B", carried,
                      vol);
        flag(ViolationKind::kProfileVolumeMismatch, r.id, 0, buf.data());
      }
    }
    if (!approx_le(r.release, a.start)) {
      std::array<char, 96> buf{};
      std::snprintf(buf.data(), buf.size(), "sigma=%.6fs < ts=%.6fs",
                    a.start.to_seconds(), r.release.to_seconds());
      flag(ViolationKind::kStartBeforeRelease, r.id, 0, buf.data());
    }
    const TimePoint end = a.end(r);
    if (!approx_le(end, r.deadline)) {
      std::array<char, 96> buf{};
      std::snprintf(buf.data(), buf.size(), "tau=%.6fs > tf=%.6fs", end.to_seconds(),
                    r.deadline.to_seconds());
      flag(ViolationKind::kEndAfterDeadline, r.id, 0, buf.data());
    }
    // Profiled assignments: the floor binds every step (the malleability
    // contract — reshapes never drop a flow below its guarantee) and the
    // MaxRate cap binds the peak step.
    const Bandwidth floor_rate = a.is_profiled() ? a.profile.min_rate() : a.bw;
    const Bandwidth peak_rate = a.is_profiled() ? a.profile.peak_rate() : a.bw;
    if (options.min_rate_guarantee > 0.0) {
      const Bandwidth required_floor =
          max(r.max_rate * options.min_rate_guarantee, r.min_rate_from(a.start));
      if (!approx_le(required_floor, floor_rate)) {
        flag(ViolationKind::kRateNotPositive, r.id, 0,
             "guaranteed floor " + gridbw::to_string(required_floor) + " not met by " +
                 gridbw::to_string(floor_rate));
      }
    }
    if (!approx_le(peak_rate, r.max_rate)) {
      flag(ViolationKind::kRateAboveMax, r.id, 0,
           gridbw::to_string(peak_rate) + " > MaxRate " + gridbw::to_string(r.max_rate));
    }

    // Charge the load one constant-rate segment at a time. Constant
    // assignments emit the exact single segment the pre-profile code added,
    // so constant-only schedules keep bit-identical port peaks.
    a.for_each_segment(r, [&](TimePoint t0, TimePoint t1, Bandwidth rate) {
      const double bw = rate.to_bytes_per_second();
      if (reference) {
        segments[r.ingress.value].push_back(LoadSegment{t0, t1, bw});
        segments[in_count + r.egress.value].push_back(LoadSegment{t0, t1, bw});
      } else {
        profiles[r.ingress.value].add(t0, t1, bw);
        profiles[in_count + r.egress.value].add(t0, t1, bw);
      }
    });
  }

  // Pass 2: per-port capacity checks, ingress ports in ascending order,
  // then egress ports.
  for (std::size_t p = 0; p < port_count; ++p) {
    const Bandwidth peak = Bandwidth::bytes_per_second(
        reference ? reference_peak(segments[p]) : profiles[p].global_max());
    const bool ingress = p < in_count;
    const std::size_t index = ingress ? p : p - in_count;
    const Bandwidth capacity = ingress ? network.ingress_capacity(IngressId{index})
                                       : network.egress_capacity(EgressId{index});
    if (!approx_le(peak, capacity)) {
      flag(ingress ? ViolationKind::kIngressOverCapacity
                   : ViolationKind::kEgressOverCapacity,
           0, index, "peak " + gridbw::to_string(peak) + " > capacity " +
                         gridbw::to_string(capacity));
    }
  }

  if (options.observer != nullptr) {
    options.observer->count(obs::Counter::kValidatorRuns);
    options.observer->count(obs::Counter::kValidatorAssignments, assignments.size());
    options.observer->count(obs::Counter::kValidatorViolations,
                            report.violations.size());
  }
  return report;
}

ValidationReport validate_schedule(const Network& network,
                                   std::span<const Request> requests,
                                   const Schedule& schedule,
                                   const ValidateOptions& options) {
  return validate_assignments(network, requests, schedule.assignments(), options);
}

ValidationReport validate_schedule(const Network& network,
                                   std::span<const Request> requests,
                                   const Schedule& schedule,
                                   double min_rate_guarantee) {
  ValidateOptions options;
  options.min_rate_guarantee = min_rate_guarantee;
  return validate_schedule(network, requests, schedule, options);
}

}  // namespace gridbw
