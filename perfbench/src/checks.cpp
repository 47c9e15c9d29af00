#include "checks.hpp"

#include <algorithm>
#include <cstring>

#include "heuristics/rigid_fcfs.hpp"

namespace perfbench {

using namespace gridbw;

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t mix(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return mix(h, bits);
}

}  // namespace

std::string check_result(std::span<const Request> requests, const ScheduleResult& result,
                         const ValidationReport& validation) {
  if (!validation.ok()) return "schedule invalid: " + validation.to_string();
  const std::size_t n = requests.size();
  if (result.total_count() != n) {
    return "decided " + std::to_string(result.total_count()) + " of " +
           std::to_string(n) + " requests";
  }
  std::vector<char> seen(n, 0);
  auto mark = [&](RequestId id) {
    if (id < 1 || id > n || seen[id - 1] != 0) return false;
    seen[id - 1] = 1;
    return true;
  };
  for (const Assignment& a : result.schedule.assignments()) {
    if (!mark(a.request)) return "request " + std::to_string(a.request) + " decided twice";
  }
  for (const RequestId id : result.rejected) {
    if (!mark(id)) return "request " + std::to_string(id) + " decided twice";
  }
  return {};
}

std::uint64_t fingerprint(const ScheduleResult& result) {
  std::uint64_t h = kFnvOffset;
  for (const Assignment& a : result.schedule.assignments()) {
    h = mix(h, static_cast<std::uint64_t>(a.request));
    h = mix(h, a.start.to_seconds());
    h = mix(h, a.bw.to_bytes_per_second());
    for (const RateStep& s : a.profile.steps()) {
      h = mix(h, s.from.to_seconds());
      h = mix(h, s.rate.to_bytes_per_second());
    }
  }
  for (const RequestId id : result.rejected) h = mix(h, static_cast<std::uint64_t>(id));
  return h;
}

std::string check_fcfs_prefix(const Network& network, std::span<const Request> trace,
                              const std::vector<char>& admitted, std::size_t prefix) {
  prefix = std::min(prefix, trace.size());
  if (admitted.size() != trace.size()) return "decision vector does not cover the trace";
  const ScheduleResult fcfs =
      heuristics::schedule_rigid_fcfs(network, trace.subspan(0, prefix));
  for (std::size_t k = 0; k < prefix; ++k) {
    const bool want = fcfs.schedule.is_accepted(trace[k].id);
    if (want != (admitted[k] != 0)) {
      return "request " + std::to_string(trace[k].id) + ": service " +
             (want ? "rejected" : "admitted") + " it, FCFS " +
             (want ? "admits" : "rejects");
    }
  }
  return {};
}

std::string check_same_report(const service::ServiceReport& want,
                              const service::ServiceReport& got, bool same_shards) {
  auto field = [](const char* name, std::size_t a, std::size_t b) {
    return a == b ? std::string{}
                  : std::string{name} + " " + std::to_string(b) + " != " + std::to_string(a);
  };
  if (want.decision_fingerprint != got.decision_fingerprint) {
    return "decision fingerprint differs between repetitions";
  }
  for (const std::string& diff :
       {field("submitted", want.submitted, got.submitted),
        field("admitted", want.admitted, got.admitted),
        field("rejected", want.rejected, got.rejected),
        field("expired", want.expired, got.expired),
        field("live_peak", want.live_peak, got.live_peak)}) {
    if (!diff.empty()) return diff;
  }
  if (!same_shards) return {};
  for (const std::string& diff :
       {field("resident_breakpoints", want.resident_breakpoints, got.resident_breakpoints),
        field("compactions", want.compactions, got.compactions),
        field("breakpoints_retired", want.breakpoints_retired, got.breakpoints_retired)}) {
    if (!diff.empty()) return diff;
  }
  return {};
}

Schedule admitted_schedule(std::span<const Request> trace, const std::vector<char>& admitted) {
  Schedule schedule;
  for (std::size_t k = 0; k < trace.size() && k < admitted.size(); ++k) {
    if (admitted[k] != 0) schedule.accept(trace[k].id, trace[k].release, trace[k].max_rate);
  }
  return schedule;
}

}  // namespace perfbench
