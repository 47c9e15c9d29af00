// perfbench/src/checks.hpp
//
// Output checks. Each returns an empty string when the output is right and a
// one-line description of the first problem otherwise; the benchmark fails
// the run on any non-empty answer.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "core/request.hpp"
#include "core/schedule.hpp"
#include "core/validate.hpp"
#include "service/admission_service.hpp"

namespace perfbench {

/// `result` decides each of `requests` (ids 1..N) exactly once and
/// `validation` (validate_schedule of its schedule, which covers the rate
/// profile and volume checks of malleable output) found no violation.
[[nodiscard]] std::string check_result(std::span<const gridbw::Request> requests,
                                       const gridbw::ScheduleResult& result,
                                       const gridbw::ValidationReport& validation);

/// FNV-1a over a result's assignments (id, start, rate, profile steps) and
/// rejected ids, in output order: equal across repetitions of one engine.
[[nodiscard]] std::uint64_t fingerprint(const gridbw::ScheduleResult& result);

/// The service's decisions on the first `prefix` requests of `trace`
/// (`admitted[k]` decides trace[k]) equal schedule_rigid_fcfs on that prefix,
/// id by id. Later arrivals cannot change an earlier rigid decision, so the
/// prefix of a full-trace run must match.
[[nodiscard]] std::string check_fcfs_prefix(const gridbw::Network& network,
                                            std::span<const gridbw::Request> trace,
                                            const std::vector<char>& admitted,
                                            std::size_t prefix);

/// Two drains of the same trace agree on their decisions and, when
/// `same_shards` (the GC runs per shard), on every other deterministic
/// report field.
[[nodiscard]] std::string check_same_report(const gridbw::service::ServiceReport& want,
                                            const gridbw::service::ServiceReport& got,
                                            bool same_shards);

/// The service's admitted requests as a schedule: each rigid request held
/// at MaxRate from its release.
[[nodiscard]] gridbw::Schedule admitted_schedule(std::span<const gridbw::Request> trace,
                                                 const std::vector<char>& admitted);

}  // namespace perfbench
