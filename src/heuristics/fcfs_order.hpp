// gridbw/heuristics/fcfs_order.hpp
//
// The FCFS arrival order every online engine serves requests in (FCFS §4.1,
// GREEDY and WINDOW §5.1–5.2, BOOK-AHEAD, mGREEDY/mWINDOW, the distributed
// variant and the control plane): release time, then ascending MinRate, then
// id — the order of core/request.hpp's `FcfsKey`, the only comparator.
//
// Contract:
// * The order is a vector of pointers into the caller's span. No Request is
//   copied; the pointers stay valid for as long as the span's storage does,
//   so the caller must keep it alive (and unmodified) while it walks them.
// * Linear on arrival-ordered input. Reservation front ends see requests in
//   arrival order and workload::generate emits them that way, so the input
//   is checked in one pass of the comparator and, when already ordered, kept
//   as it is.
// * Otherwise one sequential pass gathers (FcfsKey, pointer) pairs and a
//   stable sort orders them by the same comparator, O(n log n) with no
//   pointer chased per comparison. A stable sort's output is unique for a
//   strict weak order, so this is the sequence a stable sort of the requests
//   themselves produces: decisions depend neither on which path ran nor on
//   the input permutation.

#pragma once

#include <span>
#include <vector>

#include "core/request.hpp"
#include "core/schedule.hpp"
#include "obs/observer.hpp"

namespace gridbw::heuristics {

/// Every request of `requests`, in FCFS order.
[[nodiscard]] std::vector<const Request*> fcfs_order(std::span<const Request> requests);

/// The batch engines' preamble. In input order, emits `note_submitted` for
/// every request and rejects each degenerate window (deadline <= release,
/// an infinite MinRate) into `result.rejected` with `kDegenerateWindow`.
/// Returns the remaining requests in FCFS order.
[[nodiscard]] std::vector<const Request*> admission_order(
    std::span<const Request> requests, ScheduleResult& result, obs::Observer* observer);

}  // namespace gridbw::heuristics
