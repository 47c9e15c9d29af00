#include "heuristics/fcfs_order.hpp"

#include <algorithm>
#include <utility>

namespace gridbw::heuristics {
namespace {

/// The one sort path: a linear check, and only when the input is out of
/// order a stable sort. The sort runs on (key, pointer) pairs gathered in one
/// sequential pass, so its comparisons never chase a pointer into the span.
void sort_in_place(std::vector<const Request*>& order) {
  const auto before = [](const Request* a, const Request* b) {
    return fcfs_before(*a, *b);
  };
  if (std::is_sorted(order.begin(), order.end(), before)) return;
  std::vector<std::pair<FcfsKey, const Request*>> keyed;
  keyed.reserve(order.size());
  for (const Request* r : order) keyed.emplace_back(fcfs_key(*r), r);
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t k = 0; k < keyed.size(); ++k) order[k] = keyed[k].second;
}

}  // namespace

std::vector<const Request*> fcfs_order(std::span<const Request> requests) {
  std::vector<const Request*> order;
  order.reserve(requests.size());
  for (const Request& r : requests) order.push_back(&r);
  sort_in_place(order);
  return order;
}

std::vector<const Request*> admission_order(std::span<const Request> requests,
                                            ScheduleResult& result,
                                            obs::Observer* observer) {
  std::vector<const Request*> order;
  order.reserve(requests.size());
  for (const Request& r : requests) {
    obs::note_submitted(observer, r.id, r.release);
    // A non-positive window has an infinite MinRate; reject it up front so
    // it never reaches an engine's rate or cost computations.
    if (!(r.deadline > r.release)) {
      result.rejected.push_back(r.id);
      obs::note_rejected(observer, r.id, r.release,
                         obs::RejectReason::kDegenerateWindow);
      continue;
    }
    order.push_back(&r);
  }
  sort_in_place(order);
  return order;
}

}  // namespace gridbw::heuristics
