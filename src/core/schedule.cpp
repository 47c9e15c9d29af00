#include "core/schedule.hpp"

#include <stdexcept>
#include <string>

namespace gridbw {

void Schedule::accept(RequestId request, TimePoint start, Bandwidth bw) {
  if (index_.count(request) > 0) {
    // The sweep assembly paths that reach this from hot kernels admit each
    // request at most once, so this defensive guard is never taken there.
    // GRIDBW-ALLOW(hot-propagation): duplicate-accept guard, unreachable hot
    throw std::logic_error{"Schedule::accept: request already accepted"};
  }
  index_.emplace(request, assignments_.size());
  assignments_.push_back(Assignment{request, start, bw});
}

namespace {

void check_well_formed(const RateProfile& profile) {
  if (const auto why = profile.defect(profile.empty() ? TimePoint::origin()
                                                      : profile.start())) {
    throw std::logic_error{"Schedule::accept_profile: " + *why};
  }
}

}  // namespace

void Schedule::accept_profile(const Request& request, RateProfile profile) {
  check_well_formed(profile);
  if (profile.size() > 1) {
    accept_stepped(request.id, std::move(profile));
    return;
  }
  const Bandwidth rate = profile.steps().front().rate;
  const TimePoint derived = profile.start() + request.volume / rate;
  if (!approx_le(profile.end(), derived) || !approx_le(derived, profile.end())) {
    throw std::logic_error{"Schedule::accept_profile: single-step profile of request " +
                           std::to_string(request.id) + " ends at " +
                           to_string(profile.end()) + ", not at start + vol/rate = " +
                           to_string(derived)};
  }
  accept(request.id, profile.start(), rate);
}

void Schedule::accept_profile(RequestId request, RateProfile profile) {
  check_well_formed(profile);
  if (profile.size() == 1) {
    throw std::logic_error{
        "Schedule::accept_profile: a single-step profile needs its request to check its end"};
  }
  accept_stepped(request, std::move(profile));
}

void Schedule::accept_stepped(RequestId request, RateProfile profile) {
  if (index_.count(request) > 0) {
    throw std::logic_error{"Schedule::accept_profile: request already accepted"};
  }
  index_.emplace(request, assignments_.size());
  Assignment a;
  a.request = request;
  a.start = profile.start();
  a.bw = profile.peak_rate();
  a.profile = std::move(profile);
  assignments_.push_back(std::move(a));
}

bool Schedule::withdraw(RequestId request) {
  const auto it = index_.find(request);
  if (it == index_.end()) return false;
  const std::size_t pos = it->second;
  const std::size_t last = assignments_.size() - 1;
  if (pos != last) {
    assignments_[pos] = assignments_[last];
    index_[assignments_[pos].request] = pos;
  }
  assignments_.pop_back();
  index_.erase(it);
  return true;
}

bool Schedule::is_accepted(RequestId request) const { return index_.count(request) > 0; }

std::optional<Assignment> Schedule::assignment(RequestId request) const {
  const auto it = index_.find(request);
  if (it == index_.end()) return std::nullopt;
  return assignments_[it->second];
}

}  // namespace gridbw
