// Tests for core/rate_profile.hpp: the piecewise-constant per-request rate
// profiles the malleable engines emit. Pins the step algebra (append /
// coalesce / same-instant overwrite), the exact integral, and the defect
// taxonomy Schedule::accept_profile and the validator rely on.

#include <gtest/gtest.h>

#include <limits>

#include "core/rate_profile.hpp"
#include "core/schedule.hpp"

namespace gridbw {
namespace {

TimePoint at(double s) { return TimePoint::at_seconds(s); }
Bandwidth mbps(double m) { return Bandwidth::megabytes_per_second(m); }

TEST(RateProfile, ConstantFactoryIsOneStep) {
  const RateProfile p = RateProfile::constant(at(10), at(30), mbps(5));
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p.start(), at(10));
  EXPECT_EQ(p.end(), at(30));
  EXPECT_EQ(p.rate_at(at(10)), mbps(5));
  EXPECT_EQ(p.rate_at(at(29.999)), mbps(5));
  EXPECT_EQ(p.rate_at(at(30)), Bandwidth::zero());  // end is exclusive
  EXPECT_EQ(p.rate_at(at(9)), Bandwidth::zero());
  EXPECT_EQ(p.carried(), mbps(5) * Duration::seconds(20));
}

TEST(RateProfile, AppendBuildsStepsAndIntegrates) {
  RateProfile p;
  p.append(at(0), mbps(10));
  p.append(at(5), mbps(20));
  p.append(at(8), mbps(4));
  p.set_end(at(10));
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p.rate_at(at(4.5)), mbps(10));
  EXPECT_EQ(p.rate_at(at(5)), mbps(20));
  EXPECT_EQ(p.rate_at(at(8)), mbps(4));
  EXPECT_EQ(p.peak_rate(), mbps(20));
  EXPECT_EQ(p.min_rate(), mbps(4));
  // 10*5 + 20*3 + 4*2 = 118 MB
  EXPECT_DOUBLE_EQ(p.carried().to_bytes(), 118e6);
  EXPECT_FALSE(p.defect(at(0)).has_value());
}

TEST(RateProfile, AppendCoalescesEqualRates) {
  RateProfile p;
  p.append(at(0), mbps(10));
  p.append(at(5), mbps(10));  // no-op: the function is unchanged
  p.set_end(at(10));
  ASSERT_EQ(p.size(), 1u);
  EXPECT_DOUBLE_EQ(p.carried().to_bytes(), 100e6);
}

TEST(RateProfile, SameInstantAppendOverwritesLastStep) {
  RateProfile p;
  p.append(at(0), mbps(10));
  p.append(at(5), mbps(20));
  p.append(at(5), mbps(30));  // two reshapes at one instant: last wins
  p.set_end(at(10));
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.rate_at(at(5)), mbps(30));
  // ...and the overwrite re-coalesces when it lands back on the previous rate.
  RateProfile q;
  q.append(at(0), mbps(10));
  q.append(at(5), mbps(20));
  q.append(at(5), mbps(10));
  q.set_end(at(10));
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.rate_at(at(7)), mbps(10));
}

TEST(RateProfile, DefectTaxonomy) {
  RateProfile empty;
  EXPECT_TRUE(empty.defect(at(0)).has_value());

  RateProfile wrong_start;
  wrong_start.append(at(1), mbps(10));
  wrong_start.set_end(at(5));
  EXPECT_TRUE(wrong_start.defect(at(0)).has_value());
  EXPECT_FALSE(wrong_start.defect(at(1)).has_value());

  RateProfile open;  // end never set -> end() does not lie after the last step
  open.append(at(0), mbps(10));
  EXPECT_TRUE(open.defect(at(0)).has_value());

  RateProfile bad_rate;
  bad_rate.append(at(0), Bandwidth::bytes_per_second(
                             std::numeric_limits<double>::infinity()));
  bad_rate.set_end(at(5));
  EXPECT_TRUE(bad_rate.defect(at(0)).has_value());
}

// A request carrying exactly 10 s of transfer at 10 MB/s.
Request ten_second_transfer(RequestId id) {
  return RequestBuilder{id}
      .from(IngressId{0})
      .to(EgressId{0})
      .window(at(0), at(100))
      .volume(mbps(10) * Duration::seconds(10))
      .max_rate(mbps(50))
      .build();
}

TEST(RateProfile, ScheduleAcceptProfileNormalizesSingleStepToConstant) {
  Schedule s;
  RateProfile p = RateProfile::constant(at(0), at(10), mbps(10));
  s.accept_profile(ten_second_transfer(7), std::move(p));
  const auto a = s.assignment(7);
  ASSERT_TRUE(a.has_value());
  // Canonical form: a one-step profile IS the constant allocation and takes
  // the pre-profile fast paths everywhere.
  EXPECT_FALSE(a->is_profiled());
  EXPECT_EQ(a->start, at(0));
  EXPECT_EQ(a->bw, mbps(10));
}

TEST(RateProfile, ScheduleAcceptProfileChecksSingleStepEnd) {
  const Request r = ten_second_transfer(7);
  // Within the validator's end tolerance (1 us) of start + vol/rate: kept,
  // recorded in the constant form whose end is the derived one.
  Schedule near;
  near.accept_profile(r, RateProfile::constant(at(0), at(10.0000005), mbps(10)));
  const auto a = near.assignment(7);
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(a->is_profiled());
  EXPECT_EQ(a->end(r), at(10));
  // An end the constant form cannot represent, early or late: refused, and
  // nothing is recorded.
  for (const double end : {9.0, 10.00001, 12.0}) {
    Schedule s;
    EXPECT_THROW(s.accept_profile(r, RateProfile::constant(at(0), at(end), mbps(10))),
                 std::logic_error)
        << "end " << end;
    EXPECT_FALSE(s.is_accepted(7));
  }
  // Without the request the end cannot be checked: the id-only form refuses
  // every single-step profile.
  Schedule by_id;
  EXPECT_THROW(by_id.accept_profile(7, RateProfile::constant(at(0), at(10), mbps(10))),
               std::logic_error);
  EXPECT_FALSE(by_id.is_accepted(7));
}

TEST(RateProfile, ScheduleAcceptProfileKeepsMultiStepAndPinsPeak) {
  Schedule s;
  RateProfile p;
  p.append(at(0), mbps(10));
  p.append(at(5), mbps(20));
  p.set_end(at(10));
  s.accept_profile(7, std::move(p));
  const auto a = s.assignment(7);
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->is_profiled());
  EXPECT_EQ(a->bw, mbps(20));  // bw mirrors the peak step rate
  EXPECT_EQ(a->start, at(0));
  ASSERT_EQ(a->profile.size(), 2u);
}

TEST(RateProfile, ScheduleAcceptProfileRejectsMalformed) {
  Schedule s;
  RateProfile open;
  open.append(at(0), mbps(10));  // end never set
  EXPECT_THROW(s.accept_profile(1, std::move(open)), std::logic_error);
}

TEST(RateProfile, AssignmentSegmentsVisitConstantOnce) {
  const Request r = RequestBuilder{1}
                        .from(IngressId{0})
                        .to(EgressId{0})
                        .window(at(0), at(100))
                        .volume(mbps(10) * Duration::seconds(10))
                        .max_rate(mbps(50))
                        .build();
  const Assignment a{1, at(0), mbps(10)};
  std::size_t calls = 0;
  a.for_each_segment(r, [&](TimePoint t0, TimePoint t1, Bandwidth rate) {
    ++calls;
    EXPECT_EQ(t0, at(0));
    EXPECT_EQ(t1, at(10));
    EXPECT_EQ(rate, mbps(10));
  });
  EXPECT_EQ(calls, 1u);
}

TEST(RateProfile, AssignmentSegmentsVisitEachStep) {
  const Request r = RequestBuilder{1}
                        .from(IngressId{0})
                        .to(EgressId{0})
                        .window(at(0), at(100))
                        .volume(Volume::bytes(1))
                        .max_rate(mbps(50))
                        .build();
  Schedule s;
  RateProfile p;
  p.append(at(0), mbps(10));
  p.append(at(5), mbps(20));
  p.set_end(at(10));
  s.accept_profile(1, std::move(p));
  const auto a = s.assignment(1);
  ASSERT_TRUE(a.has_value());
  std::size_t calls = 0;
  a->for_each_segment(r, [&](TimePoint t0, TimePoint t1, Bandwidth rate) {
    if (calls == 0) {
      EXPECT_EQ(t0, at(0));
      EXPECT_EQ(t1, at(5));
      EXPECT_EQ(rate, mbps(10));
    } else {
      EXPECT_EQ(t0, at(5));
      EXPECT_EQ(t1, at(10));
      EXPECT_EQ(rate, mbps(20));
    }
    ++calls;
  });
  EXPECT_EQ(calls, 2u);
}

}  // namespace
}  // namespace gridbw
