#include "storage/fault_injector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>

namespace vod {
namespace {

DiskFaultProfile Profile(double mtbf, double mttr) {
  DiskFaultProfile p;
  p.mtbf_minutes = mtbf;
  p.mttr_minutes = mttr;
  return p;
}

TEST(DiskFaultProfileTest, Validation) {
  EXPECT_TRUE(Profile(4000.0, 120.0).Validate().ok());
  EXPECT_TRUE(Profile(0.0, 120.0).Validate().IsInvalidArgument());
  EXPECT_TRUE(Profile(4000.0, 0.0).Validate().IsInvalidArgument());
  EXPECT_TRUE(Profile(-1.0, 120.0).Validate().IsInvalidArgument());
  // Non-finite values are refused by name.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [mtbf, mttr, field] :
       {std::tuple{kInf, 120.0, "MTBF"}, std::tuple{kNan, 120.0, "MTBF"},
        std::tuple{4000.0, kInf, "MTTR"}, std::tuple{4000.0, kNan, "MTTR"}}) {
    const Status status = Profile(mtbf, mttr).Validate();
    EXPECT_TRUE(status.IsInvalidArgument()) << mtbf << " " << mttr;
    EXPECT_NE(status.message().find(field), std::string::npos) << status;
  }
}

TEST(DiskFaultProfileTest, StationaryAvailability) {
  EXPECT_NEAR(Profile(300.0, 100.0).StationaryAvailability(), 0.75, 1e-12);
  // MTTR -> 0 approaches an always-up disk.
  EXPECT_NEAR(Profile(300.0, 1e-9).StationaryAvailability(), 1.0, 1e-9);
}

TEST(SplitCapacityTest, DistributesRemainder) {
  const auto shares = FaultInjector::SplitCapacity(10, 4);
  ASSERT_EQ(shares.size(), 4u);
  EXPECT_EQ(shares[0], 3);
  EXPECT_EQ(shares[1], 3);
  EXPECT_EQ(shares[2], 2);
  EXPECT_EQ(shares[3], 2);
  int64_t total = 0;
  for (int64_t s : shares) total += s;
  EXPECT_EQ(total, 10);
}

TEST(FaultInjectorTest, ScheduleIsDeterministic) {
  FaultInjector a(FaultInjector::SplitCapacity(100, 4),
                  Profile(2000.0, 200.0), Rng(7));
  FaultInjector b(FaultInjector::SplitCapacity(100, 4),
                  Profile(2000.0, 200.0), Rng(7));
  const auto sa = a.Schedule(50000.0);
  const auto sb = b.Schedule(50000.0);
  ASSERT_EQ(sa.size(), sb.size());
  ASSERT_FALSE(sa.empty());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].time, sb[i].time);
    EXPECT_EQ(sa[i].disk, sb[i].disk);
    EXPECT_EQ(sa[i].failure, sb[i].failure);
    EXPECT_EQ(sa[i].capacity_after, sb[i].capacity_after);
  }
}

TEST(FaultInjectorTest, CapacityTrajectoryIsConsistent) {
  FaultInjector injector(FaultInjector::SplitCapacity(120, 6),
                         Profile(1500.0, 300.0), Rng(42));
  const auto schedule = injector.Schedule(100000.0);
  ASSERT_FALSE(schedule.empty());
  int64_t capacity = injector.total_capacity();
  double last_time = 0.0;
  for (const FaultEvent& ev : schedule) {
    EXPECT_GE(ev.time, last_time);
    EXPECT_LT(ev.time, 100000.0);
    last_time = ev.time;
    EXPECT_EQ(ev.capacity_delta, ev.failure ? -std::abs(ev.capacity_delta)
                                            : std::abs(ev.capacity_delta));
    capacity += ev.capacity_delta;
    EXPECT_EQ(ev.capacity_after, capacity);
    EXPECT_GE(capacity, 0);
    EXPECT_LE(capacity, injector.total_capacity());
  }
}

TEST(FaultInjectorTest, PerDiskEventsAlternateFailureRepair) {
  FaultInjector injector(FaultInjector::SplitCapacity(40, 2),
                         Profile(800.0, 100.0), Rng(3));
  const auto schedule = injector.Schedule(200000.0);
  bool expect_failure[2] = {true, true};
  for (const FaultEvent& ev : schedule) {
    ASSERT_GE(ev.disk, 0);
    ASSERT_LT(ev.disk, 2);
    EXPECT_EQ(ev.failure, expect_failure[ev.disk]);
    expect_failure[ev.disk] = !expect_failure[ev.disk];
  }
}

TEST(FaultInjectorTest, HugeMtbfYieldsEmptySchedule) {
  FaultInjector injector(FaultInjector::SplitCapacity(100, 4),
                         Profile(1e15, 10.0), Rng(1));
  EXPECT_TRUE(injector.Schedule(50000.0).empty());
}

TEST(FaultInjectorTest, AddingDiskDoesNotPerturbOthers) {
  // Per-disk child RNG streams: disk 0's trajectory is identical whether
  // the farm has 2 or 3 disks.
  FaultInjector two(std::vector<int64_t>{10, 10}, Profile(1000.0, 100.0),
                    Rng(99));
  FaultInjector three(std::vector<int64_t>{10, 10, 10},
                      Profile(1000.0, 100.0), Rng(99));
  const auto s2 = two.Schedule(30000.0);
  const auto s3 = three.Schedule(30000.0);
  std::vector<double> disk0_two, disk0_three;
  for (const auto& ev : s2) {
    if (ev.disk == 0) disk0_two.push_back(ev.time);
  }
  for (const auto& ev : s3) {
    if (ev.disk == 0) disk0_three.push_back(ev.time);
  }
  EXPECT_EQ(disk0_two, disk0_three);
}

}  // namespace
}  // namespace vod
