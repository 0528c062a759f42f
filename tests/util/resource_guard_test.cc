#include "util/resource_guard.h"

#include <thread>

#include <gtest/gtest.h>

namespace blossomtree {
namespace util {
namespace {

TEST(ResourceGuardTest, UnlimitedByDefault) {
  ResourceGuard guard;
  guard.Arm();
  EXPECT_TRUE(guard.Check());
  EXPECT_TRUE(guard.ChargeCells(1'000'000, 64'000'000));
  EXPECT_TRUE(guard.ChargeRows(1'000'000));
  EXPECT_FALSE(guard.Tripped());
  EXPECT_TRUE(guard.status().ok());
  EXPECT_EQ(guard.CellsCharged(), 1'000'000u);
  EXPECT_EQ(guard.RowsCharged(), 1'000'000u);
}

TEST(ResourceGuardTest, ZeroCellBudgetRejectsFirstCharge) {
  QueryLimits limits;
  limits.max_nl_cells = 0;
  ResourceGuard guard(limits);
  guard.Arm();
  EXPECT_FALSE(guard.ChargeCells(1, 32));
  EXPECT_TRUE(guard.Tripped());
  EXPECT_EQ(guard.status().code(), StatusCode::kResourceExhausted);
}

TEST(ResourceGuardTest, CellBudgetTripsExactlyAboveLimit) {
  QueryLimits limits;
  limits.max_nl_cells = 100;
  ResourceGuard guard(limits);
  guard.Arm();
  EXPECT_TRUE(guard.ChargeCells(100, 0));  // Exactly at budget: allowed.
  EXPECT_FALSE(guard.ChargeCells(1, 0));   // One over: trips.
  EXPECT_TRUE(guard.Tripped());
}

TEST(ResourceGuardTest, ByteBudgetTripsIndependently) {
  QueryLimits limits;
  limits.max_nl_bytes = 64;
  ResourceGuard guard(limits);
  guard.Arm();
  EXPECT_TRUE(guard.ChargeCells(2, 64));
  EXPECT_FALSE(guard.ChargeCells(2, 64));
  EXPECT_EQ(guard.status().code(), StatusCode::kResourceExhausted);
}

TEST(ResourceGuardTest, TryChargeCellsCommitsOnlyWhatFits) {
  QueryLimits limits;
  limits.max_nl_cells = 10;
  limits.max_nl_bytes = 320;
  ResourceGuard guard(limits);
  guard.Arm();
  EXPECT_TRUE(guard.TryChargeCells(6, 192));
  // Over the cell budget, then within it but over the byte budget: neither
  // charges anything, and neither trips.
  EXPECT_FALSE(guard.TryChargeCells(5, 160));
  EXPECT_FALSE(guard.TryChargeCells(4, 160));
  EXPECT_FALSE(guard.Tripped());
  EXPECT_EQ(guard.CellsCharged(), 6u);
  EXPECT_EQ(guard.BytesCharged(), 192u);
  EXPECT_TRUE(guard.TryChargeCells(4, 128));  // Exactly at both budgets.
  EXPECT_EQ(guard.CellsCharged(), 10u);
  EXPECT_FALSE(guard.ChargeCells(1, 32));
  EXPECT_TRUE(guard.Tripped());
  // A tripped guard refuses even an empty charge.
  EXPECT_FALSE(guard.TryChargeCells(0, 0));
}

TEST(ResourceGuardTest, RowBudgetTrips) {
  QueryLimits limits;
  limits.max_result_rows = 10;
  ResourceGuard guard(limits);
  guard.Arm();
  EXPECT_TRUE(guard.ChargeRows(10));
  EXPECT_FALSE(guard.ChargeRows(1));
  EXPECT_EQ(guard.status().code(), StatusCode::kResourceExhausted);
}

TEST(ResourceGuardTest, ZeroDeadlineTripsOnFirstCheck) {
  QueryLimits limits;
  limits.deadline_millis = 0;
  ResourceGuard guard(limits);
  guard.Arm();
  EXPECT_FALSE(guard.Check());
  EXPECT_EQ(guard.status().code(), StatusCode::kResourceExhausted);
}

TEST(ResourceGuardTest, DeadlineTripsAfterItPasses) {
  QueryLimits limits;
  limits.deadline_millis = 5;
  ResourceGuard guard(limits);
  guard.Arm();
  EXPECT_TRUE(guard.Check());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(guard.Check());
  EXPECT_EQ(guard.status().code(), StatusCode::kResourceExhausted);
}

TEST(ResourceGuardTest, CancellationTokenTripsAsCancelled) {
  ResourceGuard guard;
  guard.Arm();
  guard.token()->Cancel();
  EXPECT_FALSE(guard.Check());
  EXPECT_EQ(guard.status().code(), StatusCode::kCancelled);
}

TEST(ResourceGuardTest, FirstTripWins) {
  ResourceGuard guard;
  guard.Arm();
  guard.Trip(StatusCode::kResourceExhausted, "first");
  guard.Trip(StatusCode::kCancelled, "second");
  EXPECT_EQ(guard.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(guard.status().message(), "first");
}

TEST(ResourceGuardTest, ArmResetsCountersAndTripButNotToken) {
  QueryLimits limits;
  limits.max_nl_cells = 1;
  ResourceGuard guard(limits);
  guard.Arm();
  EXPECT_FALSE(guard.ChargeCells(5, 0));
  EXPECT_TRUE(guard.Tripped());
  guard.Arm();
  EXPECT_FALSE(guard.Tripped());
  EXPECT_EQ(guard.CellsCharged(), 0u);
  EXPECT_TRUE(guard.status().ok());
  // A cancelled token survives re-arming until the owner resets it.
  guard.token()->Cancel();
  guard.Arm();
  EXPECT_FALSE(guard.Check());
  EXPECT_EQ(guard.status().code(), StatusCode::kCancelled);
  guard.token()->Reset();
  guard.Arm();
  EXPECT_TRUE(guard.Check());
}

TEST(ResourceGuardTest, ConcurrentChargesTripOnce) {
  QueryLimits limits;
  limits.max_nl_cells = 10'000;
  ResourceGuard guard(limits);
  guard.Arm();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&guard] {
      for (int i = 0; i < 10'000; ++i) guard.ChargeCells(1, 0);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_TRUE(guard.Tripped());
  EXPECT_EQ(guard.status().code(), StatusCode::kResourceExhausted);
  // Charging stops once tripped, so the counter lands past the budget but
  // (far) below the total offered work.
  EXPECT_GT(guard.CellsCharged(), 10'000u);
  EXPECT_LE(guard.CellsCharged(), 40'000u);
}

TEST(ResourceGuardTest, ToParseLimitsClampsToSizeT) {
  QueryLimits limits;
  limits.max_parse_depth = 64;
  limits.max_query_bytes = 1024;
  ParseLimits p = limits.ToParseLimits();
  EXPECT_EQ(p.max_depth, 64u);
  EXPECT_EQ(p.max_input_bytes, 1024u);
}

}  // namespace
}  // namespace util
}  // namespace blossomtree
