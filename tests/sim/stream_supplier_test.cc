#include "sim/stream_supplier.h"

#include <gtest/gtest.h>

namespace vod {
namespace {

TEST(UnlimitedSupplierTest, AlwaysGrantsAndCounts) {
  UnlimitedStreamSupplier supplier;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(supplier.TryAcquire(static_cast<double>(i)));
  }
  EXPECT_EQ(supplier.in_use(), 100);
  EXPECT_EQ(supplier.peak_in_use(), 100);
  for (int i = 0; i < 40; ++i) supplier.Release(100.0);
  EXPECT_EQ(supplier.in_use(), 60);
  EXPECT_EQ(supplier.peak_in_use(), 100);
}

TEST(UnlimitedSupplierTest, TimeAverageTracksUsage) {
  UnlimitedStreamSupplier supplier;
  EXPECT_TRUE(supplier.TryAcquire(0.0));   // 1 in [0, 10)
  EXPECT_TRUE(supplier.TryAcquire(10.0));  // 2 in [10, 20)
  supplier.Release(20.0);
  supplier.Release(20.0);                  // 0 in [20, 30)
  EXPECT_NEAR(supplier.MeanInUse(30.0), (10.0 + 20.0) / 30.0, 1e-12);
}

}  // namespace
}  // namespace vod
