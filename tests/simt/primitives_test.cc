#include "simt/primitives.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace proclus::simt {
namespace {

TEST(FillTest, FillsEveryElement) {
  Device device;
  float* values = device.Alloc<float>(5000);
  Fill(device, "fill", values, 5000, 3.5f);
  for (int i = 0; i < 5000; ++i) EXPECT_EQ(values[i], 3.5f);
}

TEST(FillTest, IntAndDoubleTypes) {
  Device device;
  int* ints = device.Alloc<int>(100);
  double* doubles = device.Alloc<double>(100);
  Fill(device, "fill_i", ints, 100, -7);
  Fill(device, "fill_d", doubles, 100, 0.25);
  EXPECT_EQ(ints[99], -7);
  EXPECT_EQ(doubles[0], 0.25);
}

TEST(FillTest, ZeroCountIsNoLaunch) {
  Device device;
  float* values = device.Alloc<float>(1);
  Fill(device, "fill", values, 0, 1.0f);
  EXPECT_EQ(device.perf_model().total_launches(), 0);
}

TEST(FillTest, RecordsLaunchUnderGivenName) {
  Device device;
  float* values = device.Alloc<float>(10);
  Fill(device, "my_fill", values, 10, 1.0f);
  const auto records = device.perf_model().KernelRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "my_fill");
}

TEST(IotaTest, ProducesSequence) {
  Device device;
  int* values = device.Alloc<int>(3000);
  Iota(device, "iota", values, 3000);
  for (int i = 0; i < 3000; ++i) EXPECT_EQ(values[i], i);
}

TEST(ReduceSumTest, MatchesSequentialSum) {
  Device device;
  const int64_t n = 12345;
  double* values = device.Alloc<double>(n);
  for (int64_t i = 0; i < n; ++i) values[i] = 0.5 * static_cast<double>(i);
  double* partials = device.Alloc<double>(ReduceSumScratch(n));
  double* out = device.Alloc<double>(1);
  const double sum = ReduceSum(device, "sum", values, n, partials, out);
  EXPECT_DOUBLE_EQ(sum, *out);
  EXPECT_NEAR(sum, 0.5 * n * (n - 1) / 2.0, 1e-6);
}

TEST(ReduceSumTest, EmptyIsZero) {
  Device device;
  double* out = device.Alloc<double>(1);
  EXPECT_EQ(ReduceSum(device, "sum", nullptr, 0, nullptr, out), 0.0);
}

TEST(FoldSumTest, AddsInIndexOrderFromZero) {
  Device device;
  double* values = device.Alloc<double>(3);
  values[0] = 1e16;
  values[1] = 1.0;
  values[2] = -1e16;
  double* out = device.Alloc<double>(1);
  // ((0 + 1e16) + 1) - 1e16: the 1 is absorbed, so only index order gives 0.
  EXPECT_EQ(FoldSum(device, "fold", values, 3, out), 0.0);
}

// Runs OrderedCompact over `keys` (item i goes to list keys[i], none when
// negative) and returns the lists, each holding 1000 + i of its items.
std::vector<std::vector<int>> CompactKeys(Device& device,
                                          const std::vector<int>& keys,
                                          int num_lists, int block_dim) {
  const int64_t count = static_cast<int64_t>(keys.size());
  int* d_keys = device.Alloc<int>(count);
  device.CopyToDevice(d_keys, keys.data(), count);
  ListSet out;
  out.lists = device.Alloc<int>(num_lists * count);
  out.sizes = device.Alloc<int>(num_lists);
  out.num_lists = num_lists;
  out.stride = count;
  int* scratch =
      device.Alloc<int>(OrderedCompactScratch(count, block_dim, num_lists));
  OrderedCompact(
      device, "compact", count, block_dim, WorkEstimate{},
      [&](BlockContext& b, int64_t i) { return b.Load(&d_keys[i]); },
      [](int64_t i) { return static_cast<int>(1000 + i); }, out, scratch);
  std::vector<std::vector<int>> lists(num_lists);
  for (int l = 0; l < num_lists; ++l) {
    lists[l].assign(out.lists + l * count,
                    out.lists + l * count + out.sizes[l]);
  }
  return lists;
}

TEST(OrderedCompactTest, ListsHoldItemsInAscendingOrder) {
  std::vector<int> keys(5000);
  for (int i = 0; i < 5000; ++i) keys[i] = (i * 7919) % 5 - 1;  // -1..3
  std::vector<std::vector<int>> expected(4);
  for (int i = 0; i < 5000; ++i) {
    if (keys[i] >= 0) expected[keys[i]].push_back(1000 + i);
  }
  Device device(DeviceProperties::Gtx1660Ti(), DeviceOptions{4, false});
  EXPECT_EQ(CompactKeys(device, keys, 4, 128), expected);
}

TEST(OrderedCompactTest, LaunchesCountScanAndScatter) {
  Device device;
  CompactKeys(device, {0, 1, 0}, 2, 2);
  std::vector<std::string> names;
  for (const auto& r : device.perf_model().KernelRecords()) {
    names.push_back(r.name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"compact", "compact_count",
                                             "compact_scan"}));
}

TEST(ReduceMinMaxTest, FindExtremes) {
  Device device;
  const int64_t n = 4097;  // crosses a block boundary
  float* values = device.Alloc<float>(n);
  for (int64_t i = 0; i < n; ++i) {
    values[i] = static_cast<float>((i * 2654435761u) % 100000);
  }
  values[1234] = -5.0f;
  values[4096] = 200000.0f;
  float* out = device.Alloc<float>(1);
  EXPECT_EQ(ReduceMin(device, "min", values, n, out), -5.0f);
  EXPECT_EQ(ReduceMax(device, "max", values, n, out), 200000.0f);
}

TEST(ReduceMinMaxTest, SingleElement) {
  Device device;
  float* values = device.Alloc<float>(1);
  values[0] = 42.0f;
  float* out = device.Alloc<float>(1);
  EXPECT_EQ(ReduceMin(device, "min", values, 1, out), 42.0f);
  EXPECT_EQ(ReduceMax(device, "max", values, 1, out), 42.0f);
}

TEST(ReduceMinMaxTest, EmptyYieldsIdentity) {
  Device device;
  float* out = device.Alloc<float>(1);
  EXPECT_EQ(ReduceMin(device, "min", nullptr, 0, out),
            std::numeric_limits<float>::infinity());
  EXPECT_EQ(ReduceMax(device, "max", nullptr, 0, out),
            -std::numeric_limits<float>::infinity());
}

}  // namespace
}  // namespace proclus::simt
