// A GPU result must not depend on how many host workers run the simulated
// device's blocks. Devices here name their worker count explicitly, so the
// multi-worker case runs blocks on four host threads even on a 1-core host,
// and every comparison is exact: medoids, dimensions, assignment and both
// costs, bit for bit.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.h"
#include "data/generator.h"
#include "data/normalize.h"
#include "simt/device.h"
#include "simt/primitives.h"
#include "testing/must_cluster.h"

namespace proclus::core {
namespace {

simt::DeviceOptions Workers(int host_workers) {
  return simt::DeviceOptions{host_workers, /*sanitize=*/false};
}

data::Dataset TestData() {
  data::GeneratorConfig config;
  config.n = 6000;  // several 1024-point blocks per list
  config.d = 12;
  config.num_clusters = 5;
  config.subspace_dim = 4;
  config.seed = 91;
  data::Dataset ds = data::GenerateSubspaceDataOrDie(config);
  data::MinMaxNormalize(&ds.points);
  return ds;
}

ProclusParams TestParams() {
  ProclusParams p;
  p.k = 5;
  p.l = 4;
  p.a = 20.0;
  p.b = 4.0;
  return p;
}

ProclusResult RunOn(const data::Dataset& ds, Strategy strategy,
                    bool device_dim_selection, int host_workers) {
  simt::Device device(simt::DeviceProperties::Gtx1660Ti(),
                      Workers(host_workers));
  ClusterOptions options =
      ClusterOptions::Gpu(simt::DeviceProperties::Gtx1660Ti(), strategy);
  options.gpu_device_dim_selection = device_dim_selection;
  options.device = &device;
  return MustCluster(ds.points, TestParams(), options);
}

TEST(HostWorkersTest, EveryGpuStrategyIsBitIdenticalAcrossWorkerCounts) {
  const data::Dataset ds = TestData();
  for (const Strategy strategy :
       {Strategy::kBaseline, Strategy::kFast, Strategy::kFastStar}) {
    for (const bool device_dims : {false, true}) {
      SCOPED_TRACE(std::string(StrategyName(strategy)) +
                   (device_dims ? " device dims" : " host dims"));
      const ProclusResult one = RunOn(ds, strategy, device_dims, 1);
      const ProclusResult four = RunOn(ds, strategy, device_dims, 4);
      EXPECT_EQ(one.medoids, four.medoids);
      EXPECT_EQ(one.dimensions, four.dimensions);
      EXPECT_EQ(one.assignment, four.assignment);
      EXPECT_EQ(one.iterative_cost, four.iterative_cost);
      EXPECT_EQ(one.refined_cost, four.refined_cost);
    }
  }
}

TEST(HostWorkersTest, ReduceSumIsBitIdenticalAcrossWorkerCounts) {
  // Terms of very different magnitude, so any change of summation order
  // changes the rounded sum.
  const int64_t n = 64 * 1024;
  std::vector<double> values(n);
  for (int64_t i = 0; i < n; ++i) {
    values[i] = (i % 3 == 0 ? 1e12 : 1.0) / static_cast<double>(i + 1);
  }
  auto sum_on = [&](int host_workers) {
    simt::Device device(simt::DeviceProperties::Gtx1660Ti(),
                        Workers(host_workers));
    double* d_values = device.Alloc<double>(n);
    device.CopyToDevice(d_values, values.data(), n);
    double* partials = device.Alloc<double>(simt::ReduceSumScratch(n));
    double* out = device.Alloc<double>(1);
    return simt::ReduceSum(device, "sum", d_values, n, partials, out);
  };
  const double one = sum_on(1);
  for (int run = 0; run < 5; ++run) EXPECT_EQ(sum_on(4), one);
}

}  // namespace
}  // namespace proclus::core
