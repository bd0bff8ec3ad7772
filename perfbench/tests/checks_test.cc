// The benchmark's own checks must pass a correct result and reject each
// fault a broken program could produce.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "checks.h"
#include "core/api.h"
#include "data/generator.h"
#include "data/normalize.h"
#include "simt/device.h"

namespace perfbench {
namespace {

namespace core = proclus::core;

class ChecksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    proclus::data::GeneratorConfig config;
    config.n = 3000;
    config.d = 12;
    config.num_clusters = 5;
    config.subspace_dim = 5;
    config.seed = 11;
    data_ = proclus::data::GenerateSubspaceDataOrDie(config).points;
    proclus::data::MinMaxNormalize(&data_);
    params_.seed = 5;
    ASSERT_TRUE(core::Cluster(data_, params_, core::ClusterOptions::Cpu(), &cpu_)
                    .ok());
    proclus::simt::Device device(proclus::simt::DeviceProperties::Gtx1660Ti(),
                                 proclus::simt::DeviceOptions{1, false});
    core::ClusterOptions gpu = core::ClusterOptions::Gpu();
    gpu.device = &device;
    ASSERT_TRUE(core::Cluster(data_, params_, gpu, &gpu_).ok());
  }

  // Every check that compares a result with the data or with a reference.
  void ExpectRejectedByAll(const core::ProclusResult& broken) {
    EXPECT_FALSE(CheckResult(data_, params_, broken).empty());
    EXPECT_FALSE(CheckSameClustering(broken, cpu_).empty());
    EXPECT_FALSE(CheckBitIdentical(gpu_, broken).empty());
  }

  proclus::data::Matrix data_;
  core::ProclusParams params_;
  core::ProclusResult cpu_;
  core::ProclusResult gpu_;
};

TEST_F(ChecksTest, CorrectResultsPass) {
  EXPECT_EQ(CheckStructure(data_, params_, gpu_), "");
  EXPECT_EQ(CheckRefinedCost(data_, gpu_), "");
  EXPECT_EQ(CheckRefinedCost(data_, cpu_), "");
  EXPECT_EQ(CheckSameClustering(gpu_, cpu_), "");
  EXPECT_EQ(CheckBitIdentical(gpu_, gpu_), "");
}

TEST_F(ChecksTest, RejectsOnePointMovedToAnotherCluster) {
  core::ProclusResult broken = gpu_;
  const auto it = std::find_if(broken.assignment.begin(),
                               broken.assignment.end(),
                               [](int c) { return c >= 0; });
  ASSERT_NE(it, broken.assignment.end());
  *it = (*it + 1) % params_.k;
  EXPECT_FALSE(CheckStructure(data_, params_, broken).empty());
  EXPECT_FALSE(CheckRefinedCost(data_, broken).empty());
  ExpectRejectedByAll(broken);
}

TEST_F(ChecksTest, RejectsOneSelectedDimensionSwapped) {
  core::ProclusResult broken = gpu_;
  std::vector<int>& dims = broken.dimensions[0];
  // Replace the cluster's first dimension with one it did not select.
  for (int j = 0; j < data_.cols(); ++j) {
    if (std::find(dims.begin(), dims.end(), j) == dims.end()) {
      dims[0] = j;
      break;
    }
  }
  std::sort(dims.begin(), dims.end());
  ASSERT_NE(dims, gpu_.dimensions[0]);
  EXPECT_FALSE(CheckRefinedCost(data_, broken).empty());
  ExpectRejectedByAll(broken);
}

TEST_F(ChecksTest, RejectsACostChangedByOneMillionth) {
  core::ProclusResult refined = gpu_;
  refined.refined_cost *= 1.0 + 1e-6;
  EXPECT_FALSE(CheckRefinedCost(data_, refined).empty());
  ExpectRejectedByAll(refined);
  core::ProclusResult iterative = gpu_;
  iterative.iterative_cost *= 1.0 + 1e-6;
  EXPECT_FALSE(CheckSameClustering(iterative, cpu_).empty());
  EXPECT_FALSE(CheckBitIdentical(gpu_, iterative).empty());
}

TEST_F(ChecksTest, RejectsACacheHitWhoseBytesDiffer) {
  core::ProclusResult hit = gpu_;
  hit.refined_cost = std::nextafter(hit.refined_cost, 1.0);
  EXPECT_FALSE(CheckBitIdentical(gpu_, hit).empty());
  hit = gpu_;
  hit.assignment.back() = hit.assignment.back() == 0 ? 1 : 0;
  EXPECT_FALSE(CheckBitIdentical(gpu_, hit).empty());
}

}  // namespace
}  // namespace perfbench
