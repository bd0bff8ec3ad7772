#include "core/serialization.h"

#include <filesystem>
#include <sstream>

#include <gtest/gtest.h>

#include "core/api.h"
#include "data/generator.h"
#include "data/normalize.h"
#include "testing/must_cluster.h"
#include "testing/temp_dir.h"

namespace proclus::core {
namespace {

ProclusResult SampleResult() {
  data::GeneratorConfig config;
  config.n = 400;
  config.d = 6;
  config.num_clusters = 3;
  config.subspace_dim = 3;
  config.seed = 77;
  data::Dataset ds = data::GenerateSubspaceDataOrDie(config);
  data::MinMaxNormalize(&ds.points);
  ProclusParams params;
  params.k = 3;
  params.l = 3;
  params.a = 20.0;
  params.b = 5.0;
  return MustCluster(ds.points, params);
}

TEST(SerializationTest, RoundTripThroughStream) {
  const ProclusResult original = SampleResult();
  std::stringstream stream;
  ASSERT_TRUE(WriteResult(original, stream).ok());
  ProclusResult loaded;
  ASSERT_TRUE(ReadResult(stream, &loaded).ok());
  EXPECT_EQ(loaded.medoids, original.medoids);
  EXPECT_EQ(loaded.dimensions, original.dimensions);
  EXPECT_EQ(loaded.assignment, original.assignment);
  EXPECT_DOUBLE_EQ(loaded.iterative_cost, original.iterative_cost);
  EXPECT_DOUBLE_EQ(loaded.refined_cost, original.refined_cost);
}

TEST(SerializationTest, RoundTripThroughFile) {
  const auto dir = ProcessTempPath("proclus_serial_test");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "result.txt").string();
  const ProclusResult original = SampleResult();
  ASSERT_TRUE(WriteResultToFile(original, path).ok());
  ProclusResult loaded;
  ASSERT_TRUE(ReadResultFromFile(path, &loaded).ok());
  EXPECT_EQ(loaded.assignment, original.assignment);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(SerializationTest, OutliersSurviveRoundTrip) {
  ProclusResult result;
  result.medoids = {10, 20};
  result.dimensions = {{0, 1}, {2, 3}};
  result.assignment = {0, kOutlier, 1, kOutlier, 0};
  result.iterative_cost = 0.5;
  result.refined_cost = 0.25;
  std::stringstream stream;
  ASSERT_TRUE(WriteResult(result, stream).ok());
  ProclusResult loaded;
  ASSERT_TRUE(ReadResult(stream, &loaded).ok());
  EXPECT_EQ(loaded.assignment, result.assignment);
  EXPECT_EQ(loaded.NumOutliers(), 2);
}

TEST(SerializationTest, MissingHeaderRejected) {
  std::stringstream stream("not a result\n");
  ProclusResult loaded;
  EXPECT_FALSE(ReadResult(stream, &loaded).ok());
}

TEST(SerializationTest, TruncatedInputRejected) {
  const ProclusResult original = SampleResult();
  std::stringstream stream;
  ASSERT_TRUE(WriteResult(original, stream).ok());
  const std::string full = stream.str();
  // Chop the serialized text at several points; every prefix must fail
  // cleanly (property-style truncation sweep).
  for (const double fraction : {0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    std::stringstream cut(full.substr(
        0, static_cast<size_t>(fraction * full.size())));
    ProclusResult loaded;
    EXPECT_FALSE(ReadResult(cut, &loaded).ok()) << fraction;
  }
}

TEST(SerializationTest, OutOfRangeAssignmentRejected) {
  std::stringstream stream(
      "proclus-result v1\nk 2\nn 3\nmedoids 1 2\ndims 0 0 1\ndims 1 2 3\n"
      "iterative_cost 1\nrefined_cost 1\nassignment 0 5 1\n");
  ProclusResult loaded;
  EXPECT_FALSE(ReadResult(stream, &loaded).ok());
}

TEST(SerializationTest, MissingFileRejected) {
  ProclusResult loaded;
  EXPECT_FALSE(ReadResultFromFile("/nonexistent/result.txt", &loaded).ok());
  std::stringstream stream;
  EXPECT_FALSE(ReadResult(stream, nullptr).ok());
}

TEST(SerializationTest, CostsKeepFullPrecision) {
  ProclusResult result;
  result.medoids = {0};
  result.dimensions = {{0, 1}};
  result.assignment = {0};
  result.iterative_cost = 0.12345678901234567;
  result.refined_cost = 1e-17;
  std::stringstream stream;
  ASSERT_TRUE(WriteResult(result, stream).ok());
  ProclusResult loaded;
  ASSERT_TRUE(ReadResult(stream, &loaded).ok());
  EXPECT_DOUBLE_EQ(loaded.iterative_cost, result.iterative_cost);
  EXPECT_DOUBLE_EQ(loaded.refined_cost, result.refined_cost);
}

}  // namespace
}  // namespace proclus::core
