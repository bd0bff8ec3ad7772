#include "data/real_world.h"

#include <filesystem>

#include <gtest/gtest.h>

#include "data/io.h"
#include "testing/temp_dir.h"

namespace proclus::data {
namespace {

TEST(RealWorldTest, SpecsMatchThePaper) {
  const auto& specs = RealWorldSpecs();
  ASSERT_EQ(specs.size(), 6u);
  RealWorldSpec spec;
  ASSERT_TRUE(FindRealWorldSpec("glass", &spec).ok());
  EXPECT_EQ(spec.n, 214);
  EXPECT_EQ(spec.d, 9);
  ASSERT_TRUE(FindRealWorldSpec("vowel", &spec).ok());
  EXPECT_EQ(spec.n, 990);
  EXPECT_EQ(spec.d, 10);
  ASSERT_TRUE(FindRealWorldSpec("pendigits", &spec).ok());
  EXPECT_EQ(spec.n, 7494);
  EXPECT_EQ(spec.d, 16);
  ASSERT_TRUE(FindRealWorldSpec("sky1x1", &spec).ok());
  EXPECT_EQ(spec.n, 30390);
  EXPECT_EQ(spec.d, 17);
  ASSERT_TRUE(FindRealWorldSpec("sky2x2", &spec).ok());
  EXPECT_EQ(spec.n, 133095);
  ASSERT_TRUE(FindRealWorldSpec("sky5x5", &spec).ok());
  EXPECT_EQ(spec.n, 934073);
}

TEST(RealWorldTest, UnknownNameRejected) {
  RealWorldSpec spec;
  EXPECT_FALSE(FindRealWorldSpec("iris", &spec).ok());
  Dataset ds;
  EXPECT_FALSE(LoadRealWorld("iris", "", 0, &ds).ok());
}

TEST(RealWorldTest, StandInHasSpecShapeAndIsNormalized) {
  Dataset ds;
  ASSERT_TRUE(LoadRealWorld("glass", "", 0, &ds).ok());
  EXPECT_EQ(ds.n(), 214);
  EXPECT_EQ(ds.d(), 9);
  EXPECT_NE(ds.name.find("stand-in"), std::string::npos);
  for (int64_t i = 0; i < ds.n(); ++i) {
    for (int64_t j = 0; j < ds.d(); ++j) {
      EXPECT_GE(ds.points(i, j), 0.0f);
      EXPECT_LE(ds.points(i, j), 1.0f);
    }
  }
}

TEST(RealWorldTest, StandInIsDeterministic) {
  Dataset a;
  Dataset b;
  ASSERT_TRUE(LoadRealWorld("vowel", "", 0, &a).ok());
  ASSERT_TRUE(LoadRealWorld("vowel", "", 0, &b).ok());
  EXPECT_TRUE(a.points == b.points);
}

TEST(RealWorldTest, MaxPointsTruncates) {
  Dataset ds;
  ASSERT_TRUE(LoadRealWorld("pendigits", "", 1000, &ds).ok());
  EXPECT_EQ(ds.n(), 1000);
  EXPECT_EQ(ds.labels.size(), 1000u);
}

TEST(RealWorldTest, DropInCsvIsPreferred) {
  const auto dir = ProcessTempPath("proclus_rw_test");
  std::filesystem::create_directories(dir);
  // A tiny fake "glass.csv": 4 points, 9 features + label.
  Dataset fake;
  fake.points = Matrix(4, 9);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 9; ++j) {
      fake.points(i, j) = static_cast<float>(i * 9 + j);
    }
  }
  fake.labels = {0, 0, 1, 1};
  ASSERT_TRUE(WriteCsv(fake, (dir / "glass.csv").string()).ok());

  Dataset ds;
  ASSERT_TRUE(LoadRealWorld("glass", dir.string(), 0, &ds).ok());
  EXPECT_EQ(ds.n(), 4);   // the CSV, not the 214-point stand-in
  EXPECT_EQ(ds.name, "glass");
  EXPECT_EQ(ds.labels, fake.labels);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace proclus::data
