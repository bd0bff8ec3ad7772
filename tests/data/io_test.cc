#include "data/io.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "testing/temp_dir.h"

namespace proclus::data {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ProcessTempPath("proclus_io_test");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(IoTest, RoundTripWithLabels) {
  GeneratorConfig config;
  config.n = 200;
  config.d = 5;
  config.num_clusters = 3;
  config.subspace_dim = 2;
  Dataset ds = GenerateSubspaceDataOrDie(config);
  ASSERT_TRUE(WriteCsv(ds, Path("data.csv")).ok());

  Dataset loaded;
  ASSERT_TRUE(ReadCsv(Path("data.csv"), /*label_column=*/true, &loaded).ok());
  EXPECT_EQ(loaded.n(), ds.n());
  EXPECT_EQ(loaded.d(), ds.d());
  EXPECT_EQ(loaded.labels, ds.labels);
  for (int64_t i = 0; i < ds.n(); ++i) {
    for (int64_t j = 0; j < ds.d(); ++j) {
      EXPECT_NEAR(loaded.points(i, j), ds.points(i, j), 1e-3);
    }
  }
}

TEST_F(IoTest, RoundTripWithoutLabels) {
  GeneratorConfig config;
  config.n = 50;
  config.d = 3;
  config.num_clusters = 2;
  config.subspace_dim = 2;
  Dataset ds = GenerateSubspaceDataOrDie(config);
  ASSERT_TRUE(WriteCsv(ds, Path("plain.csv"), /*include_labels=*/false).ok());
  Dataset loaded;
  ASSERT_TRUE(
      ReadCsv(Path("plain.csv"), /*label_column=*/false, &loaded).ok());
  EXPECT_EQ(loaded.n(), 50);
  EXPECT_EQ(loaded.d(), 3);
  EXPECT_TRUE(loaded.labels.empty());
}

TEST_F(IoTest, ReadMissingFileFails) {
  Dataset out;
  const Status st = ReadCsv(Path("missing.csv"), false, &out);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST_F(IoTest, ReadEmptyFileFails) {
  std::ofstream(Path("empty.csv")).close();
  Dataset out;
  EXPECT_FALSE(ReadCsv(Path("empty.csv"), false, &out).ok());
}

TEST_F(IoTest, InconsistentColumnsFail) {
  std::ofstream f(Path("ragged.csv"));
  f << "1,2,3\n1,2\n";
  f.close();
  Dataset out;
  const Status st = ReadCsv(Path("ragged.csv"), false, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 2"), std::string::npos);
}

TEST_F(IoTest, UnparsableCellFails) {
  std::ofstream f(Path("bad.csv"));
  f << "1,abc,3\n";
  f.close();
  Dataset out;
  EXPECT_FALSE(ReadCsv(Path("bad.csv"), false, &out).ok());
}

TEST_F(IoTest, SkipsBlankLines) {
  std::ofstream f(Path("blank.csv"));
  f << "1,2\n\n3,4\n";
  f.close();
  Dataset out;
  ASSERT_TRUE(ReadCsv(Path("blank.csv"), false, &out).ok());
  EXPECT_EQ(out.n(), 2);
}

TEST_F(IoTest, NegativeLabelsSurvive) {
  std::ofstream f(Path("noise.csv"));
  f << "1.0,2.0,-1\n3.0,4.0,0\n";
  f.close();
  Dataset out;
  ASSERT_TRUE(ReadCsv(Path("noise.csv"), true, &out).ok());
  EXPECT_EQ(out.labels[0], -1);
  EXPECT_EQ(out.labels[1], 0);
  EXPECT_EQ(out.d(), 2);
}

TEST_F(IoTest, WriteToUnwritablePathFails) {
  GeneratorConfig config;
  config.n = 10;
  config.d = 2;
  config.num_clusters = 1;
  config.subspace_dim = 1;
  Dataset ds = GenerateSubspaceDataOrDie(config);
  EXPECT_FALSE(WriteCsv(ds, "/nonexistent_dir/x.csv").ok());
}

}  // namespace
}  // namespace proclus::data
