#include "store/dataset_store.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/matrix.h"
#include "obs/metrics.h"
#include "store/pds_format.h"
#include "testing/temp_dir.h"

namespace proclus::store {
namespace {

class DatasetStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ProcessTempPath("proclus_store_test");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  // One dataset = 100 x 2 floats = 800 payload bytes.
  static data::Matrix MakeMatrix(float fill, int64_t rows = 100,
                                 int64_t cols = 2) {
    data::Matrix m(rows, cols);
    for (int64_t i = 0; i < m.size(); ++i) {
      m.data()[i] = fill + static_cast<float>(i) * 0.25f;
    }
    return m;
  }

  StoreOptions DiskOptions(int64_t budget_bytes) {
    StoreOptions options;
    options.dir = dir_.string();
    options.resident_budget_bytes = budget_bytes;
    return options;
  }

  std::filesystem::path dir_;
};

TEST_F(DatasetStoreTest, PutAcquireRoundTrip) {
  DatasetStore store(StoreOptions{});
  const data::Matrix original = MakeMatrix(1.0f);
  uint64_t hash = 0;
  ASSERT_TRUE(store.Put("a", original, &hash).ok());
  EXPECT_NE(hash, 0u);
  EXPECT_TRUE(store.Contains("a"));
  EXPECT_FALSE(store.Contains("b"));

  PinnedDataset pin;
  ASSERT_TRUE(store.Acquire("a", &pin).ok());
  ASSERT_TRUE(pin.valid());
  EXPECT_TRUE(*pin.get() == original);
  EXPECT_EQ(store.stats().hits, 1);
  EXPECT_EQ(store.stats().misses, 0);
  EXPECT_EQ(store.stats().resident_bytes, 800);
}

TEST_F(DatasetStoreTest, RejectsBadArguments) {
  DatasetStore store(StoreOptions{});
  EXPECT_FALSE(store.Put("", MakeMatrix(1.0f)).ok());
  EXPECT_FALSE(store.Put("a", data::Matrix()).ok());
  PinnedDataset pin;
  EXPECT_EQ(store.Acquire("nope", &pin).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Evict("nope").code(), StatusCode::kInvalidArgument);
}

TEST_F(DatasetStoreTest, IdenticalContentIsDeduplicated) {
  DatasetStore store(DiskOptions(0));
  uint64_t hash_a = 0;
  uint64_t hash_b = 0;
  ASSERT_TRUE(store.Put("a", MakeMatrix(3.0f), &hash_a).ok());
  ASSERT_TRUE(store.Put("b", MakeMatrix(3.0f), &hash_b).ok());
  EXPECT_EQ(hash_a, hash_b);
  EXPECT_EQ(store.stats().dedup_hits, 1);
  EXPECT_EQ(store.stats().datasets, 2);
  // Different content hashes differently.
  uint64_t hash_c = 0;
  ASSERT_TRUE(store.Put("c", MakeMatrix(4.0f), &hash_c).ok());
  EXPECT_NE(hash_c, hash_a);
}

TEST_F(DatasetStoreTest, BudgetSpillsLruAndReloadsBitIdentical) {
  // Budget fits exactly one 800-byte dataset.
  DatasetStore store(DiskOptions(1000));
  const data::Matrix a = MakeMatrix(1.0f);
  const data::Matrix b = MakeMatrix(2.0f);
  ASSERT_TRUE(store.Put("a", a).ok());
  ASSERT_TRUE(store.Put("b", b).ok());  // pushes "a" out
  EXPECT_EQ(store.stats().evictions, 1);
  EXPECT_EQ(store.stats().spills, 1);
  EXPECT_LE(store.stats().resident_bytes, 1000);

  // "a" reloads transparently from its spill file, bit-identical.
  PinnedDataset pin;
  ASSERT_TRUE(store.Acquire("a", &pin).ok());
  EXPECT_TRUE(*pin.get() == a);
  EXPECT_EQ(store.stats().misses, 1);
  // While "a" is pinned, reloading it evicted "b" instead.
  pin.Release();
  PinnedDataset pin_b;
  ASSERT_TRUE(store.Acquire("b", &pin_b).ok());
  EXPECT_TRUE(*pin_b.get() == b);
}

TEST_F(DatasetStoreTest, CreatesMissingStoreDirOnConstruction) {
  StoreOptions options;
  options.dir = (dir_ / "nested" / "spill").string();
  options.resident_budget_bytes = 1000;
  DatasetStore store(options);
  ASSERT_TRUE(store.Put("a", MakeMatrix(1.0f)).ok());
  ASSERT_TRUE(store.Put("b", MakeMatrix(2.0f)).ok());  // spills "a"
  EXPECT_EQ(store.stats().spills, 1);
  EXPECT_FALSE(std::filesystem::is_empty(options.dir));
}

TEST_F(DatasetStoreTest, PinnedEntriesAreNeverEvicted) {
  DatasetStore store(DiskOptions(1000));
  const data::Matrix a = MakeMatrix(1.0f);
  ASSERT_TRUE(store.Put("a", a).ok());
  PinnedDataset pin;
  ASSERT_TRUE(store.Acquire("a", &pin).ok());
  const float* payload = pin.get()->data();

  // Both inserts overflow the budget, but "a" is pinned: the store
  // overshoots rather than evicting it.
  ASSERT_TRUE(store.Put("b", MakeMatrix(2.0f)).ok());
  ASSERT_TRUE(store.Put("c", MakeMatrix(3.0f)).ok());
  EXPECT_TRUE(*pin.get() == a);
  EXPECT_EQ(pin.get()->data(), payload);
  for (const DatasetInfo& info : store.List()) {
    if (info.id == "a") {
      EXPECT_TRUE(info.resident);
      EXPECT_TRUE(info.pinned);
    }
  }
  // Releasing the pin lets the budget catch up on the next enforcement.
  pin.Release();
  ASSERT_TRUE(store.Put("d", MakeMatrix(4.0f)).ok());
  EXPECT_LE(store.stats().resident_bytes, 1600);
}

TEST_F(DatasetStoreTest, EvictRefusesPinnedEntries) {
  DatasetStore store(DiskOptions(0));
  ASSERT_TRUE(store.Put("a", MakeMatrix(1.0f)).ok());
  PinnedDataset pin;
  ASSERT_TRUE(store.Acquire("a", &pin).ok());
  const Status evict = store.Evict("a");
  EXPECT_EQ(evict.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(evict.message().find("pinned"), std::string::npos);
  pin.Release();
  EXPECT_TRUE(store.Evict("a").ok());
  EXPECT_FALSE(store.Contains("a"));
  // The content file went with the last reference to the content.
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(DatasetStoreTest, EvictKeepsFilesSharedByAnotherId) {
  DatasetStore store(DiskOptions(800));
  ASSERT_TRUE(store.Put("a", MakeMatrix(1.0f)).ok());
  ASSERT_TRUE(store.Put("b", MakeMatrix(1.0f)).ok());  // same content
  ASSERT_TRUE(store.Evict("a").ok());
  // "b" still resolves, whether resident or via the shared spill file.
  PinnedDataset pin;
  ASSERT_TRUE(store.Acquire("b", &pin).ok());
  EXPECT_TRUE(*pin.get() == MakeMatrix(1.0f));
}

TEST_F(DatasetStoreTest, ReplacedEntrySurvivesUnderOldPins) {
  DatasetStore store(StoreOptions{});
  const data::Matrix v1 = MakeMatrix(1.0f);
  const data::Matrix v2 = MakeMatrix(2.0f);
  ASSERT_TRUE(store.Put("a", v1).ok());
  PinnedDataset pin;
  ASSERT_TRUE(store.Acquire("a", &pin).ok());
  ASSERT_TRUE(store.Put("a", v2).ok());
  // The old pin still reads the old payload; new acquires see the new one.
  EXPECT_TRUE(*pin.get() == v1);
  PinnedDataset fresh;
  ASSERT_TRUE(store.Acquire("a", &fresh).ok());
  EXPECT_TRUE(*fresh.get() == v2);
}

TEST_F(DatasetStoreTest, MemoryOnlyModeNeverEvicts) {
  StoreOptions options;  // no dir
  options.resident_budget_bytes = 1000;
  DatasetStore store(options);
  ASSERT_TRUE(store.Put("a", MakeMatrix(1.0f)).ok());
  ASSERT_TRUE(store.Put("b", MakeMatrix(2.0f)).ok());
  EXPECT_EQ(store.stats().evictions, 0);
  EXPECT_EQ(store.stats().resident_bytes, 1600);
  PinnedDataset pin;
  ASSERT_TRUE(store.Acquire("a", &pin).ok());
  EXPECT_TRUE(*pin.get() == MakeMatrix(1.0f));
}

TEST_F(DatasetStoreTest, CorruptedSpillFileIsRejectedOnReload) {
  DatasetStore store(DiskOptions(1000));
  ASSERT_TRUE(store.Put("a", MakeMatrix(1.0f)).ok());
  ASSERT_TRUE(store.Put("b", MakeMatrix(2.0f)).ok());  // spills "a"

  // Corrupt the single spilled payload on disk.
  int corrupted = 0;
  for (const auto& file : std::filesystem::directory_iterator(dir_)) {
    std::fstream f(file.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(kPdsHeaderBytes) + 3);
    f.put(static_cast<char>(0x55));
    ++corrupted;
  }
  ASSERT_EQ(corrupted, 1);

  PinnedDataset pin;
  const Status reload = store.Acquire("a", &pin);
  EXPECT_EQ(reload.code(), StatusCode::kIoError);
  EXPECT_NE(reload.message().find("checksum mismatch"), std::string::npos);
}

TEST_F(DatasetStoreTest, ChunkedUploadHappyPath) {
  DatasetStore store(StoreOptions{});
  const data::Matrix original = MakeMatrix(7.0f);
  const auto* bytes = reinterpret_cast<const char*>(original.data());
  const int64_t total = original.size() * 4;

  std::shared_ptr<UploadSession> session;
  ASSERT_TRUE(store.UploadBegin("up", 100, 2, &session).ok());
  EXPECT_EQ(session->total_bytes(), total);
  const int64_t chunk = 256;
  for (int64_t offset = 0; offset < total; offset += chunk) {
    const int64_t len = std::min(chunk, total - offset);
    ASSERT_TRUE(store.UploadChunk(session, offset, bytes + offset, len).ok());
  }
  uint64_t hash = 0;
  bool deduped = true;
  ASSERT_TRUE(store
                  .UploadCommit(session, Crc32(bytes, total), &hash, &deduped)
                  .ok());
  EXPECT_NE(hash, 0u);
  EXPECT_FALSE(deduped);
  EXPECT_EQ(store.stats().upload_bytes_total, total);

  PinnedDataset pin;
  ASSERT_TRUE(store.Acquire("up", &pin).ok());
  EXPECT_TRUE(*pin.get() == original);

  // Re-uploading identical content under another id deduplicates.
  std::shared_ptr<UploadSession> again;
  ASSERT_TRUE(store.UploadBegin("up2", 100, 2, &again).ok());
  ASSERT_TRUE(store.UploadChunk(again, 0, bytes, total).ok());
  ASSERT_TRUE(store
                  .UploadCommit(again, Crc32(bytes, total), &hash, &deduped)
                  .ok());
  EXPECT_TRUE(deduped);
  EXPECT_EQ(store.stats().dedup_hits, 1);
}

TEST_F(DatasetStoreTest, UploadRejectsProtocolViolations) {
  DatasetStore store(StoreOptions{});
  std::shared_ptr<UploadSession> session;
  EXPECT_FALSE(store.UploadBegin("", 4, 4, &session).ok());
  EXPECT_FALSE(store.UploadBegin("x", 0, 4, &session).ok());
  EXPECT_FALSE(store.UploadBegin("x", 4, -1, &session).ok());

  ASSERT_TRUE(store.UploadBegin("x", 4, 4, &session).ok());
  std::vector<char> buffer(64, 'a');
  // Not a whole number of float32 values.
  EXPECT_FALSE(store.UploadChunk(session, 0, buffer.data(), 6).ok());
  // Out-of-order offset (nothing received yet).
  const Status gap = store.UploadChunk(session, 8, buffer.data(), 8);
  EXPECT_EQ(gap.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(gap.message().find("out of order"), std::string::npos);
  // Overrun past the declared shape.
  ASSERT_TRUE(store.UploadChunk(session, 0, buffer.data(), 32).ok());
  EXPECT_FALSE(store.UploadChunk(session, 32, buffer.data(), 64).ok());
  // Premature commit: 32 of 64 bytes received.
  EXPECT_FALSE(store.UploadCommit(session, 0).ok());
}

TEST_F(DatasetStoreTest, UploadChecksumMismatchRejectsCommit) {
  DatasetStore store(StoreOptions{});
  const data::Matrix original = MakeMatrix(9.0f);
  const auto* bytes = reinterpret_cast<const char*>(original.data());
  const int64_t total = original.size() * 4;
  std::shared_ptr<UploadSession> session;
  ASSERT_TRUE(store.UploadBegin("x", 100, 2, &session).ok());
  ASSERT_TRUE(store.UploadChunk(session, 0, bytes, total).ok());
  const Status commit = store.UploadCommit(session, 0xDEADBEEF);
  EXPECT_EQ(commit.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(commit.message().find("checksum mismatch"), std::string::npos);
  EXPECT_FALSE(store.Contains("x"));
}

TEST_F(DatasetStoreTest, UploadAbortDiscardsStaging) {
  DatasetStore store(StoreOptions{});
  std::shared_ptr<UploadSession> session;
  ASSERT_TRUE(store.UploadBegin("x", 4, 4, &session).ok());
  std::vector<char> buffer(64, 'b');
  ASSERT_TRUE(store.UploadChunk(session, 0, buffer.data(), 64).ok());
  store.UploadAbort(session);
  EXPECT_FALSE(store.UploadCommit(session, 0).ok());
  EXPECT_FALSE(store.Contains("x"));
}

TEST_F(DatasetStoreTest, ListIsSortedAndComplete) {
  DatasetStore store(StoreOptions{});
  ASSERT_TRUE(store.Put("zebra", MakeMatrix(1.0f)).ok());
  ASSERT_TRUE(store.Put("apple", MakeMatrix(2.0f, 10, 3)).ok());
  const std::vector<DatasetInfo> list = store.List();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].id, "apple");
  EXPECT_EQ(list[0].rows, 10);
  EXPECT_EQ(list[0].cols, 3);
  EXPECT_EQ(list[0].bytes, 120);
  EXPECT_TRUE(list[0].resident);
  EXPECT_FALSE(list[0].pinned);
  EXPECT_EQ(list[1].id, "zebra");
}

TEST_F(DatasetStoreTest, PublishMetricsExportsCountersAndGauges) {
  DatasetStore store(DiskOptions(1000));
  ASSERT_TRUE(store.Put("a", MakeMatrix(1.0f)).ok());
  ASSERT_TRUE(store.Put("b", MakeMatrix(2.0f)).ok());
  obs::MetricsRegistry registry;
  store.PublishMetrics(&registry);
  EXPECT_EQ(registry.gauge("store.datasets")->value(), 2.0);
  EXPECT_EQ(registry.gauge("store.resident_bytes")->value(),
            static_cast<double>(store.stats().resident_bytes));
  EXPECT_EQ(registry.counter("store.evictions")->value(), 1);
  EXPECT_EQ(registry.counter("store.spills")->value(), 1);
  // Publishing twice must not double-count (counters are set, not re-added).
  store.PublishMetrics(&registry);
  EXPECT_EQ(registry.counter("store.evictions")->value(), 1);
}

}  // namespace
}  // namespace proclus::store
