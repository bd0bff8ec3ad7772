// Concurrency stress for the dataset store, meant to run under TSAN (see
// tools/ci.sh): readers pin and verify a hot dataset while uploads push the
// store far past its resident budget, so eviction constantly runs against
// live pins. The invariants: a pinned payload is never freed or recycled
// under a reader, eviction skips pinned entries, and nothing deadlocks.
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/matrix.h"
#include "service/proclus_service.h"
#include "store/dataset_store.h"
#include "store/pds_format.h"
#include "testing/temp_dir.h"

namespace proclus::store {
namespace {

class StoreStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ProcessTempPath("proclus_store_stress");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

data::Matrix MakeMatrix(float fill, int64_t rows = 64, int64_t cols = 4) {
  data::Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = fill + static_cast<float>(i % 17) * 0.5f;
  }
  return m;
}

TEST_F(StoreStressTest, PinnedReadersSurviveUploadPressure) {
  StoreOptions options;
  options.dir = dir_.string();
  // Budget fits two 1024-byte datasets; everything beyond spills.
  options.resident_budget_bytes = 2048;
  DatasetStore store(options);

  const data::Matrix hot = MakeMatrix(1.0f);
  const uint32_t hot_crc = Crc32(hot.data(), hot.size() * 4);
  ASSERT_TRUE(store.Put("hot", hot).ok());

  std::atomic<bool> failed{false};
  std::atomic<int64_t> verified{0};

  // Readers: pin "hot", hold the pin while checksumming the payload (any
  // eviction or reuse of the buffer under the pin is a data race TSAN will
  // flag, and a checksum change a correctness failure), release, repeat.
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&store, &failed, &verified, hot_crc] {
      for (int i = 0; i < 200 && !failed.load(); ++i) {
        PinnedDataset pin;
        const Status acquired = store.Acquire("hot", &pin);
        if (!acquired.ok()) {
          // The evictor may win the gap between its Evict and re-Put; any
          // other failure is a real bug.
          if (acquired.code() != StatusCode::kInvalidArgument) {
            failed.store(true);
            break;
          }
          continue;
        }
        if (!pin.valid()) {
          failed.store(true);
          break;
        }
        const data::Matrix* m = pin.get();
        if (Crc32(m->data(), m->size() * 4) != hot_crc) {
          failed.store(true);
          break;
        }
        verified.fetch_add(1);
      }
    });
  }

  // Uploaders: stream fresh datasets through chunked sessions, blowing the
  // budget over and over so eviction keeps hunting for victims.
  std::vector<std::thread> uploaders;
  for (int t = 0; t < 3; ++t) {
    uploaders.emplace_back([&store, &failed, t] {
      for (int i = 0; i < 60 && !failed.load(); ++i) {
        const std::string id =
            "up_" + std::to_string(t) + "_" + std::to_string(i % 7);
        const data::Matrix m =
            MakeMatrix(static_cast<float>(t * 1000 + i));
        const auto* bytes = reinterpret_cast<const char*>(m.data());
        const int64_t total = m.size() * 4;
        std::shared_ptr<UploadSession> session;
        if (!store.UploadBegin(id, m.rows(), m.cols(), &session).ok()) {
          failed.store(true);
          break;
        }
        const int64_t half = (total / 2) & ~int64_t{3};
        if (!store.UploadChunk(session, 0, bytes, half).ok() ||
            !store.UploadChunk(session, half, bytes + half, total - half)
                 .ok() ||
            !store.UploadCommit(session, Crc32(bytes, total)).ok()) {
          failed.store(true);
          break;
        }
      }
    });
  }

  // Evictor: drops uploaded ids when unpinned; "hot" must always refuse
  // while pinned and never lose data. List/stats churn rides along.
  std::thread evictor([&store, &failed] {
    for (int i = 0; i < 150 && !failed.load(); ++i) {
      store.Evict("up_0_" + std::to_string(i % 7)).ok();  // best-effort
      const Status hot_evict = store.Evict("hot");
      if (hot_evict.ok()) {
        // Legal only if no reader held a pin at that instant — put it back
        // so readers keep finding it.
        if (!store.Put("hot", MakeMatrix(1.0f)).ok()) failed.store(true);
      } else if (hot_evict.code() != StatusCode::kFailedPrecondition) {
        failed.store(true);
      }
      store.List();
      store.stats();
    }
  });

  for (std::thread& t : readers) t.join();
  for (std::thread& t : uploaders) t.join();
  evictor.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(verified.load(), 0);
  const StoreStats stats = store.stats();
  EXPECT_GT(stats.evictions, 0) << "budget pressure never evicted anything";
  EXPECT_GT(stats.upload_bytes_total, 0);
}

// The same contention through the real service: sweep jobs pin their
// dataset for the whole run while uploads through the service's store
// force evictions. Every job must complete, and the pinned dataset's
// payload must never be yanked mid-sweep.
TEST_F(StoreStressTest, ServiceJobsPinThroughBudgetPressure) {
  data::GeneratorConfig config;
  config.n = 300;
  config.d = 8;
  config.num_clusters = 3;
  config.subspace_dim = 3;
  config.seed = 7;
  data::Dataset ds = data::GenerateSubspaceDataOrDie(config);
  const int64_t dataset_bytes = ds.points.size() * 4;

  service::ServiceOptions options;
  options.num_workers = 3;
  options.gpu_devices = 2;
  options.store_dir = dir_.string();
  // The budget fits the hot dataset plus one upload; concurrent uploads
  // must evict each other, never the pinned hot dataset.
  options.store_budget_bytes = dataset_bytes * 2;
  service::ProclusService service(options);
  ASSERT_TRUE(service.RegisterDataset("hot", ds.points).ok());

  core::ProclusParams params;
  params.k = 3;
  params.l = 3;
  params.a = 10.0;
  params.b = 3.0;
  params.seed = 21;

  std::vector<service::JobHandle> handles(8);
  for (auto& handle : handles) {
    service::JobSpec spec;
    spec.kind = service::JobKind::kSweep;
    spec.dataset_id = "hot";
    spec.params = params;
    spec.sweep.settings = {{3, 3}, {4, 4}};
    spec.options = core::ClusterOptions::Gpu();
    ASSERT_TRUE(service.Submit(std::move(spec), &handle).ok());
  }

  std::atomic<bool> failed{false};
  std::thread uploader([&service, &failed] {
    DatasetStore* store = service.dataset_store();
    for (int i = 0; i < 40 && !failed.load(); ++i) {
      if (!store->Put("bulk_" + std::to_string(i % 5),
                      MakeMatrix(static_cast<float>(i), 300, 8))
               .ok()) {
        failed.store(true);
      }
    }
  });

  for (size_t i = 0; i < handles.size(); ++i) {
    const service::JobResult& result = handles[i].Wait();
    EXPECT_TRUE(result.status.ok())
        << "job " << i << ": " << result.status.ToString();
    EXPECT_EQ(result.results.size(), 2u) << "job " << i;
  }
  uploader.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(service.dataset_store()->stats().evictions, 0);
}

}  // namespace
}  // namespace proclus::store
