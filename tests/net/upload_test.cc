// End-to-end tests for the chunked binary data plane (docs/store.md): a
// real server + client over loopback TCP, uploads through
// upload_begin/upload_chunk/upload_commit, and the acceptance claim that a
// store-resolved dataset — fresh upload, post-spill reload, or deduped
// re-upload — clusters bit-identically to inline registration.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "data/generator.h"
#include "data/normalize.h"
#include "net/client.h"
#include "net/loadgen.h"
#include "net/protocol.h"
#include "net/server.h"
#include "service/job.h"
#include "service/proclus_service.h"
#include "store/pds_format.h"
#include "testing/temp_dir.h"

namespace proclus::net {
namespace {

data::Dataset TestData(uint64_t seed = 33) {
  data::GeneratorConfig config;
  config.n = 600;
  config.d = 8;
  config.num_clusters = 4;
  config.subspace_dim = 4;
  config.seed = seed;
  data::Dataset ds = data::GenerateSubspaceDataOrDie(config);
  data::MinMaxNormalize(&ds.points);
  return ds;
}

core::ProclusParams TestParams() {
  core::ProclusParams p;
  p.k = 4;
  p.l = 4;
  p.a = 10.0;
  p.b = 3.0;
  return p;
}

void ExpectSameClustering(const core::ProclusResult& a,
                          const core::ProclusResult& b) {
  EXPECT_EQ(a.medoids, b.medoids);
  EXPECT_EQ(a.dimensions, b.dimensions);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.iterative_cost, b.iterative_cost);
  EXPECT_EQ(a.refined_cost, b.refined_cost);
}

class UploadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ProcessTempPath("proclus_upload_test");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

// Service + started server + connected client, torn down in order.
struct Loopback {
  explicit Loopback(service::ServiceOptions service_options = {},
                    ServerOptions server_options = {}) {
    service = std::make_unique<service::ProclusService>(service_options);
    server = std::make_unique<ProclusServer>(service.get(), server_options);
    Status status = server->Start();
    EXPECT_TRUE(status.ok()) << status.ToString();
    status = client.Connect("127.0.0.1", server->port());
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  std::unique_ptr<service::ProclusService> service;
  std::unique_ptr<ProclusServer> server;
  ProclusClient client;
};

core::ProclusResult RunViaService(service::ProclusService* service,
                                  const std::string& dataset_id) {
  service::JobSpec spec;
  spec.dataset_id = dataset_id;
  spec.params = TestParams();
  spec.options = core::ClusterOptions::Gpu();
  service::JobHandle handle;
  EXPECT_TRUE(service->Submit(std::move(spec), &handle).ok());
  const service::JobResult& result = handle.Wait();
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.results.size(), 1u);
  return result.results[0];
}

TEST_F(UploadTest, StoreResolvedJobsBitIdenticalToInlineRegistration) {
  const data::Dataset ds = TestData();
  const int64_t dataset_bytes = ds.points.size() * 4;

  service::ServiceOptions options;
  options.store_dir = dir_.string();
  // Room for one dataset only: registering anything else spills the LRU.
  options.store_budget_bytes = dataset_bytes + 100;
  Loopback loop(options);

  // Reference: inline registration, in-process submit.
  ASSERT_TRUE(loop.service->RegisterDataset("inline", ds.points).ok());
  const core::ProclusResult reference =
      RunViaService(loop.service.get(), "inline");
  ASSERT_TRUE(loop.client.EvictDataset("inline").ok());

  // Fresh upload: small chunks so several frames cross the wire.
  std::string hash;
  bool deduped = true;
  ASSERT_TRUE(loop.client
                  .UploadDataset("up", ds.points, /*chunk_bytes=*/4096, &hash,
                                 &deduped)
                  .ok());
  EXPECT_EQ(hash.size(), 16u);
  EXPECT_FALSE(deduped);
  ExpectSameClustering(reference, RunViaService(loop.service.get(), "up"));

  // Post-spill reload: another registration pushes "up" out of memory, so
  // the next job transparently reloads it from its .pds spill file.
  ASSERT_TRUE(loop.service->RegisterDataset("pressure",
                                            TestData(77).points)
                  .ok());
  ASSERT_GT(loop.service->dataset_store()->stats().evictions, 0);
  ExpectSameClustering(reference, RunViaService(loop.service.get(), "up"));
  EXPECT_GT(loop.service->dataset_store()->stats().misses, 0);

  // Deduped re-upload under a different id.
  std::string hash2;
  ASSERT_TRUE(loop.client
                  .UploadDataset("up_copy", ds.points, /*chunk_bytes=*/0,
                                 &hash2, &deduped)
                  .ok());
  EXPECT_EQ(hash2, hash);
  EXPECT_TRUE(deduped);
  ExpectSameClustering(reference,
                       RunViaService(loop.service.get(), "up_copy"));
}

TEST_F(UploadTest, ListAndEvictAcrossTheWire) {
  Loopback loop;
  const data::Dataset ds = TestData();
  std::string hash;
  ASSERT_TRUE(
      loop.client.UploadDataset("a", ds.points, 0, &hash, nullptr).ok());

  std::vector<WireDatasetInfo> datasets;
  ASSERT_TRUE(loop.client.ListDatasets(&datasets).ok());
  ASSERT_EQ(datasets.size(), 1u);
  EXPECT_EQ(datasets[0].id, "a");
  EXPECT_EQ(datasets[0].hash, hash);
  EXPECT_EQ(datasets[0].rows, ds.points.rows());
  EXPECT_EQ(datasets[0].cols, ds.points.cols());
  EXPECT_EQ(datasets[0].bytes, ds.points.size() * 4);
  EXPECT_TRUE(datasets[0].resident);
  EXPECT_FALSE(datasets[0].pinned);

  EXPECT_FALSE(loop.client.EvictDataset("missing").ok());
  ASSERT_TRUE(loop.client.EvictDataset("a").ok());
  ASSERT_TRUE(loop.client.ListDatasets(&datasets).ok());
  EXPECT_TRUE(datasets.empty());
}

TEST_F(UploadTest, WireProtocolViolationsAreRejectedCleanly) {
  Loopback loop;

  // Begin a real session.
  Request begin;
  begin.type = RequestType::kUploadBegin;
  begin.dataset_id = "x";
  begin.upload_rows = 16;
  begin.upload_cols = 4;
  Response response;
  ASSERT_TRUE(loop.client.Call(begin, &response).ok());
  ASSERT_TRUE(response.ok);
  const uint64_t session = response.upload_session;
  ASSERT_NE(session, 0u);

  // Unknown session id.
  Request chunk;
  chunk.type = RequestType::kUploadChunk;
  chunk.upload_session = session + 999;
  chunk.upload_offset = 0;
  chunk.chunk_payload.assign(64, 'a');
  ASSERT_TRUE(loop.client.Call(chunk, &response).ok());
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.message.find("unknown upload session"),
            std::string::npos);

  // Out-of-order offset; the connection must stay usable afterwards.
  chunk.upload_session = session;
  chunk.upload_offset = 128;
  ASSERT_TRUE(loop.client.Call(chunk, &response).ok());
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.message.find("out of order"), std::string::npos);

  // Commit with a wrong checksum after a valid chunk.
  chunk.upload_offset = 0;
  chunk.chunk_payload.assign(16 * 4 * 4, 'b');
  ASSERT_TRUE(loop.client.Call(chunk, &response).ok());
  EXPECT_TRUE(response.ok);
  Request commit;
  commit.type = RequestType::kUploadCommit;
  commit.upload_session = session;
  commit.upload_crc32 = 0xBADC0DE5;
  ASSERT_TRUE(loop.client.Call(commit, &response).ok());
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.message.find("checksum mismatch"),
            std::string::npos);

  // The connection survived every rejection.
  std::vector<WireDatasetInfo> datasets;
  EXPECT_TRUE(loop.client.ListDatasets(&datasets).ok());
  EXPECT_TRUE(datasets.empty());
}

TEST_F(UploadTest, HealthCarriesStoreCounters) {
  Loopback loop;
  const data::Dataset ds = TestData();
  ASSERT_TRUE(loop.client.UploadDataset("a", ds.points).ok());

  WireHealth health;
  ASSERT_TRUE(loop.client.FetchHealth(&health).ok());
  EXPECT_EQ(health.store_datasets, 1);
  EXPECT_EQ(health.store_resident_bytes, ds.points.size() * 4);
  EXPECT_EQ(health.store_evictions, 0);
  EXPECT_EQ(health.store_upload_bytes_total, ds.points.size() * 4);
}

TEST_F(UploadTest, LoadgenUploadPathDrivesTheStore) {
  service::ServiceOptions service_options;
  service_options.store_dir = dir_.string();
  Loopback loop(service_options);

  LoadgenOptions options;
  options.port = loop.server->port();
  options.connections = 2;
  options.rps = 40.0;
  options.duration_seconds = 0.5;
  options.upload_dataset = true;
  options.generate.n = 500;
  options.generate.d = 8;
  options.generate.clusters = 3;
  options.params = TestParams();
  LoadgenReport report;
  const Status run = RunLoadgen(options, &report);
  ASSERT_TRUE(run.ok()) << run.ToString();
  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.transport_errors, 0);
  EXPECT_GT(report.completed, 0);

  // The dataset went through the binary ingest, and the store counters made
  // it into the metrics snapshot the loadgen fetched.
  EXPECT_EQ(loop.service->dataset_store()->stats().upload_bytes_total,
            500 * 8 * 4);
  std::ostringstream printed;
  PrintReport(report, printed);
  EXPECT_NE(printed.str().find("store.upload_bytes_total"),
            std::string::npos);
}

TEST_F(UploadTest, DisconnectAbortsOpenSessions) {
  Loopback loop;
  Request begin;
  begin.type = RequestType::kUploadBegin;
  begin.dataset_id = "x";
  begin.upload_rows = 8;
  begin.upload_cols = 4;
  Response response;
  ASSERT_TRUE(loop.client.Call(begin, &response).ok());
  ASSERT_TRUE(response.ok);
  loop.client.Close();

  // A fresh connection sees no dataset: the half-finished session died with
  // its connection instead of leaking staged bytes server-side.
  ProclusClient fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", loop.server->port()).ok());
  std::vector<WireDatasetInfo> datasets;
  ASSERT_TRUE(fresh.ListDatasets(&datasets).ok());
  EXPECT_TRUE(datasets.empty());
}

}  // namespace
}  // namespace proclus::net
