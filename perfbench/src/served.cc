// served-small: a fresh ProclusService behind a ProclusServer on loopback,
// one closed-loop client connection, and every answer checked against an
// in-process run made after the timed phase.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.h"
#include "core/multi_param.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "service/proclus_service.h"
#include "workloads.h"

namespace perfbench {

namespace core = proclus::core;
namespace net = proclus::net;
namespace obs = proclus::obs;
using proclus::Status;
using proclus::StopWatch;

namespace {

// One connection keeps one job in flight. The pooled devices run their
// blocks on one host thread per hardware thread, so two jobs at once would
// put twice as many threads as there are cores on the host.
constexpr int kConnections = 1;

// Pins the calling thread, and every thread it starts from then on, to the
// CPU it is running on. Server, workers, device threads and client then
// take turns on one core instead of waking idle ones for every hand-off,
// whose cost follows the load of the machine (see ../README.md).
bool PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}
constexpr char kDatasetId[] = "bench";

enum class Kind { kGpuSingle, kCpuSingle, kGpuSweep };

struct Planned {
  Kind kind = Kind::kGpuSingle;
  net::Request request;
  // Index in the connection's plan of the request this one repeats, or -1
  // for a fresh request.
  int repeat_of = -1;
  // The plan's cycles of four blocks, each with the same mix of requests.
  int cycle = 0;
};

struct Answered {
  Status transport;
  net::Response response;
  double latency_seconds = 0.0;
};

net::Request MakeRequest(Kind kind, uint64_t seed, int64_t dims) {
  net::Request request;
  request.type = kind == Kind::kGpuSweep ? net::RequestType::kSubmitSweep
                                         : net::RequestType::kSubmitSingle;
  request.dataset_id = kDatasetId;
  request.params = BenchParams(seed);
  request.options = kind == Kind::kCpuSingle ? core::ClusterOptions::Cpu()
                                             : core::ClusterOptions::Gpu();
  request.wait = true;
  if (kind == Kind::kGpuSweep) {
    request.sweep = core::SweepSpec::Grid(request.params, dims);
  }
  return request;
}

// A connection's fixed request sequence. Each block is GPU, CPU, GPU,
// repeat, CPU, GPU, repeat, with a GPU sweep after every fourth block. A
// repeat re-sends an earlier fresh request of the same connection, which
// has been answered by then (the loop is closed), so it is a cache hit and
// never joins a job in flight. Fresh seeds differ across connections.
std::vector<Planned> MakePlan(uint64_t seed, int connection, int blocks,
                              int64_t dims) {
  static const char kBlock[] = "GCGRCGR";
  std::vector<Planned> plan;
  std::vector<int> fresh;
  // Seeds stay below 2^53, so the JSON codec carries them exactly.
  const uint64_t base = (Mix(seed) >> 20) + 1000000ULL * connection;
  uint64_t draw = Mix(seed ^ (0xc0ULL + connection));
  for (int b = 0; b < blocks; ++b) {
    std::string block = kBlock;
    if (b % 4 == 3) block += 'S';
    for (const char c : block) {
      Planned planned;
      planned.cycle = b / 4;
      if (c == 'R') {
        draw = Mix(draw);
        planned.repeat_of = fresh[draw % fresh.size()];
        planned.kind = plan[planned.repeat_of].kind;
        planned.request = plan[planned.repeat_of].request;
      } else {
        planned.kind = c == 'G'   ? Kind::kGpuSingle
                       : c == 'C' ? Kind::kCpuSingle
                                  : Kind::kGpuSweep;
        planned.request = MakeRequest(planned.kind, base + plan.size(), dims);
        fresh.push_back(static_cast<int>(plan.size()));
      }
      plan.push_back(std::move(planned));
    }
  }
  return plan;
}

struct Pass {
  double wall_seconds = 0.0;
  double upload_seconds = 0.0;
  // Process age when the pass's server was ready to take requests.
  double setup_done_seconds = 0.0;
  net::WireHealth health;
  std::vector<std::vector<Answered>> answers;
};

// Starts a fresh service and server, uploads the dataset, runs every
// connection's plan to its end, and stops both. Returns false when the
// setup failed (reported in `report`).
bool RunServedPass(const proclus::data::Matrix& data,
                   const std::vector<net::Request>& warmups,
                   const std::vector<std::vector<Planned>>& plans,
                   obs::TraceRecorder* trace, const RunConfig& config,
                   Pass* pass, Report* report) {
  proclus::service::ServiceOptions options;
  options.num_workers = 2;
  options.gpu_devices = 2;
  options.prewarm_devices = true;
  options.sanitize_devices = false;
  options.result_cache_bytes = int64_t{256} << 20;
  options.trace = trace;
  auto service = std::make_unique<proclus::service::ProclusService>(options);
  auto server = std::make_unique<net::ProclusServer>(service.get());
  Status status = server->Start();
  net::ProclusClient control;
  if (status.ok()) status = control.Connect(server->host(), server->port());
  StopWatch upload;
  if (status.ok()) {
    obs::TraceSpan span(trace, "bench.upload", "bench");
    status = control.UploadDataset(kDatasetId, data, /*chunk_bytes=*/64 << 10);
  }
  pass->upload_seconds = upload.ElapsedSeconds();
  std::vector<net::ProclusClient> clients(kConnections);
  for (auto& client : clients) {
    if (status.ok()) status = client.Connect(server->host(), server->port());
  }
  // Warm-up, part of set-up: requests outside the plan, so that the timed
  // phase starts with warm devices, workers and connections.
  for (const net::Request& request : warmups) {
    net::Response response;
    if (status.ok()) status = clients[0].Call(request, &response);
    if (status.ok() && !response.ok) {
      status = Status::Internal("warm-up: " + response.error.message);
    }
  }
  if (!status.ok()) {
    report->Fail("served setup: " + status.ToString());
    return false;
  }
  pass->setup_done_seconds = config.since_start->ElapsedSeconds();
  report->calibration_start_ms = CalibrationMillis();

  pass->answers.assign(kConnections, {});
  StopWatch wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      for (const Planned& planned : plans[c]) {
        Answered answered;
        StopWatch latency;
        obs::TraceSpan span(trace, "bench.request", "bench");
        answered.transport =
            clients[c].Call(planned.request, &answered.response);
        span.End();
        answered.latency_seconds = latency.ElapsedSeconds();
        pass->answers[c].push_back(std::move(answered));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  pass->wall_seconds = wall.ElapsedSeconds();

  status = control.FetchHealth(&pass->health);
  if (!status.ok()) report->Fail("health: " + status.ToString());
  for (auto& client : clients) client.Close();
  control.Close();
  server->Stop();
  server.reset();
  service.reset();
  return true;
}

}  // namespace

void RunServed(const RunConfig& config, Report* report) {
  if (!PinToCurrentCpu()) {
    std::fprintf(stderr, "could not pin to one CPU; latencies will be noisier\n");
  }
  const uint64_t seed = Mix(config.seed ^ 0x5e7edULL);
  obs::TraceRecorder recorder;
  obs::TraceRecorder* trace = config.trace ? &recorder : nullptr;
  const proclus::data::Dataset dataset =
      MakeData(4000, 12, 5, Mix(seed), trace, report);
  const proclus::data::Matrix& data = dataset.points;

  // A block takes ~0.06 s served and ~0.1 s to replay, so a run lasts a
  // little less than --seconds, 40% of it timed. Whole cycles of four blocks.
  const int blocks = 4 * std::max(1, config.seconds * 3 / 2);
  std::vector<std::vector<Planned>> plans;
  for (int c = 0; c < kConnections; ++c) {
    plans.push_back(MakePlan(seed, c, blocks, data.cols()));
  }
  // Warm-up seeds come from the range of a connection that does not exist.
  const uint64_t warm_seed = (Mix(seed) >> 20) + 1000000ULL * kConnections;
  const std::vector<net::Request> warmups = {
      MakeRequest(Kind::kGpuSingle, warm_seed, data.cols()),
      MakeRequest(Kind::kCpuSingle, warm_seed + 1, data.cols()),
      MakeRequest(Kind::kGpuSweep, warm_seed + 2, data.cols())};

  Pass pass;
  if (config.trace) {
    Pass plain;
    Report plain_report;
    if (!RunServedPass(data, warmups, plans, nullptr, config, &plain,
                       &plain_report) ||
        !RunServedPass(data, warmups, plans, trace, config, &pass, report)) {
      report->Fail("served pass did not start");
      return;
    }
    report->Add("obs.trace_overhead_ratio",
                pass.wall_seconds / plain.wall_seconds, "ratio");
    for (int c = 0; c < kConnections; ++c) {
      for (size_t i = 0; i < plans[c].size(); ++i) {
        const net::Response& a = plain.answers[c][i].response;
        const net::Response& b = pass.answers[c][i].response;
        for (size_t s = 0; s < a.result.results.size() &&
                           s < b.result.results.size();
             ++s) {
          const std::string failure =
              CheckBitIdentical(a.result.results[s], b.result.results[s]);
          if (!failure.empty()) report->Fail("traced pass: " + failure);
        }
      }
    }
    report->Add("setup_s", plain.setup_done_seconds, "s");
  } else {
    if (!RunServedPass(data, warmups, plans, nullptr, config, &pass, report)) {
      return;
    }
    report->Add("setup_s", pass.setup_done_seconds, "s");
  }

  // --- Timed-phase figures ---------------------------------------------------
  std::vector<double> gpu_ms, cpu_ms, modeled_ms, all_ms, hit_ms, sweep_ms;
  std::vector<double> queue_ms, exec_ms, overhead_ms, shards;
  // Per connection and cycle: its requests back to back, as the closed loop
  // ran them.
  std::vector<double> cycle_seconds;
  int64_t gpu_jobs = 0, warm_jobs = 0, repeats = 0;
  for (int c = 0; c < kConnections; ++c) {
    const size_t first_cycle = cycle_seconds.size();
    cycle_seconds.resize(first_cycle + plans[c].back().cycle + 1, 0.0);
    for (size_t i = 0; i < plans[c].size(); ++i) {
      const Planned& planned = plans[c][i];
      const Answered& answered = pass.answers[c][i];
      const net::WireJobResult& result = answered.response.result;
      const double latency_ms = answered.latency_seconds * 1e3;
      cycle_seconds[first_cycle + planned.cycle] += answered.latency_seconds;
      ++report->attempted;
      if (!answered.transport.ok() || !answered.response.ok ||
          !answered.response.has_result) {
        ++report->failed;
        std::fprintf(stderr, "request failed: %s %s\n",
                     answered.transport.ToString().c_str(),
                     answered.response.error.message.c_str());
        continue;
      }
      all_ms.push_back(latency_ms);
      if (planned.repeat_of >= 0) {
        ++repeats;
        hit_ms.push_back(latency_ms);
        continue;
      }
      queue_ms.push_back(result.queue_seconds * 1e3);
      exec_ms.push_back(result.exec_seconds * 1e3);
      overhead_ms.push_back(
          latency_ms - (result.queue_seconds + result.exec_seconds) * 1e3);
      if (planned.kind != Kind::kCpuSingle) {
        ++gpu_jobs;
        warm_jobs += result.warm_device ? 1 : 0;
      }
      switch (planned.kind) {
        case Kind::kGpuSingle:
          gpu_ms.push_back(latency_ms);
          modeled_ms.push_back(result.modeled_gpu_seconds * 1e3);
          break;
        case Kind::kCpuSingle:
          cpu_ms.push_back(latency_ms);
          break;
        case Kind::kGpuSweep:
          sweep_ms.push_back(latency_ms);
          shards.push_back(result.sweep_shards);
          break;
      }
    }
  }
  const double requests_per_cycle =
      static_cast<double>(report->attempted) / cycle_seconds.size();
  report->Add("ops_per_s",
              requests_per_cycle * kConnections /
                  Percentile(cycle_seconds, kFastQuantile),
              "1/s");
  report->Add("gpu_op_ms_p10", Percentile(gpu_ms, kFastQuantile), "ms");
  report->Add("cpu_op_ms_p10", Percentile(cpu_ms, kFastQuantile), "ms");
  report->Add("modeled_device_ms", Mean(modeled_ms), "ms");

  // --- Checks, outside the timed phase ----------------------------------------
  // Cache hits two ways: the repeats sent, and the server's own count.
  if (pass.health.cache_hits != repeats) {
    report->Fail("server counted " + std::to_string(pass.health.cache_hits) +
                 " cache hits for " + std::to_string(repeats) + " repeats");
  }
  std::vector<OpRun> replays;
  proclus::simt::Device device(proclus::simt::DeviceProperties::Gtx1660Ti(),
                               proclus::simt::DeviceOptions{1, false});
  for (int c = 0; c < kConnections; ++c) {
    for (size_t i = 0; i < plans[c].size(); ++i) {
      const Planned& planned = plans[c][i];
      const Answered& answered = pass.answers[c][i];
      if (!answered.transport.ok() || !answered.response.has_result) continue;
      const net::WireJobResult& got = answered.response.result;
      const std::string where = "connection " + std::to_string(c) +
                                " request " + std::to_string(i) + ": ";
      if (got.cache_hit != (planned.repeat_of >= 0)) {
        report->Fail(where + "cache_hit flag does not match the plan");
        continue;
      }
      if (planned.repeat_of >= 0) {
        const auto& first =
            pass.answers[c][planned.repeat_of].response.result.results;
        if (first.size() != got.results.size()) {
          report->Fail(where + "cache hit has another result count");
          continue;
        }
        for (size_t s = 0; s < first.size(); ++s) {
          const std::string failure = CheckBitIdentical(first[s], got.results[s]);
          if (!failure.empty()) report->Fail(where + "cache hit: " + failure);
        }
        continue;
      }
      // Replays: the GPU run (for GPU requests) and the CPU run with the
      // same inputs; the served answer must equal its own backend's replay.
      const bool sweep = planned.kind == Kind::kGpuSweep;
      const bool gpu = planned.kind != Kind::kCpuSingle;
      const size_t first_replay = replays.size();
      Status status;
      replays.push_back(RunOp(data, planned.request.params, sweep,
                              gpu ? &device : nullptr, nullptr, &status));
      if (status.ok() && gpu) {
        replays.push_back(RunOp(data, planned.request.params, sweep, nullptr,
                                nullptr, &status));
      }
      if (!status.ok()) {
        report->Fail(where + "replay: " + status.ToString());
        continue;
      }
      const OpRun& same_backend = replays[first_replay];
      if (same_backend.results.size() != got.results.size()) {
        report->Fail(where + "served and replayed result counts differ");
        continue;
      }
      for (size_t s = 0; s < got.results.size(); ++s) {
        const std::string failure =
            CheckBitIdentical(same_backend.results[s], got.results[s]);
        if (!failure.empty()) report->Fail(where + "vs in-process: " + failure);
      }
      if (planned.kind == Kind::kCpuSingle) {
        const std::string failure =
            CheckResult(data, planned.request.params, got.results[0]);
        if (!failure.empty()) report->Fail(where + failure);
      }
    }
  }
  const auto pairs = CheckGpuCpuPairs(data, replays, report);
  if (!config.trace) return;

  // --- Per-layer figures --------------------------------------------------------
  AddInProcessLayers(replays, pairs, report);
  report->Add("service.queue_ms_p50", Median(queue_ms), "ms");
  report->Add("service.exec_ms_p50", Median(exec_ms), "ms");
  report->Add("service.warm_device_ratio",
              gpu_jobs > 0 ? static_cast<double>(warm_jobs) / gpu_jobs : 0.0,
              "ratio");
  report->Add("service.cache.hits", static_cast<double>(pass.health.cache_hits),
              "count");
  report->Add("service.cache.misses",
              static_cast<double>(pass.health.cache_misses), "count");
  report->Add("service.cache.hit_ms_p50", Median(hit_ms), "ms");
  report->Add("service.sweep_ms_p50", Median(sweep_ms), "ms");
  report->Add("service.sweep_shards_mean", Mean(shards), "count");
  report->Add("store.upload_ms", pass.upload_seconds * 1e3, "ms");
  report->Add("store.upload_mb_per_s",
              static_cast<double>(data.size()) * sizeof(float) / 1e6 /
                  pass.upload_seconds,
              "MB/s");
  report->Add("net.overhead_ms_p50", Median(overhead_ms), "ms");
  report->Add("net.request_ms_p90",
              Percentile(all_ms, TailQuantile(all_ms.size(), 0.9)), "ms");

  // The codec, timed on this run's own messages.
  std::vector<double> request_bytes, response_bytes, encode_us, decode_us;
  for (int c = 0; c < kConnections; ++c) {
    for (size_t i = 0; i < plans[c].size(); ++i) {
      std::string payload;
      StopWatch encode;
      const Status encoded = net::EncodeRequest(plans[c][i].request, &payload);
      encode_us.push_back(encode.ElapsedSeconds() * 1e6);
      if (!encoded.ok()) report->Fail("encode: " + encoded.ToString());
      request_bytes.push_back(static_cast<double>(payload.size()));
      if (!net::EncodeResponse(pass.answers[c][i].response, &payload).ok()) {
        report->Fail("response does not re-encode");
        continue;
      }
      response_bytes.push_back(static_cast<double>(payload.size()));
      net::Response decoded;
      StopWatch decode;
      const Status status = net::DecodeResponse(payload, &decoded);
      decode_us.push_back(decode.ElapsedSeconds() * 1e6);
      if (!status.ok()) report->Fail("decode: " + status.ToString());
    }
  }
  report->Add("net.request_bytes_p50", Median(request_bytes), "bytes");
  report->Add("net.response_bytes_p50", Median(response_bytes), "bytes");
  report->Add("net.encode_us_p50", Median(encode_us), "us");
  report->Add("net.decode_us_p50", Median(decode_us), "us");
  WriteTrace(config, recorder, report);
}

}  // namespace perfbench
