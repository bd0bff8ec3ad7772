// single-large and sweep-grid: in-process core::Cluster / core::RunMultiParam
// calls, GPU-FAST on a one-worker simt::Device and then CPU-FAST with the
// same seed, round after round.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <utility>
#include <vector>

#include "checks.h"
#include "core/api.h"
#include "core/multi_param.h"
#include "data/generator.h"
#include "data/normalize.h"
#include "ledger.h"
#include "simt/device.h"
#include "workloads.h"

namespace perfbench {

namespace core = proclus::core;
namespace obs = proclus::obs;
namespace simt = proclus::simt;
using proclus::StopWatch;

core::ProclusParams BenchParams(uint64_t seed) {
  core::ProclusParams params;
  params.max_total_iterations = params.itr_pat + 1;
  params.seed = seed;
  return params;
}

proclus::data::Dataset MakeData(int64_t n, int d, int clusters, uint64_t seed,
                                obs::TraceRecorder* trace, Report* report) {
  proclus::data::GeneratorConfig config;
  config.n = n;
  config.d = d;
  config.num_clusters = clusters;
  config.subspace_dim = 5;
  config.seed = seed;
  StopWatch watch;
  obs::TraceSpan generate_span(trace, "bench.generate", "bench");
  proclus::data::Dataset dataset =
      proclus::data::GenerateSubspaceDataOrDie(config);
  generate_span.End();
  report->Add("data.generate_ms", watch.ElapsedMillis(), "ms");
  watch.Restart();
  obs::TraceSpan normalize_span(trace, "bench.normalize", "bench");
  proclus::data::MinMaxNormalize(&dataset.points);
  normalize_span.End();
  report->Add("data.normalize_ms", watch.ElapsedMillis(), "ms");
  return dataset;
}

void WriteTrace(const RunConfig& config, const obs::TraceRecorder& trace,
                Report* report) {
  std::error_code error;
  std::filesystem::create_directories(config.out_dir, error);
  const std::string path = config.out_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + ".trace.json";
  const proclus::Status status = trace.WriteFile(path);
  if (!status.ok()) report->Fail("trace: " + status.ToString());
  std::fprintf(stderr, "trace written to %s\n", path.c_str());
}

OpRun RunOp(const proclus::data::Matrix& data,
            const core::ProclusParams& params, bool sweep, simt::Device* device,
            obs::TraceRecorder* trace, proclus::Status* status) {
  OpRun op;
  op.gpu = device != nullptr;
  op.seed = params.seed;
  core::ClusterOptions options =
      op.gpu ? core::ClusterOptions::Gpu() : core::ClusterOptions::Cpu();
  if (op.gpu) {
    device->ResetArena();
    device->ResetStats();
    options.device = device;
  }
  options.trace = trace;
  StopWatch watch;
  {
    obs::TraceSpan span(trace, op.gpu ? "bench.gpu_op" : "bench.cpu_op",
                        "bench");
    if (sweep) {
      core::MultiParamOptions multi;
      multi.cluster = options;
      core::MultiParamResult out;
      *status = core::RunMultiParam(
          data, params, core::SweepSpec::Grid(params, data.cols()), multi,
          &out);
      op.results = std::move(out.results);
      op.setting_seconds = std::move(out.setting_seconds);
    } else {
      op.results.resize(1);
      *status = core::Cluster(data, params, options, &op.results[0]);
    }
  }
  op.wall_seconds = watch.ElapsedSeconds();
  if (op.gpu && status->ok()) {
    CaptureDevice(*device, &op);
    if (!sweep) op.modeled_seconds = op.results[0].stats.modeled_gpu_seconds;
  }
  return op;
}

std::vector<std::pair<size_t, size_t>> CheckGpuCpuPairs(
    const proclus::data::Matrix& data, const std::vector<OpRun>& ops,
    Report* report) {
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i + 1 < ops.size(); ++i) {
    if (!ops[i].gpu || ops[i + 1].gpu || ops[i].seed != ops[i + 1].seed) {
      continue;
    }
    pairs.push_back({i, i + 1});
    const core::ProclusParams base = BenchParams(ops[i].seed);
    const std::vector<core::ParamSetting> settings =
        ops[i].results.size() == 1
            ? std::vector<core::ParamSetting>{{base.k, base.l}}
            : core::SweepSpec::Grid(base, data.cols()).settings;
    if (ops[i].results.size() != settings.size() ||
        ops[i + 1].results.size() != settings.size()) {
      report->Fail("result count differs from the setting count");
      continue;
    }
    for (size_t s = 0; s < settings.size(); ++s) {
      core::ProclusParams params = base;
      params.k = settings[s].k;
      params.l = settings[s].l;
      const core::ProclusResult& gpu = ops[i].results[s];
      const core::ProclusResult& cpu = ops[i + 1].results[s];
      std::string failure = CheckSameClustering(gpu, cpu);
      if (failure.empty()) failure = CheckResult(data, params, gpu);
      if (failure.empty()) failure = CheckRefinedCost(data, cpu);
      if (!failure.empty()) {
        report->Fail("seed " + std::to_string(ops[i].seed) + " setting " +
                     std::to_string(s) + ": " + failure);
      }
    }
  }
  return pairs;
}

namespace {

// Runs one GPU-FAST then one CPU-FAST operation with `params` on `device`,
// counting both in `report` and keeping the ones that succeeded.
void RunRound(const proclus::data::Matrix& data,
              const core::ProclusParams& params, bool sweep,
              simt::Device* device, obs::TraceRecorder* trace,
              std::vector<OpRun>* ops, Report* report) {
  for (simt::Device* on : {device, static_cast<simt::Device*>(nullptr)}) {
    proclus::Status status;
    OpRun op = RunOp(data, params, sweep, on, trace, &status);
    ++report->attempted;
    if (!status.ok()) {
      ++report->failed;
      std::fprintf(stderr, "operation failed: %s\n", status.ToString().c_str());
      continue;
    }
    ops->push_back(std::move(op));
  }
}

// Runs the workload's fixed operation sequence once and returns its wall
// seconds. Each round is a GPU-FAST operation then a CPU-FAST one with the
// same seed.
double RunPass(const proclus::data::Matrix& data, bool sweep, uint64_t seed,
               int rounds, simt::Device* device, obs::TraceRecorder* trace,
               std::vector<OpRun>* ops, Report* report) {
  StopWatch pass;
  for (int r = 0; r < rounds; ++r) {
    RunRound(data, BenchParams(Mix(seed + r)), sweep, device, trace, ops,
             report);
  }
  return pass.ElapsedSeconds();
}

}  // namespace

void RunInProcess(const RunConfig& config, bool sweep, Report* report) {
  // Rounds scale with --seconds so that the timed phase lasts a little less
  // than that on the reference host (see ../README.md), which leaves room
  // for set-up: a single-large round (one 256k x 15 clustering per backend)
  // takes ~1.0 s, a sweep-grid round (the 9-setting grid per backend on
  // 16k x 15) ~0.47 s.
  const int64_t n = sweep ? 16000 : 256000;
  const int rounds = std::max(
      2, static_cast<int>(std::lround(config.seconds * (sweep ? 1.8 : 0.8))));
  const uint64_t seed = Mix(config.seed ^ (sweep ? 0x5eedULL : 0x1a76eULL));

  obs::TraceRecorder recorder;
  obs::TraceRecorder* trace = config.trace ? &recorder : nullptr;
  const proclus::data::Dataset dataset =
      MakeData(n, 15, 10, Mix(seed), trace, report);
  // One host worker: blocks run in order on the calling thread, so the host
  // time does not follow the number of cores that happen to be free.
  simt::Device device(simt::DeviceProperties::Gtx1660Ti(),
                      simt::DeviceOptions{1, false});
  {
    // Warm-up, part of set-up: one untimed round with a seed outside the
    // timed ones, so that the timed phase starts with the device's arena,
    // the allocator and the code paths already in use.
    std::vector<OpRun> warm;
    Report warm_report;
    RunRound(dataset.points, BenchParams(Mix(seed - 1)), sweep, &device,
             nullptr, &warm, &warm_report);
    if (warm_report.failed > 0) report->Fail("warm-up operation failed");
  }
  report->Add("setup_s", config.since_start->ElapsedSeconds(), "s");
  report->calibration_start_ms = CalibrationMillis();

  std::vector<OpRun> ops;
  if (!config.trace) {
    RunPass(dataset.points, sweep, seed, rounds, &device, nullptr, &ops,
            report);
  } else {
    // The overhead base: the same operations untraced, before the traced
    // pass the per-layer figures come from. Its outputs must match.
    std::vector<OpRun> plain;
    Report plain_report;
    const double plain_wall = RunPass(dataset.points, sweep, seed, rounds,
                                      &device, nullptr, &plain, &plain_report);
    const double wall = RunPass(dataset.points, sweep, seed, rounds, &device,
                                trace, &ops, report);
    report->Add("obs.trace_overhead_ratio", wall / plain_wall, "ratio");
    if (plain.size() != ops.size()) {
      report->Fail("traced and untraced passes completed different counts");
    } else {
      for (size_t i = 0; i < ops.size(); ++i) {
        for (size_t s = 0; s < ops[i].results.size(); ++s) {
          const std::string failure =
              CheckBitIdentical(plain[i].results[s], ops[i].results[s]);
          if (!failure.empty()) report->Fail("traced pass: " + failure);
        }
      }
    }
  }

  const auto pairs = CheckGpuCpuPairs(dataset.points, ops, report);
  if (pairs.size() != static_cast<size_t>(rounds)) {
    report->Fail("not every round produced a GPU/CPU pair");
  }

  std::vector<double> gpu_ms, cpu_ms, round_seconds, modeled_ms;
  for (const OpRun& op : ops) {
    (op.gpu ? gpu_ms : cpu_ms).push_back(op.wall_seconds * 1e3);
    if (op.gpu) modeled_ms.push_back(op.modeled_seconds * 1e3);
  }
  for (const auto& [g, c] : pairs) {
    round_seconds.push_back(ops[g].wall_seconds + ops[c].wall_seconds);
  }
  report->Add("ops_per_s", 2.0 / Percentile(round_seconds, kFastQuantile),
              "1/s");
  report->Add("gpu_op_ms_p10", Percentile(gpu_ms, kFastQuantile), "ms");
  report->Add("cpu_op_ms_p10", Percentile(cpu_ms, kFastQuantile), "ms");
  report->Add("modeled_device_ms", Mean(modeled_ms), "ms");
  if (!config.trace) return;

  AddInProcessLayers(ops, pairs, report);
  if (sweep && !pairs.empty()) {
    // §3.1's saving: Euclidean distances of the warm-start sweep against
    // the same grid with nothing reused (CPU; the counts are the backend's
    // work, equal on both backends). The warm-start sweep shares one
    // backend, whose last setting carries the sweep's total; the kNone
    // settings run on backends of their own and add up.
    const core::ProclusParams params =
        BenchParams(ops[pairs.front().second].seed);
    core::SweepSpec none = core::SweepSpec::Grid(params, dataset.points.cols(),
                                                 core::ReuseLevel::kNone);
    core::MultiParamOptions multi;
    multi.cluster = core::ClusterOptions::Cpu();
    core::MultiParamResult baseline;
    const proclus::Status status =
        core::RunMultiParam(dataset.points, params, none, multi, &baseline);
    if (!status.ok()) report->Fail("kNone sweep: " + status.ToString());
    const double reused = static_cast<double>(
        ops[pairs.front().second].results.back().stats.euclidean_distances);
    double independent = 0.0;
    for (const auto& r : baseline.results) {
      independent += static_cast<double>(r.stats.euclidean_distances);
    }
    report->Add("core.sweep.distance_reuse_ratio",
                independent > 0 ? reused / independent : 0.0, "ratio");
  }
  WriteTrace(config, recorder, report);
}

}  // namespace perfbench
