#include "ledger.h"

#include <algorithm>
#include <cmath>

#include "checks.h"

namespace perfbench {
namespace {

const char* const kPhases[] = {"greedy",      "compute_distances",
                               "find_dimensions", "assign_points",
                               "evaluate",    "refine"};

double PhaseSeconds(const proclus::core::PhaseSeconds& p, int phase) {
  const double values[] = {p.greedy,        p.compute_distances,
                           p.find_dimensions, p.assign_points,
                           p.evaluate,      p.refine};
  return values[phase];
}

std::vector<std::pair<std::string, std::string>> BuildPerLayer() {
  std::vector<std::pair<std::string, std::string>> names = {
      {"simt.launches", "count"}};
  for (const std::string& kernel : KernelNames()) {
    names.push_back({"simt.modeled_ms." + kernel, "ms"});
  }
  names.push_back({"simt.modeled_ms.other", "ms"});
  names.insert(names.end(), {{"simt.gbytes", "GB"},
                             {"simt.gflops", "GFLOP"},
                             {"simt.atomics", "count"},
                             {"simt.transfer_ms", "ms"},
                             {"simt.peak_device_mb", "MB"},
                             {"simt.host_ms_per_modeled_ms", "ms/ms"}});
  for (const char* backend : {"gpu", "cpu"}) {
    for (const char* phase : kPhases) {
      names.push_back(
          {std::string("core.") + backend + ".phase_ms." + phase, "ms"});
    }
  }
  names.insert(names.end(),
               {{"core.iterations", "count"},
                {"core.euclidean_distances", "count"},
                {"core.segmental_distances", "count"},
                {"core.l_points_scanned", "count"},
                {"core.greedy_distances", "count"},
                {"core.cost_bits_mismatched", "count"},
                {"core.sweep.gpu_setting_ms_p50", "ms"},
                {"core.sweep.cpu_setting_ms_p50", "ms"},
                {"core.sweep.distance_reuse_ratio", "ratio"},
                {"service.queue_ms_p50", "ms"},
                {"service.exec_ms_p50", "ms"},
                {"service.warm_device_ratio", "ratio"},
                {"service.cache.hits", "count"},
                {"service.cache.misses", "count"},
                {"service.cache.hit_ms_p50", "ms"},
                {"service.sweep_ms_p50", "ms"},
                {"service.sweep_shards_mean", "count"},
                {"store.upload_ms", "ms"},
                {"store.upload_mb_per_s", "MB/s"},
                {"net.request_bytes_p50", "bytes"},
                {"net.response_bytes_p50", "bytes"},
                {"net.encode_us_p50", "us"},
                {"net.decode_us_p50", "us"},
                {"net.overhead_ms_p50", "ms"},
                {"net.request_ms_p90", "ms"},
                {"data.generate_ms", "ms"},
                {"data.normalize_ms", "ms"},
                {"obs.trace_overhead_ratio", "ratio"}});
  return names;
}

}  // namespace

void CaptureDevice(const proclus::simt::Device& device, OpRun* op) {
  const proclus::simt::PerfModel& model = device.perf_model();
  op->modeled_seconds = model.modeled_seconds();
  op->transfer_seconds = model.transfer_seconds();
  op->launches = model.total_launches();
  op->peak_bytes = device.peak_allocated_bytes();
  for (const proclus::simt::KernelRecord& record : model.KernelRecords()) {
    op->flops += record.total_flops;
    op->bytes += record.total_bytes;
    op->atomics += record.total_atomics;
    op->kernel_seconds[record.name] += record.modeled_seconds;
  }
}

const std::vector<std::string>& KernelNames() {
  static const std::vector<std::string> names = {
      "assign_points",       "build_best_clusters",
      "build_best_clusters_count", "build_best_clusters_scan",
      "build_clusters",      "build_clusters_count",
      "build_clusters_scan", "build_delta_l",
      "build_delta_l_count", "build_delta_l_scan",
      "compute_delta",       "compute_dist",
      "compute_radii",       "compute_x",
      "compute_z",           "evaluate",
      "evaluate_fold",       "fill_c_size",
      "fill_delta",          "fill_dl_size",
      "fill_radii",          "greedy_dist",
      "greedy_select",       "greedy_update",
      "refine_x",            "save_best",
      "update_h",            "update_l_size"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"gpu_op_ms_p10", "ms"},
      {"cpu_op_ms_p10", "ms"},
      {"modeled_device_ms", "ms"}};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> names =
      BuildPerLayer();
  return names;
}

void AddInProcessLayers(const std::vector<OpRun>& ops,
                        const std::vector<std::pair<size_t, size_t>>& pairs,
                        Report* report) {
  std::vector<const OpRun*> gpu;
  for (const OpRun& op : ops) {
    if (op.gpu) gpu.push_back(&op);
  }
  const double gpu_ops = std::max<double>(1.0, static_cast<double>(gpu.size()));
  double launches = 0, flops = 0, bytes = 0, atomics = 0, transfer = 0;
  double wall = 0, modeled = 0, peak = 0;
  std::map<std::string, double> kernel_seconds;
  for (const OpRun* op : gpu) {
    launches += static_cast<double>(op->launches);
    flops += op->flops;
    bytes += op->bytes;
    atomics += op->atomics;
    transfer += op->transfer_seconds;
    wall += op->wall_seconds;
    modeled += op->modeled_seconds;
    peak = std::max(peak, static_cast<double>(op->peak_bytes));
    for (const auto& [name, seconds] : op->kernel_seconds) {
      const auto& known = KernelNames();
      const bool listed =
          std::find(known.begin(), known.end(), name) != known.end();
      kernel_seconds[listed ? name : "other"] += seconds;
    }
  }
  report->Add("simt.launches", launches / gpu_ops, "count");
  for (const std::string& kernel : KernelNames()) {
    report->Add("simt.modeled_ms." + kernel,
                kernel_seconds[kernel] * 1e3 / gpu_ops, "ms");
  }
  report->Add("simt.modeled_ms.other", kernel_seconds["other"] * 1e3 / gpu_ops,
              "ms");
  report->Add("simt.gbytes", bytes / 1e9 / gpu_ops, "GB");
  report->Add("simt.gflops", flops / 1e9 / gpu_ops, "GFLOP");
  report->Add("simt.atomics", atomics / gpu_ops, "count");
  report->Add("simt.transfer_ms", transfer * 1e3 / gpu_ops, "ms");
  report->Add("simt.peak_device_mb", peak / 1e6, "MB");
  report->Add("simt.host_ms_per_modeled_ms", modeled > 0 ? wall / modeled : 0,
              "ms/ms");

  // A sweep runs its settings on one backend, and each setting's RunStats
  // carries the backend's running totals: the last setting's figures are
  // the whole operation's. Only `iterations` is per setting.
  for (const bool on_gpu : {true, false}) {
    for (int phase = 0; phase < 6; ++phase) {
      double sum = 0.0;
      int count = 0;
      for (const OpRun& op : ops) {
        if (op.gpu != on_gpu || op.results.empty()) continue;
        ++count;
        sum += PhaseSeconds(op.results.back().stats.phases, phase);
      }
      report->Add(std::string("core.") + (on_gpu ? "gpu" : "cpu") +
                      ".phase_ms." + kPhases[phase],
                  count > 0 ? sum * 1e3 / count : 0.0, "ms");
    }
  }
  double iterations = 0, euclidean = 0, segmental = 0, scanned = 0, greedy = 0;
  for (const OpRun& op : ops) {
    if (op.results.empty()) continue;
    for (const auto& r : op.results) iterations += r.stats.iterations;
    const proclus::core::RunStats& total = op.results.back().stats;
    euclidean += static_cast<double>(total.euclidean_distances);
    segmental += static_cast<double>(total.segmental_distances);
    scanned += static_cast<double>(total.l_points_scanned);
    greedy += static_cast<double>(total.greedy_distances);
  }
  const double all_ops = std::max<double>(1.0, static_cast<double>(ops.size()));
  report->Add("core.iterations", iterations / all_ops, "count");
  report->Add("core.euclidean_distances", euclidean / all_ops, "count");
  report->Add("core.segmental_distances", segmental / all_ops, "count");
  report->Add("core.l_points_scanned", scanned / all_ops, "count");
  report->Add("core.greedy_distances", greedy / all_ops, "count");

  int64_t mismatched = 0;
  for (const auto& [g, c] : pairs) {
    bool differs = false;
    for (size_t i = 0; i < ops[g].results.size(); ++i) {
      differs |= CostBitsDiffer(ops[g].results[i], ops[c].results[i]);
    }
    mismatched += differs ? 1 : 0;
  }
  report->Add("core.cost_bits_mismatched", static_cast<double>(mismatched),
              "count");

  std::vector<double> gpu_settings, cpu_settings;
  for (const OpRun& op : ops) {
    for (const double s : op.setting_seconds) {
      (op.gpu ? gpu_settings : cpu_settings).push_back(s * 1e3);
    }
  }
  report->Add("core.sweep.gpu_setting_ms_p50", Median(gpu_settings), "ms");
  report->Add("core.sweep.cpu_setting_ms_p50", Median(cpu_settings), "ms");
}

void Finalize(const std::vector<std::pair<std::string, std::string>>& names,
              Report* report) {
  std::map<std::string, Metric> by_name;
  for (Metric& metric : report->metrics) {
    if (!std::isfinite(metric.value)) {
      report->Fail("metric " + metric.name + " is not finite");
      metric.value = 0.0;
    }
    by_name[metric.name] = metric;
  }
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : names) {
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      ordered.push_back({name, 0.0, unit});
      continue;
    }
    if (it->second.unit != unit) {
      report->Fail("metric " + name + " has unit " + it->second.unit);
    }
    ordered.push_back(it->second);
    by_name.erase(it);
  }
  // What is left belongs to the other mode, or to no list at all.
  for (const auto& [name, metric] : by_name) {
    bool known = false;
    for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
      for (const auto& entry : *list) known |= entry.first == name;
    }
    if (!known) report->Fail("metric " + name + " is not in either list");
  }
  report->metrics = std::move(ordered);
}

}  // namespace perfbench
