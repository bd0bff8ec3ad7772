#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

// The per-layer ledger of the in-process (simt, core) layers, and the fixed
// lists of metric names every run prints.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/result.h"
#include "simt/device.h"
#include "stats.h"

namespace perfbench {

// One timed operation: a single clustering or a whole sweep.
struct OpRun {
  bool gpu = false;
  uint64_t seed = 0;
  double wall_seconds = 0.0;
  // One result per clustering (a sweep has one per setting).
  std::vector<proclus::core::ProclusResult> results;
  std::vector<double> setting_seconds;  // sweeps only
  // GPU operations: the device's figures for this operation alone.
  double modeled_seconds = 0.0;
  double transfer_seconds = 0.0;
  int64_t launches = 0;
  double flops = 0.0;
  double bytes = 0.0;
  double atomics = 0.0;
  uint64_t peak_bytes = 0;
  std::map<std::string, double> kernel_seconds;
};

// Copies the device's figures for the operation just run into `op` (the
// device's stats must have been reset before it).
void CaptureDevice(const proclus::simt::Device& device, OpRun* op);

// Kernel names of GPU-FAST single runs and sweeps; any other kernel is
// reported under simt.modeled_ms.other.
const std::vector<std::string>& KernelNames();

// (name, unit) of every end-to-end and every per-layer metric, in print
// order. Each run prints the whole list of its mode.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

// Adds the simt.* and core.* per-layer metrics of `ops`. `gpu_cpu_pairs`
// lists (gpu op, cpu op) index pairs run with the same seed.
void AddInProcessLayers(const std::vector<OpRun>& ops,
                        const std::vector<std::pair<size_t, size_t>>& pairs,
                        Report* report);

// Keeps the metrics `names` lists, in its order, adding the ones a workload
// does not exercise as 0. A metric in neither list is a benchmark bug and
// fails the run.
void Finalize(const std::vector<std::pair<std::string, std::string>>& names,
              Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
