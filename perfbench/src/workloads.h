#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "core/params.h"
#include "data/dataset.h"
#include "ledger.h"
#include "obs/trace.h"
#include "simt/device.h"
#include "stats.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Where the traced mode writes its Chrome trace.
  std::string out_dir;
  // Started when the process entered main(): setup_s counts from here.
  const proclus::StopWatch* since_start = nullptr;
};

// The clustering parameters of every operation: the paper's defaults
// (k=10, l=5, A=100, B=10, minDev=0.7, itrPat=5), with the iteration count
// fixed at itrPat + 1 = 6, the fewest any run makes. Left free, the count
// ranges from 8 to 23 over seeds at 256k x 15, and an operation's time
// with it, so the median of a run's operations would follow the
// seeds drawn rather than the code measured.
proclus::core::ProclusParams BenchParams(uint64_t seed);

// Generates and min-max normalizes a subspace dataset (n x d, `clusters`
// clusters in 5-dimensional subspaces), timing both steps into `report`
// as data.generate_ms and data.normalize_ms. The benchmark span
// "bench.generate"/"bench.normalize" goes to `trace` when it is set.
proclus::data::Dataset MakeData(int64_t n, int d, int clusters, uint64_t seed,
                                proclus::obs::TraceRecorder* trace,
                                Report* report);

// Writes `trace` as Chrome trace JSON under config.out_dir.
void WriteTrace(const RunConfig& config,
                const proclus::obs::TraceRecorder& trace, Report* report);

// Runs one operation: GPU-FAST on `device` (its arena and statistics reset
// first), or CPU-FAST when `device` is null; a single clustering, or the
// §5.3 grid at kWarmStart when `sweep`.
OpRun RunOp(const proclus::data::Matrix& data,
            const proclus::core::ProclusParams& params, bool sweep,
            proclus::simt::Device* device, proclus::obs::TraceRecorder* trace,
            proclus::Status* status);

// Checks each (GPU op, CPU op) neighbour pair with equal seeds in `ops`:
// same clustering, and structure and Eq. 9 cost of every result. Returns
// the pairs' indices.
std::vector<std::pair<size_t, size_t>> CheckGpuCpuPairs(
    const proclus::data::Matrix& data, const std::vector<OpRun>& ops,
    Report* report);

// single-large and sweep-grid.
void RunInProcess(const RunConfig& config, bool sweep, Report* report);
// served-small.
void RunServed(const RunConfig& config, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
