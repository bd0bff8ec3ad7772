#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Percentile `q` in [0, 1] of `values` with linear interpolation between
// order statistics (numpy's default). 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

// The percentile the end-to-end wall-time metrics read from a run's
// operations and rounds: the host's speed changes within a run, and this
// figure follows the code as long as a tenth of the run went at its normal
// speed (see ../README.md, Steadiness).
inline constexpr double kFastQuantile = 0.10;

// The highest percentile of a sample of `n` values that still has at least
// ten samples beyond it, capped at `q`; the median when n < 20 (no tail to
// speak of).
double TailQuantile(int64_t n, double q);

// SplitMix64: derives independent seeds from the run seed.
uint64_t Mix(uint64_t x);

// Times a fixed single-thread loop. Runs print it before and after their
// timed phase: a run whose loop slowed down ran on a busy host, not (only)
// on slow code. Context for the reader, not a metric.
double CalibrationMillis();

// One reported metric: value with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The run's verdict and metrics, printed as the last stdout line.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  // Check failures; the run is correct when this is empty.
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  // CalibrationMillis() once setup is done, before the timed phase.
  double calibration_start_ms = 0.0;

  void Fail(std::string message) { failures.push_back(std::move(message)); }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string ToJson() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
