// The perfbench binary: runs one workload and prints, as its last stdout
// line, {"correct", "attempted", "failed", "metrics"}. See ../README.md.
//
//   perfbench --workload single-large|sweep-grid|served-small --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/timer.h"
#include "ledger.h"
#include "stats.h"
#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "single-large|sweep-grid|served-small --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const proclus::StopWatch since_start;
  perfbench::RunConfig config;
  config.since_start = &since_start;
  config.out_dir = ".bench_out";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      config.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || config.seconds < 1 || config.seconds > 600) {
        return Usage("--seconds takes a whole number from 1 to 600");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");

  perfbench::Report report;
  if (config.workload == "single-large" || config.workload == "sweep-grid") {
    perfbench::RunInProcess(config, config.workload == "sweep-grid", &report);
  } else if (config.workload == "served-small") {
    perfbench::RunServed(config, &report);
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }
  std::printf("calibration_ms start=%.3f end=%.3f\n",
              report.calibration_start_ms, perfbench::CalibrationMillis());
  perfbench::Finalize(config.trace ? perfbench::PerLayerMetrics()
                                   : perfbench::EndToEndMetrics(),
                      &report);
  for (const std::string& failure : report.failures) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
