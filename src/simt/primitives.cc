#include "simt/primitives.h"

#include <algorithm>
#include <limits>
#include <string>

#include "simt/atomic.h"

namespace proclus::simt {

namespace {
constexpr int kBlock = 1024;
}  // namespace

void Iota(Device& device, const char* name, int* values, int64_t count) {
  if (count <= 0) return;
  const int64_t grid = (count + kBlock - 1) / kBlock;
  device.Launch(name, {grid, kBlock},
                WorkEstimate{0.0, 4.0 * count, 0.0}, [&](BlockContext& b) {
                  b.ForEachThread([&](int tid) {
                    const int64_t i = b.block_idx() * kBlock + tid;
                    if (i < count) b.Store(&values[i], static_cast<int>(i));
                  });
                });
}

double FoldSum(Device& device, const char* name, const double* values,
               int64_t count, double* out) {
  device.Launch(name, {1, 1},
                WorkEstimate{static_cast<double>(count), 8.0 * count, 0.0},
                [&](BlockContext& b) {
                  double sum = 0.0;
                  for (int64_t i = 0; i < count; ++i) sum += b.Load(&values[i]);
                  b.Store(out, sum);
                });
  return *out;
}

int64_t ReduceSumScratch(int64_t count) {
  return (count + kBlock - 1) / kBlock;
}

double ReduceSum(Device& device, const char* name, const double* values,
                 int64_t count, double* partials, double* out) {
  const int64_t grid = ReduceSumScratch(count);
  if (grid > 0) {
    device.Launch(name, {grid, kBlock},
                  WorkEstimate{static_cast<double>(count), 8.0 * count,
                               0.0},
                  [&](BlockContext& b) {
                    double local = 0.0;
                    b.ForEachThread([&](int tid) {
                      const int64_t i = b.block_idx() * kBlock + tid;
                      if (i < count) local += b.Load(&values[i]);
                    });
                    b.Store(&partials[b.block_idx()], local);
                  });
  }
  return FoldSum(device, (std::string(name) + "_fold").c_str(), partials,
                 grid, out);
}

int64_t OrderedCompactScratch(int64_t count, int block_dim, int num_lists) {
  return (count + block_dim - 1) / block_dim * num_lists;
}

float ReduceMin(Device& device, const char* name, const float* values,
                int64_t count, float* out) {
  *out = std::numeric_limits<float>::infinity();
  if (count > 0) {
    const int64_t grid = (count + kBlock - 1) / kBlock;
    device.Launch(name, {grid, kBlock},
                  WorkEstimate{static_cast<double>(count), 4.0 * count,
                               static_cast<double>(grid)},
                  [&](BlockContext& b) {
                    float local = std::numeric_limits<float>::infinity();
                    b.ForEachThread([&](int tid) {
                      const int64_t i = b.block_idx() * kBlock + tid;
                      if (i < count) local = std::min(local, b.Load(&values[i]));
                    });
                    b.AtomicMin(out, local);
                  });
  }
  return *out;
}

float ReduceMax(Device& device, const char* name, const float* values,
                int64_t count, float* out) {
  *out = -std::numeric_limits<float>::infinity();
  if (count > 0) {
    const int64_t grid = (count + kBlock - 1) / kBlock;
    device.Launch(name, {grid, kBlock},
                  WorkEstimate{static_cast<double>(count), 4.0 * count,
                               static_cast<double>(grid)},
                  [&](BlockContext& b) {
                    float local = -std::numeric_limits<float>::infinity();
                    b.ForEachThread([&](int tid) {
                      const int64_t i = b.block_idx() * kBlock + tid;
                      if (i < count) local = std::max(local, b.Load(&values[i]));
                    });
                    b.AtomicMax(out, local);
                  });
  }
  return *out;
}

}  // namespace proclus::simt
