#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

namespace perfbench {
namespace {

using proclus::core::kOutlier;
using proclus::core::ProclusParams;
using proclus::core::ProclusResult;
using proclus::data::Matrix;

// The program sums segmental distances in float; this is far above that
// rounding and far below any real distance gap on [0, 1]-normalized data.
constexpr double kDistanceTol = 1e-5;

double Segmental(const float* p, const float* m, const std::vector<int>& dims) {
  double sum = 0.0;
  for (const int j : dims) sum += std::fabs(double{p[j]} - double{m[j]});
  return sum / static_cast<double>(dims.size());
}

bool RelClose(double a, double b, double rel_tol) {
  return std::fabs(a - b) <= rel_tol * std::max(std::fabs(a), std::fabs(b));
}

std::string Describe(const char* what, int64_t index) {
  return std::string(what) + " (index " + std::to_string(index) + ")";
}

}  // namespace

std::string CheckStructure(const Matrix& data, const ProclusParams& params,
                           const ProclusResult& result) {
  const int64_t n = data.rows();
  const int64_t d = data.cols();
  const int k = params.k;
  if (static_cast<int>(result.medoids.size()) != k) return "medoid count != k";
  if (static_cast<int>(result.dimensions.size()) != k) {
    return "dimension-set count != k";
  }
  if (static_cast<int64_t>(result.assignment.size()) != n) {
    return "assignment length != n";
  }
  std::set<int> distinct;
  for (const int m : result.medoids) {
    if (m < 0 || m >= n) return Describe("medoid id out of range", m);
    distinct.insert(m);
  }
  if (static_cast<int>(distinct.size()) != k) return "medoids not distinct";
  int64_t total_dims = 0;
  for (int i = 0; i < k; ++i) {
    const std::vector<int>& dims = result.dimensions[i];
    if (dims.size() < 2) return Describe("cluster has < 2 dimensions", i);
    for (size_t s = 0; s < dims.size(); ++s) {
      if (dims[s] < 0 || dims[s] >= d) {
        return Describe("dimension out of range in cluster", i);
      }
      if (s > 0 && dims[s] <= dims[s - 1]) {
        return Describe("dimensions not ascending in cluster", i);
      }
    }
    total_dims += static_cast<int64_t>(dims.size());
  }
  if (total_dims != static_cast<int64_t>(k) * params.l) {
    return "total dimension count != k*l";
  }

  std::vector<const float*> medoid(k);
  for (int i = 0; i < k; ++i) medoid[i] = data.Row(result.medoids[i]);
  std::vector<double> radius(k, std::numeric_limits<double>::infinity());
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      if (j == i) continue;
      radius[i] = std::min(
          radius[i], Segmental(medoid[i], medoid[j], result.dimensions[i]));
    }
  }
  std::vector<double> dist(k);
  for (int64_t p = 0; p < n; ++p) {
    const int c = result.assignment[p];
    if (c < kOutlier || c >= k) return Describe("assignment out of range", p);
    const float* row = data.Row(p);
    double best = std::numeric_limits<double>::infinity();
    bool inside = false;
    bool outside_everywhere = true;
    for (int i = 0; i < k; ++i) {
      dist[i] = Segmental(row, medoid[i], result.dimensions[i]);
      best = std::min(best, dist[i]);
      if (dist[i] <= radius[i] + kDistanceTol) inside = true;
      if (dist[i] <= radius[i] - kDistanceTol) outside_everywhere = false;
    }
    if (c == kOutlier) {
      if (!outside_everywhere) {
        return Describe("outlier lies inside a medoid's radius", p);
      }
      continue;
    }
    if (!inside) return Describe("assigned point outside every radius", p);
    if (dist[c] > best + kDistanceTol) {
      return Describe("point not assigned to its nearest medoid", p);
    }
  }
  return "";
}

std::string CheckRefinedCost(const Matrix& data, const ProclusResult& result,
                             double rel_tol) {
  const int k = static_cast<int>(result.dimensions.size());
  const int64_t n = data.rows();
  if (static_cast<int64_t>(result.assignment.size()) != n) {
    return "assignment length != n";
  }
  // Eq. 9: centroids of the assigned points, then the mean over assigned
  // points of the Manhattan segmental distance to their centroid.
  std::vector<std::vector<long double>> centroid(k);
  std::vector<int64_t> size(k, 0);
  for (int i = 0; i < k; ++i) {
    centroid[i].assign(result.dimensions[i].size(), 0.0L);
  }
  int64_t assigned = 0;
  for (int64_t p = 0; p < n; ++p) {
    const int c = result.assignment[p];
    if (c == kOutlier) continue;
    if (c < 0 || c >= k) return Describe("assignment out of range", p);
    ++size[c];
    ++assigned;
    const float* row = data.Row(p);
    for (size_t s = 0; s < result.dimensions[c].size(); ++s) {
      centroid[c][s] += row[result.dimensions[c][s]];
    }
  }
  for (int i = 0; i < k; ++i) {
    if (size[i] == 0) continue;
    for (long double& v : centroid[i]) v /= static_cast<long double>(size[i]);
  }
  long double cost = 0.0L;
  for (int64_t p = 0; p < n; ++p) {
    const int c = result.assignment[p];
    if (c == kOutlier) continue;
    const float* row = data.Row(p);
    const std::vector<int>& dims = result.dimensions[c];
    long double sum = 0.0L;
    for (size_t s = 0; s < dims.size(); ++s) {
      sum += std::fabs(static_cast<long double>(row[dims[s]]) - centroid[c][s]);
    }
    cost += sum / static_cast<long double>(dims.size());
  }
  if (assigned > 0) cost /= static_cast<long double>(assigned);
  const double expected = static_cast<double>(cost);
  if (!RelClose(expected, result.refined_cost, rel_tol)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "refined cost %.17g differs from Eq. 9 recomputation %.17g",
                  result.refined_cost, expected);
    return buf;
  }
  return "";
}

std::string CheckSameClustering(const ProclusResult& gpu,
                                const ProclusResult& cpu, double rel_tol) {
  if (gpu.medoids != cpu.medoids) return "GPU and CPU medoids differ";
  if (gpu.dimensions != cpu.dimensions) return "GPU and CPU dimensions differ";
  if (gpu.assignment != cpu.assignment) return "GPU and CPU assignments differ";
  if (!RelClose(gpu.iterative_cost, cpu.iterative_cost, rel_tol)) {
    return "GPU and CPU iterative costs differ beyond tolerance";
  }
  if (!RelClose(gpu.refined_cost, cpu.refined_cost, rel_tol)) {
    return "GPU and CPU refined costs differ beyond tolerance";
  }
  return "";
}

bool CostBitsDiffer(const ProclusResult& a, const ProclusResult& b) {
  return std::memcmp(&a.iterative_cost, &b.iterative_cost, sizeof(double)) !=
             0 ||
         std::memcmp(&a.refined_cost, &b.refined_cost, sizeof(double)) != 0;
}

std::string CheckBitIdentical(const ProclusResult& a, const ProclusResult& b) {
  if (a.medoids != b.medoids) return "medoids differ";
  if (a.dimensions != b.dimensions) return "dimensions differ";
  if (a.assignment != b.assignment) return "assignments differ";
  if (CostBitsDiffer(a, b)) return "cost bits differ";
  return "";
}

std::string CheckResult(const Matrix& data, const ProclusParams& params,
                        const ProclusResult& result) {
  std::string failure = CheckStructure(data, params, result);
  if (failure.empty()) failure = CheckRefinedCost(data, result);
  return failure;
}

}  // namespace perfbench
