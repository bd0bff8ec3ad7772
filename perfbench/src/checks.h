#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// The benchmark's correctness checks. Each returns an empty string when the
// result passes, else a one-line reason. They use only the data, the
// parameters and the returned clustering: every figure is recomputed here,
// apart from the program's own code.

#include <string>

#include "core/params.h"
#include "core/result.h"
#include "data/matrix.h"

namespace perfbench {

// Properties every PROCLUS result has:
//   * k distinct medoids, each a valid point id;
//   * every cluster has >= 2 dimensions, strictly ascending and in range,
//     k*l in all;
//   * assignments lie in [-1, k), and the point count matches;
//   * an assigned point's Manhattan segmental distance to its medoid is the
//     minimum over all medoids (within float rounding);
//   * a point is an outlier exactly when it lies outside every medoid's
//     sphere of influence (radius: the distance to the nearest other
//     medoid in that medoid's dimensions), except within float rounding of
//     a radius.
std::string CheckStructure(const proclus::data::Matrix& data,
                           const proclus::core::ProclusParams& params,
                           const proclus::core::ProclusResult& result);

// Recomputes the refined cost by Eq. 9 (the Eq. 2 cost over the assigned
// points) from the data, dimensions and assignment, and compares it with
// result.refined_cost within `rel_tol`.
std::string CheckRefinedCost(const proclus::data::Matrix& data,
                             const proclus::core::ProclusResult& result,
                             double rel_tol = 1e-9);

// GPU against CPU for one seed: identical medoids, dimensions and
// assignment; both costs within `rel_tol` of each other.
std::string CheckSameClustering(const proclus::core::ProclusResult& gpu,
                                const proclus::core::ProclusResult& cpu,
                                double rel_tol = 1e-12);

// True when either cost of the two results differs in any bit.
bool CostBitsDiffer(const proclus::core::ProclusResult& a,
                    const proclus::core::ProclusResult& b);

// Bit identity of everything a result carries for the caller: medoids,
// dimensions, assignment and the bytes of both costs. Used for served
// against in-process results and for cache hits against the first answer.
std::string CheckBitIdentical(const proclus::core::ProclusResult& a,
                              const proclus::core::ProclusResult& b);

// CheckStructure and CheckRefinedCost together.
std::string CheckResult(const proclus::data::Matrix& data,
                        const proclus::core::ProclusParams& params,
                        const proclus::core::ProclusResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
