#ifndef PROCLUS_SIMT_PRIMITIVES_H_
#define PROCLUS_SIMT_PRIMITIVES_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "simt/device.h"

namespace proclus::simt {

// Small library of device primitives built on Launch: value fills, iota and
// reductions. They are kernels like any other (recorded and priced by the
// performance model under the given name), which keeps host code honest —
// initializing device memory costs a launch, exactly as in CUDA.

// Fills values[0, count) with `value`.
template <typename T>
void Fill(Device& device, const char* name, T* values, int64_t count,
          T value) {
  if (count <= 0) return;
  const int block = static_cast<int>(
      std::min<int64_t>(count, device.properties().max_threads_per_block));
  const int64_t grid = (count + block - 1) / block;
  device.Launch(name, {grid, block},
                WorkEstimate{0.0, static_cast<double>(count) * sizeof(T), 0.0},
                [&](BlockContext& b) {
                  b.ForEachThread([&](int tid) {
                    const int64_t i = b.block_idx() * block + tid;
                    if (i < count) b.Store(&values[i], value);
                  });
                });
}

// values[i] = i for i in [0, count).
void Iota(Device& device, const char* name, int* values, int64_t count);

// Reduction to the minimum; result written to *out and returned.
float ReduceMin(Device& device, const char* name, const float* values,
                int64_t count, float* out);

// Reduction to the maximum; result written to *out and returned.
float ReduceMax(Device& device, const char* name, const float* values,
                int64_t count, float* out);

// --- Order-independent reductions and appends --------------------------------
//
// Blocks run on several host threads in an unspecified order, so a kernel
// whose result depends on the order in which blocks touch a shared word is
// not deterministic: a cross-block double AtomicAdd rounds differently per
// order, and a cross-block AtomicInc slot reservation appends in arrival
// order. The primitives below fix the order by construction: each block
// writes its own partial, and a second pass combines the partials in block
// order (docs/simt.md, checklist rule 4).

// Sums values[0, count) into *out one after another in index order,
// starting from 0.0, and returns the sum. The second pass of a
// deterministic reduction: fold per-block partials with it.
double FoldSum(Device& device, const char* name, const double* values,
               int64_t count, double* out);

// Number of doubles of scratch ReduceSum needs: one partial per block.
int64_t ReduceSumScratch(int64_t count);

// Two-pass device reduction: per-block partial sums (sequential within a
// block) into `partials` (ReduceSumScratch(count) doubles), folded in block
// order by FoldSum into *out. The result does not depend on how many host
// workers run the blocks.
double ReduceSum(Device& device, const char* name, const double* values,
                 int64_t count, double* partials, double* out);

// Destination of OrderedCompact: list l is
// lists[l * stride + 0 .. sizes[l]).
struct ListSet {
  int* lists = nullptr;
  int* sizes = nullptr;
  int num_lists = 0;
  int64_t stride = 0;
};

// Number of ints of scratch OrderedCompact needs: one count per
// (list, block).
int64_t OrderedCompactScratch(int64_t count, int block_dim, int num_lists);

// Order-preserving multi-list stream compaction. Item i in [0, count)
// belongs to list key(b, i) in [0, out.num_lists), or to none when the key
// is negative; each list receives value(i) of its items in ascending i.
// Each list's length is added to out.sizes[l], which the caller zeroes. Three launches, in the manner of a CUDA stream compaction:
//   <name>_count  per-block counts into `scratch`
//                 (OrderedCompactScratch ints);
//   <name>_scan   exclusive scan of each list's counts in block order;
//   <name>        scatter: each block ranks its items in thread order and
//                 writes them from its scanned offset.
// `key` must be a pure function of device memory the launches do not
// write. `key_work` prices one key evaluation over all items; its
// `atomics` is the expected number of items that land in a list: each
// bumps its block's shared counter for that list, and bumps on a handful
// of words contend like global atomics.
template <typename KeyFn, typename ValueFn>
void OrderedCompact(Device& device, const char* name, int64_t count,
                    int block_dim, const WorkEstimate& key_work, KeyFn&& key,
                    ValueFn&& value, const ListSet& out, int* scratch) {
  if (count <= 0) return;
  const int64_t grid = (count + block_dim - 1) / block_dim;
  const int num_lists = out.num_lists;
  const double cells = static_cast<double>(grid) * num_lists;
  const std::string prefix(name);

  device.Launch(
      (prefix + "_count").c_str(), {grid, block_dim},
      WorkEstimate{key_work.flops, key_work.bytes + 4.0 * cells,
                   key_work.atomics + cells},
      [&](BlockContext& b) {
        const int64_t base = b.block_idx() * block_dim;
        int* counts = b.Shared<int>(num_lists);
        b.ForEachThread([&](int tid) {
          if (base + tid >= count) return;
          const int l = key(b, base + tid);
          if (l >= 0) b.AtomicAdd(&counts[l], 1);
        });
        b.ForEachThreadStrided(num_lists, [&](int64_t l) {
          const int c = b.Load(&counts[l]);
          b.Store(&scratch[l * grid + b.block_idx()], c);
          // Integer addition commutes: the total is order-independent.
          if (c > 0) b.AtomicAdd(&out.sizes[l], c);
        });
      });

  device.Launch((prefix + "_scan").c_str(), {num_lists, 1},
                WorkEstimate{cells, 8.0 * cells, 0.0}, [&](BlockContext& b) {
                  int* row = scratch + b.block_idx() * grid;
                  int running = 0;
                  for (int64_t blk = 0; blk < grid; ++blk) {
                    const int c = b.Load(&row[blk]);
                    b.Store(&row[blk], running);
                    running += c;
                  }
                });

  device.Launch(
      name, {grid, block_dim},
      WorkEstimate{key_work.flops + static_cast<double>(count),
                   key_work.bytes + 4.0 * cells + 4.0 * count, 0.0},
      [&](BlockContext& b) {
        const int64_t base = b.block_idx() * block_dim;
        int* keys = b.Shared<int>(block_dim);
        int* slots = b.Shared<int>(block_dim);
        int* cursor = b.Shared<int>(num_lists);
        b.ForEachThread([&](int tid) {
          b.Store(&keys[tid], base + tid < count ? key(b, base + tid) : -1);
        });
        b.ForEachThreadStrided(num_lists, [&](int64_t l) {
          b.Store(&cursor[l], b.Load(&scratch[l * grid + b.block_idx()]));
        });
        // Rank the block's items in thread order (a block-wide scan on
        // real hardware; one walk here).
        for (int tid = 0; tid < block_dim; ++tid) {
          const int l = b.Load(&keys[tid]);
          if (l < 0) continue;
          const int slot = b.Load(&cursor[l]);
          b.Store(&slots[tid], slot);
          b.Store(&cursor[l], slot + 1);
        }
        b.Sync();
        b.ForEachThread([&](int tid) {
          const int l = b.Load(&keys[tid]);
          if (l < 0) return;
          b.Store(&out.lists[l * out.stride + b.Load(&slots[tid])],
                  value(base + tid));
        });
      });
}

}  // namespace proclus::simt

#endif  // PROCLUS_SIMT_PRIMITIVES_H_
