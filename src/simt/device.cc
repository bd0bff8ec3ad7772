#include "simt/device.h"

#include <algorithm>

#include "common/env.h"

namespace proclus::simt {

namespace {
constexpr size_t kMinChunkBytes = 8ULL << 20;  // 8 MiB
}  // namespace

bool SimtcheckEnvDefault() {
  return GetEnvInt64("PROCLUS_SIMTCHECK", 0) != 0;
}

Device::Device(DeviceProperties props, DeviceOptions options)
    : props_(props), pool_(options.host_workers), perf_model_(props) {
  if (options.sanitize) sanitizer_ = std::make_unique<Sanitizer>();
}

Device::Device(DeviceProperties props, int host_workers)
    : Device(props, DeviceOptions{host_workers, SimtcheckEnvDefault()}) {}

char* Device::AllocBytes(size_t bytes, size_t alignment) {
  if (bytes == 0) bytes = alignment;
  PROCLUS_CHECK(allocated_bytes_ + bytes <= props_.global_memory_bytes);
  // Find a chunk with room, respecting alignment.
  for (Chunk& chunk : chunks_) {
    const size_t offset = (chunk.used + alignment - 1) / alignment * alignment;
    if (offset + bytes <= chunk.capacity) {
      chunk.used = offset + bytes;
      allocated_bytes_ += bytes;
      peak_allocated_bytes_ = std::max(peak_allocated_bytes_, allocated_bytes_);
      char* ptr = chunk.data.get() + offset;
      std::memset(ptr, 0, bytes);
      if (sanitizer_ != nullptr) sanitizer_->OnAlloc(ptr, bytes);
      return ptr;
    }
  }
  Chunk chunk;
  chunk.capacity = std::max(bytes, kMinChunkBytes);
  chunk.data = std::make_unique<char[]>(chunk.capacity);
  chunk.used = bytes;
  chunks_.push_back(std::move(chunk));
  allocated_bytes_ += bytes;
  peak_allocated_bytes_ = std::max(peak_allocated_bytes_, allocated_bytes_);
  char* ptr = chunks_.back().data.get();
  std::memset(ptr, 0, bytes);
  if (sanitizer_ != nullptr) {
    sanitizer_->OnChunkCreated(ptr, chunks_.back().capacity);
    sanitizer_->OnAlloc(ptr, bytes);
  }
  return ptr;
}

void Device::FreeAll() {
  if (sanitizer_ != nullptr) sanitizer_->OnFreeAll();
  chunks_.clear();
  allocated_bytes_ = 0;
}

void Device::ResetArena() {
  if (sanitizer_ != nullptr) sanitizer_->OnArenaReset();
  for (Chunk& chunk : chunks_) chunk.used = 0;
  allocated_bytes_ = 0;
}

void Device::BeginConcurrentRegion(int num_streams) {
  PROCLUS_CHECK(!in_region_);
  PROCLUS_CHECK(num_streams >= 1);
  in_region_ = true;
  current_stream_ = 0;
  stream_seconds_.assign(num_streams, 0.0);
}

void Device::SetStream(int stream) {
  PROCLUS_CHECK(in_region_);
  PROCLUS_CHECK(stream >= 0 &&
                stream < static_cast<int>(stream_seconds_.size()));
  current_stream_ = stream;
}

void Device::EndConcurrentRegion() {
  PROCLUS_CHECK(in_region_);
  in_region_ = false;
  double sum = 0.0;
  double longest = 0.0;
  for (const double s : stream_seconds_) {
    sum += s;
    longest = std::max(longest, s);
  }
  // The launches were recorded sequentially; fold the overlap back in.
  perf_model_.AdjustTotal(longest - sum);
}

void Device::set_trace(obs::TraceRecorder* trace) {
  trace_ = trace;
  trace_track_ = -1;  // lazily (re-)registered against the new recorder
}

void Device::TraceDeviceEvent(const char* name, const char* category,
                              double seconds,
                              std::vector<obs::TraceArg> args) {
  if (trace_ == nullptr || !trace_->enabled()) return;
  if (trace_track_ < 0) {
    trace_track_ = trace_->RegisterTrack(std::string("device:") + props_.name);
  }
  const double dur_us = seconds * 1e6;
  const double start_us = std::max(trace_cursor_us_, trace_->NowMicros());
  trace_cursor_us_ = start_us + dur_us;
  trace_->AddCompleteOnTrack(trace_track_, name, category, start_us, dur_us,
                             std::move(args));
}

void Device::TraceTransfer(const char* name, double bytes, double seconds) {
  if (trace_ == nullptr || !trace_->enabled()) return;
  TraceDeviceEvent(name, "transfer", seconds,
                   {obs::TraceArg::Double("bytes", bytes),
                    obs::TraceArg::Double("modeled_ms", seconds * 1e3)});
}

void Device::Launch(const char* name, LaunchConfig cfg,
                    const WorkEstimate& work,
                    const std::function<void(BlockContext&)>& body) {
  PROCLUS_CHECK(cfg.grid_dim >= 0);
  PROCLUS_CHECK(cfg.block_dim >= 1);
  PROCLUS_CHECK(cfg.block_dim <= props_.max_threads_per_block);
  const double seconds =
      perf_model_.RecordLaunch(name, cfg.grid_dim, cfg.block_dim, work);
  if (in_region_) stream_seconds_[current_stream_] += seconds;
  if (trace_ != nullptr && trace_->enabled()) {
    const OccupancyInfo occ =
        perf_model_.ComputeOccupancy(cfg.grid_dim, cfg.block_dim);
    TraceDeviceEvent(
        name, "kernel", seconds,
        {obs::TraceArg::Double("modeled_ms", seconds * 1e3),
         obs::TraceArg::Int("grid_dim", cfg.grid_dim),
         obs::TraceArg::Int("block_dim", cfg.block_dim),
         obs::TraceArg::Double("flops", work.flops),
         obs::TraceArg::Double("bytes", work.bytes),
         obs::TraceArg::Double("atomics", work.atomics),
         obs::TraceArg::Double("theoretical_occupancy", occ.theoretical),
         obs::TraceArg::Double("achieved_occupancy", occ.achieved)});
  }
  if (cfg.grid_dim == 0) return;
  if (sanitizer_ != nullptr) {
    // Checked mode: run blocks in order on the calling thread so the shadow
    // state needs no locking and reports are deterministic.
    sanitizer_->BeginLaunch(name, cfg.grid_dim, cfg.block_dim);
    std::vector<char> shared(kSharedMemoryBytes);
    for (int64_t b = 0; b < cfg.grid_dim; ++b) {
      BlockContext block(b, cfg, &shared, sanitizer_.get());
      body(block);
    }
    sanitizer_->EndLaunch();
    return;
  }
  if (pool_.num_threads() == 1 || cfg.grid_dim == 1) {
    // Single host worker: run blocks in order on the calling thread, with no
    // pool hand-off.
    std::vector<char> shared(kSharedMemoryBytes);
    for (int64_t b = 0; b < cfg.grid_dim; ++b) {
      BlockContext block(b, cfg, &shared);
      body(block);
    }
    return;
  }
  // Multi-worker hosts: distribute contiguous ranges of blocks.
  const int64_t workers = pool_.num_threads();
  const int64_t per_worker = (cfg.grid_dim + workers - 1) / workers;
  parallel::ParallelForChunked(
      pool_, 0, cfg.grid_dim,
      [&](int64_t lo, int64_t hi) {
        std::vector<char> shared(kSharedMemoryBytes);
        for (int64_t b = lo; b < hi; ++b) {
          BlockContext block(b, cfg, &shared);
          body(block);
        }
      },
      per_worker);
}

}  // namespace proclus::simt
