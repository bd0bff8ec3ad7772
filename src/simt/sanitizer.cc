#include "simt/sanitizer.h"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace proclus::simt {

namespace {

constexpr size_t kGranuleBytes = 8;

const char* AccessWord(Sanitizer::AccessKind kind) {
  switch (kind) {
    case Sanitizer::AccessKind::kLoad:
      return "load";
    case Sanitizer::AccessKind::kStore:
      return "store";
    case Sanitizer::AccessKind::kAtomic:
    case Sanitizer::AccessKind::kOrderDependentAtomic:
      return "atomic";
  }
  return "access";
}

std::string LocString(bool shared, uint64_t offset) {
  std::ostringstream os;
  os << (shared ? "shared+0x" : "global+0x") << std::hex << offset;
  return os.str();
}

std::string TidString(int tid) {
  if (tid == Sanitizer::kBlockScopeTid) return "block scope";
  std::ostringstream os;
  os << "thread " << tid;
  return os.str();
}

// Byte mask (bit i = granule byte i) of [addr, addr+bytes) within the
// granule that starts at granule_start.
uint8_t GranuleMask(uintptr_t granule_start, uintptr_t addr, size_t bytes) {
  const uintptr_t lo = std::max(granule_start, addr);
  const uintptr_t hi = std::min(granule_start + kGranuleBytes, addr + bytes);
  uint8_t mask = 0;
  for (uintptr_t b = lo; b < hi; ++b) {
    mask = static_cast<uint8_t>(mask | (1u << (b - granule_start)));
  }
  return mask;
}

}  // namespace

const char* ViolationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kIntraBlockRace:
      return "intra_block_race";
    case ViolationKind::kCrossBlockRace:
      return "cross_block_race";
    case ViolationKind::kGlobalOutOfBounds:
      return "global_out_of_bounds";
    case ViolationKind::kSharedOutOfBounds:
      return "shared_out_of_bounds";
    case ViolationKind::kSharedOverflow:
      return "shared_overflow";
    case ViolationKind::kUseAfterReset:
      return "use_after_reset";
    case ViolationKind::kOrderDependentAtomic:
      return "order_dependent_atomic";
  }
  return "unknown";
}

void Sanitizer::OnChunkCreated(const void* base, size_t capacity) {
  const uintptr_t lo = reinterpret_cast<uintptr_t>(base);
  const uintptr_t hi = lo + capacity;
  // The allocator may hand back an address range a retired chunk used to
  // occupy; drop any overlapping shadow so old state cannot leak in.
  chunks_.erase(std::remove_if(chunks_.begin(), chunks_.end(),
                               [&](const ChunkShadow& c) {
                                 return c.base < hi && lo < c.base + c.capacity;
                               }),
                chunks_.end());
  ChunkShadow chunk;
  chunk.base = lo;
  chunk.capacity = capacity;
  chunk.base_offset = next_base_offset_;
  next_base_offset_ += capacity;
  chunk.byte_state.assign(capacity, kNeverAllocated);
  chunk.granules.assign((capacity + kGranuleBytes - 1) / kGranuleBytes,
                        GranuleShadow{});
  chunks_.push_back(std::move(chunk));
}

void Sanitizer::OnAlloc(const void* ptr, size_t bytes) {
  ChunkShadow* chunk = FindChunk(reinterpret_cast<uintptr_t>(ptr));
  if (chunk == nullptr || chunk->dead) return;
  const size_t off = reinterpret_cast<uintptr_t>(ptr) - chunk->base;
  const size_t end = std::min(off + bytes, chunk->capacity);
  std::fill(chunk->byte_state.begin() + static_cast<ptrdiff_t>(off),
            chunk->byte_state.begin() + static_cast<ptrdiff_t>(end), kLive);
}

void Sanitizer::OnArenaReset() {
  for (ChunkShadow& chunk : chunks_) {
    if (chunk.dead) continue;
    for (uint8_t& s : chunk.byte_state) {
      if (s == kLive) s = kStale;
    }
  }
}

void Sanitizer::OnFreeAll() {
  for (ChunkShadow& chunk : chunks_) {
    chunk.dead = true;
    // The backing memory is gone; keep only the address range so late
    // accesses still attribute as use-after-reset.
    std::vector<uint8_t>().swap(chunk.byte_state);
    std::vector<GranuleShadow>().swap(chunk.granules);
  }
}

void Sanitizer::BeginLaunch(const char* name, int64_t grid_dim,
                            int block_dim) {
  (void)grid_dim;
  (void)block_dim;
  ++launch_id_;
  kernel_ = name;
  in_launch_ = true;
}

void Sanitizer::EndLaunch() {
  in_launch_ = false;
  kernel_ = "<none>";
}

Sanitizer::ChunkShadow* Sanitizer::FindChunk(uintptr_t addr) {
  for (ChunkShadow& chunk : chunks_) {
    if (addr >= chunk.base && addr < chunk.base + chunk.capacity) {
      return &chunk;
    }
  }
  return nullptr;
}

void Sanitizer::TrackRace(std::vector<GranuleShadow>& granules,
                          size_t first_granule, uintptr_t addr, size_t bytes,
                          AccessKind kind, int64_t block, int tid,
                          int32_t phase, bool is_shared,
                          uint64_t arena_offset) {
  const bool is_write = kind != AccessKind::kLoad;
  const bool is_atomic = kind == AccessKind::kAtomic ||
                         kind == AccessKind::kOrderDependentAtomic;
  // Granules are aligned to the arena base, not the access address.
  const uintptr_t first_start = addr - (arena_offset % kGranuleBytes);
  const size_t num_granules =
      (arena_offset % kGranuleBytes + bytes + kGranuleBytes - 1) /
      kGranuleBytes;
  bool reported = false;

  // A record is live when it belongs to this launch; shared-arena records
  // must additionally belong to this block (blocks reuse the same arena).
  const auto live = [&](const AccessRecord& r) {
    return r.launch == launch_id_ && (!is_shared || r.block == block);
  };
  // Two overlapping accesses conflict unless both are atomic, they came
  // from the same logical thread, or a barrier orders them (same block,
  // different phase).
  const auto conflict = [&](const AccessRecord& r,
                            uint8_t mask) -> const AccessRecord* {
    if (!live(r) || (r.mask & mask) == 0) return nullptr;
    if (r.atomic && is_atomic) return nullptr;
    if (r.block != block) return &r;  // cross-block, global memory only
    if (r.phase == phase && r.tid != tid) return &r;  // missing barrier
    return nullptr;
  };

  for (size_t g = 0; g < num_granules; ++g) {
    const size_t gi = first_granule + g;
    if (gi >= granules.size()) break;
    GranuleShadow& gs = granules[gi];
    const uintptr_t granule_start = first_start + g * kGranuleBytes;
    const uint8_t mask = GranuleMask(granule_start, addr, bytes);
    if (mask == 0) continue;

    if (!reported) {
      // Writes conflict with prior reads and writes; reads only with
      // prior writes.
      const AccessRecord* other = conflict(gs.write, mask);
      if (other == nullptr && is_write) other = conflict(gs.read, mask);
      ViolationKind vkind = ViolationKind::kCrossBlockRace;
      if (other != nullptr) {
        if (other->block == block) vkind = ViolationKind::kIntraBlockRace;
      } else if (kind == AccessKind::kOrderDependentAtomic) {
        // Atomics never race with each other, but two blocks updating one
        // word with an order-dependent atomic leave a result that depends
        // on which block ran first. (Shared records are per block.)
        const AccessRecord& w = gs.write;
        if (live(w) && (w.mask & mask) != 0 && w.atomic && w.block != block) {
          other = &w;
          vkind = ViolationKind::kOrderDependentAtomic;
        }
      }
      if (other != nullptr) {
        Violation v;
        v.kind = vkind;
        v.block = block;
        v.tid = tid;
        v.phase = phase;
        v.other_block = other->block;
        v.other_tid = other->tid;
        v.other_phase = other->phase;
        v.shared = is_shared;
        v.offset = arena_offset;
        v.bytes = bytes;
        std::ostringstream detail;
        detail << AccessWord(kind) << " of " << bytes << " bytes at "
               << LocString(is_shared, arena_offset) << " conflicts with "
               << (other->atomic ? "atomic by " : "")
               << TidString(other->tid);
        if (other->block != block) detail << " of block " << other->block;
        detail << " in phase " << other->phase;
        if (vkind == ViolationKind::kOrderDependentAtomic) {
          detail << "; the result depends on block execution order";
        }
        v.message = detail.str();
        Report(std::move(v));
        reported = true;
      }
    }

    AccessRecord& rec = is_write ? gs.write : gs.read;
    if (rec.launch == launch_id_ && rec.block == block && rec.tid == tid &&
        rec.phase == phase && rec.atomic == is_atomic) {
      rec.mask = static_cast<uint8_t>(rec.mask | mask);
    } else {
      rec.launch = launch_id_;
      rec.block = static_cast<int32_t>(block);
      rec.phase = phase;
      rec.tid = static_cast<int16_t>(tid);
      rec.mask = mask;
      rec.atomic = is_atomic;
    }
  }
}

bool Sanitizer::CheckAccess(const void* ptr, size_t bytes, AccessKind kind,
                            int64_t block, int tid, int32_t phase,
                            const char* shared_base, size_t shared_capacity,
                            size_t shared_used) {
  ++checked_accesses_;
  const uintptr_t addr = reinterpret_cast<uintptr_t>(ptr);

  // Shared-arena access?
  const uintptr_t sbase = reinterpret_cast<uintptr_t>(shared_base);
  if (shared_base != nullptr && addr >= sbase &&
      addr < sbase + shared_capacity) {
    const uint64_t offset = addr - sbase;
    if (offset + bytes > shared_used) {
      Violation v;
      v.kind = ViolationKind::kSharedOutOfBounds;
      v.block = block;
      v.tid = tid;
      v.phase = phase;
      v.shared = true;
      v.offset = offset;
      v.bytes = bytes;
      std::ostringstream detail;
      detail << AccessWord(kind) << " of " << bytes << " bytes at "
             << LocString(true, offset) << " past the Shared<T> high-water "
             << "mark (" << shared_used << " bytes allocated)";
      v.message = detail.str();
      Report(std::move(v));
      return false;
    }
    const size_t want = (shared_capacity + kGranuleBytes - 1) / kGranuleBytes;
    if (shared_granules_.size() < want) shared_granules_.resize(want);
    TrackRace(shared_granules_, offset / kGranuleBytes, addr, bytes, kind,
              block, tid, phase, /*is_shared=*/true, offset);
    return true;
  }

  ChunkShadow* chunk = FindChunk(addr);
  const auto report_simple = [&](ViolationKind vkind, uint64_t offset,
                                 const char* why) {
    Violation v;
    v.kind = vkind;
    v.block = block;
    v.tid = tid;
    v.phase = phase;
    v.shared = false;
    v.offset = offset;
    v.bytes = bytes;
    std::ostringstream detail;
    detail << AccessWord(kind) << " of " << bytes << " bytes at "
           << LocString(false, offset) << ": " << why;
    v.message = detail.str();
    Report(std::move(v));
  };
  if (chunk == nullptr) {
    report_simple(ViolationKind::kGlobalOutOfBounds, 0,
                  "address is outside the device arena");
    return false;
  }
  const uint64_t offset = chunk->base_offset + (addr - chunk->base);
  if (chunk->dead) {
    report_simple(ViolationKind::kUseAfterReset, offset,
                  "chunk was released by FreeAll()");
    return false;
  }
  const size_t off = addr - chunk->base;
  if (off + bytes > chunk->capacity) {
    report_simple(ViolationKind::kGlobalOutOfBounds, offset,
                  "access runs past the end of the arena chunk");
    return false;
  }
  const uint8_t* state = chunk->byte_state.data() + off;
  if (std::memchr(state, kStale, bytes) != nullptr) {
    report_simple(ViolationKind::kUseAfterReset, offset,
                  "allocation was released by ResetArena()/FreeAll()");
    return false;
  }
  if (std::memchr(state, kNeverAllocated, bytes) != nullptr) {
    report_simple(ViolationKind::kGlobalOutOfBounds, offset,
                  "access touches bytes outside any allocation");
    return false;
  }
  TrackRace(chunk->granules, off / kGranuleBytes, addr, bytes, kind, block,
            tid, phase, /*is_shared=*/false, offset);
  return true;
}

bool Sanitizer::CheckHostAccess(const char* what, const void* ptr,
                                size_t bytes, bool write) {
  ++checked_accesses_;
  const uintptr_t addr = reinterpret_cast<uintptr_t>(ptr);
  Violation v;
  v.kernel = std::string("<host:") + what + ">";
  v.bytes = bytes;
  const char* verb = write ? "write" : "read";
  ChunkShadow* chunk = FindChunk(addr);
  if (chunk == nullptr) {
    v.kind = ViolationKind::kGlobalOutOfBounds;
    v.message = std::string(verb) + " targets memory outside the device arena";
    Report(std::move(v));
    return false;
  }
  v.offset = chunk->base_offset + (addr - chunk->base);
  if (chunk->dead) {
    v.kind = ViolationKind::kUseAfterReset;
    v.message = std::string(verb) + " of " + std::to_string(bytes) +
                " bytes at " + LocString(false, v.offset) +
                ": chunk was released by FreeAll()";
    Report(std::move(v));
    return false;
  }
  const size_t off = addr - chunk->base;
  if (off + bytes > chunk->capacity) {
    v.kind = ViolationKind::kGlobalOutOfBounds;
    v.message = std::string(verb) + " of " + std::to_string(bytes) +
                " bytes at " + LocString(false, v.offset) +
                ": runs past the end of the arena chunk";
    Report(std::move(v));
    return false;
  }
  const uint8_t* state = chunk->byte_state.data() + off;
  if (std::memchr(state, kStale, bytes) != nullptr) {
    v.kind = ViolationKind::kUseAfterReset;
    v.message = std::string(verb) + " of " + std::to_string(bytes) +
                " bytes at " + LocString(false, v.offset) +
                ": allocation was released by ResetArena()/FreeAll()";
    Report(std::move(v));
    return false;
  }
  if (std::memchr(state, kNeverAllocated, bytes) != nullptr) {
    v.kind = ViolationKind::kGlobalOutOfBounds;
    v.message = std::string(verb) + " of " + std::to_string(bytes) +
                " bytes at " + LocString(false, v.offset) +
                ": touches bytes outside any allocation";
    Report(std::move(v));
    return false;
  }
  return true;
}

void Sanitizer::ReportSharedOverflow(int64_t block, size_t requested_bytes,
                                     size_t capacity) {
  Violation v;
  v.kind = ViolationKind::kSharedOverflow;
  v.block = block;
  v.tid = kBlockScopeTid;
  v.shared = true;
  v.offset = capacity;
  v.bytes = requested_bytes;
  v.message = "Shared<T> allocation would grow the block's arena to " +
              std::to_string(requested_bytes) + " bytes (capacity " +
              std::to_string(capacity) + "); patched with host memory";
  Report(std::move(v));
}

void Sanitizer::Report(Violation v) {
  ++findings_;
  if (static_cast<int>(violations_.size()) >= kMaxDetailedViolations) return;
  if (v.kernel.empty()) v.kernel = kernel_;
  v.message = FormatViolation(v);
  violations_.push_back(std::move(v));
}

std::string Sanitizer::FormatViolation(const Violation& v) const {
  std::ostringstream os;
  os << "simtcheck: " << ViolationKindName(v.kind) << ": kernel '" << v.kernel
     << "'";
  if (v.block >= 0) {
    os << " block " << v.block << " " << TidString(v.tid);
    if (v.phase >= 0) os << " phase " << v.phase;
  } else {
    os << " (host)";
  }
  os << ": " << v.message;
  return os.str();
}

std::vector<std::string> Sanitizer::Reports(size_t max) const {
  std::vector<std::string> out;
  out.reserve(std::min(max, violations_.size()));
  for (const Violation& v : violations_) {
    if (out.size() >= max) break;
    out.push_back(v.message);
  }
  return out;
}

std::string Sanitizer::Summary() const {
  std::ostringstream os;
  os << "simtcheck: " << findings_ << " violation(s)";
  if (!violations_.empty()) os << "; first: " << violations_.front().message;
  return os.str();
}

void Sanitizer::ResetRunState() {
  findings_ = 0;
  checked_accesses_ = 0;
  violations_.clear();
  // launch_id_ keeps counting so shadow records from before the reset stay
  // stale instead of colliding with new launches.
}

}  // namespace proclus::simt
