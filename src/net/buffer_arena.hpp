// Pooled frame slabs for the event-driven nexusd data path.
//
// The reactor parses request frames and stages coalesced response bytes
// in fixed-size slabs drawn from a BufferArena instead of allocating a
// fresh std::vector per RPC. Slabs recycle through a bounded free list:
// steady-state service of thousands of connections touches the allocator
// only while the working set is still growing, and the high-water gauge
// makes the working set observable (Stats RPC -> nexus-stat).
//
// Frames larger than one slab (big Puts, Get replies near the 64 MiB
// object bound) deliberately bypass the arena — they are rare, their
// buffers are short-lived, and pinning multi-megabyte slabs in a free
// list would be worse than the allocation. The arena only counts them
// (`oversize_frames`) so the bypass rate is visible.
//
// Thread model: Acquire() and slab release may happen on any thread (the
// rpc-worker pool releases response slabs it finished writing). The
// internal state is shared_ptr-owned so a slab released after the arena
// itself was destroyed simply frees instead of dangling.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/bytes.hpp"

namespace nexus::net {

struct ArenaState; // private to buffer_arena.cpp

class BufferArena {
 public:
  /// One pooled buffer. `size` tracks how many leading bytes are valid;
  /// the capacity is fixed at the arena's slab size.
  struct Slab {
    Bytes buf;
    std::size_t size = 0;

    std::uint8_t* data() noexcept { return buf.data(); }
    const std::uint8_t* data() const noexcept { return buf.data(); }
    std::size_t capacity() const noexcept { return buf.size(); }
  };

  struct Stats {
    std::uint64_t slab_bytes = 0;      // configured slab capacity
    std::uint64_t acquires = 0;        // total Acquire() calls
    std::uint64_t recycled = 0;        // ... of which served from the free list
    std::uint64_t slabs_allocated = 0; // fresh heap allocations
    std::uint64_t slabs_in_use = 0;    // gauge: currently checked out
    std::uint64_t slabs_high_water = 0;
    std::uint64_t oversize_frames = 0; // frames that bypassed the arena
  };

  class Releaser {
   public:
    Releaser() = default;
    explicit Releaser(std::shared_ptr<ArenaState> state)
        : state_(std::move(state)) {}
    void operator()(Slab* slab) const;

   private:
    std::shared_ptr<ArenaState> state_;
  };

  /// Returning a SlabPtr (destroying it) recycles the slab.
  using SlabPtr = std::unique_ptr<Slab, Releaser>;

  static constexpr std::size_t kDefaultSlabBytes = 64u << 10;
  static constexpr std::size_t kDefaultMaxFreeSlabs = 128;

  explicit BufferArena(std::size_t slab_bytes = kDefaultSlabBytes,
                       std::size_t max_free_slabs = kDefaultMaxFreeSlabs);

  /// Checks out an empty slab (size = 0), recycling a free one when
  /// available. Never fails; falls back to a fresh allocation.
  SlabPtr Acquire();

  /// Records a frame that was too large for a slab and went to the heap.
  void NoteOversize();

  std::size_t slab_bytes() const noexcept { return slab_bytes_; }
  Stats stats() const;

 private:
  std::size_t slab_bytes_;
  std::shared_ptr<ArenaState> state_;
};

} // namespace nexus::net
