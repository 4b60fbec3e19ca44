// Size-class buffer pool backing steady-state tensor allocation.
//
// A CompiledPlan run produces the same tensor shapes on every invocation;
// without pooling, each run pays one heap allocation per intermediate. The
// pool recycles buffers by exact byte size: while a pool is active on the
// current thread (see BufferPoolScope), Tensor allocations are served from
// its free lists, and buffers return to the pool when their last Tensor
// handle dies — whenever that happens, on whatever thread. Each buffer's
// shared_ptr control block lives in a header at the front of its chunk
// (see ChunkAllocator in buffer_pool.cc): a pool hit performs no heap
// operation at all, a miss exactly one. The control block carries the
// return path and a reference to the pool state, so a pool may be destroyed
// while buffers it allocated are still in flight.
//
// Thread safety: the shared free lists are mutex-guarded, and each thread
// additionally keeps a small bounded cache of recently freed buffers, so
// the steady-state alloc/free cycle skips the shared mutex and every
// refcount entirely. Stats counters are atomics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace rlgraph {

class BufferPool {
 public:
  // `max_pooled_bytes` caps how many bytes the free lists may retain;
  // returns beyond the cap free immediately.
  explicit BufferPool(size_t max_pooled_bytes = 64ull << 20);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Allocate `bytes` from this thread's cache, the shared free lists
  // (exact-size match), or the heap.
  std::shared_ptr<void> allocate(size_t bytes);

  // A buffer outside any pool: one heap allocation holding both the
  // control block and the data, freed when the last handle dies.
  static std::shared_ptr<void> allocate_unpooled(size_t bytes);

  // Drop all retained free buffers from the shared lists. Buffers parked
  // in other threads' caches stay there until those threads free or exit.
  void trim();

  // --- stats ---------------------------------------------------------------
  // Bytes served from the free lists or a thread cache (reuse) vs. fresh
  // heap allocations.
  int64_t bytes_reused() const;
  int64_t bytes_allocated() const;
  // Bytes retained on the shared free lists (each thread's cache holds at
  // most a few buffers on top).
  int64_t pooled_bytes() const;

  // The pool active on this thread (set by BufferPoolScope), or nullptr.
  static BufferPool* current();

 private:
  friend class BufferPoolScope;

  struct State;
  struct ThreadCache;
  template <typename T>
  struct ChunkAllocator;

  static std::shared_ptr<void> make_buffer(State* state, void* chunk,
                                           size_t bytes);

  State* state_;
};

// RAII activation of a pool for the current thread. Nests (restores the
// previously active pool on destruction).
class BufferPoolScope {
 public:
  explicit BufferPoolScope(BufferPool* pool);
  ~BufferPoolScope();

  BufferPoolScope(const BufferPoolScope&) = delete;
  BufferPoolScope& operator=(const BufferPoolScope&) = delete;

 private:
  BufferPool* previous_;
};

// Compile-time-planned output storage for one plan step (see the arena
// planner in graph/exec_plan.h). While a scope is active on the current
// thread, tensor allocations whose byte size exactly matches a pending
// planned block are served that block instead of going to the pool — this
// is how a shape-specialized plan's kernel outputs land at their preplanned
// arena offsets without changing the kernel ABI. Sizes that match nothing
// (kernel temporaries, unplanned outputs) fall through to the pool/heap as
// usual. Blocks are consumed at most once per scope.
class PlannedAllocScope {
 public:
  PlannedAllocScope();
  ~PlannedAllocScope();

  PlannedAllocScope(const PlannedAllocScope&) = delete;
  PlannedAllocScope& operator=(const PlannedAllocScope&) = delete;

  // Register one planned block (storage aliases the plan's arena).
  void add(size_t bytes, std::shared_ptr<void> storage);

  // Drop any unconsumed blocks but keep the entry vector's capacity, so a
  // scope reused across a plan's steps stages ranges without allocating.
  void reset() { entries_.clear(); }

  // Called by the tensor allocator: pop a pending block of exactly `bytes`,
  // or nullptr when no scope is active / nothing matches.
  static std::shared_ptr<void> try_take(size_t bytes);

 private:
  struct Entry {
    size_t bytes;
    std::shared_ptr<void> storage;
  };
  std::vector<Entry> entries_;
  PlannedAllocScope* previous_;
};

}  // namespace rlgraph
