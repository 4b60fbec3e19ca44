#include "tensor/buffer_pool.h"

#include <atomic>
#include <mutex>
#include <new>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/errors.h"

namespace rlgraph {

namespace {
thread_local BufferPool* t_current_pool = nullptr;
thread_local PlannedAllocScope* t_planned_scope = nullptr;
}  // namespace

// The pool's shared state. The BufferPool holds one reference, and so does
// every chunk it handed out, whether live in a Tensor or parked in a thread
// cache, so returns stay valid after the BufferPool object itself is gone.
// A chunk moving between a live buffer and a thread cache keeps its
// reference, so the steady-state alloc/free cycle touches no refcount.
struct BufferPool::State {
  std::mutex mutex;  // guards free_lists only; counters are atomic
  std::unordered_map<size_t, std::vector<void*>> free_lists;
  size_t max_pooled = 0;
  std::atomic<size_t> pooled{0};  // bytes on the shared free lists
  std::atomic<int64_t> reused{0};
  std::atomic<int64_t> allocated{0};
  std::atomic<int64_t> refs{1};

  void acquire() { refs.fetch_add(1, std::memory_order_relaxed); }
  void release() {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }

  // Put a chunk nobody holds on the shared lists, or free it when the pool
  // is at its cap. Retention check is racy-but-benign: a transient
  // overshoot of max_pooled by a few buffers is acceptable, permanent
  // growth is not.
  void return_chunk(void* chunk, size_t bytes) {
    if (pooled.load(std::memory_order_relaxed) + bytes <= max_pooled) {
      pooled.fetch_add(bytes, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mutex);
      free_lists[bytes].push_back(chunk);
      return;
    }
    ::operator delete(chunk);
  }
};

// Bounded per-thread stash of freed buffers. A chunk is parked here when
// the freeing thread has room, and allocate() checks it before the shared
// lists, so a thread that frees and reallocates the same shapes run after
// run never touches the shared mutex or an atomic counter. Entries keep
// their chunk's State reference; thread exit returns them to the shared
// lists (or the heap, if the pool is over its cap).
struct BufferPool::ThreadCache {
  struct Entry {
    State* state = nullptr;
    size_t bytes = 0;
    void* ptr = nullptr;
  };
  static constexpr size_t kCapacity = 16;
  Entry entries[kCapacity];
  size_t size = 0;

  static ThreadCache& get() {
    thread_local ThreadCache cache;
    return cache;
  }

  ~ThreadCache() {
    for (size_t i = 0; i < size; ++i) {
      entries[i].state->return_chunk(entries[i].ptr, entries[i].bytes);
      entries[i].state->release();
    }
    size = 0;
  }

  bool put(State* state, size_t bytes, void* p) {
    if (size == kCapacity) return false;
    entries[size++] = Entry{state, bytes, p};
    return true;
  }

  void* take(const State* state, size_t bytes) {
    for (size_t i = size; i-- > 0;) {
      if (entries[i].state == state && entries[i].bytes == bytes) {
        void* p = entries[i].ptr;
        entries[i] = entries[--size];
        return p;
      }
    }
    return nullptr;
  }
};

// Bytes in front of every chunk's data, reserved for the buffer's
// shared_ptr control block. A multiple of 16 keeps the data as aligned as
// operator new's.
constexpr size_t kHeaderBytes = 64;

// Allocator of a buffer's shared_ptr control block: it places the block in
// the header of the chunk it was made for. Its deallocate is the last touch
// of the control block (libstdc++ and libc++ destroy the block, then free it
// through a copy of this allocator), so that is where the chunk goes back to
// its pool, or to the heap when it has none.
template <typename T>
struct BufferPool::ChunkAllocator {
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = ChunkAllocator<U>;
  };

  ChunkAllocator(State* s, void* c, size_t b) : state(s), chunk(c), bytes(b) {}
  template <typename U>
  ChunkAllocator(const ChunkAllocator<U>& other)  // NOLINT: rebinding
      : state(other.state), chunk(other.chunk), bytes(other.bytes) {}

  T* allocate(size_t n) {
    static_assert(sizeof(T) <= kHeaderBytes && alignof(T) <= 16,
                  "shared_ptr control block does not fit the chunk header");
    RLG_CHECK_MSG(n == 1, "ChunkAllocator serves one control block");
    return static_cast<T*>(chunk);
  }

  void deallocate(T* p, size_t) noexcept {
    void* c = p;
    if (state == nullptr) {
      ::operator delete(c);
      return;
    }
    if (ThreadCache::get().put(state, bytes, c)) return;
    state->return_chunk(c, bytes);
    state->release();
  }

  template <typename U>
  bool operator==(const ChunkAllocator<U>& other) const {
    return chunk == other.chunk;
  }
  template <typename U>
  bool operator!=(const ChunkAllocator<U>& other) const {
    return chunk != other.chunk;
  }

  State* state;
  void* chunk;
  size_t bytes;
};

std::shared_ptr<void> BufferPool::make_buffer(State* state, void* chunk,
                                              size_t bytes) {
  // The deleter does nothing: the chunk outlives the data handle until the
  // control block inside it is released (ChunkAllocator::deallocate).
  return std::shared_ptr<void>(static_cast<char*>(chunk) + kHeaderBytes,
                               [](void*) {},
                               ChunkAllocator<char>(state, chunk, bytes));
}

BufferPool::BufferPool(size_t max_pooled_bytes) : state_(new State()) {
  state_->max_pooled = max_pooled_bytes;
}

BufferPool::~BufferPool() {
  trim();
  state_->release();
}

std::shared_ptr<void> BufferPool::allocate(size_t bytes) {
  if (bytes == 0) bytes = 1;
  // A thread-cache hit takes over the parked chunk's State reference, so it
  // needs no lock and no locked instruction: even the stat is a plain add,
  // exact while one thread at a time allocates from this pool (every serial
  // run) and approximate otherwise.
  void* p = ThreadCache::get().take(state_, bytes);
  if (p != nullptr) {
    state_->reused.store(state_->reused.load(std::memory_order_relaxed) +
                             static_cast<int64_t>(bytes),
                         std::memory_order_relaxed);
    return make_buffer(state_, p, bytes);
  }
  state_->acquire();
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    auto it = state_->free_lists.find(bytes);
    if (it != state_->free_lists.end() && !it->second.empty()) {
      p = it->second.back();
      it->second.pop_back();
      state_->pooled.fetch_sub(bytes, std::memory_order_relaxed);
    }
  }
  if (p != nullptr) {
    state_->reused.fetch_add(static_cast<int64_t>(bytes),
                             std::memory_order_relaxed);
  } else {
    state_->allocated.fetch_add(static_cast<int64_t>(bytes),
                                std::memory_order_relaxed);
    p = ::operator new(kHeaderBytes + bytes);
  }
  return make_buffer(state_, p, bytes);
}

std::shared_ptr<void> BufferPool::allocate_unpooled(size_t bytes) {
  if (bytes == 0) bytes = 1;
  return make_buffer(nullptr, ::operator new(kHeaderBytes + bytes), bytes);
}

void BufferPool::trim() {
  std::lock_guard<std::mutex> lock(state_->mutex);
  size_t freed = 0;
  for (auto& [bytes, list] : state_->free_lists) {
    for (void* p : list) ::operator delete(p);
    freed += bytes * list.size();
    list.clear();
  }
  state_->free_lists.clear();
  state_->pooled.fetch_sub(freed, std::memory_order_relaxed);
}

int64_t BufferPool::bytes_reused() const {
  return state_->reused.load(std::memory_order_relaxed);
}

int64_t BufferPool::bytes_allocated() const {
  return state_->allocated.load(std::memory_order_relaxed);
}

int64_t BufferPool::pooled_bytes() const {
  return static_cast<int64_t>(state_->pooled.load(std::memory_order_relaxed));
}

BufferPool* BufferPool::current() { return t_current_pool; }

BufferPoolScope::BufferPoolScope(BufferPool* pool) : previous_(t_current_pool) {
  t_current_pool = pool;
}

BufferPoolScope::~BufferPoolScope() { t_current_pool = previous_; }

PlannedAllocScope::PlannedAllocScope() : previous_(t_planned_scope) {
  t_planned_scope = this;
}

PlannedAllocScope::~PlannedAllocScope() { t_planned_scope = previous_; }

void PlannedAllocScope::add(size_t bytes, std::shared_ptr<void> storage) {
  entries_.push_back(Entry{bytes == 0 ? 1 : bytes, std::move(storage)});
}

std::shared_ptr<void> PlannedAllocScope::try_take(size_t bytes) {
  PlannedAllocScope* scope = t_planned_scope;
  if (scope == nullptr) return nullptr;
  for (Entry& e : scope->entries_) {
    if (e.bytes == bytes && e.storage != nullptr) {
      return std::move(e.storage);  // leaves a consumed (null) entry behind
    }
  }
  return nullptr;
}

}  // namespace rlgraph
