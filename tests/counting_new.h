// A replaced global operator new that counts allocations on threads that
// opted in, for tests that bound the heap operations of a call.
//
// Include from exactly one translation unit of a test binary: it defines the
// global allocation functions. Counting is per thread (the tests pin the
// kernel pool to the calling thread), so allocations made by other threads
// never reach a count.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>

namespace heap_count {

inline thread_local bool t_counting = false;
inline thread_local int64_t t_allocations = 0;

inline void* counted_alloc(std::size_t size) {
  if (t_counting) ++t_allocations;
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

inline void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (t_counting) ++t_allocations;
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Counts this thread's allocations from construction to stop().
class Counter {
 public:
  Counter() {
    t_allocations = 0;
    t_counting = true;
  }
  int64_t stop() {
    t_counting = false;
    return t_allocations;
  }
};

}  // namespace heap_count

void* operator new(std::size_t size) { return heap_count::counted_alloc(size); }
void* operator new[](std::size_t size) {
  return heap_count::counted_alloc(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return heap_count::counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return heap_count::counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return heap_count::counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return heap_count::counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
