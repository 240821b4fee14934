// Opt-in allocation counting for steady-state "allocations per event"
// measurements (bench/micro_kernel.cc).
//
// The counters are plain process-wide atomics; they only move when the
// binary opts into counting by expanding FLEX_DEFINE_COUNTING_ALLOCATOR()
// at namespace scope in exactly one translation unit. That TU's operator
// new/delete replace the global ones for the whole binary (ODR-sanctioned
// replacement), so *every* allocation is observed — including ones from
// inlined library code. Binaries that never expand the macro pay nothing:
// the counters exist but stay zero and `counting_enabled()` reports false.
//
// Deliberately NOT enabled for the test or simulator targets: replacing
// operator new changes allocator behaviour enough to perturb malloc
// tuning, and the simulator's correctness contract is byte-identical
// output, not allocation counts.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>  // std::malloc / std::free for the macro expansion
#include <new>      // std::bad_alloc for the macro expansion

namespace flex::common::alloc_counter {

inline std::atomic<std::uint64_t>& news() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

inline std::atomic<std::uint64_t>& bytes() {
  static std::atomic<std::uint64_t> total{0};
  return total;
}

inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

/// True when the counting operator new is linked into this binary.
inline bool counting_enabled() {
  return enabled_flag().load(std::memory_order_relaxed);
}

/// Total operator new / new[] calls observed so far.
inline std::uint64_t allocation_count() {
  return news().load(std::memory_order_relaxed);
}

/// Total bytes requested from operator new / new[] so far.
inline std::uint64_t allocation_bytes() {
  return bytes().load(std::memory_order_relaxed);
}

}  // namespace flex::common::alloc_counter

/// Expands to global operator new/delete replacements that bump the
/// counters above. Use at namespace scope in ONE translation unit of a
/// binary that wants allocation counting (see header comment).
#define FLEX_DEFINE_COUNTING_ALLOCATOR()                                     \
  namespace flex::common::alloc_counter::detail {                            \
  /* Linking the replacement is what enables counting, so the flag is set */ \
  /* at static initialisation, not by the first counted allocation. */       \
  [[maybe_unused]] const bool counting_linked = [] {                        \
    ::flex::common::alloc_counter::enabled_flag().store(                     \
        true, std::memory_order_relaxed);                                    \
    return true;                                                             \
  }();                                                                       \
  inline void* counted_alloc(std::size_t size) {                             \
    ::flex::common::alloc_counter::news().fetch_add(                         \
        1, std::memory_order_relaxed);                                       \
    ::flex::common::alloc_counter::bytes().fetch_add(                        \
        size, std::memory_order_relaxed);                                    \
    if (void* ptr = std::malloc(size ? size : 1)) return ptr;                \
    throw std::bad_alloc{};                                                  \
  }                                                                          \
  }                                                                          \
  void* operator new(std::size_t size) {                                     \
    return ::flex::common::alloc_counter::detail::counted_alloc(size);       \
  }                                                                          \
  void* operator new[](std::size_t size) {                                   \
    return ::flex::common::alloc_counter::detail::counted_alloc(size);       \
  }                                                                          \
  void operator delete(void* ptr) noexcept { std::free(ptr); }               \
  void operator delete[](void* ptr) noexcept { std::free(ptr); }             \
  void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }  \
  void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
