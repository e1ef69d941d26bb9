// Basic project-wide definitions: cache-line geometry, thread limits,
// branch hints, and small utilities shared by every module.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cassert>

namespace pto {

/// Cache-line size assumed by both the native padding helpers and the
/// simulator's line-granular conflict detection.
inline constexpr std::size_t kCacheLine = 64;

/// Maximum number of threads (native) or virtual threads (simulator) that may
/// concurrently use a single data-structure instance. The simulator's thread
/// sets (common/threadset.h, and the per-line sets in sim/runtime_internal.h)
/// have this many bits; the packed dispatcher keys reserve 10 bits for the tid.
inline constexpr unsigned kMaxThreads = 1024;

/// 64-bit words in a kMaxThreads-wide ThreadSet.
inline constexpr unsigned kThreadWords = (kMaxThreads + 63) / 64;

#if defined(__GNUC__) || defined(__clang__)
#define PTO_LIKELY(x) __builtin_expect(!!(x), 1)
#define PTO_UNLIKELY(x) __builtin_expect(!!(x), 0)
#define PTO_NOINLINE __attribute__((noinline))
#else
#define PTO_LIKELY(x) (x)
#define PTO_UNLIKELY(x) (x)
#define PTO_NOINLINE
#endif

/// Alignment wrapper that gives a value its own cache line, preventing false
/// sharing between per-thread slots.
template <class T>
struct alignas(kCacheLine) CacheAligned {
  T value{};
};

}  // namespace pto
