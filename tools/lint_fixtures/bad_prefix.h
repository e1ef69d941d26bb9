// Seeded-defect fixture for tools/pto_lint.py. NOT compiled into the build:
// this prefix body commits every HTM-safety sin the lint knows about, and CI
// asserts the lint rejects it (see .github/workflows/ci.yml). Keep the sins
// in sync with the checks if you extend the lint.
#pragma once

#include <atomic>
#include <cstdlib>

#include "core/prefix.h"

namespace pto::lint_fixture {

template <class P>
int bad_prefix_everything(std::atomic<int>& shared) {
  return prefix<P>(
      1,
      [&]() -> int {
        int* leak = new int(7);                              // allocation
        void* raw = std::malloc(64);                         // allocation
        std::atomic_thread_fence(std::memory_order_seq_cst); // raw fence
        while (shared.load(std::memory_order_relaxed) != 0) {
          // unbounded: spins on another thread's store inside the tx
        }
        shared.store(*leak, std::memory_order_relaxed);
        std::free(raw);
        delete leak;
        return 1;
      },
      [&]() -> int { return 0; });  // sentinel fallback
}

}  // namespace pto::lint_fixture
