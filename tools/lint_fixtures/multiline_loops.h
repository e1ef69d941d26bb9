// Regression fixture for tools/pto_lint.py's multi-line loop handling.
// NOT compiled into the build; consumed by tools/test_lint.py (ctest
// "lint_unit").
//
// Historical defects pinned here:
//   - a do-while's trailing `while (cond);` was re-matched as a phantom
//     standalone while loop, flagged unbounded at a line the annotation on
//     the `do` could never cover (worst with a multi-line tail condition);
//   - bounded() annotations only matched the loop keyword's line or the
//     line before it, so a header spanning several lines could not carry
//     its annotation on any later header line.
//
// Site 1 (good_multiline) must lint clean; site 2 (bad_do_while) must
// produce exactly one unbounded-loop violation, attributed to the `do`
// keyword's line, not to the trailing while's.
#pragma once

#include <atomic>

#include "core/prefix.h"

namespace pto::lint_fixture {

template <class P>
int good_multiline(std::atomic<int>& a, std::atomic<int>& b) {
  return prefix<P>(
      1,
      [&]() -> int {
        int sum = 0;
        // Annotation on the line before a do loop whose tail condition
        // spans two lines; the tail must not become a phantom while.
        // pto-lint: bounded(two half-words; each iteration clears one)
        do {
          sum += a.load(std::memory_order_relaxed);
        } while (a.load(std::memory_order_relaxed) != 0 &&
                 b.load(std::memory_order_relaxed) != 0);
        // Annotation on a continuation line of a multi-line while header.
        while (a.load(std::memory_order_relaxed) +
               b.load(std::memory_order_relaxed) >  // pto-lint: bounded(8)
               0) {
          sum -= 1;
        }
        // for(;;) needs an annotation; header spans three lines and the
        // annotation sits on the line before the keyword.
        // pto-lint: bounded(4 retries; i advances every iteration)
        for (int i = 0;
             ;
             ++i) {
          if (i >= 4) break;
          sum += i;
        }
        b.store(sum, std::memory_order_relaxed);
        return sum;
      },
      [&]() -> int { return b.load(); });
}

template <class P>
int bad_do_while(std::atomic<int>& a) {
  return prefix<P>(
      1,
      [&]() -> int {
        int sum = 0;
        do {
          sum += a.load(std::memory_order_relaxed);
        } while (a.load(std::memory_order_relaxed) != 0 &&
                 sum < 100);
        return sum;
      },
      [&]() -> int { return a.load(); });
}

}  // namespace pto::lint_fixture
