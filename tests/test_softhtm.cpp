// Native HTM layer: backend probing, SoftHTM transactional semantics
// (atomicity, rollback, validation, read-own-writes, nesting, opacity,
// shared stripes, lock release on failure, capacity), the strongly-atomic
// non-transactional accessors, and real-thread stress.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/prefix.h"
#include "htm/htm.h"
#include "htm/softhtm.h"
#include "platform/native_platform.h"
#include "service/runtime.h"
#include "site_delta.h"

namespace {

using pto::Atom;
using pto::NativePlatform;
namespace soft = pto::softhtm;

/// Run `fn` as a SoftHTM transaction directly (independent of the backend
/// the process probed).
template <class Fn>
unsigned soft_tx(Fn&& fn) {
  int j = setjmp(soft::tls_tx().env);
  if (j != 0) return static_cast<unsigned>(j);
  unsigned s = soft::begin();
  EXPECT_EQ(s, pto::TX_STARTED);
  fn();
  soft::commit();
  return pto::TX_STARTED;
}

/// A platform whose transactions are always SoftHTM's, so prefix() can be
/// tested on this backend whatever the process probed.
struct SoftOnly {
  static bool in_tx() { return soft::in_tx(); }
  static std::jmp_buf& tx_checkpoint() { return soft::tls_tx().env; }
  static unsigned tx_begin() { return soft::begin(); }
  static void tx_end() { soft::commit(); }
};

/// One word on a cache line of its own.
struct alignas(64) Line {
  std::atomic<std::uint64_t> w{0};
};

/// `n` lines whose stripes are pairwise distinct.
std::vector<Line*> distinct_stripe_lines(std::unique_ptr<Line[]>& storage,
                                         std::size_t n) {
  const std::size_t pool = 4 * n;
  storage = std::make_unique<Line[]>(pool);
  std::unordered_set<const soft::Stripe*> seen;
  std::vector<Line*> out;
  for (std::size_t i = 0; i < pool && out.size() < n; ++i) {
    if (seen.insert(&soft::stripe_of(&storage[i])).second) {
      out.push_back(&storage[i]);
    }
  }
  return out;
}

TEST(SoftHtm, CommitPublishesAllWrites) {
  std::atomic<int> a{0}, b{0};
  unsigned s = soft_tx([&] {
    soft::tx_store(a, 1);
    soft::tx_store(b, 2);
    // Buffered: not visible before commit.
    EXPECT_EQ(a.load(), 0);
  });
  EXPECT_EQ(s, pto::TX_STARTED);
  EXPECT_EQ(a.load(), 1);
  EXPECT_EQ(b.load(), 2);
}

TEST(SoftHtm, ReadOwnWrites) {
  std::atomic<int> a{5};
  soft_tx([&] {
    soft::tx_store(a, 7);
    EXPECT_EQ(soft::tx_load(a), 7);
    soft::tx_store(a, 9);
    EXPECT_EQ(soft::tx_load(a), 9);
  });
  EXPECT_EQ(a.load(), 9);
}

TEST(SoftHtm, ExplicitAbortDiscardsWrites) {
  std::atomic<int> a{5};
  unsigned s = soft_tx([&] {
    soft::tx_store(a, 7);
    soft::abort_tx(pto::TX_ABORT_EXPLICIT, pto::TX_CODE_POLICY);
  });
  EXPECT_EQ(s, pto::TX_ABORT_EXPLICIT);
  EXPECT_EQ(a.load(), 5);
  EXPECT_EQ(soft::last_user_code(), pto::TX_CODE_POLICY);
}

TEST(SoftHtm, ConflictingNtStoreAborts) {
  std::atomic<int> a{1};
  unsigned s = soft_tx([&] {
    EXPECT_EQ(soft::tx_load(a), 1);
    // Another "thread" (here: same thread via the nt accessor) changes the
    // value after our read. A read-only transaction would commit as of its
    // last read, which came before the change; the write makes commit
    // validate the read set.
    soft::tx_store(a, 10);
    soft::nt_store(a, 2);  // bumps a's stripe version + changes the value
  });
  EXPECT_EQ(s, pto::TX_ABORT_CONFLICT);
  EXPECT_EQ(a.load(), 2);  // the nt store survived; the tx did not
}

TEST(SoftHtm, OpacityInsideTheBody) {
  // Writers keep a == b (on different lines, so different stripes); a
  // reader transaction compares them *inside* its body, before commit.
  // Re-validating the read set on every read means the body never sees a
  // mixed snapshot, even in attempts that later abort. Threads are pinned
  // to distinct CPUs where the host allows, so they really overlap.
  Line a, b;
  ASSERT_NE(&soft::stripe_of(&a), &soft::stripe_of(&b));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> mixed{0}, commits{0};

  std::vector<std::thread> ts;
  for (unsigned t = 1; t <= 2; ++t) {
    ts.emplace_back([&, t] {
      pto::service::Runtime::pin_to_cpu(t);
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (soft_tx([&] {
              soft::tx_store(a.w, soft::tx_load(a.w) + 1);
              soft::tx_store(b.w, soft::tx_load(b.w) + 1);
            }) == pto::TX_STARTED) {
          ++n;
        }
      }
      commits.fetch_add(n);
    });
  }
  ts.emplace_back([&] {
    pto::service::Runtime::pin_to_cpu(0);
    for (int i = 0; i < 20'000; ++i) {
      soft_tx([&] {
        const std::uint64_t x = soft::tx_load(a.w);
        // Widen the window for a writer to commit between the two reads.
        for (int k = 0; k < 16; ++k) soft::detail::cpu_relax();
        const std::uint64_t y = soft::tx_load(b.w);
        if (x != y) mixed.fetch_add(1, std::memory_order_relaxed);
      });
    }
    stop.store(true);
  });
  for (auto& t : ts) t.join();

  EXPECT_EQ(mixed.load(), 0u);
  EXPECT_GT(commits.load(), 0u);
  EXPECT_EQ(a.w.load(), commits.load());
  EXPECT_EQ(b.w.load(), commits.load());
}

TEST(SoftHtm, TwoWordsOnOneLineShareAStripe) {
  struct alignas(64) Pair {
    std::atomic<std::uint32_t> x{0}, y{0};
  } p;
  soft::Stripe& s = soft::stripe_of(&p.x);
  ASSERT_EQ(&s, &soft::stripe_of(&p.y));
  const std::uint64_t before = s.load();
  EXPECT_EQ(soft_tx([&] {
              soft::tx_store(p.x, 1u);
              soft::tx_store(p.y, 2u);
            }),
            pto::TX_STARTED);
  EXPECT_EQ(p.x.load(), 1u);
  EXPECT_EQ(p.y.load(), 2u);
  EXPECT_EQ(s.load(), before + 2);  // locked once, released once
}

TEST(SoftHtm, CollidingLinesShareAStripe) {
  // Find two distinct lines that hash to one stripe. Fibonacci hashing
  // spreads neighbouring lines apart, so take one line more than there are
  // stripes: some pair must collide.
  constexpr std::size_t kPool = soft::kStripes + 1;
  auto lines = std::make_unique<Line[]>(kPool);
  std::unordered_map<const soft::Stripe*, Line*> first;
  Line* u = nullptr;
  Line* v = nullptr;
  for (std::size_t i = 0; i < kPool && u == nullptr; ++i) {
    auto [it, fresh] = first.emplace(&soft::stripe_of(&lines[i]), &lines[i]);
    if (!fresh) {
      u = it->second;
      v = &lines[i];
    }
  }
  ASSERT_NE(u, nullptr);
  soft::Stripe& s = soft::stripe_of(u);
  const std::uint64_t before = s.load();
  EXPECT_EQ(soft_tx([&] {
              soft::tx_store(u->w, std::uint64_t{11});
              soft::tx_store(v->w, std::uint64_t{22});
            }),
            pto::TX_STARTED);
  EXPECT_EQ(u->w.load(), 11u);
  EXPECT_EQ(v->w.load(), 22u);
  EXPECT_EQ(s.load(), before + 2);

  // Read one line, write the other: the read validates against the lock
  // this commit holds on the shared stripe.
  EXPECT_EQ(soft_tx([&] { soft::tx_store(v->w, soft::tx_load(u->w) + 1); }),
            pto::TX_STARTED);
  EXPECT_EQ(v->w.load(), 12u);
  EXPECT_EQ(s.load(), before + 4);
}

TEST(SoftHtm, ReadAndWrittenStripeValidatesAgainstOwnLock) {
  struct alignas(64) Pair {
    std::atomic<std::uint64_t> x{5}, y{0};
  } p;
  EXPECT_EQ(soft_tx([&] { soft::tx_store(p.y, soft::tx_load(p.x) * 2); }),
            pto::TX_STARTED);
  EXPECT_EQ(p.y.load(), 10u);
  // Same word read and written.
  EXPECT_EQ(soft_tx([&] { soft::tx_store(p.x, soft::tx_load(p.x) + 1); }),
            pto::TX_STARTED);
  EXPECT_EQ(p.x.load(), 6u);
}

TEST(SoftHtm, FailedValidationReleasesEveryLock) {
  std::unique_ptr<Line[]> storage;
  const std::vector<Line*> l = distinct_stripe_lines(storage, 4);
  ASSERT_EQ(l.size(), 4u);
  Line& r = *l[0];
  std::vector<std::uint64_t> before;
  for (Line* w : l) before.push_back(soft::stripe_of(w).load());
  // Read r, write the other three, and change r before commit: commit takes
  // all three write locks, then fails validating r.
  const unsigned s = soft_tx([&] {
    (void)soft::tx_load(r.w);
    for (std::size_t i = 1; i < l.size(); ++i) {
      soft::tx_store(l[i]->w, std::uint64_t{100 + i});
    }
    soft::nt_store(r.w, std::uint64_t{1});
  });
  EXPECT_EQ(s, pto::TX_ABORT_CONFLICT);
  for (std::size_t i = 1; i < l.size(); ++i) {
    // Released at the old version: nothing was written.
    ASSERT_EQ(soft::stripe_of(l[i]).load(), before[i]);
    EXPECT_EQ(l[i]->w.load(), 0u);
    soft::nt_store(l[i]->w, std::uint64_t{7});  // would spin on a leaked lock
    EXPECT_EQ(soft::nt_load(l[i]->w), 7u);
  }
}

TEST(SoftHtm, BusyStripeAbortsCommitAndReleasesTakenLocks) {
  std::unique_ptr<Line[]> storage;
  const std::vector<Line*> l = distinct_stripe_lines(storage, 3);
  ASSERT_EQ(l.size(), 3u);
  soft::Stripe& busy = soft::stripe_of(l[2]);
  const std::uint64_t v0 = soft::stripe_of(l[0]).load();
  const std::uint64_t v1 = soft::stripe_of(l[1]).load();
  // Hold the last write stripe as a non-transactional writer would.
  const std::uint64_t held = soft::detail::lock_stripe(busy);
  const unsigned s = soft_tx([&] {
    for (Line* w : l) soft::tx_store(w->w, std::uint64_t{9});
  });
  EXPECT_EQ(s, pto::TX_ABORT_CONFLICT);  // no waiting on the busy stripe
  busy.store(held);
  ASSERT_EQ(soft::stripe_of(l[0]).load(), v0);
  ASSERT_EQ(soft::stripe_of(l[1]).load(), v1);
  for (Line* w : l) {
    EXPECT_EQ(w->w.load(), 0u);
    soft::nt_store(w->w, std::uint64_t{3});
    EXPECT_EQ(soft::nt_load(w->w), 3u);
  }
}

TEST(SoftHtm, ReadSetOverflowAbortsWithCapacity) {
  std::unique_ptr<Line[]> storage;
  const std::vector<Line*> l =
      distinct_stripe_lines(storage, soft::kReadCapacity + 1);
  ASSERT_EQ(l.size(), soft::kReadCapacity + 1);
  // Exactly at capacity commits.
  EXPECT_EQ(soft_tx([&] {
              for (unsigned i = 0; i < soft::kReadCapacity; ++i) {
                (void)soft::tx_load(l[i]->w);
              }
            }),
            pto::TX_STARTED);
  SiteDelta st("test.softhtm.st");
  const int r = pto::prefix<SoftOnly>(
      4,
      [&]() -> int {
        for (Line* x : l) (void)soft::tx_load(x->w);
        return 1;
      },
      [&]() -> int { return 2; }, st.site());
  EXPECT_EQ(r, 2);
  EXPECT_EQ(st.get().attempts, 1u);  // capacity aborts are not retried by default
  EXPECT_EQ(st.get().aborts[pto::TX_ABORT_CAPACITY], 1u);
  EXPECT_EQ(st.get().fallbacks, 1u);
  EXPECT_FALSE(soft::in_tx());
}

TEST(SoftHtm, WriteSetOverflowAbortsWithCapacity) {
  std::vector<std::atomic<std::uint64_t>> words(soft::kWriteCapacity + 1);
  EXPECT_EQ(soft_tx([&] {
              for (unsigned i = 0; i < soft::kWriteCapacity; ++i) {
                soft::tx_store(words[i], std::uint64_t{1});
              }
            }),
            pto::TX_STARTED);
  SiteDelta st("test.softhtm.st");
  const int r = pto::prefix<SoftOnly>(
      4,
      [&]() -> int {
        for (auto& w : words) soft::tx_store(w, std::uint64_t{2});
        return 1;
      },
      [&]() -> int { return 2; }, st.site());
  EXPECT_EQ(r, 2);
  EXPECT_EQ(st.get().aborts[pto::TX_ABORT_CAPACITY], 1u);
  EXPECT_EQ(st.get().fallbacks, 1u);
  for (auto& w : words) EXPECT_LE(w.load(), 1u);  // nothing from the abort
}

TEST(SoftHtm, MixedNtAndTxIncrementsOnSharedStripesAreAtomic) {
  // Two counters on one line (one stripe). Half the threads add through
  // nt_fetch_add, half through transactions; no update may be lost.
  struct alignas(64) Pair {
    std::atomic<std::uint64_t> x{0}, y{0};
  } p;
  constexpr int kIters = 20'000;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&, t] {
      pto::service::Runtime::pin_to_cpu(static_cast<unsigned>(t));
      for (int i = 0; i < kIters; ++i) {
        if (t % 2 == 0) {
          soft::nt_fetch_add(p.x, std::uint64_t{1});
          std::uint64_t e = soft::nt_load(p.y);
          while (!soft::nt_cas(p.y, e, e + 1)) {
          }
        } else {
          while (soft_tx([&] {
                   soft::tx_store(p.x, soft::tx_load(p.x) + 1);
                   soft::tx_store(p.y, soft::tx_load(p.y) + 1);
                 }) != pto::TX_STARTED) {
          }
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(p.x.load(), 4u * kIters);
  EXPECT_EQ(p.y.load(), 4u * kIters);
}

TEST(SoftHtm, FlatNesting) {
  std::atomic<int> a{0};
  soft_tx([&] {
    soft::tx_store(a, 1);
    EXPECT_EQ(soft::begin(), pto::TX_STARTED);  // nested
    soft::tx_store(a, 2);
    soft::commit();  // inner commit: nothing published yet
    EXPECT_EQ(a.load(), 0);
    soft::tx_store(a, 3);
  });
  EXPECT_EQ(a.load(), 3);
}

TEST(SoftHtm, NtAccessorsAreLinearizable) {
  std::atomic<std::uint64_t> x{0};
  std::uint64_t expect = 0;
  EXPECT_TRUE(soft::nt_cas(x, expect, std::uint64_t{5}));
  EXPECT_EQ(soft::nt_load(x), 5u);
  EXPECT_EQ(soft::nt_fetch_add(x, std::uint64_t{3}), 5u);
  EXPECT_EQ(soft::nt_load(x), 8u);
  expect = 7;
  EXPECT_FALSE(soft::nt_cas(x, expect, std::uint64_t{9}));
  EXPECT_EQ(expect, 8u);
}

TEST(SoftHtm, RealThreadsMultiWordInvariant) {
  // 4 real threads keep (a, b) equal through prefix transactions under
  // whatever backend the machine offers; a checker thread uses the same
  // platform accessors and must never observe a != b.
  Atom<NativePlatform, std::uint64_t> a, b;
  a.init(0);
  b.init(0);
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::thread checker([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      // Read the pair inside a transaction for a consistent snapshot.
      auto pair_equal = pto::prefix<NativePlatform>(
          8,
          [&]() -> bool {
            return a.load(std::memory_order_relaxed) ==
                   b.load(std::memory_order_relaxed);
          },
          [&]() -> bool { return true; /* inconclusive, skip */ });
      if (!pair_equal) violations.fetch_add(1);
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 20'000; ++i) {
        pto::prefix<NativePlatform>(
            8,
            [&] {
              auto v = a.load(std::memory_order_relaxed);
              a.store(v + 1, std::memory_order_relaxed);
              b.store(b.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
            },
            [&] {
              // Lock-free-ish fallback preserving the invariant atomically
              // is impossible without a tx; use nt accessors under SoftHTM,
              // or retry the tx. Here: spin on the fast path.
              for (;;) {
                bool done = pto::prefix<NativePlatform>(
                    64,
                    [&]() -> bool {
                      auto v = a.load(std::memory_order_relaxed);
                      a.store(v + 1, std::memory_order_relaxed);
                      b.store(b.load(std::memory_order_relaxed) + 1,
                              std::memory_order_relaxed);
                      return true;
                    },
                    [&]() -> bool { return false; });
                if (done) return;
                std::this_thread::yield();
              }
            });
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  checker.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(a.load(), 80'000u);
  EXPECT_EQ(b.load(), 80'000u);
}

TEST(Htm, BackendProbeIsSticky) {
  auto b1 = pto::htm::backend();
  auto b2 = pto::htm::backend();
  EXPECT_EQ(b1, b2);
  if (b1 == pto::htm::Backend::kRTM) {
    EXPECT_TRUE(pto::htm::strongly_atomic());
  } else {
    EXPECT_FALSE(pto::htm::strongly_atomic());
  }
}

TEST(Htm, InTxReflectsState) {
  EXPECT_FALSE(NativePlatform::in_tx());
  bool was_in_tx = false;
  const int path = pto::prefix<NativePlatform>(
      4,
      [&] {
        was_in_tx = NativePlatform::in_tx();
        return 1;
      },
      [&] { return 0; });
  EXPECT_FALSE(NativePlatform::in_tx());
  // One thread alone never conflicts, so SoftHTM commits; RTM may abort
  // (and roll back was_in_tx) for reasons of its own.
  if (pto::htm::backend() == pto::htm::Backend::kSoft) {
    EXPECT_EQ(path, 1);
  }
  if (path == 1) {
    EXPECT_TRUE(was_in_tx);
  }
}

}  // namespace
