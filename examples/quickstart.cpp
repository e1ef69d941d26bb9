// Quickstart: the PTO library in five minutes.
//
// Build:  cmake -B build -G Ninja && cmake --build build --target quickstart
// Run:    ./build/examples/quickstart
//
// This example runs on the *native* platform: if your CPU has working Intel
// TSX (RTM), prefix transactions execute in hardware; otherwise the SoftHTM
// fallback is used transparently. It shows:
//   1. the prefix() combinator on its own (a multi-word atomic update),
//   2. a PTO-accelerated data structure (the Ellen BST),
//   3. reading the per-site statistics PTO collects (telemetry sites).
#include <cstdio>
#include <thread>
#include <vector>

#include "core/prefix.h"
#include "ds/bst/ellen_bst.h"
#include "htm/htm.h"
#include "platform/native_platform.h"
#include "telemetry/registry.h"

using pto::Atom;
using pto::NativePlatform;

int main() {
  // Arm the site counters (PTO_STATS and PTO_TELEMETRY_REPORT do the same).
  pto::telemetry::set_enabled(true);
  std::printf("HTM backend: %s\n",
              pto::htm::backend() == pto::htm::Backend::kRTM
                  ? "Intel RTM (hardware transactions)"
                  : "SoftHTM (software fallback)");

  // --- 1. prefix(): atomically move "money" between two accounts ----------
  Atom<NativePlatform, long> checking, savings;
  checking.init(1000);
  savings.init(0);
  pto::telemetry::Site* transfer = PTO_TELEMETRY_SITE("quickstart.transfer");
  for (int i = 0; i < 100; ++i) {
    pto::prefix<NativePlatform>(
        /*attempts=*/4,
        [&] {  // fast path: one hardware transaction, plain accesses
          long c = checking.load(std::memory_order_relaxed);
          long s = savings.load(std::memory_order_relaxed);
          checking.store(c - 10, std::memory_order_relaxed);
          savings.store(s + 10, std::memory_order_relaxed);
        },
        [&] {  // fallback: your lock-free (here: sloppy but serial) code
          checking.fetch_add(-10);
          savings.fetch_add(10);
        },
        transfer);
  }
  const pto::PrefixStats transfer_stats = transfer->snapshot();
  std::printf("transfer: checking=%ld savings=%ld  (tx commits=%llu, "
              "fallbacks=%llu)\n",
              checking.load(), savings.load(),
              static_cast<unsigned long long>(transfer_stats.commits),
              static_cast<unsigned long long>(transfer_stats.fallbacks));

  // --- 2. a PTO-accelerated nonblocking set --------------------------------
  pto::EllenBST<NativePlatform> set;
  using Mode = pto::EllenBST<NativePlatform>::Mode;

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&set, t] {
      auto ctx = set.make_ctx();  // one per thread: epoch handle + spares
      for (int i = 0; i < 10'000; ++i) {
        long k = (t * 10'000 + i) % 4096;
        // PTO1+PTO2: whole-operation transaction, then update-phase
        // transaction, then the original Ellen et al. lock-free algorithm.
        if (i % 3 == 0) {
          set.remove(ctx, k, Mode::kPto12);
        } else {
          set.insert(ctx, k, Mode::kPto12);
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  auto ctx = set.make_ctx();
  std::printf("set size after 40k mixed ops: %zu (invariants: %s)\n",
              set.size_slow(), set.check_invariants() ? "ok" : "BROKEN");

  // --- 3. lookups: the fast path costs one transaction, no epoch fences ----
  int hits = 0;
  for (long k = 0; k < 4096; ++k) {
    hits += set.contains(ctx, k, Mode::kPto12);
  }
  std::printf("lookup sweep: %d present, lookup tx commits=%llu\n", hits,
              static_cast<unsigned long long>(
                  PTO_TELEMETRY_SITE("bst.lookup")->snapshot().commits));
  return 0;
}
