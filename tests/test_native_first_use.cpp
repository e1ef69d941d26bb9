// The process's first htm::backend() calls, raced by four pinned threads:
// every thread must settle on the one backend PTO_HTM forces, and the facade
// must then be exact on shared atomics. CMake runs this binary with
// PTO_HTM=soft; its gtest name matches the TSan leg's `-R Native`.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "common/env.h"
#include "htm/htm.h"
#include "platform/native_platform.h"
#include "service/runtime.h"

namespace {

using pto::NativePlatform;
namespace htm = pto::htm;

TEST(NativeFirstUse, RacingThreadsSettleOnOneBackend) {
  const char* forced = pto::env::str("PTO_HTM");
  ASSERT_TRUE(forced != nullptr && std::strcmp(forced, "soft") == 0)
      << "run through ctest, which sets PTO_HTM=soft";
  ASSERT_EQ(htm::detail::g_backend.value.load(), 0)
      << "the backend word was published before the race";

  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kRounds = 20'000;
  // One spinning barrier, passed twice: pinned spinners leave it within
  // nanoseconds of each other, much closer than futex wake-ups would, so
  // the first calls overlap the probe.
  std::atomic<unsigned> arrived{0};
  auto sync = [&](unsigned round) {
    arrived.fetch_add(1);
    while (arrived.load() < round * kThreads) NativePlatform::pause();
  };
  std::array<htm::Backend, kThreads> seen{};
  std::array<bool, kThreads> strong{};
  // Constructing an atomic publishes the word, so the shared one is built
  // only after the race.
  std::optional<NativePlatform::atomic<std::uint64_t>> sum;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      pto::service::Runtime::pin_to_cpu(t);
      sync(1);
      seen[t] = htm::backend();
      strong[t] = htm::strongly_atomic();
      if (t == 0) sum.emplace(0);
      sync(2);
      for (std::uint64_t i = 0; i < kRounds; ++i) {
        sum->fetch_add(1);
        std::uint64_t cur = sum->load();
        while (!sum->compare_exchange_strong(cur, cur + 1)) {
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], htm::Backend::kSoft) << "thread " << t;
    EXPECT_FALSE(strong[t]) << "thread " << t;
  }
  EXPECT_EQ(sum->load(), 2 * kThreads * kRounds);
}

}  // namespace
