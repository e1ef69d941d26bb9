// The flight recorder armed from the environment, as a crash would find it.
// Rings ride the telemetry slot lease, so however many threads come and go
// the dump holds at most one ring per live thread, and a thread started
// after a thousand others is still recorded. CMake runs this binary with
// PTO_FLIGHT and PTO_FLIGHT_OUT set.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "core/prefix.h"
#include "obs/flight.h"
#include "platform/native_platform.h"
#include "telemetry/registry.h"

namespace {

using pto::NativePlatform;
namespace tel = pto::telemetry;

/// Little-endian reader over a PTOFLT01 dump (obs/flight.h).
struct Reader {
  std::string data;
  std::size_t off = 0;

  template <class T>
  T take() {
    T v{};
    if (off + sizeof v > data.size()) {
      ADD_FAILURE() << "dump truncated at offset " << off;
      off = data.size();
      return v;
    }
    std::memcpy(&v, data.data() + off, sizeof v);
    off += sizeof v;
    return v;
  }
};

TEST(FlightEnv, NativeThreadChurnKeepsOneRingPerLiveThread) {
  const char* path = pto::env::str("PTO_FLIGHT_OUT");
  ASSERT_NE(path, nullptr) << "run through ctest, which sets PTO_FLIGHT_OUT";
  ASSERT_TRUE(pto::obs::flight_on());

  tel::Site* churn = tel::Registry::instance().intern("flight_env.churn");
  tel::Site* last = tel::Registry::instance().intern("flight_env.last_wave");
  pto::Atom<NativePlatform, std::uint64_t> counter;
  counter.init(0);
  auto wave = [&counter](tel::Site* site) {
    std::vector<std::thread> ts;
    for (int t = 0; t < 4; ++t) {
      ts.emplace_back([&counter, site] {
        for (int i = 0; i < 4; ++i) {
          pto::prefix<NativePlatform>(
              2,
              [&] {
                auto v = counter.load(std::memory_order_relaxed);
                counter.store(v + 1, std::memory_order_relaxed);
              },
              [&] { counter.fetch_add(1, std::memory_order_seq_cst); }, site);
        }
      });
    }
    for (auto& th : ts) th.join();
  };
  constexpr int kWaves = 256;  // 1024 short-lived threads, 4 at a time
  for (int w = 0; w < kWaves; ++w) wave(churn);
  wave(last);
  ASSERT_EQ(counter.load(std::memory_order_relaxed), (kWaves + 1) * 16u);
  pto::obs::flight_dump();

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "no dump at " << path;
  Reader r{std::string(std::istreambuf_iterator<char>(in), {})};
  ASSERT_EQ(r.data.compare(0, 8, "PTOFLT01"), 0);
  r.off = 8;
  EXPECT_EQ(r.take<std::uint32_t>(), 1u);  // version
  r.take<std::uint64_t>();                 // tsc ticks per second
  const auto nsites = r.take<std::uint32_t>();
  for (std::uint32_t i = 0; i < nsites; ++i) r.off += r.take<std::uint32_t>();
  ASSERT_GT(nsites, last->id());
  const auto nrings = r.take<std::uint32_t>();
  EXPECT_GE(nrings, 1u);
  EXPECT_LE(nrings, 8u);
  std::uint64_t records = 0, last_wave = 0;
  for (std::uint32_t i = 0; i < nrings; ++i) {
    EXPECT_LT(r.take<std::uint32_t>(), pto::kMaxThreads);  // slot
    r.take<std::uint64_t>();                               // total recorded
    const auto n = r.take<std::uint32_t>();
    for (std::uint32_t k = 0; k < n && r.off < r.data.size(); ++k) {
      r.take<std::uint64_t>();  // tsc
      const auto site = r.take<std::uint16_t>();
      const auto event = r.take<std::uint8_t>();
      const auto pad = r.take<std::uint8_t>();
      r.take<std::uint32_t>();  // arg
      EXPECT_GE(event, 1u);
      EXPECT_LE(event, 4u);
      EXPECT_EQ(pad, 0u);
      EXPECT_LT(site, nsites);
      ++records;
      if (site == last->id()) ++last_wave;
    }
  }
  EXPECT_EQ(r.off, r.data.size()) << "trailing bytes after the last ring";
  EXPECT_GT(records, 0u);
  EXPECT_GT(last_wave, 0u) << "the last wave's threads were not recorded";
}

}  // namespace
