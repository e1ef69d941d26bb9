// RTM abort-status decoding: every _XABORT_* bit combination must land in
// the intended txcode bucket, both at the decoder level (exhaustive sweep
// over all 64 low-bit patterns x abort codes) and end-to-end through
// prefix()'s accounting via a fake platform that replays synthetic status
// words the way the RTM backend does. Runs on any machine — the decoder is a
// pure function of the ISA-defined word (htm/rtm_status.h); when TSX is
// compiled in, htm.h additionally static_asserts the bit mirror.
#include <gtest/gtest.h>

#include <csetjmp>
#include <cstdint>
#include <vector>

#include "core/prefix.h"
#include "htm/rtm_status.h"
#include "htm/txcode.h"
#include "site_delta.h"

namespace {

using namespace pto;        // NOLINT: TX_* codes
using namespace pto::htm;   // NOLINT: kRtm* bits

// The intended mapping, written as an explicit per-bit decision table (not a
// copy of the decoder's if-chain) so the test pins DESIGN, not implementation.
unsigned intended_bucket(unsigned status) {
  const bool explicit_ = status & kRtmExplicit;
  const bool retry = status & kRtmRetry;
  const bool conflict = status & kRtmConflict;
  const bool capacity = status & kRtmCapacity;
  const bool debug = status & kRtmDebug;
  // Priority: the program's own abort wins; then deterministic resource
  // exhaustion; then contention; then tooling traps; a lone RETRY is the
  // hardware's transient/spurious signal; no bits set = no information.
  if (explicit_) return TX_ABORT_EXPLICIT;
  if (capacity) return TX_ABORT_CAPACITY;
  if (conflict) return TX_ABORT_CONFLICT;
  if (debug) return TX_ABORT_OTHER;
  if (retry) return TX_ABORT_SPURIOUS;
  return TX_ABORT_OTHER;
}

TEST(RtmDecode, ExhaustiveOverAllBitCombinations) {
  for (unsigned bits = 0; bits < 64; ++bits) {  // all combos of bits 0..5
    for (unsigned code : {0u, 1u, 0x42u, 0xffu}) {
      const unsigned status = bits | (code << 24);
      const unsigned got = decode_rtm_status(status);
      EXPECT_EQ(got, intended_bucket(status))
          << "status=0x" << std::hex << status;
      // Decoded buckets must be valid abort causes (never TX_STARTED, never
      // out of the stats-array range).
      EXPECT_GE(got, 1u);
      EXPECT_LT(got, kTxCodeCount);
      if (bits & kRtmExplicit) {
        EXPECT_EQ(rtm_abort_code(status), code)
            << "user payload must survive in bits 24-31";
      }
    }
  }
}

TEST(RtmDecode, SpotChecksMatchSdmSemantics) {
  // Single bits.
  EXPECT_EQ(decode_rtm_status(kRtmExplicit), TX_ABORT_EXPLICIT);
  EXPECT_EQ(decode_rtm_status(kRtmConflict), TX_ABORT_CONFLICT);
  EXPECT_EQ(decode_rtm_status(kRtmCapacity), TX_ABORT_CAPACITY);
  EXPECT_EQ(decode_rtm_status(kRtmDebug), TX_ABORT_OTHER);
  EXPECT_EQ(decode_rtm_status(kRtmRetry), TX_ABORT_SPURIOUS);
  // Status 0: page fault / syscall inside the tx — no information.
  EXPECT_EQ(decode_rtm_status(0), TX_ABORT_OTHER);
  // The common hardware combos.
  EXPECT_EQ(decode_rtm_status(kRtmConflict | kRtmRetry), TX_ABORT_CONFLICT)
      << "retryable conflict is still a conflict";
  EXPECT_EQ(decode_rtm_status(kRtmCapacity | kRtmConflict), TX_ABORT_CAPACITY)
      << "capacity wins: retrying it is wasted work";
  EXPECT_EQ(decode_rtm_status(kRtmExplicit | kRtmRetry | (7u << 24)),
            TX_ABORT_EXPLICIT);
}

TEST(RtmDecode, NestedBitNeverChangesTheBucket) {
  for (unsigned bits = 0; bits < 64; ++bits) {
    if (bits & kRtmNested) continue;
    EXPECT_EQ(decode_rtm_status(bits | kRtmNested), decode_rtm_status(bits))
        << "bits=0x" << std::hex << bits;
  }
}

TEST(RtmDecode, AbortCodeExtractsAllByteValues) {
  for (unsigned code = 0; code <= 0xff; ++code) {
    const unsigned status = kRtmExplicit | kRtmRetry | (code << 24);
    EXPECT_EQ(rtm_abort_code(status), static_cast<unsigned char>(code));
  }
}

// ---------------------------------------------------------------------------
// End to end: synthetic status words -> prefix() bucket accounting.
// ---------------------------------------------------------------------------

/// Platform whose tx_begin replays scripted raw RTM status words through
/// decode_rtm_status — exactly what htm.h does on the RTM path — then starts
/// for real once the script is exhausted. Single-threaded by design.
struct FakeRtmPlatform {
  static inline std::vector<unsigned> script;  // raw EAX words, front first
  static inline std::size_t cursor = 0;
  static inline bool active = false;
  static inline std::jmp_buf env;

  static void load(std::vector<unsigned> s) {
    script = std::move(s);
    cursor = 0;
    active = false;
  }
  static bool in_tx() { return active; }
  static std::jmp_buf& tx_checkpoint() { return env; }
  static unsigned tx_begin() {
    if (cursor < script.size()) return decode_rtm_status(script[cursor++]);
    active = true;
    return TX_STARTED;
  }
  static void tx_end() { active = false; }
};

TEST(RtmDecodePrefix, EveryCombinationLandsInItsStatsBucket) {
  for (unsigned bits = 0; bits < 64; ++bits) {
    const unsigned status = bits | (0x21u << 24);
    const unsigned want = intended_bucket(status);
    FakeRtmPlatform::load({status});
    SiteDelta st("test.rtm_decode.st");
    prefix<FakeRtmPlatform>(PrefixPolicy(4), [] {}, [] {}, st.site());
    EXPECT_EQ(st.get().aborts[want], 1u) << "status=0x" << std::hex << status;
    EXPECT_EQ(st.get().total_aborts(), 1u) << "exactly one bucket per abort";
    // Non-retryable causes break to the fallback; transient ones retry and
    // the exhausted script then commits.
    if (want == TX_ABORT_EXPLICIT || want == TX_ABORT_CAPACITY) {
      EXPECT_EQ(st.get().fallbacks, 1u);
      EXPECT_EQ(st.get().commits, 0u);
      EXPECT_EQ(st.get().attempts, 1u);
    } else {
      EXPECT_EQ(st.get().fallbacks, 0u);
      EXPECT_EQ(st.get().commits, 1u);
      EXPECT_EQ(st.get().attempts, 2u);
    }
  }
}

TEST(RtmDecodePrefix, MixedAbortStreamAccumulatesPerCause) {
  // conflict|retry, lone retry, capacity -> buckets 1, 5, then break.
  FakeRtmPlatform::load({kRtmConflict | kRtmRetry, kRtmRetry, kRtmCapacity});
  SiteDelta st("test.rtm_decode.st");
  prefix<FakeRtmPlatform>(PrefixPolicy(10), [] {}, [] {}, st.site());
  EXPECT_EQ(st.get().aborts[TX_ABORT_CONFLICT], 1u);
  EXPECT_EQ(st.get().aborts[TX_ABORT_SPURIOUS], 1u);
  EXPECT_EQ(st.get().aborts[TX_ABORT_CAPACITY], 1u);
  EXPECT_EQ(st.get().attempts, 3u);
  EXPECT_EQ(st.get().fallbacks, 1u) << "capacity abort must stop the retry loop";
}

TEST(RtmDecodePrefix, RetryOnCapacityPolicyKeepsAttempting) {
  FakeRtmPlatform::load({kRtmCapacity, kRtmCapacity | kRtmConflict});
  PrefixPolicy pol(5);
  pol.retry_on_capacity = true;
  SiteDelta st("test.rtm_decode.st");
  prefix<FakeRtmPlatform>(pol, [] {}, [] {}, st.site());
  EXPECT_EQ(st.get().aborts[TX_ABORT_CAPACITY], 2u);
  EXPECT_EQ(st.get().commits, 1u);
  EXPECT_EQ(st.get().fallbacks, 0u);
}

}  // namespace
