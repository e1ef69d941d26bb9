// Multi-word CAS substrate: sequential semantics, helping under concurrency,
// descriptor recycling, and equivalence of the PTO-accelerated paths.
#include <gtest/gtest.h>

#include <tuple>

#include "kcas/kcas.h"
#include "platform/native_platform.h"
#include "platform/sim_platform.h"
#include "reclaim/epoch.h"
#include "sim/sim.h"
#include "site_delta.h"

namespace {

using pto::Atom;
using pto::EpochDomain;
using pto::SimPlatform;
namespace kc = pto::kcas;

/// Values stored in kcas words must keep their low 2 bits clear.
constexpr std::uint64_t enc(std::uint64_t v) { return v << 2; }

template <class P>
struct Fixture {
  EpochDomain<P> dom;
  kc::Word<P> a, b, c;
  Fixture() {
    a.init(enc(1));
    b.init(enc(2));
    c.init(enc(3));
  }
};

TEST(Kcas, DcasSequentialSemantics) {
  Fixture<SimPlatform> f;
  kc::Ctx<SimPlatform> ctx(f.dom);
  typename EpochDomain<SimPlatform>::Guard g(ctx.epoch);

  EXPECT_TRUE(kc::dcas<SimPlatform>(ctx, f.a, enc(1), enc(10), f.b, enc(2),
                                    enc(20)));
  EXPECT_EQ(kc::read(ctx, f.a), enc(10));
  EXPECT_EQ(kc::read(ctx, f.b), enc(20));

  // Mismatch on the second word: nothing changes.
  EXPECT_FALSE(kc::dcas<SimPlatform>(ctx, f.a, enc(10), enc(11), f.b, enc(999),
                                     enc(21)));
  EXPECT_EQ(kc::read(ctx, f.a), enc(10));
  EXPECT_EQ(kc::read(ctx, f.b), enc(20));
}

TEST(Kcas, DcssSequentialSemantics) {
  Fixture<SimPlatform> f;
  kc::Ctx<SimPlatform> ctx(f.dom);
  typename EpochDomain<SimPlatform>::Guard g(ctx.epoch);

  // Control matches: swap happens.
  EXPECT_TRUE(kc::dcss<SimPlatform>(ctx, f.a, enc(1), f.b, enc(2), enc(22)));
  EXPECT_EQ(kc::read(ctx, f.b), enc(22));
  EXPECT_EQ(kc::read(ctx, f.a), enc(1));  // control untouched

  // Control mismatch: data restored.
  EXPECT_FALSE(kc::dcss<SimPlatform>(ctx, f.a, enc(999), f.b, enc(22),
                                     enc(23)));
  EXPECT_EQ(kc::read(ctx, f.b), enc(22));

  // Data mismatch: fails.
  EXPECT_FALSE(kc::dcss<SimPlatform>(ctx, f.a, enc(1), f.b, enc(999),
                                     enc(23)));
  EXPECT_EQ(kc::read(ctx, f.b), enc(22));
}

TEST(Kcas, McasThreeWords) {
  Fixture<SimPlatform> f;
  kc::Ctx<SimPlatform> ctx(f.dom);
  typename EpochDomain<SimPlatform>::Guard g(ctx.epoch);

  kc::Entry<SimPlatform> e[3] = {{&f.a, enc(1), enc(4)},
                                 {&f.b, enc(2), enc(5)},
                                 {&f.c, enc(3), enc(6)}};
  EXPECT_TRUE(kc::mcas<SimPlatform>(ctx, e, 3));
  EXPECT_EQ(kc::read(ctx, f.a), enc(4));
  EXPECT_EQ(kc::read(ctx, f.b), enc(5));
  EXPECT_EQ(kc::read(ctx, f.c), enc(6));
}

class KcasConcurrent
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

// N threads each perform `iters` successful double-word increments on (a,b).
// Atomicity of the DCAS means a == b at every point; the final sum counts
// every success exactly once.
TEST_P(KcasConcurrent, AtomicPairedIncrements) {
  auto [threads, seed, use_pto] = GetParam();
  Fixture<SimPlatform> f;
  f.a.init(enc(0));
  f.b.init(enc(0));
  pto::sim::Config cfg;
  cfg.seed = static_cast<std::uint64_t>(seed);
  const int iters = 150;

  auto res = pto::sim::run(static_cast<unsigned>(threads), cfg,
                           [&](unsigned) {
    kc::Ctx<SimPlatform> ctx(f.dom);
    for (int i = 0; i < iters;) {
      typename EpochDomain<SimPlatform>::Guard g(ctx.epoch);
      std::uint64_t va = kc::read(ctx, f.a);
      std::uint64_t vb = kc::read(ctx, f.b);
      if (va != vb) continue;  // raced between the two reads; retry
      bool ok = use_pto
                    ? kc::pto_dcas<SimPlatform>(ctx, f.a, va, va + enc(1),
                                                f.b, vb, vb + enc(1))
                    : kc::dcas<SimPlatform>(ctx, f.a, va, va + enc(1), f.b,
                                            vb, vb + enc(1));
      if (ok) ++i;
    }
  });

  EXPECT_EQ(res.uaf_count, 0u);
  kc::Ctx<SimPlatform> ctx(f.dom);
  typename EpochDomain<SimPlatform>::Guard g(ctx.epoch);
  EXPECT_EQ(kc::read(ctx, f.a),
            enc(static_cast<std::uint64_t>(threads) * iters));
  EXPECT_EQ(kc::read(ctx, f.b),
            enc(static_cast<std::uint64_t>(threads) * iters));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KcasConcurrent,
    ::testing::Combine(::testing::Values(2, 4, 8), ::testing::Values(1, 2, 3),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string("t") + std::to_string(std::get<0>(info.param)) +
             "_s" + std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_pto" : "_sw");
    });

TEST(Kcas, DcssGuardsAgainstControlChange) {
  // Concurrently flip the control word; dcss success must imply the control
  // held its expected value at the linearization point.
  Fixture<SimPlatform> f;
  f.a.init(enc(0));  // control: 0 = allowed, 1 = blocked
  f.b.init(enc(0));  // data: successful dcss increments
  Atom<SimPlatform, std::uint64_t> blocked_increments;
  blocked_increments.init(0);

  pto::sim::Config cfg;
  cfg.seed = 5;
  pto::sim::run(4, cfg, [&](unsigned tid) {
    kc::Ctx<SimPlatform> ctx(f.dom);
    if (tid == 0) {
      // Toggler: flip control between allowed and blocked.
      for (int i = 0; i < 200; ++i) {
        typename EpochDomain<SimPlatform>::Guard g(ctx.epoch);
        std::uint64_t cur = kc::read(ctx, f.a);
        kc::dcss<SimPlatform>(ctx, f.b, kc::read(ctx, f.b), f.a, cur,
                              cur ^ enc(1));
      }
    } else {
      for (int i = 0; i < 100; ++i) {
        typename EpochDomain<SimPlatform>::Guard g(ctx.epoch);
        std::uint64_t d = kc::read(ctx, f.b);
        if (kc::dcss<SimPlatform>(ctx, f.a, enc(0), f.b, d, d + enc(1))) {
          // success implies control was 'allowed' at that instant
        } else if (kc::read(ctx, f.a) == enc(1)) {
          blocked_increments.fetch_add(1);
        }
      }
    }
  });
  // The test passes if it terminates with consistent clean words.
  kc::Ctx<SimPlatform> ctx(f.dom);
  typename EpochDomain<SimPlatform>::Guard g(ctx.epoch);
  EXPECT_TRUE(kc::is_clean(kc::read(ctx, f.a)));
  EXPECT_TRUE(kc::is_clean(kc::read(ctx, f.b)));
}

TEST(Kcas, DescriptorsAreRecycled) {
  // Steady-state DCAS traffic must not keep allocating descriptors.
  Fixture<SimPlatform> f;
  pto::sim::Config cfg;
  auto res = pto::sim::run(1, cfg, [&](unsigned) {
    kc::Ctx<SimPlatform> ctx(f.dom);
    std::uint64_t va = enc(1), vb = enc(2);
    for (int i = 0; i < 2000; ++i) {
      typename EpochDomain<SimPlatform>::Guard g(ctx.epoch);
      ASSERT_TRUE(kc::dcas<SimPlatform>(ctx, f.a, va, va + enc(1), f.b, vb,
                                        vb + enc(1)));
      va += enc(1);
      vb += enc(1);
    }
  });
  // 2000 DCAS = 2000 mcas descriptors + >=4000 rdcss descriptors if never
  // recycled; with epoch recycling the allocation count stays tiny.
  EXPECT_LT(res.totals().allocs, 400u);
}

TEST(Kcas, PtoFastPathAvoidsCasTraffic) {
  Fixture<SimPlatform> f;
  SiteDelta st("kcas.mcas");
  auto res = pto::sim::run(1, {}, [&](unsigned) {
    kc::Ctx<SimPlatform> ctx(f.dom);
    std::uint64_t va = enc(1), vb = enc(2);
    for (int i = 0; i < 500; ++i) {
      typename EpochDomain<SimPlatform>::Guard g(ctx.epoch);
      ASSERT_TRUE(kc::pto_dcas<SimPlatform>(ctx, f.a, va, va + enc(1), f.b,
                                            vb, vb + enc(1),
                                            pto::PrefixPolicy(4)));
      va += enc(1);
      vb += enc(1);
    }
  });
  EXPECT_EQ(st.get().commits, 500u);
  EXPECT_EQ(st.get().fallbacks, 0u);
  // Uncontended PTO DCAS performs no CAS at all (the few remaining CAS ops
  // come from epoch registration/advance, not from the DCAS path).
  EXPECT_LE(res.totals().cas_ops, 64u);
  EXPECT_EQ(res.totals().allocs, 0u);
}

TEST(Kcas, McasFourWordsAnyOrder) {
  // Entries are sorted internally; caller order must not matter.
  EpochDomain<SimPlatform> dom;
  kc::Word<SimPlatform> w[4];
  for (int i = 0; i < 4; ++i) w[i].init(enc(static_cast<unsigned>(i)));
  kc::Ctx<SimPlatform> ctx(dom);
  typename EpochDomain<SimPlatform>::Guard g(ctx.epoch);
  kc::Entry<SimPlatform> e[4] = {{&w[3], enc(3), enc(13)},
                                 {&w[0], enc(0), enc(10)},
                                 {&w[2], enc(2), enc(12)},
                                 {&w[1], enc(1), enc(11)}};
  EXPECT_TRUE(kc::mcas<SimPlatform>(ctx, e, 4));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(kc::read(ctx, w[i]), enc(static_cast<unsigned>(10 + i)));
  }
  // One mismatch anywhere fails the whole MCAS and restores everything.
  kc::Entry<SimPlatform> e2[4] = {{&w[0], enc(10), enc(20)},
                                  {&w[1], enc(999), enc(21)},
                                  {&w[2], enc(12), enc(22)},
                                  {&w[3], enc(13), enc(23)}};
  EXPECT_FALSE(kc::mcas<SimPlatform>(ctx, e2, 4));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(kc::read(ctx, w[i]), enc(static_cast<unsigned>(10 + i)));
  }
}

TEST(Kcas, ConcurrentMcasFourWordsConsistent) {
  // Four words advanced in lockstep by 8 threads via 4-word MCAS: all four
  // must always agree at quiescence (atomicity across the whole set).
  EpochDomain<SimPlatform> dom;
  kc::Word<SimPlatform> w[4];
  for (auto& x : w) x.init(enc(0));
  pto::sim::Config cfg;
  cfg.seed = 6;
  const int iters = 60;
  auto res = pto::sim::run(8, cfg, [&](unsigned) {
    kc::Ctx<SimPlatform> ctx(dom);
    for (int i = 0; i < iters;) {
      typename EpochDomain<SimPlatform>::Guard g(ctx.epoch);
      std::uint64_t v = kc::read(ctx, w[0]);
      kc::Entry<SimPlatform> e[4];
      bool consistent = true;
      for (int j = 0; j < 4; ++j) {
        std::uint64_t vj = kc::read(ctx, w[j]);
        consistent &= (vj == v);
        e[j] = {&w[j], v, v + enc(1)};
      }
      if (!consistent) continue;
      if (kc::mcas<SimPlatform>(ctx, e, 4)) ++i;
    }
  });
  EXPECT_EQ(res.uaf_count, 0u);
  kc::Ctx<SimPlatform> ctx(dom);
  typename EpochDomain<SimPlatform>::Guard g(ctx.epoch);
  for (auto& x : w) EXPECT_EQ(kc::read(ctx, x), enc(8 * iters));
}

TEST(Kcas, PtoFallsBackUnderFailureInjection) {
  Fixture<SimPlatform> f;
  pto::sim::Config cfg;
  cfg.explore.fault_rate = 1.0;
  SiteDelta st("kcas.mcas");
  pto::sim::run(1, cfg, [&](unsigned) {
    kc::Ctx<SimPlatform> ctx(f.dom);
    typename EpochDomain<SimPlatform>::Guard g(ctx.epoch);
    EXPECT_TRUE(kc::pto_dcas<SimPlatform>(ctx, f.a, enc(1), enc(5), f.b,
                                          enc(2), enc(6),
                                          pto::PrefixPolicy(4)));
    EXPECT_EQ(kc::read(ctx, f.a), enc(5));
    EXPECT_EQ(kc::read(ctx, f.b), enc(6));
  });
  EXPECT_EQ(st.get().commits, 0u);
  EXPECT_EQ(st.get().fallbacks, 1u);
}

TEST(Kcas, NativePlatformDcas) {
  Fixture<pto::NativePlatform> f;
  kc::Ctx<pto::NativePlatform> ctx(f.dom);
  typename EpochDomain<pto::NativePlatform>::Guard g(ctx.epoch);
  EXPECT_TRUE(kc::pto_dcas<pto::NativePlatform>(ctx, f.a, enc(1), enc(7), f.b,
                                                enc(2), enc(8)));
  EXPECT_EQ(kc::read(ctx, f.a), enc(7));
  EXPECT_EQ(kc::read(ctx, f.b), enc(8));
}

}  // namespace
