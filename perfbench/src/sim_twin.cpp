// sim-kv-twin: the kv-skip-zipf spec and op streams replayed on simx through
// ShardedKV<SimPlatform> at 8 virtual threads (the paper's 4C/8T i7-4770),
// prefilled by one virtual thread. Op counts are fixed, so every simulated
// number is a pure function of the seed; host time is what varies.
//
// Untraced run: kReplaysPerSecond * --seconds replays (at least two) of
// { setup; 1-vthread phase; 8-vthread phase; per-key ledger check }, each
// on the next pinned runtime worker; every replay must reproduce the first
// one's clocks, stats and final membership bit for bit.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench.h"
#include "common/gauges.h"
#include "platform/sim_platform.h"
#include "service/loadgen.h"
#include "service/runtime.h"
#include "service/shard.h"
#include "sim/sim.h"
#include "telemetry/registry.h"

namespace perfbench {
namespace {

namespace svc = pto::service;
namespace sim = pto::sim;
using pto::SimPlatform;
using KV = svc::ShardedKV<SimPlatform, svc::SkipAdapter<SimPlatform>>;
using DS = pto::SkipList<SimPlatform>;

constexpr unsigned kShards = 4;
constexpr unsigned kVThreads = 8;
constexpr unsigned kLadderVThreads = 4;
constexpr std::uint64_t kOps1 = 120'000;  ///< ops of the 1-vthread phase
constexpr std::uint64_t kOpsN = 30'000;  ///< ops per vthread, 8-vthread phase
constexpr std::uint64_t kLadderOps = 15'000;  ///< per vthread, ladder rungs
constexpr std::uint64_t kLatStride = 4;  ///< 1-vthread phase: 1 op in 4 timed
/// Replays per second of --seconds: a fixed count per run length, since the
/// simulator's peak memory grows with the replays a process makes.
constexpr double kReplaysPerSecond = 0.6;
constexpr double kCyclesPerUs = 3400.0;  ///< the paper's 3.4 GHz

svc::WorkloadSpec twin_spec(std::uint64_t seed) {
  svc::WorkloadSpec spec;  // kv-skip-zipf
  spec.keyspace = 1u << 16;
  spec.dist = svc::Dist::kZipf;
  spec.theta = 0.99;
  spec.get_pct = 50;
  spec.put_pct = 25;
  spec.seed = seed;
  return spec;
}

sim::Config sim_config(std::uint64_t seed) {
  sim::Config c;
  c.seed = seed;
  return c;
}

/// One replay of the workload: everything it checks and measures.
struct Replay {
  double setup_s = 0;
  double host_s1 = 0;  ///< host seconds of the 1-vthread phase
  double host_sn = 0;  ///< host seconds of the 8-vthread phase
  std::uint64_t ops1 = 0;
  std::uint64_t opsn = 0;
  sim::RunResult prefill, phase1, phasen;
  std::vector<double> get_cycles, upd_cycles;  ///< 8-vthread phase
  std::vector<double> get_host_ns, upd_host_ns;  ///< 1-vthread phase
  std::vector<std::uint64_t> first_cycle;      ///< 8-vthread phase, per vthread
  std::vector<bool> members;
  std::uint64_t live = 0;
  std::uint64_t max_shard_ops = 0;
  std::int64_t backlog_peak = 0;
  double fill_ns_per_op = 0;
  bool ledger_ok = true;
};

bool same_run(const sim::RunResult& a, const sim::RunResult& b) {
  if (a.clocks != b.clocks) return false;
  const sim::ThreadStats x = a.totals();
  const sim::ThreadStats y = b.totals();
  return x.dispatches == y.dispatches && x.loads == y.loads &&
         x.stores == y.stores && x.cas_ops == y.cas_ops && x.rmws == y.rmws &&
         x.tx_started == y.tx_started && x.tx_commits == y.tx_commits &&
         x.total_aborts() == y.total_aborts();
}

std::uint64_t accesses(const sim::ThreadStats& s) {
  return s.loads + s.stores + s.cas_ops + s.rmws;
}

/// Stream generation, structure build and prefill (one virtual thread), the
/// 1- and 8-vthread phases, and the per-key ledger check of
/// tests/test_service_differential.cpp's run_twin, extended by the prefill.
Replay replay(const svc::WorkloadSpec& spec, Tracer& tr, std::uint64_t parent,
              bool arm_telemetry) {
  Replay out;
  const std::uint64_t t0 = now_ns();
  std::vector<std::vector<svc::Op>> streams(kVThreads);
  std::unique_ptr<KV> kv;
  {
    Scope setup(tr, "setup", parent);
    {
      const svc::OpStream os(spec);
      const std::uint64_t f0 = now_ns();
      for (unsigned t = 0; t < kVThreads; ++t) {
        Scope s(tr, "loadgen.fill", setup.id());
        os.fill(t, t == 0 ? std::max(kOps1, kOpsN) : kOpsN, streams[t]);
      }
      out.fill_ns_per_op =
          static_cast<double>(now_ns() - f0) /
          static_cast<double>(std::max(kOps1, kOpsN) + (kVThreads - 1) * kOpsN);
    }
    // Fresh simulated heap: every replay sees identical addresses.
    sim::reset_memory();
    kv = std::make_unique<KV>(kShards, svc::SkipAdapter<SimPlatform>{true});
    Scope pf(tr, "prefill", setup.id());
    std::uint64_t ok = 0;
    out.prefill = sim::run(1, sim_config(spec.seed), [&](unsigned) {
      auto c = kv->make_client();
      for (std::uint64_t k = 0; k < spec.keyspace; k += 2) {
        ok += c.put(static_cast<std::int64_t>(k));
      }
    });
    out.ledger_ok = ok == spec.keyspace / 2;
  }
  out.setup_s = static_cast<double>(now_ns() - t0) / 1e9;

  // net[t][k]: vthread t's successful puts minus successful dels of key k.
  std::vector<std::vector<int>> net(kVThreads,
                                    std::vector<int>(spec.keyspace, 0));
  // 1-vthread phase: host time per simulated op, 1 op in kLatStride timed
  // (with one virtual thread no other fiber runs inside an op). N-vthread
  // phase: simulated cycles per op.
  enum class Clock { kHost, kSim };
  auto body = [&](std::uint64_t ops, Clock clock) {
    return [&, ops, clock](unsigned tid) {
      auto c = kv->make_client();
      std::vector<int>& mine = net[tid];
      if (clock == Clock::kSim) out.first_cycle[tid] = sim::now();
      for (std::uint64_t i = 0; i < ops; ++i) {
        const svc::Op& op = streams[tid][i];
        const bool get = op.kind == svc::OpKind::kGet;
        bool ok;
        if (clock == Clock::kSim) {
          const std::uint64_t c0 = sim::now();
          ok = c.exec(op);
          (get ? out.get_cycles : out.upd_cycles)
              .push_back(static_cast<double>(sim::now() - c0));
        } else if (i % kLatStride == 0) {
          const std::uint64_t t0 = now_ns();
          ok = c.exec(op);
          (get ? out.get_host_ns : out.upd_host_ns)
              .push_back(static_cast<double>(now_ns() - t0));
        } else {
          ok = c.exec(op);
        }
        const auto k = static_cast<std::size_t>(op.key);
        if (op.kind == svc::OpKind::kPut) mine[k] += ok;
        if (op.kind == svc::OpKind::kDel) mine[k] -= ok;
        if (tid == 0 && (i & 1023) == 0) {
          out.backlog_peak = std::max(
              out.backlog_peak,
              pto::gauges::reclaim_backlog().load(std::memory_order_relaxed));
        }
      }
    };
  };
  pto::telemetry::set_enabled(arm_telemetry);
  {
    Scope ph(tr, "phase.1t", parent);
    Scope run(tr, "sim.run", ph.id());
    const std::uint64_t h0 = now_ns();
    out.phase1 = sim::run(1, sim_config(spec.seed), body(kOps1, Clock::kHost));
    out.host_s1 = static_cast<double>(now_ns() - h0) / 1e9;
    out.ops1 = kOps1;
  }
  {
    Scope ph(tr, "phase.nt", parent);
    Scope run(tr, "sim.run", ph.id());
    out.first_cycle.assign(kVThreads, 0);
    out.get_cycles.reserve(kVThreads * kOpsN);
    out.upd_cycles.reserve(kVThreads * kOpsN);
    const std::uint64_t h0 = now_ns();
    out.phasen =
        sim::run(kVThreads, sim_config(spec.seed), body(kOpsN, Clock::kSim));
    out.host_sn = static_cast<double>(now_ns() - h0) / 1e9;
    out.opsn = kVThreads * kOpsN;
  }
  pto::telemetry::set_enabled(false);

  std::vector<std::uint64_t> per_shard(kShards, 0);
  for (unsigned t = 0; t < kVThreads; ++t) {
    for (std::uint64_t i = 0; i < kOpsN; ++i) {
      ++per_shard[KV::shard_of(streams[t][i].key, kShards)];
    }
  }
  out.max_shard_ops = *std::max_element(per_shard.begin(), per_shard.end());

  // Verification touches SimPlatform atoms, so it runs on a virtual thread.
  out.members.assign(spec.keyspace, false);
  sim::run(1, sim_config(spec.seed + 1), [&](unsigned) {
    auto c = kv->make_client();
    for (std::uint64_t k = 0; k < spec.keyspace; ++k) {
      int total = k % 2 == 0 ? 1 : 0;
      for (const auto& v : net) total += v[static_cast<std::size_t>(k)];
      const bool present = c.get(static_cast<std::int64_t>(k));
      if ((total != 0 && total != 1) || present != (total == 1)) {
        out.ledger_ok = false;
      }
      out.members[static_cast<std::size_t>(k)] = present;
      out.live += present;
    }
    if (!kv->check_invariants()) out.ledger_ok = false;
  });
  return out;
}

/// Simulated ns per op of the same streams through the adapters on bare
/// skiplists (`pto` or LF entry points) or through the router, at `vthreads`.
double ladder_ns(const svc::WorkloadSpec& spec, unsigned vthreads, bool pto,
                 bool router, Result& r) {
  const svc::OpStream os(spec);
  std::vector<std::vector<svc::Op>> streams(vthreads);
  for (unsigned t = 0; t < vthreads; ++t) os.fill(t, kLadderOps, streams[t]);
  sim::reset_memory();
  const svc::SkipAdapter<SimPlatform> ad{pto};
  KV kv(kShards, ad);
  std::vector<std::unique_ptr<DS>> bare;
  for (unsigned s = 0; s < kShards; ++s) bare.push_back(std::make_unique<DS>());
  PhaseLedger p;
  std::int64_t net = 0;
  auto exec = [&](auto& c, std::vector<DS::ThreadCtx>& ctxs,
                  const svc::Op& op) {
    if (router) return c.exec(op);
    const unsigned s = KV::shard_of(op.key, kShards);
    switch (op.kind) {
      case svc::OpKind::kGet: return ad.get(*bare[s], ctxs[s], op.key);
      case svc::OpKind::kPut: return ad.put(*bare[s], ctxs[s], op.key);
      case svc::OpKind::kDel: return ad.del(*bare[s], ctxs[s], op.key);
    }
    return false;
  };
  sim::run(1, sim_config(spec.seed), [&](unsigned) {
    auto c = kv.make_client();
    std::vector<DS::ThreadCtx> ctxs;
    for (auto& b : bare) ctxs.emplace_back(b->make_ctx());
    for (std::uint64_t k = 0; k < spec.keyspace; k += 2) {
      exec(c, ctxs, {svc::OpKind::kPut, static_cast<std::int64_t>(k)});
    }
  });
  std::vector<std::int64_t> nets(vthreads, 0);
  const sim::RunResult res =
      sim::run(vthreads, sim_config(spec.seed), [&](unsigned tid) {
        auto c = kv.make_client();
        std::vector<DS::ThreadCtx> ctxs;
        for (auto& b : bare) ctxs.emplace_back(b->make_ctx());
        for (const svc::Op& op : streams[tid]) {
          const bool ok = exec(c, ctxs, op);
          if (op.kind == svc::OpKind::kPut) nets[tid] += ok;
          if (op.kind == svc::OpKind::kDel) nets[tid] -= ok;
        }
      });
  for (const std::int64_t n : nets) net += n;
  p.attempted = p.completed = vthreads * kLadderOps;
  p.expected_size = static_cast<std::int64_t>(spec.keyspace / 2) + net;
  sim::run(1, sim_config(spec.seed), [&](unsigned) {
    std::size_t n = 0;
    bool inv = true;
    if (router) {
      n = kv.size_slow();
      inv = kv.check_invariants();
    } else {
      for (auto& b : bare) {
        n += b->size_slow();
        inv = inv && b->check_invariants();
      }
    }
    p.actual_size = static_cast<std::int64_t>(n);
    p.invariants_ok = inv;
  });
  r.phases.push_back(p);
  std::uint64_t cycles = 0;
  for (const std::uint64_t c : res.clocks) cycles += c;
  return static_cast<double>(cycles) / kCyclesPerUs * 1e3 /
         static_cast<double>(vthreads * kLadderOps);
}

void add_ledgers(const Replay& x, bool deterministic,
                 const svc::WorkloadSpec& spec, Result& r) {
  PhaseLedger pre;
  pre.attempted = pre.completed = spec.keyspace / 2;
  pre.expected_size = pre.actual_size =
      static_cast<std::int64_t>(pre.attempted);
  pre.invariants_ok = x.ledger_ok;
  pre.deterministic = deterministic;
  PhaseLedger ph = pre;
  ph.attempted = ph.completed = x.ops1 + x.opsn;
  ph.expected_size = ph.actual_size = static_cast<std::int64_t>(x.live);
  r.phases.push_back(pre);
  r.phases.push_back(ph);
}

}  // namespace

void run_sim_twin(const Args& a, Result& r) {
  const svc::WorkloadSpec spec = twin_spec(a.seed);
  // simx runs on the calling host thread; run it on a pinned runtime worker.
  pto::service::Runtime rt({client_threads(), true});
  auto on_worker = [&rt](unsigned w, const std::function<void()>& fn) {
    rt.run([&](unsigned t) {
      if (t == w) fn();
    });
  };
  if (!a.trace) {
    Tracer off(false, 1);
    const auto replays = std::max<unsigned>(
        2, static_cast<unsigned>(a.seconds * kReplaysPerSecond + 0.5));
    Replay first;
    std::vector<double> setup, o1, on, gp50, gp99, up50, up99;
    for (unsigned i = 0; i < replays; ++i) {
      Replay x;
      on_worker(i % rt.threads(), [&] { x = replay(spec, off, 0, false); });
      const bool same = i == 0 || (same_run(x.prefill, first.prefill) &&
                                   same_run(x.phase1, first.phase1) &&
                                   same_run(x.phasen, first.phasen) &&
                                   x.members == first.members);
      if (!same) {
        std::printf("CHECK FAILED: replay %u differs from replay 0\n", i);
      }
      if (!x.ledger_ok) std::printf("CHECK FAILED: per-key ledger\n");
      add_ledgers(x, same, spec, r);
      setup.push_back(x.setup_s);
      o1.push_back(static_cast<double>(x.ops1) / x.host_s1);
      on.push_back(static_cast<double>(x.opsn) / x.host_sn);
      gp50.push_back(percentile(x.get_host_ns, 0.50) / 1e3);
      gp99.push_back(percentile(x.get_host_ns, 0.99) / 1e3);
      up50.push_back(percentile(x.upd_host_ns, 0.50) / 1e3);
      up99.push_back(percentile(x.upd_host_ns, 0.99) / 1e3);
      std::printf(
          "replay %u: setup %.3f s, host ops/s at 1 and %u vthreads %.0f / "
          "%.0f, makespan %llu cycles, live keys %llu\n",
          i, x.setup_s, kVThreads, o1.back(), on.back(),
          static_cast<unsigned long long>(x.phasen.makespan()),
          static_cast<unsigned long long>(x.live));
      if (i == 0) first = std::move(x);
    }
    // Simulated latencies are identical in every replay: take the first.
    std::vector<double>& g = first.get_cycles;
    std::vector<double>& u = first.upd_cycles;
    std::printf(
        "simulated at %u vthreads: %.4f ops/ms at 3.4 GHz (makespan %llu "
        "cycles); get p50 %.4f p99 %.4f p999 %.4f max %.4f us (%zu samples); "
        "put/del p50 %.4f p99 %.4f p999 %.4f max %.4f us (%zu samples)\n",
        kVThreads,
        static_cast<double>(first.opsn) /
            (static_cast<double>(first.phasen.makespan()) /
             (kCyclesPerUs * 1e3)),
        static_cast<unsigned long long>(first.phasen.makespan()),
        percentile(g, 0.5) / kCyclesPerUs, percentile(g, 0.99) / kCyclesPerUs,
        percentile(g, 0.999) / kCyclesPerUs, percentile(g, 1.0) / kCyclesPerUs,
        g.size(), percentile(u, 0.5) / kCyclesPerUs,
        percentile(u, 0.99) / kCyclesPerUs, percentile(u, 0.999) / kCyclesPerUs,
        percentile(u, 1.0) / kCyclesPerUs, u.size());
    std::printf(
        "host latency per simulated op at 1 vthread: %zu get and %zu put/del "
        "samples per replay (1 op in %llu timed)\n",
        first.get_host_ns.size(), first.upd_host_ns.size(),
        static_cast<unsigned long long>(kLatStride));
    r.add("ops_s", median(on), "ops/s");
    r.add("ops_s_1t", median(o1), "ops/s");
    r.add("get_p50_us", median(gp50), "us");
    r.add("get_p99_us", median(gp99), "us");
    r.add("upd_p50_us", median(up50), "us");
    r.add("upd_p99_us", median(up99), "us");
    r.add("setup_s", median(setup), "s");
    r.add("rss_mb", peak_rss_mb(), "MB");
    return;
  }

  Tracer tr(true, 1);
  Scope wl(tr, "workload", 0);
  Replay plain;
  Replay x;
  on_worker(0, [&] {
    plain = replay(spec, tr, wl.id(), false);
    pto::telemetry::Registry::instance().reset_all();
    x = replay(spec, tr, wl.id(), true);
  });
  const bool same = same_run(x.phasen, plain.phasen) &&
                    same_run(x.phase1, plain.phase1) &&
                    x.members == plain.members;
  if (!same) std::printf("CHECK FAILED: armed replay differs\n");
  if (!x.ledger_ok || !plain.ledger_ok) {
    std::printf("CHECK FAILED: per-key ledger\n");
  }
  add_ledgers(plain, same, spec, r);
  add_ledgers(x, same, spec, r);
  add_site_counters(r);

  double pto_ns[2] = {0, 0};
  double lf_ns[2] = {0, 0};
  double router_ns = 0;
  on_worker(0, [&] {
    {
      Scope s(tr, "ds.pto", wl.id());
      pto_ns[0] = ladder_ns(spec, 1, true, false, r);
      pto_ns[1] = ladder_ns(spec, kLadderVThreads, true, false, r);
    }
    {
      Scope s(tr, "ds.lf", wl.id());
      lf_ns[0] = ladder_ns(spec, 1, false, false, r);
      lf_ns[1] = ladder_ns(spec, kLadderVThreads, false, false, r);
    }
    Scope s(tr, "shard", wl.id());
    router_ns = ladder_ns(spec, kLadderVThreads, true, true, r);
  });

  const sim::ThreadStats tot = x.phasen.totals();
  double mx = 0;
  double sum = 0;
  for (const std::uint64_t c : x.phasen.clocks) {
    mx = std::max(mx, static_cast<double>(c));
    sum += static_cast<double>(c);
  }
  const double vms = static_cast<double>(x.phasen.makespan()) /
                     (kCyclesPerUs * 1e3);
  r.add("loadgen.fill_ns_per_op", x.fill_ns_per_op, "ns");
  // Every vthread starts at cycle 0: the skew is the latest first op, after
  // client construction on the simulated machine.
  r.add("runtime.start_skew_us",
        static_cast<double>(*std::max_element(x.first_cycle.begin(),
                                              x.first_cycle.end())) /
            kCyclesPerUs,
        "us");
  r.add("runtime.imbalance", sum == 0 ? 0.0 : mx * kVThreads / sum, "ratio");
  r.add("shard.exec_ns", router_ns, "ns");
  r.add("shard.route_ns", router_ns - pto_ns[1], "ns");
  r.add("shard.max_share",
        static_cast<double>(x.max_shard_ops) /
            static_cast<double>(kVThreads * kOpsN),
        "share");
  r.add("ds.pto_op_ns.1t", pto_ns[0], "ns");
  r.add("ds.pto_op_ns.4t", pto_ns[1], "ns");
  r.add("ds.lf_op_ns.1t", lf_ns[0], "ns");
  r.add("ds.lf_op_ns.4t", lf_ns[1], "ns");
  r.add("ds.live_keys", static_cast<double>(x.live), "count");
  r.add("prefix.speedup.1t", pto_ns[0] == 0 ? 0.0 : lf_ns[0] / pto_ns[0],
        "ratio");
  r.add("prefix.speedup.4t", pto_ns[1] == 0 ? 0.0 : lf_ns[1] / pto_ns[1],
        "ratio");
  r.add("reclaim.backlog_peak", static_cast<double>(x.backlog_peak), "count");
  r.add("reclaim.backlog_end",
        static_cast<double>(
            pto::gauges::reclaim_backlog().load(std::memory_order_relaxed)),
        "count");
  r.add("trace.overhead",
        plain.host_sn == 0 ? 0.0 : x.host_sn / plain.host_sn - 1.0, "ratio");
  r.add("sim.dispatches", static_cast<double>(tot.dispatches), "count");
  r.add("sim.accesses", static_cast<double>(accesses(tot)), "count");
  r.add("sim.tx_started", static_cast<double>(tot.tx_started), "count");
  r.add("sim.tx_aborts", static_cast<double>(tot.total_aborts()), "count");
  r.add("sim.makespan_cycles", static_cast<double>(x.phasen.makespan()),
        "count");
  r.add("sim.host_ns_per_access",
        plain.host_sn * 1e9 / static_cast<double>(accesses(tot)), "ns");
  r.add("sim.vops_ms", static_cast<double>(x.opsn) / vms, "ops/ms");

  run_probes(rt, tr, wl.id(), r);
  finish_trace(a, tr);
}

}  // namespace perfbench
