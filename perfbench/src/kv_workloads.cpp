// kv-skip-zipf and kv-hash-read: closed-loop clients on pinned
// service::Runtime workers driving ShardedKV::Client, as the service ships.
//
// Untraced run: kRepeats times { setup; kRounds times { 1-thread phase;
// N-thread phase } }, each phase time-bounded and followed by the output
// checks; end-to-end metrics are medians over the phases (setup_s over the
// setups). Host noise on a shared VM comes in bursts and differs per CPU, so
// many short interleaved phases, with the 1-thread phase rotating over the
// CPUs, give steadier medians than a few long ones.
//
// Traced run: one setup, fixed-count phases (so worker busy times compare),
// the same streams through the adapters on bare structures with PTO and LF
// entry points, then the htm and reclaim probes.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench.h"
#include "common/gauges.h"
#include "platform/native_platform.h"
#include "service/loadgen.h"
#include "service/runtime.h"
#include "service/shard.h"
#include "telemetry/registry.h"

namespace perfbench {
namespace {

namespace svc = pto::service;
using pto::NativePlatform;

constexpr unsigned kShards = 4;
constexpr unsigned kRepeats = 8;  ///< setups per untraced run
constexpr unsigned kRounds = 3;   ///< 1t + Nt phase pairs per setup
constexpr std::uint64_t kStreamLen = 1u << 16;  ///< ops per thread, cycled
constexpr std::uint64_t kLatStride = 8;   ///< time 1 op in 8 (N-thread phase)
constexpr std::size_t kLatCap = 1u << 16;  ///< samples per thread, kind, phase
constexpr std::uint64_t kSpanStride = 64; ///< traced run: 1 op span in 64
constexpr std::uint64_t kTracedPasses = 4;  ///< traced phases: stream passes

using Streams = std::vector<std::vector<svc::Op>>;

/// Latency samples of one N-thread phase, per thread and op kind. The
/// buffers have a fixed size and are touched once per run, so kvbench's
/// own resident memory does not depend on how many ops a phase ran.
struct LatencyBuffers {
  explicit LatencyBuffers(unsigned threads)
      : get(threads, std::vector<double>(kLatCap)),
        upd(threads, std::vector<double>(kLatCap)),
        merged(threads * kLatCap) {}

  std::vector<std::vector<double>> get, upd;
  std::vector<std::size_t> get_n, upd_n;  ///< samples recorded per thread

  /// Percentile q, in us, over every thread's samples of one kind.
  double percentile_us(bool gets, double q) {
    const auto& bufs = gets ? get : upd;
    const auto& n = gets ? get_n : upd_n;
    merged.clear();  // keeps the capacity allocated above
    for (std::size_t t = 0; t < bufs.size(); ++t) {
      merged.insert(merged.end(), bufs[t].begin(),
                    bufs[t].begin() + static_cast<std::ptrdiff_t>(n[t]));
    }
    return percentile(merged, q) / 1e3;
  }
  std::size_t samples(bool gets) const {
    std::size_t total = 0;
    for (const std::size_t x : gets ? get_n : upd_n) total += x;
    return total;
  }

 private:
  std::vector<double> merged;
};

struct WorkerStats {
  std::uint64_t ops = 0;
  std::uint64_t puts_ok = 0;
  std::uint64_t dels_ok = 0;
  std::uint64_t t_first = 0;  ///< first op issued
  std::uint64_t t_end = 0;    ///< last op returned
  std::int64_t backlog_peak = 0;
};

struct PhaseSpec {
  unsigned threads;        ///< 1, or every worker of the runtime
  unsigned solo;           ///< threads == 1: the worker (and CPU) that runs
  double seconds;          ///< 0 = no time bound
  std::uint64_t max_ops;   ///< per thread
  LatencyBuffers* lat;     ///< record 1-in-kLatStride op latencies, or null
  std::uint64_t parent;    ///< span parent (traced run)
};

struct PhaseResult {
  std::vector<WorkerStats> w;
  std::uint64_t t_section = 0;  ///< main thread, just before Runtime::run
  std::uint64_t makespan_ns = 0;

  std::uint64_t ops() const {
    std::uint64_t n = 0;
    for (const auto& x : w) n += x.ops;
    return n;
  }
  std::int64_t net_puts() const {
    std::int64_t n = 0;
    for (const auto& x : w) {
      n += static_cast<std::int64_t>(x.puts_ok) -
           static_cast<std::int64_t>(x.dels_ok);
    }
    return n;
  }
  double ops_s() const {
    return makespan_ns == 0 ? 0.0 : static_cast<double>(ops()) * 1e9 /
                                        static_cast<double>(makespan_ns);
  }
  /// Mean per-thread time per op, in ns.
  double ns_per_op() const {
    double busy = 0;
    for (const auto& x : w) busy += static_cast<double>(x.t_end - x.t_first);
    return ops() == 0 ? 0.0 : busy / static_cast<double>(ops());
  }
  double start_skew_us() const {
    std::uint64_t last = 0;
    for (const auto& x : w) last = std::max(last, x.t_first);
    return static_cast<double>(last - t_section) / 1e3;
  }
  double imbalance() const {
    double mx = 0;
    double sum = 0;
    for (const auto& x : w) {
      const auto b = static_cast<double>(x.t_end - x.t_first);
      mx = std::max(mx, b);
      sum += b;
    }
    return sum == 0 ? 0.0 : mx * static_cast<double>(w.size()) / sum;
  }
};

/// Runs one closed-loop phase: client t replays streams[t] cyclically through
/// the executor make_exec(t) returns, until max_ops or the time bound. A
/// 1-thread phase runs client 0 on runtime worker `solo`, so rotating `solo`
/// spreads 1-thread samples over the CPUs.
template <class MakeExec>
PhaseResult run_phase(svc::Runtime& rt, const Streams& streams,
                      const PhaseSpec& ph, Tracer& tr, MakeExec&& make_exec) {
  PhaseResult out;
  out.w.resize(ph.threads);
  if (ph.lat != nullptr) {
    ph.lat->get_n.assign(ph.threads, 0);
    ph.lat->upd_n.assign(ph.threads, 0);
  }
  Scope run_span(tr, "runtime.run", ph.parent);
  const std::uint64_t run_id = run_span.id();
  out.t_section = now_ns();
  out.makespan_ns = rt.run([&](unsigned worker) {
    if (ph.threads == 1 && worker != ph.solo) return;
    const unsigned tid = ph.threads == 1 ? 0 : worker;
    WorkerStats& ws = out.w[tid];
    Scope worker_span(tr, "worker", run_id, 1 + tid);
    auto ex = make_exec(tid);
    const std::vector<svc::Op>& st = streams[tid];
    const std::uint64_t mask = st.size() - 1;
    const bool traced = tr.on();
    const bool sample_backlog = traced && tid == 0;
    std::uint64_t puts_ok = 0;
    std::uint64_t dels_ok = 0;
    std::size_t get_n = 0;
    std::size_t upd_n = 0;
    std::uint64_t i = 0;
    ws.t_first = now_ns();
    const std::uint64_t deadline =
        ph.seconds > 0 ? ws.t_first + static_cast<std::uint64_t>(
                                          ph.seconds * 1e9)
                       : ~std::uint64_t{0};
    for (; i < ph.max_ops; ++i) {
      if ((i & 63) == 0 && i != 0 && now_ns() >= deadline) break;
      const std::uint64_t idx = i & mask;
      const svc::Op& op = st[idx];
      bool ok;
      if (traced && i % kSpanStride == 0) {
        Scope op_span(tr, "op", worker_span.id(), 1 + tid);
        ok = ex.exec(op, idx);
      } else if (ph.lat != nullptr && i % kLatStride == 0) {
        const std::uint64_t t0 = now_ns();
        ok = ex.exec(op, idx);
        const auto d = static_cast<double>(now_ns() - t0);
        const bool get = op.kind == svc::OpKind::kGet;
        std::size_t& n = get ? get_n : upd_n;
        if (n < kLatCap) (get ? ph.lat->get : ph.lat->upd)[tid][n++] = d;
      } else {
        ok = ex.exec(op, idx);
      }
      puts_ok += op.kind == svc::OpKind::kPut && ok;
      dels_ok += op.kind == svc::OpKind::kDel && ok;
      if (sample_backlog && (i & 1023) == 0) {
        ws.backlog_peak = std::max(
            ws.backlog_peak,
            pto::gauges::reclaim_backlog().load(std::memory_order_relaxed));
      }
    }
    ws.t_end = now_ns();
    ws.ops = i;
    ws.puts_ok = puts_ok;
    ws.dels_ok = dels_ok;
    if (ph.lat != nullptr) {
      ph.lat->get_n[tid] = get_n;
      ph.lat->upd_n[tid] = upd_n;
    }
  });
  return out;
}

template <class A>
struct KvBench {
  using KV = svc::ShardedKV<NativePlatform, A>;
  using DS = typename A::DS;
  using Ctx = typename A::Ctx;

  /// The adapters on bare per-shard structures: the shard router's work
  /// (key hash, shard pick) is done ahead of time into `route`.
  struct Bare {
    A adapter;
    std::vector<std::unique_ptr<DS>> shards;

    std::size_t size_slow() {
      std::size_t n = 0;
      for (auto& s : shards) n += s->size_slow();
      return n;
    }
    bool check_invariants() {
      for (auto& s : shards) {
        if (!s->check_invariants()) return false;
      }
      return true;
    }
  };

  const Args& args;
  svc::WorkloadSpec spec;
  A pto_adapter;
  A lf_adapter;
  Result& r;

  Streams streams;
  std::vector<std::vector<std::uint8_t>> route;
  double fill_ns_per_op = 0;
  std::int64_t prefill_backlog_peak = 0;

  /// Stream generation for `threads` client threads (timed per fill call).
  void make_streams(unsigned threads, Tracer& tr, std::uint64_t parent) {
    const svc::OpStream os(spec);
    streams.assign(threads, {});
    std::uint64_t ns = 0;
    for (unsigned t = 0; t < threads; ++t) {
      Scope s(tr, "loadgen.fill", parent);
      const std::uint64_t t0 = now_ns();
      os.fill(t, kStreamLen, streams[t]);
      ns += now_ns() - t0;
    }
    fill_ns_per_op = static_cast<double>(ns) /
                     static_cast<double>(threads * kStreamLen);
  }

  /// Prefill every even key; each put must succeed on the fresh structure,
  /// so the ledger expects keyspace / 2 successful puts.
  template <class Put>
  void prefill(Put&& put, bool sample_backlog) {
    PhaseLedger p;
    for (std::uint64_t k = 0; k < spec.keyspace; k += 2) {
      ++p.attempted;
      ++p.completed;
      p.actual_size += put(static_cast<std::int64_t>(k)) ? 1 : 0;
      if (sample_backlog && (k & 511) == 0) {
        prefill_backlog_peak = std::max(
            prefill_backlog_peak,
            pto::gauges::reclaim_backlog().load(std::memory_order_relaxed));
      }
    }
    p.expected_size = static_cast<std::int64_t>(p.attempted);
    r.phases.push_back(p);
  }

  /// Output checks after a phase; returns the size the next phase starts at.
  template <class S>
  std::int64_t check(S& s, const PhaseResult& ph, std::int64_t size_before,
                     const char* what) {
    PhaseLedger p;
    p.attempted = ph.ops();
    p.completed = ph.ops();
    p.expected_size = size_before + ph.net_puts();
    p.actual_size = static_cast<std::int64_t>(s.size_slow());
    p.invariants_ok = s.check_invariants();
    r.phases.push_back(p);
    if (failed_ops(p) != 0) {
      std::printf(
          "CHECK FAILED %s: invariants=%d size=%lld expected=%lld ops=%llu\n",
          what, p.invariants_ok ? 1 : 0, static_cast<long long>(p.actual_size),
          static_cast<long long>(p.expected_size),
          static_cast<unsigned long long>(p.attempted));
    }
    return p.actual_size;
  }

  static auto client_exec(KV& kv) {
    return [&kv](unsigned) {
      struct Exec {
        typename KV::Client c;
        bool exec(const svc::Op& op, std::uint64_t) { return c.exec(op); }
      };
      return Exec{kv.make_client()};
    };
  }

  auto bare_exec(Bare& b) {
    return [&b, this](unsigned tid) {
      struct Exec {
        Bare* b;
        const std::uint8_t* route;
        std::vector<Ctx> ctxs;
        bool exec(const svc::Op& op, std::uint64_t idx) {
          const unsigned s = route[idx];
          DS& d = *b->shards[s];
          switch (op.kind) {
            case svc::OpKind::kGet: return b->adapter.get(d, ctxs[s], op.key);
            case svc::OpKind::kPut: return b->adapter.put(d, ctxs[s], op.key);
            case svc::OpKind::kDel: return b->adapter.del(d, ctxs[s], op.key);
          }
          return false;
        }
      };
      Exec e{&b, route[tid].data(), {}};
      e.ctxs.reserve(b.shards.size());
      for (auto& s : b.shards) e.ctxs.emplace_back(s->make_ctx());
      return e;
    };
  }

  void run_untraced(svc::Runtime& rt) {
    Tracer off(false, 1);
    const unsigned n = rt.threads();
    const double phase_s = args.seconds / (2.0 * kRepeats * kRounds);
    const std::uint64_t unbounded = ~std::uint64_t{0};
    LatencyBuffers lat(n);
    std::vector<double> setup_s, ops1, opsn, gp50, gp99, up50, up99;
    std::vector<double> gp999, gmax, up999, umax;
    std::size_t get_samples = 0;
    std::size_t upd_samples = 0;
    for (unsigned rep = 0; rep < kRepeats; ++rep) {
      const std::uint64_t t0 = now_ns();
      make_streams(n, off, 0);
      auto kv = std::make_unique<KV>(kShards, pto_adapter);
      {
        auto c = kv->make_client();
        prefill([&](std::int64_t k) { return c.put(k); }, false);
      }
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      std::int64_t size = static_cast<std::int64_t>(spec.keyspace / 2);

      for (unsigned round = 0; round < kRounds; ++round) {
        const unsigned solo = (rep * kRounds + round) % n;
        const PhaseResult p1 =
            run_phase(rt, streams, {1, solo, phase_s, unbounded, nullptr, 0},
                      off, client_exec(*kv));
        size = check(*kv, p1, size, "1-thread phase");
        const PhaseResult pn =
            run_phase(rt, streams, {n, 0, phase_s, unbounded, &lat, 0}, off,
                      client_exec(*kv));
        size = check(*kv, pn, size, "multi-thread phase");

        get_samples += lat.samples(true);
        upd_samples += lat.samples(false);
        ops1.push_back(p1.ops_s());
        opsn.push_back(pn.ops_s());
        gp50.push_back(lat.percentile_us(true, 0.50));
        gp99.push_back(lat.percentile_us(true, 0.99));
        gp999.push_back(lat.percentile_us(true, 0.999));
        gmax.push_back(lat.percentile_us(true, 1.0));
        up50.push_back(lat.percentile_us(false, 0.50));
        up99.push_back(lat.percentile_us(false, 0.99));
        up999.push_back(lat.percentile_us(false, 0.999));
        umax.push_back(lat.percentile_us(false, 1.0));
      }
      std::printf(
          "repeat %u: setup %.3f s; ops/s at 1 thread (cpu %u..) and %u "
          "threads:",
          rep, setup_s.back(), (rep * kRounds) % n, n);
      for (unsigned i = rep * kRounds; i < (rep + 1) * kRounds; ++i) {
        std::printf(" %.0f/%.0f", ops1[i], opsn[i]);
      }
      std::printf("; live keys %lld\n", static_cast<long long>(size));
    }
    std::printf(
        "latency at %u threads, median over %u phases of 1 op in %llu timed "
        "(%zu get, %zu put/del samples in all): get p999 %.2f us, max %.2f "
        "us; put/del p999 %.2f us, max %.2f us\n",
        n, kRepeats * kRounds, static_cast<unsigned long long>(kLatStride),
        get_samples, upd_samples, median(gp999), median(gmax), median(up999),
        median(umax));
    r.add("ops_s", median(opsn), "ops/s");
    r.add("ops_s_1t", median(ops1), "ops/s");
    r.add("get_p50_us", median(gp50), "us");
    r.add("get_p99_us", median(gp99), "us");
    r.add("upd_p50_us", median(up50), "us");
    r.add("upd_p99_us", median(up99), "us");
    r.add("setup_s", median(setup_s), "s");
    r.add("rss_mb", peak_rss_mb(), "MB");
  }

  void run_traced(svc::Runtime& rt) {
    const unsigned n = rt.threads();
    Tracer tr(true, 1 + n);
    auto& reg = pto::telemetry::Registry::instance();
    const std::uint64_t fixed = kTracedPasses * kStreamLen;
    Scope wl(tr, "workload", 0);

    std::unique_ptr<KV> kv;
    {
      Scope setup(tr, "setup", wl.id());
      make_streams(n, tr, setup.id());
      kv = std::make_unique<KV>(kShards, pto_adapter);
      Scope pf(tr, "prefill", setup.id());
      auto c = kv->make_client();
      prefill([&](std::int64_t k) { return c.put(k); }, true);
    }
    std::int64_t size = static_cast<std::int64_t>(spec.keyspace / 2);

    // Counters and spans armed: 1 and N threads. Untraced N-thread phases
    // interleave with traced ones for trace.overhead.
    std::vector<double> plain_ops, traced_ops, skew, imb;
    std::int64_t backlog_peak = prefill_backlog_peak;
    std::vector<std::uint64_t> per_shard(kShards, 0);
    Tracer off(false, 1);
    reg.reset_all();
    for (int round = 0; round < 2; ++round) {
      pto::telemetry::set_enabled(false);
      const PhaseResult u = run_phase(
          rt, streams, {n, 0, 0, fixed, nullptr, 0}, off, client_exec(*kv));
      size = check(*kv, u, size, "untraced phase");
      plain_ops.push_back(u.ops_s());
      skew.push_back(u.start_skew_us());
      imb.push_back(u.imbalance());
      for (unsigned t = 0; t < n; ++t) {
        for (std::uint64_t i = 0; i < u.w[t].ops; ++i) {
          ++per_shard[KV::shard_of(streams[t][i % kStreamLen].key, kShards)];
        }
      }

      pto::telemetry::set_enabled(true);
      if (round == 0) {
        Scope ph(tr, "phase.1t", wl.id());
        const PhaseResult p1 =
            run_phase(rt, streams, {1, 0, 0, fixed, nullptr, ph.id()}, tr,
                      client_exec(*kv));
        size = check(*kv, p1, size, "traced 1-thread phase");
      }
      Scope ph(tr, "phase.nt", wl.id());
      const PhaseResult t = run_phase(
          rt, streams, {n, 0, 0, fixed, nullptr, ph.id()}, tr,
          client_exec(*kv));
      size = check(*kv, t, size, "traced multi-thread phase");
      traced_ops.push_back(t.ops_s());
      backlog_peak = std::max(backlog_peak, t.w[0].backlog_peak);
    }
    pto::telemetry::set_enabled(false);
    add_site_counters(r);
    const double live = static_cast<double>(kv->size_slow());
    const std::int64_t backlog_end =
        pto::gauges::reclaim_backlog().load(std::memory_order_relaxed);
    kv.reset();

    // Ladder: the same streams through the router and through the adapters
    // on bare structures, each on a freshly prefilled copy so the rungs
    // differ only in the layers they call.
    double exec_ns = 0;
    {
      Scope rung(tr, "shard", wl.id());
      auto fresh = std::make_unique<KV>(kShards, pto_adapter);
      {
        auto c = fresh->make_client();
        prefill([&](std::int64_t k) { return c.put(k); }, false);
      }
      const PhaseResult p = run_phase(
          rt, streams, {n, 0, 0, fixed, nullptr, rung.id()}, off,
          client_exec(*fresh));
      check(*fresh, p, static_cast<std::int64_t>(spec.keyspace / 2),
            "router rung");
      exec_ns = p.ns_per_op();
    }
    route.assign(n, {});
    for (unsigned t = 0; t < n; ++t) {
      for (const svc::Op& op : streams[t]) {
        route[t].push_back(
            static_cast<std::uint8_t>(KV::shard_of(op.key, kShards)));
      }
    }
    double pto_ns[2] = {0, 0};
    double lf_ns[2] = {0, 0};
    for (const bool use_pto : {true, false}) {
      Scope rung(tr, use_pto ? "ds.pto" : "ds.lf", wl.id());
      Bare b{use_pto ? pto_adapter : lf_adapter, {}};
      for (unsigned s = 0; s < kShards; ++s) {
        b.shards.push_back(std::make_unique<DS>());
      }
      {
        std::vector<Ctx> ctxs;
        for (auto& s : b.shards) ctxs.emplace_back(s->make_ctx());
        prefill(
            [&](std::int64_t k) {
              const unsigned s = KV::shard_of(k, kShards);
              return b.adapter.put(*b.shards[s], ctxs[s], k);
            },
            false);
      }
      std::int64_t bsize = static_cast<std::int64_t>(spec.keyspace / 2);
      const PhaseResult p1 = run_phase(
          rt, streams, {1, 0, 0, fixed, nullptr, rung.id()}, off,
          bare_exec(b));
      bsize = check(b, p1, bsize, "bare 1-thread rung");
      const PhaseResult pn = run_phase(
          rt, streams, {n, 0, 0, fixed, nullptr, rung.id()}, off,
          bare_exec(b));
      check(b, pn, bsize, "bare multi-thread rung");
      (use_pto ? pto_ns : lf_ns)[0] = p1.ns_per_op();
      (use_pto ? pto_ns : lf_ns)[1] = pn.ns_per_op();
    }

    std::uint64_t total = 0;
    std::uint64_t top = 0;
    for (const std::uint64_t c : per_shard) {
      total += c;
      top = std::max(top, c);
    }
    r.add("loadgen.fill_ns_per_op", fill_ns_per_op, "ns");
    r.add("runtime.start_skew_us", median(skew), "us");
    r.add("runtime.imbalance", median(imb), "ratio");
    r.add("shard.exec_ns", exec_ns, "ns");
    r.add("shard.route_ns", exec_ns - pto_ns[1], "ns");
    r.add("shard.max_share",
          total == 0 ? 0.0
                     : static_cast<double>(top) / static_cast<double>(total),
          "share");
    r.add("ds.pto_op_ns.1t", pto_ns[0], "ns");
    r.add("ds.pto_op_ns.4t", pto_ns[1], "ns");
    r.add("ds.lf_op_ns.1t", lf_ns[0], "ns");
    r.add("ds.lf_op_ns.4t", lf_ns[1], "ns");
    r.add("ds.live_keys", live, "count");
    r.add("prefix.speedup.1t", pto_ns[0] == 0 ? 0.0 : lf_ns[0] / pto_ns[0],
          "ratio");
    r.add("prefix.speedup.4t", pto_ns[1] == 0 ? 0.0 : lf_ns[1] / pto_ns[1],
          "ratio");
    r.add("reclaim.backlog_peak", static_cast<double>(backlog_peak), "count");
    r.add("reclaim.backlog_end", static_cast<double>(backlog_end), "count");
    const double plain = median(plain_ops);
    const double traced = median(traced_ops);
    r.add("trace.overhead", traced == 0 ? 0.0 : plain / traced - 1.0,
          "ratio");
    for (const char* k : {"sim.dispatches", "sim.accesses", "sim.tx_started",
                          "sim.tx_aborts", "sim.makespan_cycles"}) {
      r.add(k, 0, "count");
    }
    r.add("sim.host_ns_per_access", 0, "ns");
    r.add("sim.vops_ms", 0, "ops/ms");

    run_probes(rt, tr, wl.id(), r);
    finish_trace(args, tr);
  }
};

}  // namespace

void run_kv(const Args& a, Result& r) {
  svc::Runtime rt({client_threads(), true});
  svc::WorkloadSpec spec;
  spec.seed = a.seed;
  if (a.workload == "kv-skip-zipf") {
    spec.keyspace = 1u << 16;
    spec.dist = svc::Dist::kZipf;
    spec.theta = 0.99;
    spec.get_pct = 50;
    spec.put_pct = 25;
    KvBench<svc::SkipAdapter<NativePlatform>> b{
        a, spec, {true}, {false}, r, {}, {}, 0, 0};
    a.trace ? b.run_traced(rt) : b.run_untraced(rt);
  } else {
    using Mode = pto::FSetHash<NativePlatform>::Mode;
    spec.keyspace = 1u << 18;
    spec.dist = svc::Dist::kUniform;
    spec.get_pct = 90;
    spec.put_pct = 5;
    KvBench<svc::HashAdapter<NativePlatform>> b{
        a, spec, {Mode::kPto}, {Mode::kLockfree}, r, {}, {}, 0, 0};
    a.trace ? b.run_traced(rt) : b.run_untraced(rt);
  }
}

}  // namespace perfbench
