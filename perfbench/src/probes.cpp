// Traced-run probes of the htm and reclaim layers, the per-site telemetry
// counters, and the trace summary. Each probe calls the layer's public
// functions from outside: NativePlatform atomics (the HTM facade),
// pto::prefix(), and EpochDomain guards and retires.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "bench.h"
#include "core/prefix.h"
#include "htm/htm.h"
#include "platform/native_platform.h"
#include "reclaim/epoch.h"
#include "service/runtime.h"
#include "telemetry/registry.h"

namespace perfbench {
namespace {

using pto::NativePlatform;
using Domain = pto::EpochDomain<NativePlatform>;

constexpr double kProbeSeconds = 0.15;
constexpr std::uint64_t kPinnedSmall = 4096;
constexpr std::uint64_t kPinnedLarge = 65536;
constexpr std::uint64_t kPinnedWindow = 512;  ///< retires timed per size

/// One thread-private cache line per worker.
struct alignas(64) Cell {
  NativePlatform::atomic<std::uint64_t> a;
};

struct Obj {
  std::uint64_t v = 0;
};

/// Mean over `threads` workers of rt (1 or all) of the ns per call of
/// body(worker), each worker calling it in batches of 256 for kProbeSeconds.
template <class Body>
double ns_per_call(pto::service::Runtime& rt, unsigned threads, Body&& body) {
  std::vector<double> ns(threads, 0.0);
  rt.run([&](unsigned t) {
    if (t >= threads) return;
    std::uint64_t n = 0;
    const std::uint64_t t0 = now_ns();
    const auto end = t0 + static_cast<std::uint64_t>(kProbeSeconds * 1e9);
    std::uint64_t now = t0;
    do {
      for (int k = 0; k < 256; ++k) body(t);
      n += 256;
      now = now_ns();
    } while (now < end);
    ns[t] = static_cast<double>(now - t0) / static_cast<double>(n);
  });
  double sum = 0;
  for (const double x : ns) sum += x;
  return sum / static_cast<double>(ns.size());
}

void htm_probes(pto::service::Runtime& rt, Result& r) {
  const unsigned n = rt.threads();
  auto cells = std::make_unique<Cell[]>(n);
  std::vector<std::uint64_t> expect(n * 8, 0);
  std::vector<std::uint64_t> sink(n * 8, 0);
  auto load = [&](unsigned t) { sink[t * 8] += cells[t].a.load(); };
  auto cas = [&](unsigned t) {
    std::uint64_t& e = expect[t * 8];
    if (cells[t].a.compare_exchange_strong(e, e + 1)) ++e;
  };
  auto tx = [&](unsigned t) {
    auto& a = cells[t].a;
    pto::prefix<NativePlatform>(
        pto::PrefixPolicy(1),
        [&]() -> int {
          a.store(a.load() + 1);
          return 0;
        },
        [&]() -> int {
          a.fetch_add(1);
          return 0;
        });
  };
  r.add("htm.nt_load_ns.1t", ns_per_call(rt, 1, load), "ns");
  r.add("htm.nt_load_ns.4t", ns_per_call(rt, n, load), "ns");
  // A failed CAS resynchronizes `expect`; the cell is thread-private, so
  // only the first call can fail.
  for (unsigned t = 0; t < n; ++t) expect[t * 8] = cells[t].a.load();
  r.add("htm.nt_cas_ns.1t", ns_per_call(rt, 1, cas), "ns");
  for (unsigned t = 0; t < n; ++t) expect[t * 8] = cells[t].a.load();
  r.add("htm.nt_cas_ns.4t", ns_per_call(rt, n, cas), "ns");
  r.add("htm.tx_ns.1t", ns_per_call(rt, 1, tx), "ns");
  r.add("htm.tx_ns.4t", ns_per_call(rt, n, tx), "ns");
}

void reclaim_probes(pto::service::Runtime& rt, Result& r) {
  {
    Domain dom;
    std::vector<std::unique_ptr<Domain::Handle>> hs(rt.threads());
    rt.run([&](unsigned t) {
      hs[t] = std::make_unique<Domain::Handle>(dom.register_thread());
    });
    auto guard = [&](unsigned t) { Domain::Guard g(*hs[t]); };
    r.add("reclaim.guard_ns.1t", ns_per_call(rt, 1, guard), "ns");
    r.add("reclaim.guard_ns.4t", ns_per_call(rt, rt.threads(), guard), "ns");
  }

  // Retire with the epoch free to advance, then with one guard pinning it:
  // the limbo list grows, and every retire past the batch size rescans it.
  double free_ns = 0;
  double pinned_ns[2] = {0, 0};
  rt.run([&](unsigned t) {
    if (t != 0) return;
    Domain dom;
    std::vector<Obj*> objs(kPinnedLarge);
    {
      Domain::Handle h = dom.register_thread();
      for (auto& p : objs) p = NativePlatform::make<Obj>();
      const std::uint64_t t0 = now_ns();
      for (Obj* p : objs) h.retire(p);
      free_ns = static_cast<double>(now_ns() - t0) /
                static_cast<double>(objs.size());
      dom.advance_epochs();
      h.reclaim_some();
    }
    Domain::Handle pin = dom.register_thread();
    Domain::Handle h = dom.register_thread();
    for (auto& p : objs) p = NativePlatform::make<Obj>();
    {
      Domain::Guard g(pin);
      std::uint64_t i = 0;
      for (const std::uint64_t size : {kPinnedSmall, kPinnedLarge}) {
        for (; i < size - kPinnedWindow; ++i) h.retire(objs[i]);
        const std::uint64_t t0 = now_ns();
        for (; i < size; ++i) h.retire(objs[i]);
        pinned_ns[size == kPinnedLarge] =
            static_cast<double>(now_ns() - t0) / kPinnedWindow;
      }
    }
    dom.advance_epochs();
    h.reclaim_some();
  });
  r.add("reclaim.retire_ns", free_ns, "ns");
  r.add("reclaim.retire_pinned_ns.4k", pinned_ns[0], "ns");
  r.add("reclaim.retire_pinned_ns.64k", pinned_ns[1], "ns");
}

}  // namespace

void run_probes(pto::service::Runtime& rt, Tracer& tr, std::uint64_t parent,
                Result& r) {
  {
    Scope s(tr, "probe.htm", parent);
    htm_probes(rt, r);
  }
  Scope s(tr, "probe.reclaim", parent);
  reclaim_probes(rt, r);

  std::map<std::string, double> m;
  for (const Metric& x : r.metrics) m[x.name] = x.value;
  auto ratio = [&](const char* a, const char* b) {
    return m[b] == 0 ? 0.0 : m[a] / m[b];
  };
  std::printf(
      "1 -> %u threads on thread-private lines: htm.nt_cas_ns x%.1f, "
      "htm.tx_ns x%.1f, reclaim.guard_ns x%.1f, htm.nt_load_ns x%.1f; "
      "pinned retire 64Ki/4Ki limbo x%.1f\n",
      rt.threads(), ratio("htm.nt_cas_ns.4t", "htm.nt_cas_ns.1t"),
      ratio("htm.tx_ns.4t", "htm.tx_ns.1t"),
      ratio("reclaim.guard_ns.4t", "reclaim.guard_ns.1t"),
      ratio("htm.nt_load_ns.4t", "htm.nt_load_ns.1t"),
      ratio("reclaim.retire_pinned_ns.64k", "reclaim.retire_pinned_ns.4k"));
}

void add_site_counters(Result& r) {
  std::map<std::string, pto::PrefixStats> snap;
  for (pto::telemetry::Site* s : pto::telemetry::Registry::instance().sites()) {
    snap[s->name()] = s->snapshot();
  }
  auto other = [](const pto::PrefixStats& p) {
    return p.total_aborts() - p.aborts[pto::TX_ABORT_CONFLICT] -
           p.aborts[pto::TX_ABORT_EXPLICIT] - p.aborts[pto::TX_ABORT_CAPACITY];
  };
  for (const char* site : {"skiplist.insert", "skiplist.remove",
                           "hash.lookup", "hash.update.cow"}) {
    const pto::PrefixStats p = snap[site];
    const std::string k = std::string("prefix.") + site;
    r.add(k + ".attempts", static_cast<double>(p.attempts), "count");
    r.add(k + ".commits", static_cast<double>(p.commits), "count");
    r.add(k + ".fallbacks", static_cast<double>(p.fallbacks), "count");
    r.add(k + ".aborts.conflict",
          static_cast<double>(p.aborts[pto::TX_ABORT_CONFLICT]), "count");
    r.add(k + ".aborts.explicit",
          static_cast<double>(p.aborts[pto::TX_ABORT_EXPLICIT]), "count");
    r.add(k + ".aborts.capacity",
          static_cast<double>(p.aborts[pto::TX_ABORT_CAPACITY]), "count");
    r.add(k + ".aborts.other", static_cast<double>(other(p)), "count");
    r.add(k + ".commit_ratio",
          p.attempts == 0 ? 0.0
                          : static_cast<double>(p.commits) /
                                static_cast<double>(p.attempts),
          "ratio");
  }
  const pto::PrefixStats f =
      snap[pto::htm::backend() == pto::htm::Backend::kRTM ? "htm.rtm"
                                                          : "htm.soft"];
  r.add("htm.commits", static_cast<double>(f.commits), "count");
  r.add("htm.aborts.conflict",
        static_cast<double>(f.aborts[pto::TX_ABORT_CONFLICT]), "count");
  r.add("htm.aborts.explicit",
        static_cast<double>(f.aborts[pto::TX_ABORT_EXPLICIT]), "count");
  r.add("htm.aborts.capacity",
        static_cast<double>(f.aborts[pto::TX_ABORT_CAPACITY]), "count");
  r.add("htm.aborts.other", static_cast<double>(other(f)), "count");
}

void finish_trace(const Args& a, const Tracer& tr) {
  const std::vector<Span> spans = tr.spans();
  std::printf("%-16s %8s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto& [name, t] : self_times(spans)) {
    std::printf("%-16s %8llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_ns / 1e6,
                t.self_ns / 1e6);
  }
  if (a.trace_out.empty()) return;
  if (write_chrome_trace(a.trace_out, spans)) {
    std::printf("trace: %zu spans written to %s\n", spans.size(),
                a.trace_out.c_str());
  } else {
    std::printf("trace: could not write %s\n", a.trace_out.c_str());
  }
}

}  // namespace perfbench
