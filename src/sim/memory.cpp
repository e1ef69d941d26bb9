// Line-granular memory hooks, each built from the per-access rules of
// runtime_internal.h (prologue, coherence, requester wins, the advance()
// charge edge), plus transactional read/write tracking and undo logging.
#include "sim/runtime_internal.h"

#include <cstring>

#include "check/check.h"
#include "telemetry/prof.h"

namespace pto::sim::internal {

namespace prof = ::pto::telemetry::prof;
namespace check = ::pto::check;

// ---------------------------------------------------------------------------
// LineTable cold paths. The hot lookup (runtime_internal.h) is a single
// probe; these run only on first touch of a 256 KB region, and the first
// time a tid >= 64 joins one of a line's sets.
// ---------------------------------------------------------------------------

void LineTable::init_table(std::size_t cap) {
  keys_.assign(cap, kEmpty);
  vals_.assign(cap, nullptr);
  mask_ = cap - 1;
  used_ = 0;
}

LineRegion* LineTable::create_region(std::uintptr_t region) {
  if (used_ * 2 >= keys_.size()) grow();
  if (used_ == regions_.size()) {
    regions_.push_back(std::make_unique<LineRegion>());
  } else {
    // A region a cleared run used: every line starts over.
    LineState* lines = regions_[used_]->lines;
    std::fill(lines, lines + kLinesPerRegion, LineState{});
  }
  LineRegion* r = regions_[used_].get();
  std::size_t i = probe_start(region);
  while (keys_[i] != kEmpty) i = (i + 1) & mask_;
  keys_[i] = region;
  vals_[i] = r;
  ++used_;
  return r;
}

HighWords* LineTable::take_high_words() {
  const std::size_t chunk = high_used_ / kHighWordsPerChunk;
  if (chunk == high_chunks_.size()) {
    high_chunks_.push_back(std::make_unique<HighWords[]>(kHighWordsPerChunk));
  }
  HighWords* h = &high_chunks_[chunk][high_used_ % kHighWordsPerChunk];
  ++high_used_;
  std::fill(std::begin(h->w), std::end(h->w), 0);
  return h;
}

HighWords* take_high_words() { return g_mem.lines.take_high_words(); }

void LineTable::grow() {
  std::vector<std::uintptr_t> old_keys = std::move(keys_);
  std::vector<LineRegion*> old_vals = std::move(vals_);
  init_table(old_keys.size() * 2);
  for (std::size_t j = 0; j < old_keys.size(); ++j) {
    if (old_keys[j] == kEmpty) continue;
    std::size_t i = probe_start(old_keys[j]);
    while (keys_[i] != kEmpty) i = (i + 1) & mask_;
    keys_[i] = old_keys[j];
    vals_[i] = old_vals[j];
    ++used_;
  }
}

std::uint64_t raw_read(const void* addr, unsigned size) {
  std::uint64_t v = 0;
  std::memcpy(&v, addr, size);
  return v;
}

void raw_write(void* addr, unsigned size, std::uint64_t val) {
  std::memcpy(addr, &val, size);
}

namespace {

std::uintptr_t line_addr(const void* addr) {
  return reinterpret_cast<std::uintptr_t>(addr) / kCacheLine;
}

/// Register a transactional read of the line; capacity-aborts if the read
/// set is full. The limit is the per-transaction budget set at tx_begin
/// (the HtmConfig limit, jittered down under HTM fault injection).
inline void tx_track_read(Runtime& rt, LineState& L) {
  VThread& t = rt.me();
  if (L.tx_readers().test(rt.cur)) return;
  if (t.tx.rlines.size() >= t.tx.rcap) {
    rt.self_abort(TX_ABORT_CAPACITY, TX_CODE_NONE);
  }
  L.tx_readers().set(rt.cur);
  t.tx.rlines.push_back(&L);
}

/// Register a transactional write of the line (capacity-aborting like
/// tx_track_read) and log the old value of the bytes about to change.
inline void tx_track_write(Runtime& rt, LineState& L, void* addr,
                           unsigned size) {
  VThread& t = rt.me();
  if (L.tx_writer != rt.cur) {
    if (t.tx.wlines.size() >= t.tx.wcap) {
      rt.self_abort(TX_ABORT_CAPACITY, TX_CODE_NONE);
    }
    L.tx_writer = rt.cur;
    t.tx.wlines.push_back(&L);
  }
  t.tx.undo.push_back({addr, size, raw_read(addr, size)});
}

/// An in-tx CAS or RMW costs `cost` instead of CostModel::cas.
void note_collapsed(const Runtime& rt, std::uint64_t cost) {
  if (PTO_UNLIKELY(prof::on())) {
    prof::on_cas_collapsed(rt.cfg.cost.cas > cost ? rt.cfg.cost.cas - cost
                                                   : 0);
  }
}

}  // namespace

std::uint64_t Runtime::do_load(const void* addr, unsigned size,
                               unsigned order) {
  LineState& L = begin_access(addr);
  const std::uintptr_t la = line_addr(addr);
  VThread& t = me();
  const std::uint64_t cost = cfg.cost.load_hit + share_line(L, la);
  if (t.tx.active) tx_access_checks();
  requester_wins(L, la, false);
  if (t.tx.active) tx_track_read(*this, L);
  ++t.stats.loads;
  std::uint64_t v = raw_read(addr, size);
  if (PTO_UNLIKELY(check::on())) {
    check::on_load(cur, addr, size, v, order, t.tx.active);
  }
  advance(cost, prof::kClassLoad);  // doomed while yielded => value invalid
  return v;
}

void Runtime::do_store(void* addr, unsigned size, std::uint64_t val,
                       unsigned order) {
  LineState& L = begin_access(addr);
  const std::uintptr_t la = line_addr(addr);
  VThread& t = me();
  const std::uint64_t cost = cfg.cost.store_hit + own_line(L, la);
  if (t.tx.active) tx_access_checks();
  requester_wins(L, la, true);
  if (t.tx.active) tx_track_write(*this, L, addr, size);
  ++t.stats.stores;
  raw_write(addr, size, val);
  if (PTO_UNLIKELY(check::on())) {
    check::on_store(cur, addr, size, val, order, t.tx.active);
  }
  advance(cost, prof::kClassStore);
}

bool Runtime::do_cas(void* addr, unsigned size, std::uint64_t& expected,
                     std::uint64_t desired) {
  LineState& L = begin_access(addr);
  const std::uintptr_t la = line_addr(addr);
  VThread& t = me();
  std::uint64_t cost;
  bool ok;
  if (t.tx.active) {
    // Inside a transaction a CAS degenerates to load + branch + store
    // (paper §2.3, "Eliminating Synchronization").
    tx_access_checks();
    requester_wins(L, la, false);
    tx_track_read(*this, L);
    ok = raw_read(addr, size) == expected;
    cost = cfg.cost.load_hit;
    if (ok) {
      requester_wins(L, la, true);
      tx_track_write(*this, L, addr, size);
      cost += cfg.cost.store_hit;
    }
    note_collapsed(*this, cost);
    cost += share_line(L, la);
  } else {
    // A CAS takes the line exclusive whether or not it succeeds.
    requester_wins(L, la, true);
    cost = cfg.cost.cas + own_line(L, la);
    ok = raw_read(addr, size) == expected;
  }
  if (ok) {
    raw_write(addr, size, desired);
  } else {
    expected = raw_read(addr, size);
  }
  ++t.stats.cas_ops;
  if (PTO_UNLIKELY(check::on())) {
    // `expected` holds the observed value either way: unchanged on success,
    // updated to the current value on failure.
    check::on_rmw(cur, addr, size, expected, ok, t.tx.active);
  }
  advance(cost, prof::kClassSync);
  return ok;
}

std::uint64_t Runtime::do_fetch_add(void* addr, unsigned size,
                                    std::uint64_t delta, unsigned cls) {
  LineState& L = begin_access(addr);
  const std::uintptr_t la = line_addr(addr);
  VThread& t = me();
  if (t.tx.active) tx_access_checks();
  requester_wins(L, la, true);
  std::uint64_t cost = cfg.cost.cas;
  if (t.tx.active) {
    tx_track_read(*this, L);
    tx_track_write(*this, L, addr, size);
    cost = cfg.cost.load_hit + cfg.cost.store_hit;
    note_collapsed(*this, cost);
  }
  cost += own_line(L, la);
  std::uint64_t old = raw_read(addr, size);
  raw_write(addr, size, old + delta);
  ++t.stats.rmws;
  if (PTO_UNLIKELY(check::on())) {
    check::on_rmw(cur, addr, size, old, true, t.tx.active);
  }
  advance(cost, cls);
  return old;
}

void Runtime::do_fence() {
  check_doom();
  VThread& t = me();
  if (t.tx.active && !cfg.fences_in_tx) {
    ++t.stats.fences_elided;
    if (PTO_UNLIKELY(prof::on())) prof::on_fence_elided(cfg.cost.fence);
    return;
  }
  ++t.stats.fences;
  if (PTO_UNLIKELY(check::on())) check::on_fence(cur);
  advance(cfg.cost.fence, prof::kClassFence);
}

}  // namespace pto::sim::internal
