// Line-granular memory hooks: cost charging, MESI-ish sharer tracking, HTM
// conflict detection (requester-wins, strong atomicity), undo logging.
#include "sim/runtime_internal.h"

#include <cstring>

#include "check/check.h"
#include "telemetry/prof.h"
#include "telemetry/trace.h"

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

/// Doom every transactional reader of L other than `self`. Each word of the
/// reader set is snapshotted before its victims are doomed (for_each_other),
/// matching the old snapshot-then-ctzll loop: dooming a victim clears only
/// that victim's own bits, so later words are never perturbed mid-scan.
void doom_other_readers(Runtime& rt, LineState& L, unsigned self,
                        std::uintptr_t la) {
  L.tx_readers().for_each_other(self, rt.nwords, [&](unsigned v) {
    rt.doom(v, TX_ABORT_CONFLICT, la);
  });
}

void doom_other_writer(Runtime& rt, LineState& L, unsigned self,
                       std::uintptr_t la) {
  if (L.tx_writer != kNobody && L.tx_writer != self) {
    rt.doom(L.tx_writer, TX_ABORT_CONFLICT, la);
  }
}

/// Register a transactional read of the line; capacity-aborts if the read
/// set is full. The limit is the per-transaction budget set at tx_begin
/// (the HtmConfig limit, jittered down under HTM fault injection).
void tx_track_read(Runtime& rt, LineState& L) {
  VThread& t = rt.me();
  if (L.tx_readers().test(rt.cur)) return;
  if (t.tx.rlines.size() >= t.tx.rcap) {
    rt.self_abort(TX_ABORT_CAPACITY, TX_CODE_NONE);
  }
  L.tx_readers().set(rt.cur);
  t.tx.rlines.push_back(&L);
}

void tx_track_write(Runtime& rt, LineState& L) {
  VThread& t = rt.me();
  if (L.tx_writer == rt.cur) return;
  if (t.tx.wlines.size() >= t.tx.wcap) {
    rt.self_abort(TX_ABORT_CAPACITY, TX_CODE_NONE);
  }
  L.tx_writer = rt.cur;
  t.tx.wlines.push_back(&L);
}

}  // namespace

std::uint64_t Runtime::do_load(const void* addr, unsigned size,
                               unsigned order) {
  check_doom();
  VThread& t = me();
  LineState& L = line_of(addr);
  if (PTO_UNLIKELY(L.freed)) ++g_mem.uaf_count;
  std::uintptr_t la = line_addr(addr);
  std::uint64_t cost = cfg.cost.load_hit;
  if (!L.sharers().test(cur)) {
    cost += cfg.cost.coherence_miss;
    L.sharers().set(cur);
    if (PTO_UNLIKELY(telemetry::trace_on())) {
      telemetry::trace_miss(cur, t.clock, la);
    }
  }
  if (t.tx.active) {
    tx_access_checks();
    doom_other_writer(*this, L, cur, la);  // requester wins
    tx_track_read(*this, L);
  } else {
    // Strong atomicity: a non-transactional read of a transactionally
    // written line aborts the transaction (Intel requester-wins, paper §4.3).
    doom_other_writer(*this, L, cur, la);
  }
  ++t.stats.loads;
  std::uint64_t v = raw_read(addr, size);
  if (PTO_UNLIKELY(check::on())) {
    check::on_load(cur, addr, size, v, order, t.tx.active);
  }
  if (PTO_UNLIKELY(prof::on())) prof::on_charge(prof::kClassLoad, cost);
  charge(cost);
  check_doom();  // doomed while yielded => value invalid; longjmps
  return v;
}

void Runtime::do_store(void* addr, unsigned size, std::uint64_t val,
                       unsigned order) {
  check_doom();
  VThread& t = me();
  LineState& L = line_of(addr);
  if (PTO_UNLIKELY(L.freed)) ++g_mem.uaf_count;
  std::uintptr_t la = line_addr(addr);
  std::uint64_t cost = cfg.cost.store_hit;
  if (L.sharers().any_other(cur, nwords)) {
    cost += cfg.cost.coherence_miss;
    if (PTO_UNLIKELY(telemetry::trace_on())) {
      telemetry::trace_miss(cur, t.clock, la);
    }
  }
  L.sharers().assign_single(cur, nwords);
  if (t.tx.active) {
    tx_access_checks();
    begin_doom_batch();
    doom_other_writer(*this, L, cur, la);
    doom_other_readers(*this, L, cur, la);
    end_doom_batch();
    tx_track_write(*this, L);
    t.tx.undo.push_back({addr, size, raw_read(addr, size)});
  } else {
    begin_doom_batch();
    doom_other_writer(*this, L, cur, la);
    doom_other_readers(*this, L, cur, la);
    end_doom_batch();
  }
  ++t.stats.stores;
  raw_write(addr, size, val);
  if (PTO_UNLIKELY(check::on())) {
    check::on_store(cur, addr, size, val, order, t.tx.active);
  }
  if (PTO_UNLIKELY(prof::on())) prof::on_charge(prof::kClassStore, cost);
  charge(cost);
  check_doom();
}

bool Runtime::do_cas(void* addr, unsigned size, std::uint64_t& expected,
                     std::uint64_t desired) {
  check_doom();
  VThread& t = me();
  LineState& L = line_of(addr);
  if (PTO_UNLIKELY(L.freed)) ++g_mem.uaf_count;
  std::uint64_t la = line_addr(addr);
  bool ok;
  std::uint64_t cost;
  if (t.tx.active) {
    // Inside a transaction a CAS degenerates to load + branch + store
    // (paper §2.3, "Eliminating Synchronization").
    tx_access_checks();
    doom_other_writer(*this, L, cur, la);
    tx_track_read(*this, L);
    std::uint64_t curv = raw_read(addr, size);
    ok = (curv == expected);
    if (ok) {
      begin_doom_batch();
      doom_other_readers(*this, L, cur, la);
      end_doom_batch();
      tx_track_write(*this, L);
      t.tx.undo.push_back({addr, size, curv});
      raw_write(addr, size, desired);
      cost = cfg.cost.load_hit + cfg.cost.store_hit;
    } else {
      expected = curv;
      cost = cfg.cost.load_hit;
    }
    if (PTO_UNLIKELY(prof::on())) {
      prof::on_cas_collapsed(cfg.cost.cas > cost ? cfg.cost.cas - cost : 0);
    }
    if (!L.sharers().test(cur)) {
      cost += cfg.cost.coherence_miss;
      if (PTO_UNLIKELY(telemetry::trace_on())) {
        telemetry::trace_miss(cur, t.clock, la);
      }
    }
    L.sharers().set(cur);
  } else {
    // A CAS takes the line exclusive whether or not it succeeds.
    begin_doom_batch();
    doom_other_writer(*this, L, cur, la);
    doom_other_readers(*this, L, cur, la);
    end_doom_batch();
    cost = cfg.cost.cas;
    if (L.sharers().any_other(cur, nwords)) {
      cost += cfg.cost.coherence_miss;
      if (PTO_UNLIKELY(telemetry::trace_on())) {
        telemetry::trace_miss(cur, t.clock, la);
      }
    }
    L.sharers().assign_single(cur, nwords);
    std::uint64_t curv = raw_read(addr, size);
    ok = (curv == expected);
    if (ok) {
      raw_write(addr, size, desired);
    } else {
      expected = curv;
    }
  }
  ++t.stats.cas_ops;
  if (PTO_UNLIKELY(check::on())) {
    // `expected` holds the observed value either way: unchanged on success,
    // updated to the current value on failure.
    check::on_rmw(cur, addr, size, expected, ok, t.tx.active);
  }
  if (PTO_UNLIKELY(prof::on())) prof::on_charge(prof::kClassSync, cost);
  charge(cost);
  check_doom();
  return ok;
}

std::uint64_t Runtime::do_fetch_add(void* addr, unsigned size,
                                    std::uint64_t delta) {
  check_doom();
  VThread& t = me();
  LineState& L = line_of(addr);
  if (PTO_UNLIKELY(L.freed)) ++g_mem.uaf_count;
  std::uint64_t la = line_addr(addr);
  std::uint64_t cost;
  if (t.tx.active) {
    tx_access_checks();
    begin_doom_batch();
    doom_other_writer(*this, L, cur, la);
    doom_other_readers(*this, L, cur, la);
    end_doom_batch();
    tx_track_read(*this, L);
    tx_track_write(*this, L);
    t.tx.undo.push_back({addr, size, raw_read(addr, size)});
    cost = cfg.cost.load_hit + cfg.cost.store_hit;
    if (PTO_UNLIKELY(prof::on())) {
      prof::on_cas_collapsed(cfg.cost.cas > cost ? cfg.cost.cas - cost : 0);
    }
  } else {
    begin_doom_batch();
    doom_other_writer(*this, L, cur, la);
    doom_other_readers(*this, L, cur, la);
    end_doom_batch();
    cost = cfg.cost.cas;
  }
  if (L.sharers().any_other(cur, nwords)) {
    cost += cfg.cost.coherence_miss;
    if (PTO_UNLIKELY(telemetry::trace_on())) {
      telemetry::trace_miss(cur, t.clock, la);
    }
  }
  L.sharers().assign_single(cur, nwords);
  std::uint64_t old = raw_read(addr, size);
  raw_write(addr, size, old + delta);
  ++t.stats.rmws;
  if (PTO_UNLIKELY(check::on())) {
    check::on_rmw(cur, addr, size, old, true, t.tx.active);
  }
  // Classed kClassSync unless we are inside the allocator bracket, where
  // prof::on_charge reclasses it as allocation traffic.
  if (PTO_UNLIKELY(prof::on())) prof::on_charge(prof::kClassSync, cost);
  charge(cost);
  check_doom();
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
  if (PTO_UNLIKELY(prof::on())) {
    prof::on_charge(prof::kClassFence, cfg.cost.fence);
  }
  charge(cfg.cost.fence);
  check_doom();
}

}  // namespace pto::sim::internal
