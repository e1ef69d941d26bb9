// Best-effort HTM model: flat nesting, in-place writes with an undo log,
// requester-wins conflict resolution, capacity/duration/spurious aborts.
#include "sim/runtime_internal.h"

#include "check/check.h"
#include "telemetry/prof.h"
#include "telemetry/trace.h"

namespace pto::sim::internal {

namespace prof = ::pto::telemetry::prof;
namespace check = ::pto::check;

void Runtime::release_tx_footprint(TxDesc& tx, unsigned tid) {
  // Tracked lines are held as direct LineState pointers (regions never move
  // and are only recycled by reset_memory, which cannot run mid-tx).
  for (LineState* l : tx.rlines) l->tx_readers().clear(tid);
  for (LineState* l : tx.wlines) {
    if (l->tx_writer == tid) l->tx_writer = kNobody;
  }
  tx.rlines.clear();
  tx.wlines.clear();
  tx.undo.clear();
}

void Runtime::doom(unsigned victim, unsigned cause, std::uintptr_t line) {
  VThread& vt = threads[victim];
  TxDesc& tx = vt.tx;
  assert(tx.active && !tx.doomed && victim != cur);
  // Roll back in-place writes so the requester (and everyone else) observes
  // pre-transaction state immediately.
  for (auto it = tx.undo.rbegin(); it != tx.undo.rend(); ++it) {
    raw_write(it->addr, it->size, it->old_val);
  }
  release_tx_footprint(tx, victim);
  if (PTO_UNLIKELY(check::on())) {
    // After the rollback, before the aggressor's own write lands: the
    // checker compares the victim's logged reads against restored memory.
    check::on_tx_doomed(victim, line);
  }
  tx.doomed = true;
  tx.doom_cause = cause;
  vt.clock += cfg.cost.tx_abort_penalty;
  // The victim sits in the ready heap (it is suspended); its key and the
  // cached yield threshold must track the penalty. Under an adversarial
  // policy there is no heap to fix — the Explorer ignores clocks.
  if (PTO_LIKELY(explorer == nullptr)) on_clock_raised(victim);
  vt.stats.tx_aborts[cause]++;
  vt.stats.tx_cycles += vt.clock - tx.start;
  if (PTO_UNLIKELY(telemetry::trace_on())) {
    telemetry::trace_tx_abort(victim, tx.start, vt.clock, cause);
  }
  if (PTO_UNLIKELY(prof::on())) {
    // The current thread is the aggressor whose access doomed the victim;
    // everything since the victim's outermost begin (penalty included) is
    // wasted speculative work.
    prof::on_conflict(victim, cur, line, vt.clock - tx.start);
  }
}

void Runtime::check_doom() {
  VThread& t = me();
  if (PTO_LIKELY(!t.tx.doomed)) return;
  TxDesc& tx = t.tx;
  unsigned cause = tx.doom_cause;
  tx.doomed = false;
  tx.active = false;
  tx.depth = 0;
  if (PTO_UNLIKELY(prof::on())) prof::on_abort_unwind();
  // This longjmp runs on a fiber stack; ASan's no-return handler only knows
  // how to unpoison the host thread stack, so clear the abandoned frames'
  // redzones ourselves (no-op outside ASan builds).
  t.fiber->unpoison_stack();
  std::longjmp(tx.env, static_cast<int>(cause));
}

void Runtime::self_abort(unsigned cause, unsigned char user_code) {
  VThread& t = me();
  TxDesc& tx = t.tx;
  assert(tx.active && !tx.doomed);
  for (auto it = tx.undo.rbegin(); it != tx.undo.rend(); ++it) {
    raw_write(it->addr, it->size, it->old_val);
  }
  if (PTO_UNLIKELY(check::on())) {
    check::on_tx_self_abort(cur, cause, tx.rlines.size(), tx.wlines.size());
  }
  release_tx_footprint(tx, cur);
  t.last_user_code = user_code;
  t.stats.tx_aborts[cause]++;
  t.clock += cfg.cost.tx_abort_penalty;
  t.stats.tx_cycles += t.clock - tx.start;
  if (PTO_UNLIKELY(telemetry::trace_on())) {
    telemetry::trace_tx_abort(cur, tx.start, t.clock, cause);
  }
  tx.active = false;
  tx.depth = 0;
  if (PTO_UNLIKELY(prof::on())) prof::on_abort_unwind();
  // See check_doom(): unpoison the fiber stack before longjmp under ASan.
  t.fiber->unpoison_stack();
  std::longjmp(tx.env, static_cast<int>(cause));
}

void Runtime::tx_access_checks() {
  VThread& t = me();
  if (t.clock - t.tx.start > cfg.htm.max_duration) {
    self_abort(TX_ABORT_DURATION, TX_CODE_NONE);
  }
  if (PTO_UNLIKELY(cfg.htm.spurious_abort_prob > 0.0)) {
    // Deterministic per-thread coin flip.
    double u = static_cast<double>(t.rng.next() >> 11) * 0x1.0p-53;
    if (u < cfg.htm.spurious_abort_prob) {
      self_abort(TX_ABORT_SPURIOUS, TX_CODE_NONE);
    }
  }
  if (PTO_UNLIKELY(xopts.fault_rate > 0.0)) {
    // Injected spurious/interrupt abort (explore fault model). Drawn from
    // the dedicated fault stream so the workload RNG is untouched.
    double u = static_cast<double>(t.fault_rng.next() >> 11) * 0x1.0p-53;
    if (u < xopts.fault_rate) {
      self_abort(TX_ABORT_SPURIOUS, TX_CODE_NONE);
    }
  }
}

}  // namespace pto::sim::internal

namespace pto::sim {

using namespace internal;

unsigned tx_begin() {
  // Outside a simulation there is no HTM: report a non-retryable abort so
  // prefix() immediately runs the fallback (host-side setup code).
  if (g_rt == nullptr) return TX_ABORT_OTHER;
  Runtime& rt = *g_rt;
  VThread& t = rt.me();
  if (t.tx.active) {
    ++t.tx.depth;
    return TX_STARTED;
  }
  if (PTO_UNLIKELY(prof::on())) {
    prof::on_charge(prof::kClassTxOverhead, rt.cfg.cost.tx_begin);
  }
  rt.charge(rt.cfg.cost.tx_begin);
  // Cannot be doomed here: tx was not active while we were switched out.
  TxDesc& tx = t.tx;
  tx.active = true;
  tx.doomed = false;
  tx.start = t.clock;
  tx.user_code = TX_CODE_NONE;
  tx.rcap = rt.cfg.htm.max_read_lines;
  tx.wcap = rt.cfg.htm.max_write_lines;
  if (PTO_UNLIKELY(rt.xopts.fault_rate > 0.0)) {
    // Capacity jitter: with the fault probability, this transaction runs
    // with a uniformly reduced footprint budget — the best-effort "your
    // capacity varies with cache pressure" failure mode, driving workloads
    // through their capacity-abort fallback paths.
    double u = static_cast<double>(t.fault_rng.next() >> 11) * 0x1.0p-53;
    if (u < rt.xopts.fault_rate) {
      tx.rcap = 1 + static_cast<unsigned>(t.fault_rng.next_below(tx.rcap));
      tx.wcap = 1 + static_cast<unsigned>(t.fault_rng.next_below(tx.wcap));
    }
  }
  t.stats.tx_started++;
  if (PTO_UNLIKELY(check::on())) check::on_tx_begin(rt.cur);
  if (PTO_UNLIKELY(prof::on())) prof::on_tx_begin();
  return TX_STARTED;
}

void tx_end() {
  Runtime& rt = *g_rt;
  VThread& t = rt.me();
  TxDesc& tx = t.tx;
  assert(tx.active);
  if (tx.depth > 0) {
    --tx.depth;
    return;
  }
  // Between the last instrumented access and here only thread-local
  // computation ran, so the tx cannot have been doomed.
  assert(!tx.doomed);
  rt.release_tx_footprint(tx, rt.cur);
  tx.active = false;
  if (PTO_UNLIKELY(check::on())) check::on_tx_commit(rt.cur);
  t.stats.tx_commits++;
  t.stats.tx_cycles += t.clock - tx.start;
  if (PTO_UNLIKELY(telemetry::trace_on())) {
    telemetry::trace_tx_commit(rt.cur, tx.start, t.clock);
  }
  if (PTO_UNLIKELY(prof::on())) {
    prof::on_tx_commit();
    prof::on_charge(prof::kClassTxOverhead, rt.cfg.cost.tx_commit);
  }
  rt.charge(rt.cfg.cost.tx_commit);
}

void tx_abort(unsigned char user_code) {
  Runtime& rt = *g_rt;
  assert(rt.me().tx.active);
  rt.self_abort(TX_ABORT_EXPLICIT, user_code);
}

bool in_tx() { return g_rt != nullptr && g_rt->me().tx.active; }

std::jmp_buf& tx_checkpoint() {
  if (g_rt) return g_rt->me().tx.env;
  static std::jmp_buf dummy;  // armed but never longjmp'd outside a sim
  return dummy;
}

unsigned char last_user_code() {
  if (g_rt == nullptr) return TX_CODE_NONE;
  return g_rt->me().last_user_code;
}

}  // namespace pto::sim
