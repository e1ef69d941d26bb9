// Best-effort HTM model: flat nesting, in-place writes with an undo log,
// requester-wins conflict resolution, capacity/duration aborts and the
// fault model's injected spurious aborts.
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

void Runtime::abort_tx(unsigned tid, unsigned cause) {
  VThread& t = threads[tid];
  TxDesc& tx = t.tx;
  // Roll back in-place writes so the requester (and everyone else) observes
  // pre-transaction state immediately.
  for (auto it = tx.undo.rbegin(); it != tx.undo.rend(); ++it) {
    raw_write(it->addr, it->size, it->old_val);
  }
  release_tx_footprint(tx, tid);
  t.clock += cfg.cost.tx_abort_penalty;
  t.stats.tx_aborts[cause]++;
  t.stats.tx_cycles += t.clock - tx.start;
  if (PTO_UNLIKELY(telemetry::trace_on())) {
    telemetry::trace_tx_abort(tid, tx.start, t.clock, cause);
  }
}

void Runtime::doom(unsigned victim, unsigned cause, std::uintptr_t line) {
  VThread& vt = threads[victim];
  TxDesc& tx = vt.tx;
  assert(tx.active && !tx.doomed && victim != cur);
  abort_tx(victim, cause);
  if (PTO_UNLIKELY(check::on())) {
    // After the rollback, before the aggressor's own write lands: the
    // checker compares the victim's logged reads against restored memory.
    check::on_tx_doomed(victim, line);
  }
  tx.doomed = true;
  tx.doom_cause = cause;
  // The victim sits in the ready heap (it is suspended); its key and the
  // cached yield threshold must track the penalty. Under an adversarial
  // policy there is no heap to fix — the Explorer ignores clocks.
  if (PTO_LIKELY(explorer == nullptr)) on_clock_raised(victim);
  if (PTO_UNLIKELY(prof::on())) {
    // The current thread is the aggressor whose access doomed the victim;
    // everything since the victim's outermost begin (penalty included) is
    // wasted speculative work.
    prof::on_conflict(victim, cur, line, vt.clock - tx.start);
  }
}

void Runtime::self_abort(unsigned cause, unsigned char user_code) {
  VThread& t = me();
  assert(t.tx.active && !t.tx.doomed);
  if (PTO_UNLIKELY(check::on())) {
    check::on_tx_self_abort(cur, cause, t.tx.rlines.size(),
                            t.tx.wlines.size());
  }
  abort_tx(cur, cause);
  t.last_user_code = user_code;
  unwind(cause);
}

void Runtime::unwind(unsigned cause) {
  VThread& t = me();
  TxDesc& tx = t.tx;
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

bool Runtime::fault_coin() {
  if (PTO_LIKELY(xopts.fault_rate <= 0.0)) return false;
  const double u =
      static_cast<double>(me().fault_rng.next() >> 11) * 0x1.0p-53;
  return u < xopts.fault_rate;
}

void Runtime::tx_access_checks() {
  VThread& t = me();
  if (t.clock - t.tx.start > cfg.htm.max_duration) {
    self_abort(TX_ABORT_DURATION, TX_CODE_NONE);
  }
  // Injected spurious/interrupt abort (explore fault model), the model's
  // only source of the paper's abort cause (c).
  if (fault_coin()) self_abort(TX_ABORT_SPURIOUS, TX_CODE_NONE);
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
  // Cannot be doomed here: tx was not active while we were switched out.
  rt.advance(rt.cfg.cost.tx_begin, prof::kClassTxOverhead);
  TxDesc& tx = t.tx;
  tx.active = true;
  tx.doomed = false;
  tx.start = t.clock;
  tx.user_code = TX_CODE_NONE;
  tx.rcap = rt.cfg.htm.max_read_lines;
  tx.wcap = rt.cfg.htm.max_write_lines;
  if (rt.fault_coin()) {
    // Capacity jitter: with the fault probability, this transaction runs
    // with a uniformly reduced footprint budget — the best-effort "your
    // capacity varies with cache pressure" failure mode, driving workloads
    // through their capacity-abort fallback paths.
    tx.rcap = 1 + static_cast<unsigned>(t.fault_rng.next_below(tx.rcap));
    tx.wcap = 1 + static_cast<unsigned>(t.fault_rng.next_below(tx.wcap));
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
  if (PTO_UNLIKELY(prof::on())) prof::on_tx_commit();
  rt.advance(rt.cfg.cost.tx_commit, prof::kClassTxOverhead);
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
