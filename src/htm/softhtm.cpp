#include "htm/softhtm.h"

#include "htm/htm.h"

namespace pto::softhtm {

namespace detail {
alignas(kCacheLine) Stripe g_stripes[kStripes];
constinit thread_local Tx t_tx{};
}  // namespace detail

namespace {
thread_local unsigned char g_last_user_code = TX_CODE_NONE;

using detail::t_tx;

/// Whether one of writes[0, n) took the lock on `s` during this commit.
bool owns(const Tx& tx, const Stripe* s, unsigned n) {
  for (unsigned i = 0; i < n; ++i) {
    if (tx.writes[i].stripe == s && tx.writes[i].owner) return true;
  }
  return false;
}

/// Release the stripes taken by writes[0, n): at version + 2 once the
/// write-back is done, or at the old version when nothing was written (a
/// reader that saw the old version then still reads the old data).
void release(Tx& tx, unsigned n, std::uint64_t bump) {
  for (unsigned i = 0; i < n; ++i) {
    const WriteEntry& w = tx.writes[i];
    if (w.owner) w.stripe->store(w.version + bump, std::memory_order_release);
  }
}
}  // namespace

unsigned char last_user_code() { return g_last_user_code; }

namespace detail {

void log_read(Tx& tx, const Stripe& s, std::uint64_t v) {
  // Re-validate every earlier read after this one: each stripe kept its
  // version from its own read until now, and this read lies inside all of
  // those intervals, so the whole read set is a snapshot as of this read.
  bool logged = false;
  for (unsigned i = 0; i < tx.nreads; ++i) {
    const ReadEntry& r = tx.reads[i];
    if (r.stripe->load(std::memory_order_acquire) != r.version) {
      abort_tx(TX_ABORT_CONFLICT, TX_CODE_NONE);
    }
    logged |= r.stripe == &s;
  }
  if (logged) return;  // its version equals v, or the check above aborted
  if (PTO_UNLIKELY(tx.nreads == kReadCapacity)) {
    abort_tx(TX_ABORT_CAPACITY, TX_CODE_NONE);
  }
  tx.reads[tx.nreads++] = {&s, v};
}

}  // namespace detail

unsigned begin() {
  Tx& tx = t_tx;
  if (tx.active) {
    ++tx.depth;  // flat nesting
    return TX_STARTED;
  }
  tx.nreads = 0;
  tx.nwrites = 0;
  tx.depth = 0;
  tx.active = true;
  return TX_STARTED;
}

// Commit memory orders. Locks are taken with seq_cst CASes and the read set
// is validated with seq_cst loads, so two committers that each read what the
// other writes cannot both miss the other's lock (the Dekker pattern of
// write-skew), and neither can a non-transactional writer, which takes its
// stripe with the same CAS. The CAS also orders the validation loads and the
// write-back after the locks. Write-back stores and the final unlock are
// release stores: a reader that sees a written value or the new version
// sees the whole write-back, and one that reads mid-write-back sees an odd
// lock and retries.
//
// The commit linearizes at the first validation load: every write stripe is
// locked by then, and every read stripe holds its logged version from its
// read until its own (later) validation load.
void commit() {
  Tx& tx = t_tx;
  if (tx.depth > 0) {
    --tx.depth;
    return;
  }
  if (tx.nwrites != 0) {
    for (unsigned i = 0; i < tx.nwrites; ++i) {
      WriteEntry& w = tx.writes[i];
      w.owner = !owns(tx, w.stripe, i);
      if (!w.owner) continue;  // two words on one line, or a hash collision
      std::uint64_t v = w.stripe->load(std::memory_order_relaxed);
      if ((v & 1) != 0 ||
          !w.stripe->compare_exchange_strong(v, v + 1,
                                             std::memory_order_seq_cst,
                                             std::memory_order_relaxed)) {
        release(tx, i, 0);
        abort_tx(TX_ABORT_CONFLICT, TX_CODE_NONE);
      }
      w.version = v;
    }
    for (unsigned i = 0; i < tx.nreads; ++i) {
      const ReadEntry& r = tx.reads[i];
      const std::uint64_t cur = r.stripe->load(std::memory_order_seq_cst);
      // A stripe we locked reads version + 1; it is valid if we locked it at
      // the version the read saw.
      if (cur != r.version &&
          !(cur == r.version + 1 && owns(tx, r.stripe, tx.nwrites))) {
        release(tx, tx.nwrites, 0);
        abort_tx(TX_ABORT_CONFLICT, TX_CODE_NONE);
      }
    }
    for (unsigned i = 0; i < tx.nwrites; ++i) {
      const WriteEntry& w = tx.writes[i];
      w.wr(w.obj, w.val);
    }
    release(tx, tx.nwrites, 2);
  }
  // A read-only transaction validated its whole read set at its last read.
  tx.active = false;
}

void abort_tx(unsigned cause, unsigned char user_code) {
  Tx& tx = t_tx;
  g_last_user_code = user_code;
  tx.active = false;
  tx.depth = 0;
  // The longjmp bypasses htm::tx_begin's abort-return path, so the facade's
  // telemetry site is fed here (writes are buffered, nothing to roll back).
  htm::detail::report(::pto::telemetry::kEventAbort, cause);
  std::longjmp(tx.env, static_cast<int>(cause));
}

}  // namespace pto::softhtm
