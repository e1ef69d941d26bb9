// Internal policy engine for pto::explore — one instance per adversarial
// sim::run. The simulator runtime consults it at every preemption point
// (Runtime::charge) and at the start/finish decision points; with the default
// rr policy no Explorer exists and the dispatcher is untouched.
//
// Decision model: a global `step` counter increments at every decision point
// — each advance() on the running thread, the initial dispatch, and each
// thread-finish handoff. A decision that picks a thread other than the
// incumbent is recorded as pack_decision(step, tid); the recorded list is
// what PTO_SCHED_DUMP writes, what PTO_SCHED=replay:<file> consumes, and
// what tools/pto_minimize.py delta-debugs. Decisions depend only on
// (Options, nthreads, the observed sequence of decision points), so a run
// replays byte-identically from its token.
#pragma once

#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/defs.h"
#include "common/rng.h"
#include "common/threadset.h"
#include "explore/explore.h"

namespace pto::explore::internal {

class Explorer {
 public:
  Explorer(const Options& opts, unsigned nthreads);
  ~Explorer();
  Explorer(const Explorer&) = delete;
  Explorer& operator=(const Explorer&) = delete;

  /// Decision at a preemption point: `cur` is running and runnable, `mask`
  /// is the runnable-thread set (cur is a member). Returns the thread to
  /// run next (== cur: no preemption).
  unsigned pick(unsigned cur, const ThreadSet& mask);

  /// Decision at the initial dispatch or after a thread finished: no
  /// incumbent; `mask` is nonempty.
  unsigned pick_first(const ThreadSet& mask);

  /// The running thread executed a backoff pause. Under PCT a strict-
  /// priority spinner would otherwise monopolize the schedule (livelock on
  /// barriers / wait loops), so a pause drops the spinner below every other
  /// priority until the rest of the system progresses past it.
  void on_pause(unsigned tid);

  const std::vector<std::uint64_t>& decisions() const { return decisions_; }

 private:
  unsigned choose(unsigned incumbent, const ThreadSet& mask);
  void record(unsigned tid);
  unsigned lowest(const ThreadSet& mask) const;
  unsigned max_priority(const ThreadSet& mask) const;

  Options opts_;
  SplitMix64 rng_;
  /// ThreadSet words covering this run's thread count (single word <= 64).
  unsigned nwords_ = 1;
  std::uint64_t step_ = 0;

  // PCT state: strict distinct priorities (higher runs); change point i
  // re-assigns the incumbent priority d-i, below every initial priority.
  std::vector<std::int64_t> prio_;
  std::vector<std::uint64_t> change_steps_;  ///< sorted, next at change_idx_
  std::size_t change_idx_ = 0;
  std::int64_t pause_floor_ = 0;  ///< descends below all other priorities

  // Replay state.
  std::vector<std::uint64_t> replay_;  ///< packed decisions from the file
  std::size_t replay_idx_ = 0;

  std::vector<std::uint64_t> decisions_;
  std::FILE* dump_ = nullptr;  ///< PTO_SCHED_DUMP sink (flushed per line)
};

}  // namespace pto::explore::internal
