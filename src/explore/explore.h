// pto::explore — adversarial schedule exploration and HTM fault injection
// for the simx simulator (DESIGN.md §9).
//
// The default simx dispatcher always runs the least-advanced virtual thread,
// so every workload sees exactly one interleaving. The paper's correctness
// claims (Thms 1–3) quantify over *all* interleavings and *all* best-effort
// abort patterns; this module supplies seeded adversarial versions of both:
//
//   PTO_SCHED=rr                 the classic min-clock schedule (default;
//                                bit-for-bit identical to the plain dispatcher)
//   PTO_SCHED=pct:<seed>[:d[:k]] PCT-style priority scheduling (Burckhardt et
//                                al., ASPLOS'10): random strict priorities,
//                                d priority change points sampled over a
//                                k-step horizon (defaults d=3, k=100000)
//   PTO_SCHED=rand:<seed>        uniform-random runnable thread at every
//                                preemption point
//   PTO_SCHED=replay:<file>      follow a recorded decision list (see
//                                PTO_SCHED_DUMP and tools/pto_minimize.py)
//
//   PTO_HTM_FAULTS=<seed>:<rate> inject spurious/interrupt aborts with
//                                probability <rate> per transactional access,
//                                and with the same probability give a
//                                transaction a jittered (reduced) capacity at
//                                begin — exercising every fallback path
//
//   PTO_SCHED_DUMP=<file>        write the decision list of each simulated
//                                run (truncated at run start, flushed per
//                                decision, so a crashed run leaves its
//                                prefix behind for the minimizer)
//
// Preemption points are exactly the simulator's instrumented events: every
// shared-memory access, fence, RMW, allocation, tx begin/commit, pause and
// op boundary charges cycles through Runtime::advance(), and under an
// exploration policy every advance() is a scheduling decision. A run is a
// pure function of (workload, Options), so any failure is replayed exactly
// by its one-line token (`explore::token()`).
//
// This header is standalone (no sim.h dependency) so sim::Config can embed
// Options by value.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pto::explore {

enum class Policy : unsigned char {
  kEnv = 0,  ///< resolve from PTO_SCHED / PTO_HTM_FAULTS at run start
  kRR,       ///< deterministic min-clock dispatch (the classic simx schedule)
  kPCT,      ///< PCT random priorities with d change points
  kRandom,   ///< uniform-random runnable thread at every preemption point
  kReplay,   ///< follow an explicit decision list from a file
};

struct Options {
  Policy policy = Policy::kEnv;
  std::uint64_t seed = 1;        ///< schedule seed (pct / rand)
  unsigned change_points = 3;    ///< PCT d: priority change points per run
  std::uint64_t horizon = 100'000;  ///< PCT k: step horizon the d change
                                    ///< points are sampled from
  std::string replay_path;       ///< kReplay: decision-list file

  /// HTM fault injection, the simulator's only source of spurious aborts;
  /// rate 0 disables. Independent of the scheduling policy, and drawn from
  /// its own stream, so enabling it never perturbs workload key sequences.
  std::uint64_t fault_seed = 0;
  double fault_rate = 0.0;

  /// Test hook: when set, every scheduling decision that picked a thread
  /// other than the incumbent is appended as pack(step, tid) — the replay
  /// identity tests compare these across runs.
  std::vector<std::uint64_t>* schedule_out = nullptr;

  bool adversarial() const {
    return policy == Policy::kPCT || policy == Policy::kRandom ||
           policy == Policy::kReplay;
  }
};

/// One recorded scheduling decision: `step` is the index of the decision
/// point (every preemption point increments it), `tid` the chosen thread.
/// The tid field is 16 bits so thread ids up to kMaxThreads (1024) fit with
/// headroom; steps use the remaining 48 bits.
constexpr std::uint64_t pack_decision(std::uint64_t step, unsigned tid) {
  return (step << 16) | tid;
}
constexpr std::uint64_t decision_step(std::uint64_t d) { return d >> 16; }
constexpr unsigned decision_tid(std::uint64_t d) {
  return static_cast<unsigned>(d & 0xFFFF);
}

/// Parse a PTO_SCHED value into `o` (policy/seed/d/k/replay_path only).
/// Returns false (leaving `o` untouched) on a malformed value.
bool parse_sched(const char* s, Options& o);

/// Parse a PTO_HTM_FAULTS value ("<seed>:<rate>") into `o`.
bool parse_faults(const char* s, Options& o);

/// Resolve kEnv against PTO_SCHED / PTO_HTM_FAULTS (each consulted at every
/// call — no caching, so tests may setenv between runs). Options with an
/// explicit policy pass through unchanged except that a zero fault_rate
/// still picks up PTO_HTM_FAULTS.
Options resolved(const Options& o);

/// The one-line replay token reproducing a run: "PTO_SCHED=pct:7:3:100000"
/// plus " PTO_HTM_FAULTS=9:0.01" when fault injection is active. Pasting it
/// into the environment of the same binary reproduces the schedule (and the
/// injected faults) byte-identically.
std::string token(const Options& o);

/// Derive a per-trial / per-test schedule seed from a base seed, matching
/// how the bench runner keeps multi-trial sweeps deterministic.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t salt);

}  // namespace pto::explore
