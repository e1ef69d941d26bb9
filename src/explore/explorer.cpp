#include "explore/explorer.h"

#include <algorithm>
#include <cstring>

#include "common/defs.h"
#include "common/env.h"
#include "common/warn.h"

namespace pto::explore::internal {

Explorer::Explorer(const Options& opts, unsigned nthreads) : opts_(opts) {
  rng_.reseed(opts_.seed * 0x9E3779B97F4A7C15ull + 0xE5CAFEull);
  nwords_ = (nthreads + 63) / 64;
  prio_.assign(nthreads, 0);
  if (opts_.policy == Policy::kPCT) {
    // Initial priorities: a random permutation of [d+1, d+n], so every
    // change-point priority d-i (i < d) sits strictly below all of them.
    const auto d = static_cast<std::int64_t>(opts_.change_points);
    std::vector<std::int64_t> perm(nthreads);
    for (unsigned i = 0; i < nthreads; ++i) perm[i] = d + 1 + i;
    for (unsigned i = nthreads; i > 1; --i) {
      auto j = static_cast<unsigned>(rng_.next_below(i));
      std::swap(perm[i - 1], perm[j]);
    }
    for (unsigned i = 0; i < nthreads; ++i) prio_[i] = perm[i];
    for (unsigned i = 0; i < opts_.change_points; ++i) {
      change_steps_.push_back(1 + rng_.next_below(opts_.horizon));
    }
    std::sort(change_steps_.begin(), change_steps_.end());
  }
  if (opts_.policy == Policy::kReplay) {
    std::FILE* f = std::fopen(opts_.replay_path.c_str(), "r");
    if (f == nullptr) {
      warn_once("explore.replay_open",
                "PTO_SCHED replay file '%s' unreadable; running with an "
                "empty decision list",
                opts_.replay_path.c_str());
    } else {
      char line[128];
      while (std::fgets(line, sizeof line, f) != nullptr) {
        if (line[0] == '#' || line[0] == '\n') continue;
        unsigned long long step = 0;
        unsigned tid = 0;
        if (std::sscanf(line, "%llu %u", &step, &tid) == 2 &&
            tid < kMaxThreads) {
          replay_.push_back(pack_decision(step, tid));
        }
      }
      std::fclose(f);
    }
  }
  if (const char* path = env::str("PTO_SCHED_DUMP")) {
    dump_ = std::fopen(path, "w");
    if (dump_ == nullptr) {
      warn_once("env.PTO_SCHED_DUMP", "cannot open PTO_SCHED_DUMP='%s'", path);
    } else {
      std::fprintf(dump_, "# %s\n# step tid\n", token(opts_).c_str());
      std::fflush(dump_);
    }
  }
}

Explorer::~Explorer() {
  if (dump_ != nullptr) std::fclose(dump_);
}

unsigned Explorer::lowest(const ThreadSet& mask) const {
  return mask.first(nwords_);
}

unsigned Explorer::max_priority(const ThreadSet& mask) const {
  unsigned best = kMaxThreads;
  mask.for_each(nwords_, [&](unsigned t) {
    if (best == kMaxThreads || prio_[t] > prio_[best]) best = t;
  });
  return best;
}

void Explorer::record(unsigned tid) {
  std::uint64_t d = pack_decision(step_, tid);
  if (opts_.schedule_out != nullptr) opts_.schedule_out->push_back(d);
  decisions_.push_back(d);
  if (dump_ != nullptr) {
    std::fprintf(dump_, "%llu %u\n", static_cast<unsigned long long>(step_),
                 tid);
    // Flushed per decision so a crashed run leaves its prefix for the
    // minimizer; adversarial runs are test-sized, never benched.
    std::fflush(dump_);
  }
}

unsigned Explorer::choose(unsigned incumbent, const ThreadSet& mask) {
  assert(!mask.empty(nwords_));
  switch (opts_.policy) {
    case Policy::kPCT: {
      // Apply any change points due at this step to the incumbent (when
      // there is none — a finish decision — the point is consumed against
      // the thread about to be picked, keeping the stream aligned).
      while (change_idx_ < change_steps_.size() &&
             change_steps_[change_idx_] <= step_) {
        unsigned target =
            incumbent != kMaxThreads ? incumbent : max_priority(mask);
        prio_[target] = static_cast<std::int64_t>(opts_.change_points) -
                        static_cast<std::int64_t>(change_idx_);
        ++change_idx_;
      }
      return max_priority(mask);
    }
    case Policy::kRandom: {
      unsigned n = mask.popcount(nwords_);
      auto k = static_cast<unsigned>(rng_.next_below(n));
      unsigned picked = kMaxThreads;
      mask.for_each(nwords_, [&](unsigned t) {
        if (k-- == 0) picked = t;
      });
      return picked;
    }
    case Policy::kReplay: {
      while (replay_idx_ < replay_.size() &&
             decision_step(replay_[replay_idx_]) < step_) {
        ++replay_idx_;  // stale entries (earlier steps already passed)
      }
      if (replay_idx_ < replay_.size() &&
          decision_step(replay_[replay_idx_]) == step_) {
        unsigned t = decision_tid(replay_[replay_idx_]);
        ++replay_idx_;
        if (t < kMaxThreads && mask.test(t)) return t;
      }
      // No entry for this step: stay on the incumbent; on a finish
      // decision fall back to the lowest-index runnable thread.
      return incumbent != kMaxThreads ? incumbent : lowest(mask);
    }
    case Policy::kEnv:
    case Policy::kRR:
      break;  // unreachable: rr runs without an Explorer
  }
  return incumbent != kMaxThreads ? incumbent : lowest(mask);
}

unsigned Explorer::pick(unsigned cur, const ThreadSet& mask) {
  ++step_;
  unsigned next = choose(cur, mask);
  if (next != cur) record(next);
  return next;
}

unsigned Explorer::pick_first(const ThreadSet& mask) {
  ++step_;
  unsigned next = choose(kMaxThreads, mask);
  record(next);
  return next;
}

void Explorer::on_pause(unsigned tid) {
  if (opts_.policy != Policy::kPCT) return;
  // Drop the spinner below everything currently schedulable (initial and
  // change-point priorities are all >= 1); floors are distinct so
  // priorities stay a strict order.
  prio_[tid] = --pause_floor_;
}

}  // namespace pto::explore::internal
