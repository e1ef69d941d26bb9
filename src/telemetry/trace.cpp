#include "telemetry/trace.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/env.h"
#include "common/warn.h"
#include "htm/txcode.h"

namespace pto::telemetry {

namespace trace_detail {
std::atomic<bool> g_on{false};
std::atomic<bool> g_sched_on{false};
}  // namespace trace_detail

namespace {

// The paper's i7-4770: 3.4e3 cycles per microsecond.
constexpr double kCyclesPerUs = 3400.0;
constexpr std::uint64_t kDefaultCap = 1u << 18;

enum Kind : std::uint8_t {
  kRunBegin,
  kTxCommit,
  kTxAbort,
  kMiss,
  kSched,
  kCounter,
};

const char* counter_name(unsigned id) {
  switch (id) {
    case 0: return "conflict_aborts";
    case 1: return "doomed_cycles";
    default: return "counter";
  }
}

struct Rec {
  std::uint64_t ts;   ///< cycles (start cycle for tx events)
  std::uint64_t dur;  ///< cycles (tx events only)
  std::uint64_t arg;  ///< cause / line id / seed
  std::uint32_t run;  ///< sim::run() ordinal, becomes the trace pid
  std::uint16_t tid;
  std::uint8_t kind;
};

struct State {
  std::string path;
  std::vector<Rec> buf;
  std::uint64_t cap =
      env::u64("PTO_TRACE_CAP", kDefaultCap, 1, std::uint64_t{1} << 40);
  std::uint64_t count = 0;  ///< total events ever pushed
  std::uint32_t run = 0;    ///< current run ordinal
  /// Host line index -> its order of first miss in the current run.
  std::unordered_map<std::uint64_t, std::uint64_t> line_ids;

  State() {
    if (env::flag("PTO_TRACE_SCHED")) {
      trace_detail::g_sched_on.store(true, std::memory_order_relaxed);
    }
    if (const char* v = env::str("PTO_TRACE")) {
      path = v;
      trace_detail::g_on.store(true, std::memory_order_relaxed);
    }
  }
};

State& state() {
  static State s;
  return s;
}

// Force the env scan at startup: the recording hooks are gated on g_on, which
// only State's constructor sets, so PTO_TRACE must not wait for a first call.
const bool g_env_scanned = (state(), true);

void push(Rec r) {
  State& s = state();
  r.run = s.run;
  if (s.buf.size() < s.cap) {
    s.buf.push_back(r);
  } else {
    s.buf[s.count % s.cap] = r;
  }
  ++s.count;
}

void write_event(std::ofstream& os, const Rec& r, bool& first) {
  char head[160];
  auto emit = [&](const char* name, const char* ph, std::uint64_t ts) {
    std::snprintf(head, sizeof head,
                  "%s{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":%u,"
                  "\"tid\":%u",
                  first ? "" : ",\n", name, ph,
                  static_cast<double>(ts) / kCyclesPerUs, r.run, r.tid);
    os << head;
    first = false;
  };
  switch (r.kind) {
    case kRunBegin:
      emit("process_name", "M", 0);
      os << ",\"args\":{\"name\":\"simx run " << r.run << " (" << r.ts
         << " threads, seed " << r.arg << ")\"}}";
      break;
    case kTxCommit:
    case kTxAbort: {
      emit("tx", "X", r.ts);
      char tail[128];
      std::snprintf(tail, sizeof tail, ",\"dur\":%.3f",
                    static_cast<double>(r.dur) / kCyclesPerUs);
      os << tail << ",\"args\":{\"outcome\":\""
         << (r.kind == kTxCommit ? "commit" : "abort") << "\"";
      if (r.kind == kTxAbort) {
        os << ",\"cause\":\"" << tx_code_name(static_cast<unsigned>(r.arg))
           << "\"";
      }
      os << ",\"start_cycle\":" << r.ts << ",\"end_cycle\":" << (r.ts + r.dur)
         << "}}";
      break;
    }
    case kMiss:
      emit("coherence_miss", "i", r.ts);
      os << ",\"s\":\"t\",\"args\":{\"line\":" << r.arg << "}}";
      break;
    case kSched:
      emit("sched", "i", r.ts);
      os << ",\"s\":\"t\",\"args\":{}}";
      break;
    case kCounter:
      emit(counter_name(r.tid), "C", r.ts);
      os << ",\"args\":{\"value\":" << r.arg << "}}";
      break;
  }
}

}  // namespace

void trace_set_path(const char* path) {
  State& s = state();
  s.path = (path != nullptr) ? path : "";
  s.buf.clear();
  s.count = 0;
  s.run = 0;
  s.line_ids.clear();
  trace_detail::g_on.store(!s.path.empty(), std::memory_order_relaxed);
}

void trace_set_sched(bool on) {
  trace_detail::g_sched_on.store(on, std::memory_order_relaxed);
}

void trace_set_capacity(std::uint64_t events) {
  State& s = state();
  s.cap = events > 0 ? events : 1;
  s.buf.clear();
  s.count = 0;
}

void trace_run_begin(unsigned nthreads, std::uint64_t seed) {
  State& s = state();
  ++s.run;
  s.line_ids.clear();
  push(Rec{nthreads, 0, seed, 0, 0, kRunBegin});
}

void trace_tx_commit(unsigned tid, std::uint64_t start_cycle,
                     std::uint64_t end_cycle) {
  push(Rec{start_cycle, end_cycle - start_cycle, 0, 0,
           static_cast<std::uint16_t>(tid), kTxCommit});
}

void trace_tx_abort(unsigned tid, std::uint64_t start_cycle,
                    std::uint64_t end_cycle, unsigned cause) {
  push(Rec{start_cycle, end_cycle - start_cycle, cause, 0,
           static_cast<std::uint16_t>(tid), kTxAbort});
}

void trace_miss(unsigned tid, std::uint64_t cycle, std::uint64_t line) {
  // Name the line by its order of first miss in the run (0, 1, ...), as the
  // profiler names hot lines: fixed by the simulation, where a host address
  // would follow ASLR.
  auto& ids = state().line_ids;
  const std::uint64_t id = ids.try_emplace(line, ids.size()).first->second;
  push(Rec{cycle, 0, id, 0, static_cast<std::uint16_t>(tid), kMiss});
}

void trace_sched(unsigned tid, std::uint64_t cycle) {
  push(Rec{cycle, 0, 0, 0, static_cast<std::uint16_t>(tid), kSched});
}

void trace_counter(std::uint64_t cycle, unsigned counter_id,
                   std::uint64_t value) {
  push(Rec{cycle, 0, value, 0, static_cast<std::uint16_t>(counter_id),
           kCounter});
}

void trace_flush() {
  State& s = state();
  if (s.path.empty()) return;
  std::ofstream os(s.path, std::ios::trunc);
  if (!os) {
    warn_once("trace.open", "cannot open PTO_TRACE=%s; trace not written",
              s.path.c_str());
    return;
  }
  const std::uint64_t kept = s.count < s.cap ? s.count : s.cap;
  const std::uint64_t dropped = s.count - kept;
  os << "{\"traceEvents\":[\n";
  bool first = true;
  // Oldest-first: after a wrap the oldest record sits at count % cap.
  const std::uint64_t begin = s.count < s.cap ? 0 : s.count % s.cap;
  for (std::uint64_t i = 0; i < kept; ++i) {
    write_event(os, s.buf[(begin + i) % s.cap], first);
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":" << dropped
     << ",\"cycles_per_us\":" << kCyclesPerUs << "}}\n";
  if (dropped > 0) {
    // A truncated trace silently read as complete misleads every analysis
    // downstream; say so, once per process (a full ring stays full, and
    // every later flush would repeat the line).
    warn_once("trace.ring_full",
              "trace ring full, dropped %llu of %llu events (raise "
              "PTO_TRACE_CAP, currently %llu)",
              static_cast<unsigned long long>(dropped),
              static_cast<unsigned long long>(s.count),
              static_cast<unsigned long long>(s.cap));
  }
}

}  // namespace pto::telemetry
