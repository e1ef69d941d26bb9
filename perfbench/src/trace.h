// In-memory span recorder for the traced run. The benchmark records spans
// around its own calls into each layer's public functions; nothing inside the
// pto library is instrumented. Every recording thread owns one buffer slot,
// so recording takes no lock; buffers are read only after the recording
// threads have finished (Runtime::run returns after its workers are done).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for the root span
  const char* name = "";     ///< static string: the layer or step name
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  unsigned slot = 0;  ///< recording thread: 0 = main, 1 + worker id
};

class Tracer {
 public:
  /// `slots` = recording threads (main + workers). Off: every call is a no-op.
  Tracer(bool on, unsigned slots);

  bool on() const { return on_; }

  /// A fresh span id (0 when tracing is off).
  std::uint64_t new_id() {
    return on_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
  }

  /// Append a finished span to `slot`'s buffer. Single writer per slot.
  void add(const Span& s) {
    if (on_) bufs_[s.slot].push_back(s);
  }

  /// Every recorded span, merged across slots. Call only while no thread
  /// records.
  std::vector<Span> spans() const;

 private:
  bool on_;
  std::atomic<std::uint64_t> next_id_{1};
  std::vector<std::vector<Span>> bufs_;
};

/// RAII span: opened at construction, recorded at destruction.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint64_t parent, unsigned slot = 0)
      : t_(t), s_{t.new_id(), parent, name, t.on() ? now_ns() : 0, 0, slot} {}
  ~Scope() {
    if (!t_.on()) return;
    s_.t1_ns = now_ns();
    t_.add(s_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return s_.id; }

 private:
  Tracer& t_;
  Span s_;
};

struct LayerTime {
  std::uint64_t count = 0;
  double total_ns = 0;  ///< summed span durations
  double self_ns = 0;   ///< summed durations minus the part children cover
};

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span), summed per span name.
std::map<std::string, LayerTime> self_times(const std::vector<Span>& spans);

/// Write `spans` as Chrome-trace JSON ("X" events, microseconds).
bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans);

}  // namespace perfbench
