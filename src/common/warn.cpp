#include "common/warn.h"

#include <cstdarg>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pto {

namespace {

struct WarnState {
  std::mutex mu;
  std::map<std::string, std::uint64_t> counts;  ///< key -> call count
  WarnSink sink = nullptr;
  /// (key, message) of warnings printed while no sink was set; the next
  /// sink set receives them (most knobs are read during static init).
  std::vector<std::pair<std::string, std::string>> unsent;
};

// Leaked intentionally: warnings can fire from atexit handlers and detached
// threads after static destructors would have run.
WarnState& state() {
  static WarnState* s = new WarnState();
  return *s;
}

}  // namespace

bool warn_once(const char* key, const char* fmt, ...) {
  char buf[512];
  std::va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);

  WarnSink sink = nullptr;
  {
    WarnState& st = state();
    std::lock_guard<std::mutex> lk(st.mu);
    if (++st.counts[key] != 1) return false;
    sink = st.sink;
    if (sink == nullptr) st.unsent.emplace_back(key, buf);
  }
  std::fprintf(stderr, "[pto] warning: %s\n", buf);
  // Sink call happens outside the lock: the metrics sink takes its own lock
  // and must be free to call back into warn_count().
  if (sink != nullptr) sink(key, buf);
  return true;
}

std::uint64_t warn_count(const char* key) {
  WarnState& st = state();
  std::lock_guard<std::mutex> lk(st.mu);
  auto it = st.counts.find(key);
  return it == st.counts.end() ? 0 : it->second;
}

void set_warn_sink(WarnSink sink) {
  WarnState& st = state();
  std::vector<std::pair<std::string, std::string>> unsent;
  {
    std::lock_guard<std::mutex> lk(st.mu);
    st.sink = sink;
    if (sink != nullptr) unsent.swap(st.unsent);
  }
  for (const auto& [key, msg] : unsent) sink(key.c_str(), msg.c_str());
}

}  // namespace pto
