#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

Tracer::Tracer(bool on, unsigned slots) : on_(on), bufs_(slots) {
  if (on_) {
    for (auto& b : bufs_) b.reserve(1u << 14);
  }
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> all;
  for (const auto& b : bufs_) all.insert(all.end(), b.begin(), b.end());
  return all;
}

std::map<std::string, LayerTime> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> kids;
  for (const Span& s : spans) {
    if (s.parent != 0) kids[s.parent].push_back(&s);
  }
  std::map<std::string, LayerTime> out;
  for (const Span& s : spans) {
    const std::uint64_t dur = s.t1_ns > s.t0_ns ? s.t1_ns - s.t0_ns : 0;
    std::uint64_t covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
      for (const Span* c : it->second) {
        const std::uint64_t a = std::max(c->t0_ns, s.t0_ns);
        const std::uint64_t b = std::min(c->t1_ns, s.t1_ns);
        if (a < b) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      std::uint64_t lo = 0;
      std::uint64_t hi = 0;
      bool open = false;
      for (const auto& [a, b] : iv) {
        if (open && a <= hi) {
          hi = std::max(hi, b);
          continue;
        }
        if (open) covered += hi - lo;
        lo = a;
        hi = b;
        open = true;
      }
      if (open) covered += hi - lo;
    }
    LayerTime& lt = out[s.name];
    ++lt.count;
    lt.total_ns += static_cast<double>(dur);
    lt.self_ns += static_cast<double>(dur - covered);
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t base = ~std::uint64_t{0};
  for (const Span& s : spans) base = std::min(base, s.t0_ns);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}",
                 first ? "" : ",", s.name, s.slot,
                 static_cast<double>(s.t0_ns - base) / 1e3,
                 static_cast<double>(s.t1_ns - s.t0_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
