// Arena allocator with line-aligned carving and quarantined frees.
#include "sim/runtime_internal.h"

#include <algorithm>
#include <cstring>

#include "telemetry/prof.h"

namespace pto::sim::internal {

namespace prof = ::pto::telemetry::prof;

void* Arena::allocate(std::size_t bytes) {
  // Round to whole cache lines so distinct allocations never share a line
  // (keeps conflict detection per-object and makes freed-line tracking exact).
  bytes = (bytes + kCacheLine - 1) & ~(kCacheLine - 1);
  if (left_ < bytes) next_chunk(bytes);
  void* p = cur_;
  cur_ += bytes;
  left_ -= bytes;
  return p;
}

void Arena::next_chunk(std::size_t bytes) {
  while (next_ < chunks_.size() && chunks_[next_].bytes < bytes) ++next_;
  if (next_ == chunks_.size()) {
    const std::size_t size = std::max(bytes, kChunk);
    chunks_.push_back({std::unique_ptr<char[]>(new char[size + kCacheLine]),
                       size});
  }
  Chunk& c = chunks_[next_++];
  auto base = reinterpret_cast<std::uintptr_t>(c.mem.get());
  cur_ = reinterpret_cast<char*>((base + kCacheLine - 1) & ~(kCacheLine - 1));
  left_ = c.bytes;
}

void Runtime::tcache_tick() {
  // Thread-cached allocator model: the fast path costs cost.alloc (or
  // cost.dealloc); every kTcacheRefill-th call refills from the shared
  // arena, modeled as an RMW on a global word — concurrent refills pay
  // coherence misses, and a refill inside a transaction adds the word to
  // the write set (the reason malloc-heavy transactions conflict — paper
  // §4.5).
  if (++me().alloc_tick % kTcacheRefill != 0) return;
  (void)do_fetch_add(&g_mem.alloc_word, 8, 1, prof::kClassAlloc);
}

void* Runtime::do_alloc(std::size_t bytes) {
  check_doom();
  ++me().stats.allocs;
  tcache_tick();
  void* p = g_mem.arena.allocate(bytes);
  advance(cfg.cost.alloc, prof::kClassAlloc);
  return p;
}

void Runtime::do_dealloc(void* p, std::size_t bytes) {
  check_doom();
  // Library convention: transactions never free (PTO fast paths retire after
  // commit; fallbacks retire through epochs, outside transactions).
  assert(!me().tx.active && "dealloc inside a transaction is not supported");
  ++me().stats.frees;
  tcache_tick();
  // One doom batch for the whole free: a multi-line free that dooms k
  // transactions repairs the dispatch heap once, not k times. A victim
  // doomed on an early line has its reader/writer registrations on later
  // lines already released, so no victim is visited twice.
  begin_doom_batch();
  for_each_line(p, bytes, [&](std::uintptr_t la, LineState& L) {
    // Freeing is a write: any transaction still holding the line is the
    // victim (this is what makes epoch elision inside transactions safe).
    requester_wins(L, la, true);
    L.freed = true;
    L.sharers().assign_single(cur, nwords);
  });
  end_doom_batch();
  if (cfg.trap_use_after_free) std::memset(p, 0xDD, bytes);
  advance(cfg.cost.dealloc, prof::kClassAlloc);
}

}  // namespace pto::sim::internal
