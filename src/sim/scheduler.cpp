// Min-virtual-clock dispatch: the runnable thread with the smallest clock
// executes next. Ties break toward the lowest index, making runs a pure
// function of the configuration — no host-level nondeterminism leaks in.
//
// The schedule is identical to the original O(T)-scan dispatcher, computed
// incrementally: runnable threads other than the running one live in a
// binary min-heap of packed (clock << 10 | tid) keys (lexicographic
// clock-then-index order == integer order), the heap root's clock is cached
// as the yield threshold advance() compares against, and a yielding fiber
// swaps itself with the heap root and switches straight to it — the host
// context is touched only at run start and teardown.
#include "sim/runtime_internal.h"

#include <algorithm>
#include <cstdlib>
#include <functional>

#include "telemetry/trace.h"

namespace pto::sim::internal {

void Runtime::heap_sift_down(unsigned i) {
  std::uint64_t key = ready_[i];
  for (;;) {
    unsigned child = 2 * i + 1;
    if (child >= ready_size_) break;
    if (child + 1 < ready_size_ && ready_[child + 1] < ready_[child]) ++child;
    if (ready_[child] >= key) break;
    ready_[i] = ready_[child];
    heap_pos_[key_tid(ready_[i])] = static_cast<std::uint16_t>(i);
    i = child;
  }
  ready_[i] = key;
  heap_pos_[key_tid(key)] = static_cast<std::uint16_t>(i);
}

unsigned Runtime::heap_pop_min() {
  unsigned tid = key_tid(ready_[0]);
  heap_pos_[tid] = kNoPos;
  --ready_size_;
  if (ready_size_ != 0) {
    ready_[0] = ready_[ready_size_];
    heap_sift_down(0);
  }
  return tid;
}

unsigned Runtime::heap_replace_min(std::uint64_t key) {
  unsigned tid = key_tid(ready_[0]);
  heap_pos_[tid] = kNoPos;
  ready_[0] = key;
  heap_sift_down(0);
  return tid;
}

void Runtime::switch_to(ExecContext& from, unsigned next) {
  cur = next;
  refresh_threshold();
  ++threads[next].stats.dispatches;
  if (PTO_UNLIKELY(telemetry::trace_sched_on())) {
    telemetry::trace_sched(next, threads[next].clock);
  }
  ctx_switch(from, threads[next].fiber->context());
}

void Runtime::run_all() {
  if (PTO_UNLIKELY(explorer != nullptr)) {
    // Adversarial dispatch: the Explorer owns every scheduling decision and
    // the min-clock heap stays empty.
    runnable_.set_first_n(static_cast<unsigned>(threads.size()), nwords);
    switch_to(main_ctx, explorer->pick_first(runnable_));
    return;  // resumed by on_fiber_done() of the last finishing fiber
  }
  ready_size_ = 0;
  for (unsigned i = 0; i < threads.size(); ++i) heap_pos_[i] = kNoPos;
  // Ascending (clock=0, tid) keys already satisfy the heap property.
  for (unsigned i = 1; i < threads.size(); ++i) {
    ready_[ready_size_] = pack(0, i);
    heap_pos_[i] = static_cast<std::uint16_t>(ready_size_);
    ++ready_size_;
  }
  switch_to(main_ctx, 0);
  // Resumed by on_fiber_done() of the last finishing fiber.
}

void Runtime::explore_step() {
  const unsigned prev = cur;
  const unsigned next = explorer->pick(prev, runnable_);
  if (PTO_LIKELY(next == prev)) return;
  switch_to(threads[prev].fiber->context(), next);
}

void Runtime::yield_to_next() {
  const unsigned prev = cur;
  // The root is strictly behind us (advance checked), so it is the global
  // minimum; swap ourselves in with our advanced clock.
  const unsigned next = heap_replace_min(pack(threads[prev].clock, prev));
  switch_to(threads[prev].fiber->context(), next);
}

void Runtime::on_fiber_done() {
  VThread& t = threads[cur];
  t.fiber->check_red_zone(cur);
  t.done = true;
  ExecContext& self = t.fiber->context();
  // A finished fiber is never rescheduled, so neither switch returns.
  if (PTO_UNLIKELY(explorer != nullptr)) {
    runnable_.clear(cur);
    if (!runnable_.empty(nwords)) {
      switch_to(self, explorer->pick_first(runnable_));
    }
  } else if (ready_size_ != 0) {
    switch_to(self, heap_pop_min());
  }
  ctx_switch(self, main_ctx);  // the last fiber: back to run() teardown
  std::abort();
}

void Runtime::on_clock_raised(unsigned tid) {
  assert(tid != cur && heap_pos_[tid] != kNoPos);
  unsigned i = heap_pos_[tid];
  ready_[i] = pack(threads[tid].clock, tid);
  if (PTO_UNLIKELY(doom_batch_)) {
    // Key rewritten in place; the heap is repaired once at end_doom_batch().
    // No sifting happens inside a batch, so this recorded position stays
    // the victim's position until then.
    dirty_[dirty_count_++] = static_cast<std::uint16_t>(i);
    return;
  }
  heap_sift_down(i);  // clocks only increase
  refresh_threshold();
}

void Runtime::end_doom_batch() {
  assert(doom_batch_);
  doom_batch_ = false;
  if (dirty_count_ == 0) return;
  if (dirty_count_ == 1) {
    heap_sift_down(dirty_[0]);
  } else {
    // Restricted Floyd heapify: only the recorded positions hold increased
    // keys, an increase can only violate the heap property against the
    // node's *descendants*, and a descendant's array index is always larger
    // than its ancestor's — so sifting the dirty positions in decreasing
    // index order meets every one of them with valid subheaps below it.
    std::sort(dirty_, dirty_ + dirty_count_,
              std::greater<std::uint16_t>());
    for (unsigned i = 0; i < dirty_count_; ++i) heap_sift_down(dirty_[i]);
  }
  dirty_count_ = 0;
  refresh_threshold();
}

}  // namespace pto::sim::internal
