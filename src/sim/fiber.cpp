#include "sim/fiber.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pto::sim {

namespace {

constexpr std::uint64_t kRedZoneWord = 0xFDFDFDFDFDFDFDFDull;

/// The red zone sits below the stack, outside what the context switch is
/// given, and carries kRedZoneWord in every word.
std::unique_ptr<char[]> make_stack(std::size_t stack_bytes) {
  std::unique_ptr<char[]> mem(new char[kRedZone + stack_bytes]);
  std::memset(mem.get(), 0xFD, kRedZone);
  return mem;
}

}  // namespace

void Fiber::check_red_zone(unsigned tid) const {
  const char* p = mem_.get();
  for (std::size_t i = 0; i < kRedZone; i += sizeof(std::uint64_t)) {
    std::uint64_t w;
    std::memcpy(&w, p + i, sizeof w);
    if (w != kRedZoneWord) {
      std::fprintf(stderr,
                   "[pto] fatal: vthread %u overflowed its %zu KiB fiber "
                   "stack; raise PTO_SIM_STACK_KB\n",
                   tid, stack_bytes_ / 1024);
      std::abort();
    }
  }
}

#if PTO_FAST_FIBER

// System V AMD64 switch: save the callee-saved registers and FP control state
// on the current stack, swap stack pointers, restore, return on the new
// stack. A freshly made fiber's fabricated frame "returns" into
// pto_ctx_entry, which forwards the argument planted in rbx to the function
// planted in r12.
asm(R"(
.text
.p2align 4
.globl pto_ctx_switch
.type pto_ctx_switch, @function
pto_ctx_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    retq
.size pto_ctx_switch, .-pto_ctx_switch

.globl pto_ctx_entry
.type pto_ctx_entry, @function
pto_ctx_entry:
    movq %rbx, %rdi
    jmp *%r12
.size pto_ctx_entry, .-pto_ctx_entry
)");

extern "C" void pto_ctx_entry();

void Fiber::entry(void* self) {
  static_cast<Fiber*>(self)->fn_();
  std::abort();  // fn must switch away forever instead of returning
}

Fiber::Fiber(std::size_t stack_bytes, std::function<void()> fn)
    : mem_(make_stack(stack_bytes)), stack_bytes_(stack_bytes),
      fn_(std::move(fn)) {
  // Fabricate the frame pto_ctx_switch restores from. Memory layout, from
  // sp upward: [mxcsr:4][fcw:2][pad:2] r15 r14 r13 r12 rbx rbp [ret addr].
  // The restore sequence pops six registers and `ret`s into pto_ctx_entry
  // with rsp = sp+64; the ABI wants rsp ≡ 8 (mod 16) at function entry, so
  // sp ≡ 8 (mod 16), placed 56 bytes below the aligned stack top.
  auto top = (reinterpret_cast<std::uintptr_t>(stack()) + stack_bytes) &
             ~std::uintptr_t{15};
  auto sp = top - 120;  // ≡ 8 (mod 16); entry runs with rsp = top-56
  auto* words = reinterpret_cast<std::uint64_t*>(sp);
  std::uint32_t mxcsr;
  std::uint16_t fcw;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fcw));
  *reinterpret_cast<std::uint32_t*>(sp) = mxcsr;
  *reinterpret_cast<std::uint16_t*>(sp + 4) = fcw;
  words[1] = 0;                                             // r15
  words[2] = 0;                                             // r14
  words[3] = 0;                                             // r13
  words[4] = reinterpret_cast<std::uint64_t>(&Fiber::entry);  // r12: target
  words[5] = reinterpret_cast<std::uint64_t>(this);           // rbx: argument
  words[6] = 0;                                             // rbp
  words[7] = reinterpret_cast<std::uint64_t>(&pto_ctx_entry);  // return addr
  ctx_.sp = reinterpret_cast<void*>(sp);
}

#else  // ucontext fallback

void Fiber::trampoline(unsigned hi, unsigned lo) {
  auto ptr = (static_cast<std::uintptr_t>(hi) << 32) |
             static_cast<std::uintptr_t>(lo);
  auto* self = reinterpret_cast<Fiber*>(ptr);
  self->fn_();
  std::abort();  // fn must switch away forever instead of returning
}

Fiber::Fiber(std::size_t stack_bytes, std::function<void()> fn)
    : mem_(make_stack(stack_bytes)), stack_bytes_(stack_bytes),
      fn_(std::move(fn)) {
  if (getcontext(&ctx_.uc) != 0) std::abort();
  ctx_.uc.uc_stack.ss_sp = stack();
  ctx_.uc.uc_stack.ss_size = stack_bytes;
  ctx_.uc.uc_link = nullptr;
  auto ptr = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&ctx_.uc, reinterpret_cast<void (*)()>(&trampoline), 2,
              static_cast<unsigned>(ptr >> 32),
              static_cast<unsigned>(ptr & 0xFFFFFFFFu));
}

#endif

}  // namespace pto::sim
