// User-level execution contexts: the mechanism behind M:N threads (§2.1).
//
// A context is just a saved stack pointer; lpt_ctx_switch saves the
// callee-saved register set (plus mxcsr / x87 control word) on the current
// stack, publishes the stack pointer, and resumes another context the same
// way. This is the "about one hundred cycles" switch the paper relies on.
//
// Signal interaction (the crux of signal-yield, §3.1.1): when a context
// switch happens *inside a signal handler*, the kernel-built signal frame —
// which holds the full interrupted register file and sigmask — lives on the
// user-level thread's own stack, so it is suspended and resumed together
// with the thread. The switch itself still only needs the function-level
// (callee-saved) register set.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lpt {

/// Saved execution context. `sp` points at the register save area on the
/// context's own stack; null means "never started / currently running".
struct Context {
  void* sp = nullptr;
};

extern "C" {
/// Switch from the current context (saved into *from_sp) to to_sp.
/// Returns when someone later switches back into *from_sp.
void lpt_ctx_switch(void** from_sp, void* to_sp);

/// Switch to to_sp and discard the current context (no save). Used when a
/// thread terminates: its stack may be recycled by the target context.
[[noreturn]] void lpt_ctx_jump(void* to_sp);

/// Save the current context into *site_sp, as lpt_ctx_switch would, then
/// call fn(arg) on the current stack below it. Returns when fn returns, or
/// when lpt_ctx_jump(*site_sp) abandons fn's frames.
void lpt_ctx_call(void** site_sp, void (*fn)(void*), void* arg);
}

/// Entry function signature for a fresh context.
using ContextEntry = void (*)(void* arg);

/// Build a fresh, suspended context at the top of [stack_base, stack_base +
/// stack_size). When first switched to, it calls entry(arg); entry must
/// never return (terminate by switching away for good).
Context make_context(void* stack_base, std::size_t stack_size, ContextEntry entry,
                     void* arg);

inline void context_switch(Context& from, const Context& to) {
  lpt_ctx_switch(&from.sp, to.sp);
}

[[noreturn]] inline void context_jump(const Context& to) { lpt_ctx_jump(to.sp); }

/// Call entry(arg) as a plain call that context_jump(site) can cut short:
/// both ways, control comes back here.
inline void context_call(Context& site, ContextEntry entry, void* arg) {
  lpt_ctx_call(&site.sp, entry, arg);
}

}  // namespace lpt
