#include "context/context.hpp"

#include <cstring>

#include "common/assert.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace lpt {

extern "C" void lpt_ctx_boot();  // defined in context_x8664.S

extern "C" [[noreturn]] void lpt_ctx_entry_returned() {
  check_fail("context entry function returned", __FILE__, __LINE__,
             "a ULT entry must terminate by switching away");
}

Context make_context(void* stack_base, std::size_t stack_size, ContextEntry entry,
                     void* arg) {
  LPT_CHECK(stack_base != nullptr);
  LPT_CHECK_MSG(stack_size >= 1024, "stack too small for a context");
#if defined(__SANITIZE_ADDRESS__)
  // A recycled stack can still carry the shadow of frames that were
  // abandoned on it (a cancelled or faulted ULT never returns through
  // them); a fresh context starts without it.
  ASAN_UNPOISON_MEMORY_REGION(stack_base, stack_size);
#endif

  // Align the usable top down to 16 bytes, then carve the 64-byte save area
  // (see context_x8664.S) so that rsp % 16 == 0 when lpt_ctx_boot starts.
  auto top = reinterpret_cast<std::uintptr_t>(stack_base) + stack_size;
  top &= ~static_cast<std::uintptr_t>(15);
  auto* save = reinterpret_cast<std::uint64_t*>(top - 64);

  std::uint32_t mxcsr;
  std::uint16_t fcw;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fcw));

  std::memset(save, 0, 64);
  std::memcpy(save, &mxcsr, sizeof(mxcsr));
  std::memcpy(reinterpret_cast<char*>(save) + 4, &fcw, sizeof(fcw));
  save[1] = reinterpret_cast<std::uint64_t>(arg);    // r15
  save[2] = reinterpret_cast<std::uint64_t>(entry);  // r14
  // save[3..5] = r13, r12, rbx = 0; save[6] = rbp = 0 (top of frame chain)
  save[7] = reinterpret_cast<std::uint64_t>(&lpt_ctx_boot);  // return address

  return Context{save};
}

}  // namespace lpt
