// Word-level operator semantics: the one definition of what every
// BinOp/UnOp computes.
//
// Each kernel works on unsigned 64-bit words.  Operands arrive masked to
// their own widths, together with their sign bits (1 << (width - 1), or
// 0 at 64 bits, where sign extension is the identity); the result is
// masked to the output width `m` (comparisons return 0/1 and ignore it).
// The corner cases live here and nowhere else: division by zero yields
// all-ones and remainder by zero the dividend, INT64_MIN / -1 wraps to
// the dividend and INT64_MIN % -1 is zero, shifts by 64 or more clear
// the word (arithmetic shifts saturate at 63), and negation is always
// unsigned so abs(INT64_MIN) is INT64_MIN instead of undefined.
//
// The kernels are written in the header-free C++ subset the compiled
// engine's generated modules use, inside FTI_WORD_OPS_DEFINE, which both
// expands them for the host and stringizes them into kWordOpsText.
// codegen::cpp pastes that text into every module, so the host build and
// the native modules compile the same source text.  The consumers:
//  * ops::eval_binop / eval_unop (alu.cpp) wrap the kernels for Bits;
//  * the batched engine's wide lane loops call them through
//    visit_binop / visit_unop below, one loop instantiation per op;
//  * codegen::cpp emits one `fti_<op>(...)` call per functional unit;
//  * the golden interpreter (compiler/interp.cpp) binds each operator
//    node to its kernel at 32 bits through visit_binop / visit_unop.
// Kept independent on purpose: the Verilog emitter's zero-guard arms
// (HDL text), the abstract transfer functions of xsim/fourstate.cpp and
// lint/dataflow.cpp, and the fuzz reference interpreter's execution loop.
#pragma once

#include <cstdint>

#include "fti/ops/alu.hpp"
#include "fti/util/error.hpp"

// Expands the kernels and defines `name` as their text.  Comments inside
// are dropped by the preprocessor and whitespace collapses; keep macros
// out of the body, since the stringized text would not see them expanded.
#define FTI_WORD_OPS_DEFINE(name, ...) \
  __VA_ARGS__                          \
  inline constexpr const char name[] = #__VA_ARGS__;

namespace fti::ops {

FTI_WORD_OPS_DEFINE(kWordOpsText,
using fti_word = unsigned long long;
using fti_sword = long long;

static inline fti_sword fti_sx(fti_word v, fti_word s) {
  return (fti_sword)((v ^ s) - s);
}

// Binary kernels: (a, b, sign bit of a, sign bit of b, output mask).
static inline fti_word fti_add(fti_word a, fti_word b, fti_word, fti_word,
                               fti_word m) {
  return (a + b) & m;
}
static inline fti_word fti_sub(fti_word a, fti_word b, fti_word, fti_word,
                               fti_word m) {
  return (a - b) & m;
}
static inline fti_word fti_mul(fti_word a, fti_word b, fti_word, fti_word,
                               fti_word m) {
  return (a * b) & m;
}
static inline fti_word fti_div(fti_word a, fti_word b, fti_word sa,
                               fti_word sb, fti_word m) {
  fti_sword x = fti_sx(a, sa);
  fti_sword y = fti_sx(b, sb);
  if (y == 0) return m;
  if (y == -1) return (0ull - (fti_word)x) & m;
  return (fti_word)(x / y) & m;
}
static inline fti_word fti_rem(fti_word a, fti_word b, fti_word sa,
                               fti_word sb, fti_word m) {
  fti_sword x = fti_sx(a, sa);
  fti_sword y = fti_sx(b, sb);
  if (y == 0) return (fti_word)x & m;
  if (y == -1) return 0ull;
  return (fti_word)(x % y) & m;
}
static inline fti_word fti_and(fti_word a, fti_word b, fti_word, fti_word,
                               fti_word m) {
  return a & b & m;
}
static inline fti_word fti_or(fti_word a, fti_word b, fti_word, fti_word,
                              fti_word m) {
  return (a | b) & m;
}
static inline fti_word fti_xor(fti_word a, fti_word b, fti_word, fti_word,
                               fti_word m) {
  return (a ^ b) & m;
}
static inline fti_word fti_shl(fti_word a, fti_word b, fti_word, fti_word,
                               fti_word m) {
  return b >= 64ull ? 0ull : (a << b) & m;
}
static inline fti_word fti_shr(fti_word a, fti_word b, fti_word, fti_word,
                               fti_word m) {
  return b >= 64ull ? 0ull : (a >> b) & m;
}
static inline fti_word fti_ashr(fti_word a, fti_word b, fti_word sa, fti_word,
                                fti_word m) {
  return (fti_word)(fti_sx(a, sa) >> (b > 63ull ? 63ull : b)) & m;
}
static inline fti_word fti_eq(fti_word a, fti_word b, fti_word, fti_word,
                              fti_word) {
  return a == b;
}
static inline fti_word fti_ne(fti_word a, fti_word b, fti_word, fti_word,
                              fti_word) {
  return a != b;
}
static inline fti_word fti_lt(fti_word a, fti_word b, fti_word sa, fti_word sb,
                              fti_word) {
  return fti_sx(a, sa) < fti_sx(b, sb);
}
static inline fti_word fti_le(fti_word a, fti_word b, fti_word sa, fti_word sb,
                              fti_word) {
  return fti_sx(a, sa) <= fti_sx(b, sb);
}
static inline fti_word fti_gt(fti_word a, fti_word b, fti_word sa, fti_word sb,
                              fti_word) {
  return fti_sx(a, sa) > fti_sx(b, sb);
}
static inline fti_word fti_ge(fti_word a, fti_word b, fti_word sa, fti_word sb,
                              fti_word) {
  return fti_sx(a, sa) >= fti_sx(b, sb);
}
static inline fti_word fti_ltu(fti_word a, fti_word b, fti_word, fti_word,
                               fti_word) {
  return a < b;
}
static inline fti_word fti_leu(fti_word a, fti_word b, fti_word, fti_word,
                               fti_word) {
  return a <= b;
}
static inline fti_word fti_gtu(fti_word a, fti_word b, fti_word, fti_word,
                               fti_word) {
  return a > b;
}
static inline fti_word fti_geu(fti_word a, fti_word b, fti_word, fti_word,
                               fti_word) {
  return a >= b;
}
static inline fti_word fti_min(fti_word a, fti_word b, fti_word sa,
                               fti_word sb, fti_word m) {
  fti_sword x = fti_sx(a, sa);
  fti_sword y = fti_sx(b, sb);
  return (fti_word)(x < y ? x : y) & m;
}
static inline fti_word fti_max(fti_word a, fti_word b, fti_word sa,
                               fti_word sb, fti_word m) {
  fti_sword x = fti_sx(a, sa);
  fti_sword y = fti_sx(b, sb);
  return (fti_word)(x > y ? x : y) & m;
}

// Unary kernels: (a, sign bit of a, output mask).
static inline fti_word fti_not(fti_word a, fti_word, fti_word m) {
  return ~a & m;
}
static inline fti_word fti_neg(fti_word a, fti_word, fti_word m) {
  return (0ull - a) & m;
}
static inline fti_word fti_abs(fti_word a, fti_word sa, fti_word m) {
  fti_sword x = fti_sx(a, sa);
  return (x < 0 ? 0ull - (fti_word)x : (fti_word)x) & m;
}
static inline fti_word fti_pass(fti_word a, fti_word, fti_word m) {
  return a & m;
}
static inline fti_word fti_sext(fti_word a, fti_word sa, fti_word m) {
  return (fti_word)fti_sx(a, sa) & m;
}
)

#undef FTI_WORD_OPS_DEFINE

/// The `sa`/`sb` kernel argument for an operand stored at `width` bits.
constexpr fti_word sign_bit(std::uint32_t width) {
  return width >= 64 ? 0 : fti_word{1} << (width - 1);
}

/// Calls `visit.template operator()<kernel>()` with `op`'s kernel.  The
/// kernel is a template argument, so a lane loop inside `visit` is
/// instantiated once per op with the kernel inlined and the switch
/// stays outside the loop.  Returns what `visit` returns.
template <typename Visit>
decltype(auto) visit_binop(BinOp op, Visit&& visit) {
  switch (op) {
    case BinOp::kAdd: return visit.template operator()<fti_add>();
    case BinOp::kSub: return visit.template operator()<fti_sub>();
    case BinOp::kMul: return visit.template operator()<fti_mul>();
    case BinOp::kDiv: return visit.template operator()<fti_div>();
    case BinOp::kRem: return visit.template operator()<fti_rem>();
    case BinOp::kAnd: return visit.template operator()<fti_and>();
    case BinOp::kOr: return visit.template operator()<fti_or>();
    case BinOp::kXor: return visit.template operator()<fti_xor>();
    case BinOp::kShl: return visit.template operator()<fti_shl>();
    case BinOp::kShr: return visit.template operator()<fti_shr>();
    case BinOp::kAshr: return visit.template operator()<fti_ashr>();
    case BinOp::kEq: return visit.template operator()<fti_eq>();
    case BinOp::kNe: return visit.template operator()<fti_ne>();
    case BinOp::kLt: return visit.template operator()<fti_lt>();
    case BinOp::kLe: return visit.template operator()<fti_le>();
    case BinOp::kGt: return visit.template operator()<fti_gt>();
    case BinOp::kGe: return visit.template operator()<fti_ge>();
    case BinOp::kLtu: return visit.template operator()<fti_ltu>();
    case BinOp::kLeu: return visit.template operator()<fti_leu>();
    case BinOp::kGtu: return visit.template operator()<fti_gtu>();
    case BinOp::kGeu: return visit.template operator()<fti_geu>();
    case BinOp::kMin: return visit.template operator()<fti_min>();
    case BinOp::kMax: return visit.template operator()<fti_max>();
  }
  FTI_ASSERT(false, "unhandled BinOp");
}

/// visit_binop for unary ops.
template <typename Visit>
decltype(auto) visit_unop(UnOp op, Visit&& visit) {
  switch (op) {
    case UnOp::kNot: return visit.template operator()<fti_not>();
    case UnOp::kNeg: return visit.template operator()<fti_neg>();
    case UnOp::kAbs: return visit.template operator()<fti_abs>();
    case UnOp::kPass: return visit.template operator()<fti_pass>();
    case UnOp::kSext: return visit.template operator()<fti_sext>();
  }
  FTI_ASSERT(false, "unhandled UnOp");
}

}  // namespace fti::ops
