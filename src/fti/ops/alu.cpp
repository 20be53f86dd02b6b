#include "fti/ops/alu.hpp"

#include "fti/ops/word_ops.hpp"
#include "fti/util/error.hpp"

namespace fti::ops {

using sim::Bits;

sim::Bits eval_binop(BinOp op, const Bits& a, const Bits& b,
                     std::uint32_t out_width) {
  return Bits(out_width, visit_binop(op, [&]<auto kernel>() {
                return kernel(a.u(), b.u(), sign_bit(a.width()),
                              sign_bit(b.width()), Bits::mask(out_width));
              }));
}

sim::Bits eval_unop(UnOp op, const Bits& a, std::uint32_t out_width) {
  return Bits(out_width, visit_unop(op, [&]<auto kernel>() {
                return kernel(a.u(), sign_bit(a.width()),
                              Bits::mask(out_width));
              }));
}

bool is_comparison(BinOp op) {
  switch (op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
    case BinOp::kLtu:
    case BinOp::kLeu:
    case BinOp::kGtu:
    case BinOp::kGeu:
      return true;
    default:
      return false;
  }
}

namespace {

struct BinOpName {
  BinOp op;
  std::string_view name;
};

constexpr BinOpName kBinOpNames[] = {
    {BinOp::kAdd, "add"},   {BinOp::kSub, "sub"},   {BinOp::kMul, "mul"},
    {BinOp::kDiv, "div"},   {BinOp::kRem, "rem"},   {BinOp::kAnd, "and"},
    {BinOp::kOr, "or"},     {BinOp::kXor, "xor"},   {BinOp::kShl, "shl"},
    {BinOp::kShr, "shr"},   {BinOp::kAshr, "ashr"}, {BinOp::kEq, "eq"},
    {BinOp::kNe, "ne"},     {BinOp::kLt, "lt"},     {BinOp::kLe, "le"},
    {BinOp::kGt, "gt"},     {BinOp::kGe, "ge"},     {BinOp::kLtu, "ltu"},
    {BinOp::kLeu, "leu"},   {BinOp::kGtu, "gtu"},   {BinOp::kGeu, "geu"},
    {BinOp::kMin, "min"},   {BinOp::kMax, "max"},
};

struct UnOpName {
  UnOp op;
  std::string_view name;
};

constexpr UnOpName kUnOpNames[] = {
    {UnOp::kNot, "not"},   {UnOp::kNeg, "neg"},   {UnOp::kAbs, "abs"},
    {UnOp::kPass, "pass"}, {UnOp::kSext, "sext"},
};

}  // namespace

std::string_view to_string(BinOp op) {
  for (const auto& entry : kBinOpNames) {
    if (entry.op == op) {
      return entry.name;
    }
  }
  FTI_ASSERT(false, "unnamed BinOp");
}

std::string_view to_string(UnOp op) {
  for (const auto& entry : kUnOpNames) {
    if (entry.op == op) {
      return entry.name;
    }
  }
  FTI_ASSERT(false, "unnamed UnOp");
}

BinOp binop_from_string(std::string_view name) {
  for (const auto& entry : kBinOpNames) {
    if (entry.name == name) {
      return entry.op;
    }
  }
  throw util::XmlError("unknown binary operator '" + std::string(name) + "'");
}

UnOp unop_from_string(std::string_view name) {
  for (const auto& entry : kUnOpNames) {
    if (entry.name == name) {
      return entry.op;
    }
  }
  throw util::XmlError("unknown unary operator '" + std::string(name) + "'");
}

const std::vector<BinOp>& all_binops() {
  static const std::vector<BinOp> ops = [] {
    std::vector<BinOp> out;
    for (const auto& entry : kBinOpNames) {
      out.push_back(entry.op);
    }
    return out;
  }();
  return ops;
}

const std::vector<UnOp>& all_unops() {
  static const std::vector<UnOp> ops = [] {
    std::vector<UnOp> out;
    for (const auto& entry : kUnOpNames) {
      out.push_back(entry.op);
    }
    return out;
  }();
  return ops;
}

BinaryOp::BinaryOp(std::string name, BinOp op, sim::Net& a, sim::Net& b,
                   sim::Net& out, sim::Time delay)
    : Component(std::move(name)), op_(op), a_(a), b_(b), out_(out),
      delay_(delay) {
  a_.add_listener(this);
  b_.add_listener(this);
}

void BinaryOp::initialize(sim::Kernel& kernel) {
  kernel.schedule(out_, eval_binop(op_, a_.value(), b_.value(), out_.width()),
                  delay_);
}

void BinaryOp::evaluate(sim::Kernel& kernel) {
  kernel.schedule(out_, eval_binop(op_, a_.value(), b_.value(), out_.width()),
                  delay_);
}

UnaryOp::UnaryOp(std::string name, UnOp op, sim::Net& a, sim::Net& out,
                 sim::Time delay)
    : Component(std::move(name)), op_(op), a_(a), out_(out), delay_(delay) {
  a_.add_listener(this);
}

void UnaryOp::initialize(sim::Kernel& kernel) {
  kernel.schedule(out_, eval_unop(op_, a_.value(), out_.width()), delay_);
}

void UnaryOp::evaluate(sim::Kernel& kernel) {
  kernel.schedule(out_, eval_unop(op_, a_.value(), out_.width()), delay_);
}

}  // namespace fti::ops
