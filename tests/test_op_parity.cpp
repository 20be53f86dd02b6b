// Exhaustive operator-table parity: every BinOp/UnOp at widths
// {1, 2, 3, 8, 32, 63, 64} over corner operands -- 0, 1, all-ones, the
// sign bit and the sign bit - 1, INT64_MIN with -1, divisors 0 and -1,
// shift amounts 62..65 -- checked four ways:
//  * ops::eval_binop / eval_unop against a slow 128-bit model written
//    from the documented semantics (alu.hpp), including mixed operand
//    widths for the signed ops;
//  * levelized, batched (1, 64 and 65 lanes, one operand pair per lane),
//    compiled and the fuzz reference interpreter against eval_binop /
//    eval_unop, through one design per width that instantiates every op
//    (unops also read an operand of a different width).  compiled skips
//    without a host compiler;
//  * the golden interpreter against eval_binop / eval_unop at its one
//    width, 32 bits, through a one-statement kernel per op, plus the
//    logical operators and the min/max/abs builtins.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "fti/compiler/interp.hpp"
#include "fti/compiler/parser.hpp"
#include "fti/elab/compiled.hpp"
#include "fti/elab/engines.hpp"
#include "fti/fuzz/reference.hpp"
#include "fti/mem/storage.hpp"
#include "fti/ops/alu.hpp"
#include "fti/sim/engine.hpp"

namespace fti {
namespace {

using ops::BinOp;
using ops::UnOp;
using sim::Bits;
using i128 = __int128;
using u128 = unsigned __int128;

constexpr std::uint32_t kWidths[] = {1, 2, 3, 8, 32, 63, 64};

/// 0, 1, all-ones, sign bit, sign bit - 1 and the shift amounts 62..65,
/// masked to `width` and deduplicated.
std::vector<std::uint64_t> corners(std::uint32_t width) {
  const std::uint64_t mask = Bits::mask(width);
  const std::uint64_t sign = std::uint64_t{1} << (width - 1);
  std::vector<std::uint64_t> out;
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1}, mask, sign,
                          sign - 1, std::uint64_t{62}, std::uint64_t{63},
                          std::uint64_t{64}, std::uint64_t{65}}) {
    v &= mask;
    if (std::find(out.begin(), out.end(), v) == out.end()) {
      out.push_back(v);
    }
  }
  return out;
}

// --- The model: plain 128-bit arithmetic, no shared code with word_ops.

i128 as_signed(std::uint64_t v, std::uint32_t width) {
  const i128 value = v;
  return (v >> (width - 1)) & 1 ? value - (i128{1} << width) : value;
}

std::uint64_t fit(i128 value, std::uint32_t width) {
  return static_cast<std::uint64_t>(static_cast<u128>(value)) &
         Bits::mask(width);
}

std::uint64_t model_binop(BinOp op, std::uint64_t a, std::uint32_t wa,
                          std::uint64_t b, std::uint32_t wb,
                          std::uint32_t wo) {
  const i128 sa = as_signed(a, wa);
  const i128 sb = as_signed(b, wb);
  switch (op) {
    case BinOp::kAdd: return fit(i128{a} + b, wo);
    case BinOp::kSub: return fit(i128{a} - b, wo);
    case BinOp::kMul: return fit(static_cast<i128>(u128{a} * b), wo);
    case BinOp::kDiv: return sb == 0 ? Bits::mask(wo) : fit(sa / sb, wo);
    case BinOp::kRem: return sb == 0 ? fit(sa, wo) : fit(sa % sb, wo);
    case BinOp::kAnd: return fit(a & b, wo);
    case BinOp::kOr: return fit(a | b, wo);
    case BinOp::kXor: return fit(a ^ b, wo);
    case BinOp::kShl:
      return fit(static_cast<i128>(u128{a} << std::min<std::uint64_t>(b, 64)),
                 wo);
    case BinOp::kShr: return b >= 64 ? 0 : fit(a >> b, wo);
    case BinOp::kAshr:
      return fit(sa >> std::min<std::uint64_t>(b, 63), wo);
    case BinOp::kEq: return a == b;
    case BinOp::kNe: return a != b;
    case BinOp::kLt: return sa < sb;
    case BinOp::kLe: return sa <= sb;
    case BinOp::kGt: return sa > sb;
    case BinOp::kGe: return sa >= sb;
    case BinOp::kLtu: return a < b;
    case BinOp::kLeu: return a <= b;
    case BinOp::kGtu: return a > b;
    case BinOp::kGeu: return a >= b;
    case BinOp::kMin: return fit(std::min(sa, sb), wo);
    case BinOp::kMax: return fit(std::max(sa, sb), wo);
  }
  ADD_FAILURE() << "unmodelled BinOp";
  return 0;
}

std::uint64_t model_unop(UnOp op, std::uint64_t a, std::uint32_t wa,
                         std::uint32_t wo) {
  const i128 sa = as_signed(a, wa);
  switch (op) {
    case UnOp::kNot: return fit(~i128{a}, wo);
    case UnOp::kNeg: return fit(-i128{a}, wo);
    case UnOp::kAbs: return fit(sa < 0 ? -sa : sa, wo);
    case UnOp::kPass: return fit(a, wo);
    case UnOp::kSext: return fit(sa, wo);
  }
  ADD_FAILURE() << "unmodelled UnOp";
  return 0;
}

TEST(OpTable, AluMatchesModelAtEveryWidthMix) {
  for (BinOp op : ops::all_binops()) {
    for (std::uint32_t wa : kWidths) {
      for (std::uint32_t wb : kWidths) {
        for (std::uint32_t wo : kWidths) {
          for (std::uint64_t a : corners(wa)) {
            for (std::uint64_t b : corners(wb)) {
              ASSERT_EQ(ops::eval_binop(op, Bits(wa, a), Bits(wb, b), wo).u(),
                        model_binop(op, a, wa, b, wb, wo))
                  << ops::to_string(op) << " a=" << a << "/" << wa
                  << " b=" << b << "/" << wb << " out width " << wo;
            }
          }
        }
      }
    }
  }
  for (UnOp op : ops::all_unops()) {
    for (std::uint32_t wa : kWidths) {
      for (std::uint32_t wo : kWidths) {
        for (std::uint64_t a : corners(wa)) {
          ASSERT_EQ(ops::eval_unop(op, Bits(wa, a), wo).u(),
                    model_unop(op, a, wa, wo))
              << ops::to_string(op) << " a=" << a << "/" << wa
              << " out width " << wo;
        }
      }
    }
  }
}

// --- Engine parity: one design per width holding every op.

/// Width of the operand the mixed-width unops read, for each kWidths
/// entry: narrower and wider sources alike.
std::uint32_t mixed_width(std::uint32_t width) {
  switch (width) {
    case 1: return 64;
    case 2: return 63;
    case 3: return 8;
    case 8: return 3;
    case 32: return 1;
    case 63: return 2;
    default: return 32;
  }
}

/// One functional unit of the table design and the register its result
/// lands in.
struct TableUnit {
  bool binary = true;
  BinOp binop = BinOp::kAdd;
  UnOp unop = UnOp::kNot;
  bool mixed = false;  ///< unop reads `u` instead of `a`
  std::string q;
};

struct TableDesign {
  std::uint32_t width = 0;
  std::uint32_t unop_width = 0;
  ir::Design design;
  std::vector<TableUnit> units;
};

/// Operands a, b (width `width`) and u (the mixed width) come from
/// one-word memories ma, mb, mu; every op's result is registered, so
/// after one clock edge the register finals hold every result.
TableDesign table_design(std::uint32_t width) {
  TableDesign table;
  table.width = width;
  table.unop_width = mixed_width(width);
  ir::Datapath dp;
  dp.name = "ops_w" + std::to_string(width);
  dp.wires = {{"a", width}, {"b", width}, {"u", table.unop_width},
              {"zero", 1}, {"done", 1}};
  dp.control_wires = {"done"};
  dp.memories = {{"ma", 1, width, {}},
                 {"mb", 1, width, {}},
                 {"mu", 1, table.unop_width, {}}};

  ir::Unit zero;
  zero.name = "k0";
  zero.kind = ir::UnitKind::kConst;
  zero.width = 1;
  zero.ports = {{"out", "zero"}};
  dp.units.push_back(zero);
  for (const char* name : {"a", "b", "u"}) {
    ir::Unit read;
    read.name = std::string("read_") + name;
    read.kind = ir::UnitKind::kMemPort;
    read.memory = std::string("m") + name;
    read.mem_mode = ir::MemMode::kRead;
    read.width = name[0] == 'u' ? table.unop_width : width;
    read.ports = {{"addr", "zero"}, {"dout", name}};
    dp.units.push_back(read);
  }

  auto add_result = [&](TableUnit entry, ir::Unit unit,
                        std::uint32_t out_width) {
    const std::string out = unit.name + "_out";
    entry.q = unit.name + "_q";
    dp.wires.push_back({out, out_width});
    dp.wires.push_back({entry.q, out_width});
    unit.ports["out"] = out;
    dp.units.push_back(unit);
    ir::Unit reg;
    reg.name = unit.name + "_r";
    reg.kind = ir::UnitKind::kRegister;
    reg.width = out_width;
    reg.ports = {{"d", out}, {"q", entry.q}};
    dp.units.push_back(reg);
    table.units.push_back(entry);
  };
  for (BinOp op : ops::all_binops()) {
    TableUnit entry;
    entry.binop = op;
    ir::Unit unit;
    unit.name = std::string(ops::to_string(op));
    unit.kind = ir::UnitKind::kBinOp;
    unit.binop = op;
    unit.width = width;
    unit.ports = {{"a", "a"}, {"b", "b"}};
    add_result(entry, unit, ops::is_comparison(op) ? 1 : width);
  }
  for (bool mixed : {false, true}) {
    for (UnOp op : ops::all_unops()) {
      TableUnit entry;
      entry.binary = false;
      entry.unop = op;
      entry.mixed = mixed;
      ir::Unit unit;
      unit.name = std::string(ops::to_string(op)) + (mixed ? "_u" : "_a");
      unit.kind = ir::UnitKind::kUnOp;
      unit.unop = op;
      unit.width = width;
      unit.ports = {{"a", mixed ? "u" : "a"}};
      add_result(entry, unit, width);
    }
  }

  ir::Fsm fsm;
  fsm.name = "ops_fsm";
  fsm.initial = "eval";
  fsm.done_wire = "done";
  ir::State eval;
  eval.name = "eval";
  eval.transitions.push_back({ir::parse_guard("1"), "halt"});
  fsm.states.push_back(eval);
  ir::State halt;
  halt.name = "halt";
  halt.controls = {{"done", 1}};
  fsm.states.push_back(halt);
  table.design = ir::make_single_design(dp.name, {std::move(dp),
                                                  std::move(fsm)});
  return table;
}

struct Stimulus {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t u = 0;
};

/// Every (a, b) corner pair, with u cycling through its own corners; at
/// least one stimulus per u corner.
std::vector<Stimulus> stimuli(const TableDesign& table) {
  const std::vector<std::uint64_t> ab = corners(table.width);
  const std::vector<std::uint64_t> u = corners(table.unop_width);
  const std::size_t count = std::max(ab.size() * ab.size(), u.size());
  std::vector<Stimulus> out;
  for (std::size_t k = 0; k < count; ++k) {
    out.push_back({ab[(k / ab.size()) % ab.size()], ab[k % ab.size()],
                   u[k % u.size()]});
  }
  return out;
}

void prime(mem::MemoryPool& pool, const TableDesign& table,
           const Stimulus& stimulus) {
  pool.create("ma", 1, table.width).write(0, stimulus.a);
  pool.create("mb", 1, table.width).write(0, stimulus.b);
  pool.create("mu", 1, table.unop_width).write(0, stimulus.u);
}

/// Every register final of one run against eval_binop / eval_unop.
void expect_results(const sim::EngineResult& run, const TableDesign& table,
                    const Stimulus& stimulus, const std::string& where) {
  ASSERT_TRUE(run.completed) << where;
  const sim::EnginePartition& partition = run.partitions.at(0);
  EXPECT_EQ(partition.cycles, 1u) << where;
  const Bits a(table.width, stimulus.a);
  const Bits b(table.width, stimulus.b);
  const Bits u(table.unop_width, stimulus.u);
  for (const TableUnit& unit : table.units) {
    const std::uint64_t want =
        unit.binary
            ? ops::eval_binop(unit.binop, a, b,
                              ops::is_comparison(unit.binop) ? 1 : table.width)
                  .u()
            : ops::eval_unop(unit.unop, unit.mixed ? u : a, table.width).u();
    auto it = partition.finals.find(unit.q);
    ASSERT_NE(it, partition.finals.end()) << where << " " << unit.q;
    EXPECT_EQ(it->second, want)
        << where << " " << unit.q << " a=" << stimulus.a
        << " b=" << stimulus.b << " u=" << stimulus.u;
  }
}

sim::EngineRunOptions table_options() {
  sim::EngineRunOptions options;
  options.collect_wire_data = true;
  return options;
}

/// One independent run per stimulus on `engine`.
void check_single_runs(const std::string& engine, const TableDesign& table) {
  elab::register_builtin_engines();
  std::unique_ptr<sim::Engine> runner = elab::make_engine(engine);
  for (const Stimulus& stimulus : stimuli(table)) {
    mem::MemoryPool pool;
    prime(pool, table, stimulus);
    expect_results(runner->run(table.design, pool, table_options()), table,
                   stimulus, engine);
  }
}

class OpTableEngines : public ::testing::TestWithParam<std::uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Widths, OpTableEngines, ::testing::ValuesIn(kWidths),
                         [](const auto& info) {
                           return "w" + std::to_string(info.param);
                         });

TEST_P(OpTableEngines, LevelizedMatchesAlu) {
  check_single_runs("levelized", table_design(GetParam()));
}

TEST_P(OpTableEngines, ReferenceMatchesAlu) {
  fuzz::register_reference_engine();
  check_single_runs("reference", table_design(GetParam()));
}

TEST_P(OpTableEngines, BatchedMatchesAluAt1And64And65Lanes) {
  elab::register_builtin_engines();
  const TableDesign table = table_design(GetParam());
  const std::vector<Stimulus> all = stimuli(table);
  std::unique_ptr<sim::Engine> batched = elab::make_engine("batched");
  for (std::size_t lanes : {1u, 64u, 65u}) {
    // Chunks of `lanes` stimuli, wrapping around so every run fills all
    // its lanes even when the table has fewer stimuli than lanes.
    for (std::size_t start = 0; start < all.size(); start += lanes) {
      std::deque<mem::MemoryPool> pools(lanes);
      std::vector<mem::MemoryPool*> ptrs;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        prime(pools[lane], table, all[(start + lane) % all.size()]);
        ptrs.push_back(&pools[lane]);
      }
      std::vector<sim::EngineResult> runs =
          batched->run_batch(table.design, ptrs, table_options());
      ASSERT_EQ(runs.size(), lanes);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        expect_results(runs[lane], table, all[(start + lane) % all.size()],
                       "batched " + std::to_string(lanes) + " lanes, lane " +
                           std::to_string(lane));
      }
    }
  }
}

TEST_P(OpTableEngines, CompiledMatchesAlu) {
  if (!elab::compiled_backend_available()) {
    GTEST_SKIP() << "no host C++ toolchain in this environment";
  }
  const elab::CompiledStats before = elab::compiled_stats();
  check_single_runs("compiled", table_design(GetParam()));
  EXPECT_EQ(elab::compiled_stats().fallbacks, before.fallbacks);
}

// --- The golden interpreter: 32-bit words, one kernel statement per op.

/// Runs `program` with in[0] = a, in[1] = b and returns out[0].
std::uint64_t run_golden(const compiler::Program& program, std::uint64_t a,
                         std::uint64_t b) {
  mem::MemoryPool pool;
  mem::MemoryImage& in = pool.create("in", 2, 32);
  in.write(0, a);
  in.write(1, b);
  compiler::run_program(program, pool);
  return pool.get("out").words()[0];
}

/// `out[0] = <expr>;` over operands in[0] and in[1].
compiler::Program golden_kernel(const std::string& expr) {
  return compiler::parse_program("kernel k(int in[2], int out[1]) { out[0] = " +
                                 expr + "; }");
}

TEST(OpTableGolden, InterpreterMatchesAluAt32Bits) {
  const std::vector<std::uint64_t> operands = corners(32);
  // Every BinOp/UnOp, including those the kernel syntax never produces,
  // by retargeting the one operator node of a parsed statement.
  compiler::Program binary = golden_kernel("in[0] + in[1]");
  for (BinOp op : ops::all_binops()) {
    binary.body[0]->value->bin = op;
    for (std::uint64_t a : operands) {
      for (std::uint64_t b : operands) {
        ASSERT_EQ(run_golden(binary, a, b),
                  ops::eval_binop(op, Bits(32, a), Bits(32, b), 32).u())
            << ops::to_string(op) << " a=" << a << " b=" << b;
      }
    }
  }
  compiler::Program unary = golden_kernel("-in[0]");
  for (UnOp op : ops::all_unops()) {
    unary.body[0]->value->un = op;
    for (std::uint64_t a : operands) {
      ASSERT_EQ(run_golden(unary, a, 0),
                ops::eval_unop(op, Bits(32, a), 32).u())
          << ops::to_string(op) << " a=" << a;
    }
  }
  struct Case {
    const char* expr;
    std::uint64_t (*want)(std::uint64_t, std::uint64_t);
  };
  const Case cases[] = {
      {"!in[0]", [](std::uint64_t a, std::uint64_t) -> std::uint64_t {
         return a == 0;
       }},
      {"in[0] && in[1]",
       [](std::uint64_t a, std::uint64_t b) -> std::uint64_t {
         return a != 0 && b != 0;
       }},
      {"in[0] || in[1]",
       [](std::uint64_t a, std::uint64_t b) -> std::uint64_t {
         return a != 0 || b != 0;
       }},
      {"min(in[0], in[1])",
       [](std::uint64_t a, std::uint64_t b) {
         return ops::eval_binop(BinOp::kMin, Bits(32, a), Bits(32, b), 32)
             .u();
       }},
      {"max(in[0], in[1])",
       [](std::uint64_t a, std::uint64_t b) {
         return ops::eval_binop(BinOp::kMax, Bits(32, a), Bits(32, b), 32)
             .u();
       }},
      {"abs(in[0])",
       [](std::uint64_t a, std::uint64_t) {
         return ops::eval_unop(UnOp::kAbs, Bits(32, a), 32).u();
       }},
  };
  for (const Case& c : cases) {
    const compiler::Program program = golden_kernel(c.expr);
    for (std::uint64_t a : operands) {
      for (std::uint64_t b : operands) {
        ASSERT_EQ(run_golden(program, a, b), c.want(a, b))
            << c.expr << " a=" << a << " b=" << b;
      }
    }
  }
}

}  // namespace
}  // namespace fti
