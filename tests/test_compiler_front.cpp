#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fti/compiler/lexer.hpp"
#include "fti/compiler/parser.hpp"
#include "fti/compiler/sema.hpp"
#include "fti/util/error.hpp"

namespace fti::compiler {
namespace {

TEST(Lexer, TokenKindsAndValues) {
  auto tokens = tokenize("kernel k(int a) { a = 0x1F + 2; }");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].kind, TokKind::kKernel);
  EXPECT_EQ(tokens[1].kind, TokKind::kIdent);
  EXPECT_EQ(tokens[1].text, "k");
  EXPECT_EQ(tokens.back().kind, TokKind::kEnd);
  bool saw_hex = false;
  for (const Token& token : tokens) {
    if (token.kind == TokKind::kInt && token.value == 31) {
      saw_hex = true;
    }
  }
  EXPECT_TRUE(saw_hex);
}

TEST(Lexer, TwoCharOperators) {
  auto tokens = tokenize("<< >> == != <= >= && ||");
  std::vector<TokKind> expected = {
      TokKind::kShl, TokKind::kShr, TokKind::kEq,     TokKind::kNe,
      TokKind::kLe,  TokKind::kGe,  TokKind::kAndAnd, TokKind::kOrOr,
      TokKind::kEnd};
  ASSERT_EQ(tokens.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(tokens[i].kind, expected[i]) << "token " << i;
  }
}

TEST(Lexer, CommentsAndLineTracking) {
  auto tokens = tokenize("// line comment\n/* block\ncomment */ x");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].text, "x");
  EXPECT_EQ(tokens[0].line, 3);
}

TEST(Lexer, Errors) {
  EXPECT_THROW(tokenize("$"), util::CompileError);
  EXPECT_THROW(tokenize("/* unterminated"), util::CompileError);
}

TEST(Parser, ProgramShape) {
  Program program = parse_program(
      "kernel fdct(byte in[64], short out[64], int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) { out[i] = in[i]; }\n"
      "}\n");
  EXPECT_EQ(program.name, "fdct");
  ASSERT_EQ(program.params.size(), 3u);
  EXPECT_TRUE(program.params[0].is_array);
  EXPECT_EQ(program.params[0].type, ElemType::kByte);
  EXPECT_EQ(program.params[0].array_size, 64u);
  EXPECT_EQ(program.params[1].type, ElemType::kShort);
  EXPECT_FALSE(program.params[2].is_array);
  ASSERT_EQ(program.body.size(), 2u);
  EXPECT_EQ(program.body[0]->kind, StmtKind::kDecl);
  EXPECT_EQ(program.body[1]->kind, StmtKind::kFor);
  EXPECT_GT(program.source_lines, 3u);
}

TEST(Parser, PrecedenceMatchesC) {
  auto expr = parse_expression("1 + 2 * 3");
  ASSERT_EQ(expr->kind, ExprKind::kBinary);
  EXPECT_EQ(expr->bin, ops::BinOp::kAdd);
  EXPECT_EQ(expr->b->bin, ops::BinOp::kMul);

  expr = parse_expression("1 << 2 + 3");  // shift binds looser than +
  EXPECT_EQ(expr->bin, ops::BinOp::kShl);

  expr = parse_expression("a & b == c");  // & looser than ==
  EXPECT_EQ(expr->bin, ops::BinOp::kAnd);

  expr = parse_expression("a || b && c");
  EXPECT_TRUE(expr->is_lor);
  EXPECT_TRUE(expr->b->is_land);
}

TEST(Parser, ShrIsArithmetic) {
  auto expr = parse_expression("x >> 2");
  EXPECT_EQ(expr->bin, ops::BinOp::kAshr);
}

TEST(Parser, UnaryOperators) {
  auto expr = parse_expression("-x");
  EXPECT_EQ(expr->kind, ExprKind::kUnary);
  EXPECT_EQ(expr->un, ops::UnOp::kNeg);
  expr = parse_expression("~x");
  EXPECT_EQ(expr->un, ops::UnOp::kNot);
  expr = parse_expression("!x");
  EXPECT_TRUE(expr->is_lnot);
}

TEST(Parser, Builtins) {
  auto expr = parse_expression("min(a, 3)");
  EXPECT_EQ(expr->kind, ExprKind::kCall);
  EXPECT_EQ(expr->name, "min");
  expr = parse_expression("abs(a)");
  EXPECT_EQ(expr->name, "abs");
  EXPECT_EQ(expr->b, nullptr);
  // min used without parens is a plain identifier.
  expr = parse_expression("min + 1");
  EXPECT_EQ(expr->a->kind, ExprKind::kVarRef);
}

TEST(Parser, ForWithoutInitOrStep) {
  Program program = parse_program(
      "kernel k(int o[1]) { int i = 0; for (; i < 3;) { i = i + 1; } }");
  EXPECT_EQ(program.body[1]->init, nullptr);
  EXPECT_EQ(program.body[1]->step, nullptr);
}

TEST(Parser, StageCounting) {
  Program program = parse_program(
      "kernel k(int a[2]) { a[0] = 1; stage; a[1] = 2; stage; a[0] = 3; }");
  EXPECT_EQ(partition_count(program), 3u);
}

TEST(Parser, Errors) {
  EXPECT_THROW(parse_program("kernel k() {"), util::CompileError);
  EXPECT_THROW(parse_program("kernel k(int a[0]) {}"), util::CompileError);
  EXPECT_THROW(parse_program("kernel k(short s) {}"), util::CompileError);
  EXPECT_THROW(parse_program("kernel k(int a) { short x; }"),
               util::CompileError);
  EXPECT_THROW(parse_program("kernel k(int a) { if (a) { stage; } }"),
               util::CompileError);
  EXPECT_THROW(parse_program("kernel k(int a) { a + 1; }"),
               util::CompileError);
  EXPECT_THROW(parse_expression("1 +"), util::CompileError);
  EXPECT_THROW(parse_expression("(1"), util::CompileError);
}

TEST(Parser, NestingBeyondTheDepthCapIsATypedError) {
  auto repeat = [](const std::string& piece, std::size_t count) {
    std::string text;
    for (std::size_t i = 0; i < count; ++i) {
      text += piece;
    }
    return text;
  };
  auto assign = [](const std::string& expr) {
    return "kernel k(int a[2]) { a[0] = " + expr + "; }";
  };
  auto body = [](const std::string& stmts) {
    return "kernel k(int a[2]) { " + stmts + " }";
  };
  auto parens = [&](std::size_t n) {
    return repeat("(", n) + "1" + repeat(")", n);
  };
  auto chain = [&](std::size_t n) { return "1" + repeat(" + 1", n); };
  auto blocks = [&](std::size_t n) {
    return repeat("{", n) + "a[0] = 1;" + repeat("}", n);
  };

  // Ordinary nesting well inside the cap parses.
  EXPECT_NO_THROW(parse_program(assign(parens(100))));
  EXPECT_NO_THROW(parse_program(assign(repeat("-", 100) + "1")));
  EXPECT_NO_THROW(parse_program(assign(chain(200))));
  EXPECT_NO_THROW(parse_program(body(blocks(100))));
  EXPECT_NO_THROW(parse_expression(parens(100)));

  // Each shape far past the cap is a CompileError, not a stack overflow
  // in the parser or in a later walk of (or the destructor of) a deep
  // tree.  Operator chains are loops in the parser but left-deep trees,
  // so they are bounded too.
  const std::size_t deep = 100000;
  const std::vector<std::string> hostile = {
      assign(parens(deep)),
      assign(repeat("-", deep) + "1"),
      assign(repeat("~!", deep / 2) + "1"),
      assign(chain(deep)),
      assign(repeat("1 || ", deep) + "1"),
      assign("a[" + repeat("a[", deep) + "0" + repeat("]", deep) + "]"),
      assign(repeat("abs(", deep) + "1" + repeat(")", deep)),
      body(blocks(deep)),
      body(repeat("if (1) ", deep) + "a[0] = 1;"),
      body("if (a[0]) a[1] = 1;" + repeat(" else if (a[0]) a[1] = 1;", deep)),
      body(repeat("while (a[0]) ", deep) + "a[0] = 0;"),
  };
  for (const std::string& source : hostile) {
    try {
      parse_program(source);
      FAIL() << "parsed: " << source.substr(0, 60);
    } catch (const util::CompileError& error) {
      EXPECT_NE(std::string(error.what()).find("nesting deeper than 256"),
                std::string::npos)
          << error.what();
    }
  }
  EXPECT_THROW(parse_expression(parens(deep)), util::CompileError);
}

TEST(Sema, SymbolClassification) {
  SemaInfo info = check_program(parse_program(
      "kernel k(int a[4], int n) { int x; x = n; a[0] = x; }"));
  EXPECT_EQ(info.arrays.size(), 1u);
  EXPECT_EQ(info.scalar_params.count("n"), 1u);
  EXPECT_EQ(info.locals.count("x"), 1u);
}

TEST(Sema, RejectsUndeclared) {
  EXPECT_THROW(check_program(parse_program("kernel k(int o[1]) { o[0] = y; }")),
               util::CompileError);
  EXPECT_THROW(
      check_program(parse_program("kernel k(int o[1]) { y = 1; }")),
      util::CompileError);
}

TEST(Sema, RejectsArrayScalarConfusion) {
  EXPECT_THROW(
      check_program(parse_program("kernel k(int a[4]) { int x; x = a; }")),
      util::CompileError);
  EXPECT_THROW(
      check_program(parse_program("kernel k(int n, int o[1]) { o[0] = n[0]; }")),
      util::CompileError);
  EXPECT_THROW(
      check_program(parse_program("kernel k(int a[4]) { a = 1; }")),
      util::CompileError);
}

TEST(Sema, ScalarParamsAreReadOnly) {
  EXPECT_THROW(check_program(parse_program("kernel k(int n) { n = 1; }")),
               util::CompileError);
}

TEST(Sema, RejectsShadowingAndRedeclaration) {
  EXPECT_THROW(
      check_program(parse_program("kernel k(int n) { int n; }")),
      util::CompileError);
  EXPECT_THROW(
      check_program(parse_program("kernel k(int o[1]) { int x; int x; }")),
      util::CompileError);
  EXPECT_THROW(
      check_program(parse_program("kernel k(int n, int n) {}")),
      util::CompileError);
}

TEST(Sema, PartitionLocalityRule) {
  // x flows across the stage boundary through a register -- rejected.
  EXPECT_THROW(check_program(parse_program(
                   "kernel k(int a[2]) {\n"
                   "  int x = 5;\n"
                   "  a[0] = x;\n"
                   "  stage;\n"
                   "  a[1] = x;\n"
                   "}")),
               util::CompileError);
  // Re-assigned in the second partition -- accepted.
  EXPECT_NO_THROW(check_program(parse_program(
      "kernel k(int a[2]) {\n"
      "  int x = 5;\n"
      "  a[0] = x;\n"
      "  stage;\n"
      "  x = 7;\n"
      "  a[1] = x;\n"
      "}")));
}

TEST(Sema, LiteralRangeCheck) {
  EXPECT_THROW(check_program(parse_program(
                   "kernel k(int o[1]) { o[0] = 99999999999; }")),
               util::CompileError);
}

TEST(Parser, BuiltinArityEnforced) {
  EXPECT_THROW(parse_program("kernel k(int o[1]) { o[0] = min(1); }"),
               util::CompileError);
  EXPECT_THROW(parse_program("kernel k(int o[1]) { o[0] = abs(1, 2); }"),
               util::CompileError);
}

TEST(Sema, BuiltinArityAccepted) {
  EXPECT_NO_THROW(check_program(parse_program(
      "kernel k(int o[1]) { o[0] = min(1, 2) + abs(0 - 3); }")));
}

}  // namespace
}  // namespace fti::compiler
