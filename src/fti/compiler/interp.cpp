#include "fti/compiler/interp.hpp"

#include <unordered_map>
#include <vector>

#include "fti/ops/word_ops.hpp"
#include "fti/util/error.hpp"

namespace fti::compiler {
namespace {

using Word = std::uint64_t;

// Every value is a 32-bit word, the width of a datapath register.
constexpr Word kMask = sim::Bits::mask(32);
constexpr Word kSign = ops::sign_bit(32);
constexpr std::uint32_t kNone = ~std::uint32_t{0};

using BinaryFn = Word (*)(Word, Word);
using UnaryFn = Word (*)(Word);

/// The word-ops kernels at 32 bits.
template <auto kernel>
Word binary32(Word a, Word b) {
  return kernel(a, b, kSign, kSign, kMask);
}
template <auto kernel>
Word unary32(Word a) {
  return kernel(a, kSign, kMask);
}

BinaryFn binary_fn(ops::BinOp op) {
  return ops::visit_binop(op, []<auto kernel>() -> BinaryFn {
    return &binary32<kernel>;
  });
}
UnaryFn unary_fn(ops::UnOp op) {
  return ops::visit_unop(op, []<auto kernel>() -> UnaryFn {
    return &unary32<kernel>;
  });
}

/// The logical operators: 0/1 results, both operands always evaluated.
Word logical_not(Word a) { return a == 0 ? 1 : 0; }
Word logical_and(Word a, Word b) { return a != 0 && b != 0 ? 1 : 0; }
Word logical_or(Word a, Word b) { return a != 0 || b != 0 ? 1 : 0; }

}  // namespace

/// The resolved program: expression nodes and statements in flat vectors
/// that refer to each other, to slots and to arrays by index.
struct GoldenModel::Tree {
  /// Every operator, builtin call (min, max, abs) and logical operator
  /// is a kUnary or kBinary node calling its function.
  enum class Op : std::uint8_t { kLit, kVar, kLoad, kUnary, kBinary };
  struct Node {
    Op op = Op::kLit;
    BinaryFn binary = nullptr;  ///< kBinary
    UnaryFn unary = nullptr;    ///< kUnary
    std::uint32_t a = kNone;  ///< operand, or the index of a load
    std::uint32_t b = kNone;  ///< second operand
    std::uint32_t ref = 0;    ///< kVar: slot; kLoad: array
    int line = 0;
    Word value = 0;  ///< kLit, masked
  };

  /// A declaration is a kSet of its slot, a while loop a kFor without
  /// init and step, and `stage;` a kNop that still counts as a statement.
  enum class Do : std::uint8_t { kSet, kStore, kIf, kFor, kBlock, kNop };
  using List = std::vector<std::uint32_t>;  ///< statement indices
  struct Statement {
    Do kind = Do::kNop;
    int line = 0;
    std::uint32_t ref = 0;  ///< kSet: slot; kStore: array
    std::uint32_t value = kNone;
    std::uint32_t index = kNone;
    std::uint32_t cond = kNone;
    std::uint32_t init = kNone;  ///< kFor, a statement
    std::uint32_t step = kNone;  ///< kFor, a statement
    List body;
    List else_body;
  };

  struct Array {
    std::string name;
    std::size_t size = 0;
    std::uint32_t width = 0;
    /// Sign bit of a loaded word: short sign-extends, byte zero-extends
    /// (0 makes fti_sext a plain mask), mirroring the datapath's extend
    /// unit on the memory port.
    Word sign = 0;
  };
  Tree(const Program& program, const SemaInfo& info);

  std::vector<Node> nodes;
  std::vector<Statement> statements;
  List body;
  std::vector<Array> arrays;  ///< SemaInfo::arrays order
  /// SemaInfo::scalar_params order; scalar k lives in slot k.
  std::vector<std::string> scalars;
  std::size_t slot_count = 0;

  class Resolver;
  class Lane;
};

/// The resolve step: names to slots and array indices, once.
class GoldenModel::Tree::Resolver {
 public:
  Resolver(Tree& tree, const SemaInfo& info) : tree_(tree) {
    for (const auto& [name, param] : info.arrays) {
      array_of_.emplace(name, static_cast<std::uint32_t>(tree.arrays.size()));
      const std::uint32_t width = width_of(param.type);
      tree.arrays.push_back({name, param.array_size, width,
                             is_signed(param.type) ? ops::sign_bit(width)
                                                   : Word{0}});
    }
    tree.scalars.assign(info.scalar_params.begin(), info.scalar_params.end());
    for (const std::string& name : tree.scalars) {
      slot_of_.emplace(name, static_cast<std::uint32_t>(slot_of_.size()));
    }
    for (const std::string& name : info.locals) {
      slot_of_.emplace(name, static_cast<std::uint32_t>(slot_of_.size()));
    }
    tree.slot_count = slot_of_.size();
  }

  List add(const std::vector<std::unique_ptr<Stmt>>& list) {
    List children;
    children.reserve(list.size());
    for (const auto& child : list) {
      children.push_back(add(*child));
    }
    return children;
  }

 private:
  std::uint32_t slot(const std::string& name) const {
    auto it = slot_of_.find(name);
    FTI_ASSERT(it != slot_of_.end(), "unresolved variable '" + name + "'");
    return it->second;
  }

  std::uint32_t array(const std::string& name) const {
    auto it = array_of_.find(name);
    FTI_ASSERT(it != array_of_.end(), "unresolved array '" + name + "'");
    return it->second;
  }

  std::uint32_t push(const Node& node) {
    tree_.nodes.push_back(node);
    return static_cast<std::uint32_t>(tree_.nodes.size() - 1);
  }

  std::uint32_t literal(std::int64_t value) {
    Node node;
    node.value = static_cast<Word>(value) & kMask;
    return push(node);
  }

  std::uint32_t add(const Expr& expr) {
    Node node;
    node.line = expr.line;
    switch (expr.kind) {
      case ExprKind::kIntLit:
        return literal(expr.value);
      case ExprKind::kVarRef:
        node.op = Op::kVar;
        node.ref = slot(expr.name);
        return push(node);
      case ExprKind::kArrayRef:
        node.op = Op::kLoad;
        node.ref = array(expr.name);
        node.a = add(*expr.a);
        return push(node);
      case ExprKind::kUnary:
        node.op = Op::kUnary;
        node.unary = expr.is_lnot ? &logical_not : unary_fn(expr.un);
        node.a = add(*expr.a);
        return push(node);
      case ExprKind::kBinary:
        node.op = Op::kBinary;
        node.binary = expr.is_land  ? &logical_and
                      : expr.is_lor ? &logical_or
                                    : binary_fn(expr.bin);
        node.a = add(*expr.a);
        node.b = add(*expr.b);
        return push(node);
      case ExprKind::kCall:
        node.a = add(*expr.a);
        if (expr.name == "abs") {
          node.op = Op::kUnary;
          node.unary = unary_fn(ops::UnOp::kAbs);
        } else {
          node.op = Op::kBinary;
          node.binary = binary_fn(expr.name == "min" ? ops::BinOp::kMin
                                                     : ops::BinOp::kMax);
          node.b = add(*expr.b);
        }
        return push(node);
    }
    FTI_ASSERT(false, "unhandled ExprKind");
  }

  std::uint32_t add(const Stmt& stmt) {
    Statement s;
    s.line = stmt.line;
    switch (stmt.kind) {
      case StmtKind::kDecl:
        s.kind = Do::kSet;
        s.ref = slot(stmt.name);
        s.value = stmt.value != nullptr ? add(*stmt.value) : literal(0);
        break;
      case StmtKind::kAssign:
        s.value = add(*stmt.value);
        if (stmt.target_is_array) {
          s.kind = Do::kStore;
          s.ref = array(stmt.name);
          s.index = add(*stmt.index);
        } else {
          s.kind = Do::kSet;
          s.ref = slot(stmt.name);
        }
        break;
      case StmtKind::kIf:
        s.kind = Do::kIf;
        s.cond = add(*stmt.cond);
        s.body = add(stmt.body);
        s.else_body = add(stmt.else_body);
        break;
      case StmtKind::kFor:
      case StmtKind::kWhile:
        s.kind = Do::kFor;
        if (stmt.init != nullptr) {
          s.init = add(*stmt.init);
        }
        s.cond = add(*stmt.cond);
        s.body = add(stmt.body);
        if (stmt.step != nullptr) {
          s.step = add(*stmt.step);
        }
        break;
      case StmtKind::kBlock:
        s.kind = Do::kBlock;
        s.body = add(stmt.body);
        break;
      case StmtKind::kStage:
        break;  // partition boundary: a no-op for sequential execution
    }
    tree_.statements.push_back(s);
    return static_cast<std::uint32_t>(tree_.statements.size() - 1);
  }

  Tree& tree_;
  std::unordered_map<std::string, std::uint32_t> slot_of_;
  std::unordered_map<std::string, std::uint32_t> array_of_;
};

GoldenModel::Tree::Tree(const Program& program, const SemaInfo& info) {
  Resolver resolver(*this, info);
  body = resolver.add(program.body);
}

/// The run step: one lane's slots, image bindings and stats.
class GoldenModel::Tree::Lane {
 public:
  Lane(const Tree& tree, mem::MemoryPool& pool, const InterpOptions& options)
      : tree_(tree),
        max_statements_(options.max_statements),
        slots_(tree.slot_count, 0) {
    images_.reserve(tree.arrays.size());
    for (const Array& array : tree.arrays) {
      images_.push_back(&pool.create(array.name, array.size, array.width));
    }
    for (std::size_t slot = 0; slot < tree.scalars.size(); ++slot) {
      auto it = options.scalar_args.find(tree.scalars[slot]);
      if (it == options.scalar_args.end()) {
        throw util::CompileError("scalar parameter '" + tree.scalars[slot] +
                                 "' has no bound value");
      }
      slots_[slot] = static_cast<Word>(it->second) & kMask;
    }
  }

  InterpStats run() {
    exec(tree_.body);
    return stats_;
  }

 private:
  void tick(int line) {
    if (++stats_.statements > max_statements_) {
      throw util::SimError("golden model exceeded " +
                           std::to_string(max_statements_) +
                           " statements near line " + std::to_string(line) +
                           " -- non-terminating input?");
    }
  }

  /// Bounds check ahead of the image's own, with the golden model's text.
  void check_bounds(std::uint32_t array, Word index, int line) const {
    const Array& decl = tree_.arrays[array];
    if (index >= decl.size) {
      throw util::SimError("golden model: '" + decl.name + "[" +
                           std::to_string(index) + "]' out of bounds (size " +
                           std::to_string(decl.size) + ") at line " +
                           std::to_string(line));
    }
  }

  /// Leaves inline, everything else through eval(): most operands are a
  /// variable or a literal.
  Word operand(std::uint32_t index) {
    const Node& node = tree_.nodes[index];
    if (node.op == Op::kVar) {
      return slots_[node.ref];
    }
    if (node.op == Op::kLit) {
      return node.value;
    }
    return eval(index);
  }

  Word eval(std::uint32_t index) {
    const Node& node = tree_.nodes[index];
    switch (node.op) {
      case Op::kLit:
        return node.value;
      case Op::kVar:
        return slots_[node.ref];
      case Op::kLoad: {
        const Word address = operand(node.a);
        check_bounds(node.ref, address, node.line);
        ++stats_.loads;
        return ops::fti_sext(images_[node.ref]->read(address),
                             tree_.arrays[node.ref].sign, kMask);
      }
      case Op::kUnary: {
        const Word a = operand(node.a);
        ++stats_.operations;
        return node.unary(a);
      }
      case Op::kBinary: {
        const Word a = operand(node.a);
        const Word b = operand(node.b);
        ++stats_.operations;
        return node.binary(a, b);
      }
    }
    FTI_ASSERT(false, "unhandled golden-model opcode");
  }

  void exec(const List& list) {
    for (std::uint32_t index : list) {
      exec(index);
    }
  }

  void exec(std::uint32_t index) {
    const Statement& s = tree_.statements[index];
    tick(s.line);
    switch (s.kind) {
      case Do::kSet:
        slots_[s.ref] = eval(s.value);
        break;
      case Do::kStore: {
        const Word value = eval(s.value);
        const Word address = eval(s.index);
        check_bounds(s.ref, address, s.line);
        ++stats_.stores;
        images_[s.ref]->write(address, value);
        break;
      }
      case Do::kIf:
        exec(eval(s.cond) != 0 ? s.body : s.else_body);
        break;
      case Do::kFor:
        if (s.init != kNone) {
          exec(s.init);
        }
        while (eval(s.cond) != 0) {
          tick(s.line);
          exec(s.body);
          if (s.step != kNone) {
            exec(s.step);
          }
        }
        break;
      case Do::kBlock:
        exec(s.body);
        break;
      case Do::kNop:
        break;
    }
  }

  const Tree& tree_;
  const std::uint64_t max_statements_;
  std::vector<Word> slots_;
  std::vector<mem::MemoryImage*> images_;
  InterpStats stats_;
};

GoldenModel::GoldenModel(const Program& program, const SemaInfo& info)
    : tree_(std::make_unique<const Tree>(program, info)) {}

GoldenModel::~GoldenModel() = default;

InterpStats GoldenModel::run(mem::MemoryPool& pool,
                             const InterpOptions& options) const {
  return Tree::Lane(*tree_, pool, options).run();
}

InterpStats run_program(const Program& program, mem::MemoryPool& pool,
                        const InterpOptions& options) {
  return GoldenModel(program, check_program(program)).run(pool, options);
}

}  // namespace fti::compiler
