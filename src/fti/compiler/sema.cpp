#include "fti/compiler/sema.hpp"

#include "fti/util/error.hpp"

namespace fti::compiler {
namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw util::CompileError("line " + std::to_string(line) + ": " + message);
}

class Checker {
 public:
  explicit Checker(const Program& program) : program_(program) {}

  SemaInfo run() {
    for (const Param& param : program_.params) {
      if (info_.arrays.count(param.name) != 0 ||
          info_.scalar_params.count(param.name) != 0) {
        fail(param.line, "duplicate parameter '" + param.name + "'");
      }
      if (param.is_array) {
        if (param.array_size > util::kMaxMemoryWords) {
          fail(param.line, "array '" + param.name + "' has " +
                               std::to_string(param.array_size) +
                               " words; the limit is " +
                               std::to_string(util::kMaxMemoryWords));
        }
        info_.arrays.emplace(param.name, param);
      } else {
        info_.scalar_params.insert(param.name);
      }
    }
    // First pass: declarations and per-statement rules, in order.
    for (const auto& stmt : program_.body) {
      check_stmt(*stmt);
    }
    // Second pass: partition locality of scalars.
    check_partition_locality();
    return std::move(info_);
  }

 private:
  bool is_scalar(const std::string& name) const {
    return info_.scalar_params.count(name) != 0 || declared_.count(name) != 0;
  }

  void check_expr(const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kIntLit:
        if (expr.value < INT32_MIN || expr.value > INT32_MAX) {
          fail(expr.line, "integer literal does not fit in 32 bits");
        }
        break;
      case ExprKind::kVarRef:
        if (info_.arrays.count(expr.name) != 0) {
          fail(expr.line, "array '" + expr.name + "' used without an index");
        }
        if (!is_scalar(expr.name)) {
          fail(expr.line, "undeclared variable '" + expr.name + "'");
        }
        break;
      case ExprKind::kArrayRef:
        if (info_.arrays.count(expr.name) == 0) {
          fail(expr.line, "'" + expr.name + "' is not an array parameter");
        }
        check_expr(*expr.a);
        break;
      case ExprKind::kUnary:
        check_expr(*expr.a);
        break;
      case ExprKind::kBinary:
        check_expr(*expr.a);
        check_expr(*expr.b);
        break;
      case ExprKind::kCall:
        check_expr(*expr.a);
        if (expr.name != "abs") {
          if (expr.b == nullptr) {
            fail(expr.line, "'" + expr.name + "' needs two arguments");
          }
          check_expr(*expr.b);
        } else if (expr.b != nullptr) {
          fail(expr.line, "'abs' takes one argument");
        }
        break;
    }
  }

  void check_stmt(const Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::kDecl:
        if (info_.arrays.count(stmt.name) != 0 ||
            info_.scalar_params.count(stmt.name) != 0) {
          fail(stmt.line, "local '" + stmt.name + "' shadows a parameter");
        }
        if (!declared_.insert(stmt.name).second) {
          fail(stmt.line, "local '" + stmt.name + "' declared twice");
        }
        info_.locals.insert(stmt.name);
        if (stmt.value != nullptr) {
          check_expr(*stmt.value);
        }
        break;
      case StmtKind::kAssign:
        if (stmt.target_is_array) {
          if (info_.arrays.count(stmt.name) == 0) {
            fail(stmt.line, "'" + stmt.name + "' is not an array parameter");
          }
          check_expr(*stmt.index);
        } else {
          if (info_.scalar_params.count(stmt.name) != 0) {
            fail(stmt.line, "scalar parameter '" + stmt.name +
                                "' is read-only (bound at compile time)");
          }
          if (info_.arrays.count(stmt.name) != 0) {
            fail(stmt.line, "cannot assign to array '" + stmt.name +
                                "' without an index");
          }
          if (declared_.count(stmt.name) == 0) {
            fail(stmt.line, "assignment to undeclared variable '" +
                                stmt.name + "'");
          }
        }
        check_expr(*stmt.value);
        break;
      case StmtKind::kIf:
        check_expr(*stmt.cond);
        for (const auto& child : stmt.body) {
          check_stmt(*child);
        }
        for (const auto& child : stmt.else_body) {
          check_stmt(*child);
        }
        break;
      case StmtKind::kFor:
        if (stmt.init != nullptr) {
          check_stmt(*stmt.init);
        }
        check_expr(*stmt.cond);
        if (stmt.step != nullptr) {
          check_stmt(*stmt.step);
        }
        for (const auto& child : stmt.body) {
          check_stmt(*child);
        }
        break;
      case StmtKind::kWhile:
        check_expr(*stmt.cond);
        for (const auto& child : stmt.body) {
          check_stmt(*child);
        }
        break;
      case StmtKind::kBlock:
        for (const auto& child : stmt.body) {
          check_stmt(*child);
        }
        break;
      case StmtKind::kStage:
        break;
    }
  }

  // -- partition locality --------------------------------------------------

  void collect_reads_writes(const Expr& expr, std::set<std::string>& reads) {
    switch (expr.kind) {
      case ExprKind::kVarRef:
        if (info_.locals.count(expr.name) != 0) {
          reads.insert(expr.name);
        }
        break;
      case ExprKind::kArrayRef:
      case ExprKind::kUnary:
        collect_reads_writes(*expr.a, reads);
        break;
      case ExprKind::kBinary:
        collect_reads_writes(*expr.a, reads);
        collect_reads_writes(*expr.b, reads);
        break;
      case ExprKind::kCall:
        collect_reads_writes(*expr.a, reads);
        if (expr.b != nullptr) {
          collect_reads_writes(*expr.b, reads);
        }
        break;
      case ExprKind::kIntLit:
        break;
    }
  }

  void collect_stmt(const Stmt& stmt, std::set<std::string>& reads,
                    std::set<std::string>& writes) {
    switch (stmt.kind) {
      case StmtKind::kDecl:
        writes.insert(stmt.name);
        if (stmt.value != nullptr) {
          collect_reads_writes(*stmt.value, reads);
        }
        break;
      case StmtKind::kAssign:
        if (stmt.target_is_array) {
          collect_reads_writes(*stmt.index, reads);
        } else if (info_.locals.count(stmt.name) != 0) {
          writes.insert(stmt.name);
        }
        collect_reads_writes(*stmt.value, reads);
        break;
      case StmtKind::kIf:
        collect_reads_writes(*stmt.cond, reads);
        for (const auto& child : stmt.body) {
          collect_stmt(*child, reads, writes);
        }
        for (const auto& child : stmt.else_body) {
          collect_stmt(*child, reads, writes);
        }
        break;
      case StmtKind::kFor:
        if (stmt.init != nullptr) {
          collect_stmt(*stmt.init, reads, writes);
        }
        collect_reads_writes(*stmt.cond, reads);
        if (stmt.step != nullptr) {
          collect_stmt(*stmt.step, reads, writes);
        }
        for (const auto& child : stmt.body) {
          collect_stmt(*child, reads, writes);
        }
        break;
      case StmtKind::kWhile:
        collect_reads_writes(*stmt.cond, reads);
        for (const auto& child : stmt.body) {
          collect_stmt(*child, reads, writes);
        }
        break;
      case StmtKind::kBlock:
        for (const auto& child : stmt.body) {
          collect_stmt(*child, reads, writes);
        }
        break;
      case StmtKind::kStage:
        break;
    }
  }

  void check_partition_locality() {
    std::set<std::string> reads;
    std::set<std::string> writes;
    int partition = 0;
    auto flush = [&]() {
      for (const std::string& read : reads) {
        if (writes.count(read) == 0) {
          throw util::CompileError(
              "local '" + read + "' is read in partition " +
              std::to_string(partition) +
              " but never assigned there; temporal partitions communicate "
              "through array memories only");
        }
      }
      reads.clear();
      writes.clear();
    };
    for (const auto& stmt : program_.body) {
      if (stmt->kind == StmtKind::kStage) {
        flush();
        ++partition;
      } else {
        collect_stmt(*stmt, reads, writes);
      }
    }
    flush();
  }

  const Program& program_;
  SemaInfo info_;
  std::set<std::string> declared_;
};

}  // namespace

SemaInfo check_program(const Program& program) {
  return Checker(program).run();
}

}  // namespace fti::compiler
