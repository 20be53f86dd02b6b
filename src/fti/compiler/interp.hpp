// Reference interpreter -- the golden model.
//
// In the paper the memory/stimulus files "are used when executing the Java
// input algorithm" and the simulated outputs are compared against it.
// Here the same AST that the hardware generator consumes is interpreted
// over the same MemoryPool type, through the same operator kernels the
// engines use (the fti_* kernels of ops/word_ops.hpp, on uint64_t words
// with a 32-bit mask and sign bit 31), so any divergence between
// interpretation and simulation is a compiler or simulator bug, never a
// semantics gap.
//
// It runs in two steps.  GoldenModel resolves a checked program once:
// each variable to a dense slot, each array to an index holding its size,
// width and signedness, and each operator, builtin call and logical
// operator to the function that computes it.  run() then walks that
// resolved tree once per stimulus lane over a vector of word slots.  It
// stays an AST walk that never consults HLS; that independence is what
// makes it the oracle.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "fti/compiler/ast.hpp"
#include "fti/compiler/sema.hpp"
#include "fti/mem/storage.hpp"

namespace fti::compiler {

struct InterpOptions {
  /// Values bound to scalar parameters; every scalar param must appear.
  std::map<std::string, std::int64_t> scalar_args;
  /// Abort with SimError after this many executed statements (guards
  /// against non-terminating inputs -- the golden model's watchdog).
  std::uint64_t max_statements = 500'000'000;
};

struct InterpStats {
  std::uint64_t statements = 0;
  std::uint64_t operations = 0;  ///< arithmetic/logic ops evaluated
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
};

/// A program resolved for execution; build once, run once per lane.
class GoldenModel {
 public:
  /// `info` is check_program(program).  The model copies what it needs,
  /// so neither argument has to outlive it.
  GoldenModel(const Program& program, const SemaInfo& info);
  ~GoldenModel();

  /// Executes the program over `pool`.  Array parameters bind to pool
  /// images of the declared shape (created when absent).  Locals start at
  /// zero, the same power-on value the datapath registers use.
  InterpStats run(mem::MemoryPool& pool,
                  const InterpOptions& options = {}) const;

 private:
  struct Tree;
  std::unique_ptr<const Tree> tree_;
};

/// Checks, resolves and runs `program` once over `pool`.
InterpStats run_program(const Program& program, mem::MemoryPool& pool,
                        const InterpOptions& options = {});

}  // namespace fti::compiler
