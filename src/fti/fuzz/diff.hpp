// N-way differential driver -- runs one design through every execution
// engine the infrastructure offers and demands bit-exact agreement.
//
// Lanes compared (all behind the common sim::Engine interface):
//  1. "kernel"    -- the event-driven sim::Kernel elaboration (probes on
//                    every clocked wire, harvested before each partition
//                    is torn down),
//  2. "reference" -- the fuzz reference interpreter (a structurally
//                    independent cycle-level engine, see reference.hpp),
//  3. "naive"     -- the full-evaluation baseline (the sweep executor
//                    with a settle-until-stable step, elab/batched.hpp),
//  4. "levelized" -- the same executor on the ranked schedule of
//                    elab/levelized.hpp; "batched" at one lane is this
//                    configuration under another name, so it is not a
//                    default lane (check_lanes covers its N-lane layout),
//  5. "roundtrip" -- the event kernel again on the design after an XML
//                    serialisation round trip (to_xml -> to_string ->
//                    parse -> design_from_xml), which drags the serde
//                    layer into the differential net.
//
// Observables: completion verdict, per-partition cycle counts, final
// register/control values, per-wire value-change traces and final memory
// contents.  Any disagreement -- or any engine throwing where another ran
// -- is a mismatch, reported as human-readable lines that double as the
// shrinker's failure predicate.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fti/fuzz/reference.hpp"
#include "fti/ir/rtg.hpp"

namespace fti::fuzz {

struct DiffOptions {
  std::uint64_t max_cycles_per_partition = 100'000;
  /// Forwarded to the reference interpreter; tests use `eval_binop` to
  /// inject operator bugs the harness must catch.
  ReferenceOptions reference;
  /// Skip the "roundtrip" lane (the serde round trip) -- the shrinker
  /// disables it while minimising to keep iterations cheap, then
  /// re-checks once at the end.
  bool check_roundtrip = true;
  /// Engine lanes compared against the kernel, by registry name.  The
  /// "reference" lane is special-cased to honour `reference` above (so
  /// injected operator bugs reach it); every other name goes through
  /// elab::make_engine.
  std::vector<std::string> engines{"reference", "naive", "levelized"};
  /// Append a "compiled" lane when a host C++ toolchain is available and
  /// `engines` does not already name it.  Off in the shrinker (each
  /// mutated candidate has a fresh IR hash, so every iteration would pay
  /// a host-compiler invocation) and in tests that pin the lane set.
  bool auto_compiled = true;
  /// Append an "xsim" lane -- the emitted Verilog executed by an external
  /// simulator (xsim::run_external) -- when one is available.  Opt-in
  /// (fti_fuzz --xsim): every case pays an iverilog compile, and the lane
  /// only runs on designs the kernel completed (the bench cannot mirror
  /// the engines' early teardown observables on timed-out designs).
  bool auto_xsim = false;
};

/// What one execution lane observed.  Engines that cannot report a given
/// observable leave it empty and the comparison skips it (the naive
/// baseline reports no per-wire data, only cycles and memories).
struct Observation {
  std::string engine;
  bool completed = false;
  /// Error text when the engine threw instead of running to an end state.
  std::string error;
  std::uint64_t total_cycles = 0;
  /// Per-partition cycle counts, in RTG execution order (empty for engines
  /// that only report a total).
  std::vector<std::uint64_t> cycles;
  /// Per-partition finals/traces of the clocked wires (see traced_wires),
  /// keyed "<node>/<wire>".
  std::map<std::string, std::uint64_t> finals;
  std::map<std::string, std::vector<std::uint64_t>> traces;
  /// Final memory-pool contents, keyed by memory name.
  std::map<std::string, std::vector<std::uint64_t>> memories;
  bool has_wire_data = false;
};

struct DiffResult {
  bool ok = true;
  /// One line per disagreement, e.g.
  /// "finals[p0/r3_q]: kernel=42 reference=41".
  std::vector<std::string> mismatches;
  std::vector<Observation> observations;
};

/// Runs all execution lanes on `design` and cross-checks every
/// observation against the first (the event kernel).
DiffResult diff_design(const ir::Design& design,
                       const DiffOptions& options = {});

/// Flattens one finished engine run plus its memory pool into the
/// Observation shape the comparison machinery consumes (finals/traces
/// keyed "<node>/<wire>").  Shared with the batched lane checker, which
/// builds per-lane observations out of one run_batch call.
Observation observe_result(std::string label, sim::EngineResult result,
                           const mem::MemoryPool& pool);

/// Cross-checks two observations with the same machinery diff_design
/// uses (completion, cycles, finals, traces, memories; mismatch lines
/// are capped) and returns the mismatch lines -- empty means agreement.
std::vector<std::string> compare_observation_pair(const Observation& a,
                                                  const Observation& b);

}  // namespace fti::fuzz
