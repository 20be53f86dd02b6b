// The "compiled" execution engine: levelized schedules lowered to
// native code instead of interpreted.
//
// For each design, codegen::cpp emits one straight-line C++ translation
// unit per RTG node, the host toolchain ($CXX and friends, probed at
// startup) compiles it to a shared object, and this engine dlopen()s
// the result and drives it through the versioned extern "C" ABI of
// compiled_abi.hpp.  Modules are keyed on the 128-bit canonical IR hash
// mixed with the digest of the fixed module preamble (compiled_module_key)
// and cached twice: a process-wide in-memory registry (a warm `fti
// serve` resubmission re-dispatches into the already-loaded module with
// zero compiler work) and the on-disk cache::SoStore (a later process
// dlopen()s the object straight off disk).
//
// Fallback ladder, loud but graceful:
//  * no usable host compiler / no cached object -> warn once to stderr,
//    run the partition on the levelized interpreter (results identical;
//    `fti engines` and compiled_status() report why);
//  * module fails to load or fails its hash/ABI check -> evict the
//    on-disk object and fall through to a fresh compile;
//  * the generated source fails to compile -> SimError carrying the
//    compiler's stderr (a bug in the emitter, never silently ignored).
#pragma once

#include <cstdint>
#include <string>

#include "fti/cache/ir_hash.hpp"
#include "fti/elab/engines.hpp"

namespace fti::elab {

/// Availability report for the compiled backend, independent of any
/// particular design.  `fti engines` prints it; the fuzz flow uses it to
/// decide whether to add the compiled diff lane.
struct CompiledStatus {
  bool available = false;
  /// Resolved host compiler path ("" when unavailable).
  std::string compiler;
  /// Shared-object cache directory.
  std::string cache_dir;
  /// Human-readable reason when unavailable ("" when available).
  std::string reason;
};

CompiledStatus compiled_status();

/// True when a run would use native modules rather than fall back.
bool compiled_backend_available();

/// Process-wide counters, snapshot for tests and `fti serve` metrics.
struct CompiledStats {
  std::uint64_t compiles = 0;           ///< host compiler invocations
  std::uint64_t cache_hits_memory = 0;  ///< loaded-module registry hits
  std::uint64_t cache_hits_disk = 0;    ///< dlopen of a cached object
  std::uint64_t load_rejects = 0;       ///< cached objects that failed load
  std::uint64_t fallbacks = 0;          ///< partitions run on levelized
};

CompiledStats compiled_stats();

/// Digest of codegen::cpp_preamble(), the fixed text (ABI declarations
/// and word_ops.hpp kernels) every generated module starts with.
cache::Key compiled_preamble_digest();

/// Key of `design`'s native module: the shared-object cache filename and
/// the hash embedded in (and re-checked at every load of) the module.
/// It mixes the canonical IR hash with `preamble_digest`, so an object
/// built from a different preamble misses instead of loading.
cache::Key compiled_module_key(const ir::Design& design,
                               const cache::Key& preamble_digest);

/// Testing hook: forgets every loaded module and sticky compile error so
/// the next run re-probes the disk cache and toolchain.  Leaks the
/// dlopen handles on purpose (code from them may still be referenced).
void compiled_reset_for_testing();

class CompiledEngine final : public PartitionedEngine {
 public:
  const std::string& name() const override;
  bool reports_wire_data() const override { return true; }
  sim::EnginePartition run_partition(const ir::Design& design,
                                     const std::string& node,
                                     mem::MemoryPool& pool,
                                     const sim::EngineRunOptions& options,
                                     std::size_t partition_index) override;
};

}  // namespace fti::elab
