// The four workloads, and the traced replay of one verify that the traced
// runs of sim_long, compile_cold and serve_warm share.
#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "fti/cache/design_cache.hpp"
#include "fti/compiler/sema.hpp"
#include "fti/harness/testcase.hpp"
#include "fti/mem/storage.hpp"

namespace perfbench {

void run_sim_long(const Args& args, Result& result);
void run_compile_cold(const Args& args, Result& result);
void run_serve_warm(const Args& args, Result& result);
void run_fuzz_campaign(const Args& args, Result& result);

/// examples/kernels/*.k, sorted.
std::vector<std::filesystem::path> example_kernels(const Args& args);

/// Count-type statistics of a traced run.  For a fixed workload, seed and
/// program they repeat exactly, so a change meant only to be faster can
/// show that it left every simulated statistic unchanged.
struct Counts {
  std::uint64_t cycles = 0;
  std::uint64_t events = 0;  ///< event-engine events only
  std::uint64_t ir_units = 0;
  std::uint64_t fsm_states = 0;
  std::uint64_t xml_lines = 0;
  std::uint64_t codegen_lines = 0;
  std::uint64_t lint_findings = 0;
  std::uint64_t fuzz_total_cycles = 0;

  void report(Result& result) const;
};

/// Creates every array of the kernel in `pool` and loads the declared
/// inputs, as run_test_case primes lane 0.
void prime_declared(const fti::compiler::SemaInfo& sema,
                    const fti::harness::TestCase& test,
                    fti::mem::MemoryPool& pool);

struct ReplayOptions {
  std::string engine = "event";
  std::uint32_t lanes = 1;
  std::uint64_t lane_seed = 1;
  /// Warm path as in run_verify: a hit skips HLS, lint, the XML round
  /// trip and the artefacts.  Keys are the replay's own, so a cache is
  /// only ever shared between replays.
  fti::cache::DesignCache* cache = nullptr;
};

struct ReplayOutcome {
  bool passed = false;
  bool cache_hit = false;
  std::string message;
  std::uint64_t cycles = 0;  ///< summed over lanes
  /// Final simulated memories, one pool per lane.
  std::deque<fti::mem::MemoryPool> pools;
};

/// The steps of harness::run_test_case (as flow::run_verify runs them),
/// each as its own public call inside a span named after its layer:
/// compiler.parse/sema/hls/interp, lint.structural/semantic,
/// xml.emit/parse, cache.lookup/hash/insert, codegen.<backend>,
/// elab.<engine>.sim and the harness glue (harness.prime,
/// harness.compare).  All of them nest under one "job" span.
ReplayOutcome replay_verify(const fti::harness::TestCase& test,
                            const ReplayOptions& options, SpanLog& spans,
                            Counts& counts);

/// The cache.design.* statistics, as per-layer metrics or as table notes.
void report_cache(Result& result, const fti::cache::DesignCache::Stats& stats,
                  bool as_metrics);

/// Per-job layer times of replayed verifies, plus the comparison of their
/// span sum with the untraced run_verify wall of the same jobs
/// (harness.unattributed_ms, trace.span_coverage, trace.overhead_ms).
void report_verify_layers(Result& result, const SpanLog& spans,
                          std::size_t jobs, double untraced_seconds);

}  // namespace perfbench
