// sim_long: the paper's long simulations -- FDCT1 and FDCT2 at 65,536
// pixels and Hamming at 65,536 words -- each verified once per engine by
// one closed-loop caller.  Simulation is most of a verify's wall here, so
// engine and per-cycle work shows on this workload and hardly anywhere
// else.  A job is one flow::run_verify of one design on one engine.
#include <cstdlib>
#include <exception>
#include <map>
#include <thread>

#include "fti/compiler/hls.hpp"
#include "fti/compiler/interp.hpp"
#include "fti/compiler/parser.hpp"
#include "fti/elab/compiled.hpp"
#include "fti/flow/flow.hpp"
#include "fti/ir/serde.hpp"
#include "fti/xml/parser.hpp"
#include "fti/xml/writer.hpp"
#include "kernels.hpp"
#include "workloads.hpp"

namespace perfbench {

using fti::harness::TestCase;

namespace {

constexpr std::size_t kBlocks = 1024;  // 65,536 pixels
constexpr std::size_t kWords = 65536;
const std::vector<std::string> kEngines = {"event", "levelized", "batched",
                                           "compiled"};
constexpr int kSetups = 3;

std::vector<TestCase> make_designs(std::uint64_t seed) {
  return {fdct_case(kBlocks, false, seed), fdct_case(kBlocks, true, seed),
          hamming_case(kWords, seed)};
}

/// The design run_verify simulates: compiled, then round-tripped through
/// XML (the compiled engine keys its native modules on this design).
fti::ir::Design verified_design(const TestCase& test) {
  fti::compiler::CompileOptions options;
  options.resources = test.resources;
  options.scalar_args = test.scalar_args;
  fti::ir::Design compiled =
      fti::compiler::compile_source(test.source, options).design;
  return fti::ir::design_from_xml(*fti::xml::parse(
      fti::xml::to_string(*fti::ir::to_xml(compiled))));
}

/// One set-up: the seeded designs, then the compiled engine's host
/// compiler builds of all of them -- one thread per design, into a fresh
/// and empty shared-object directory with the in-process module registry
/// forgotten, so every set-up pays the same builds.
std::vector<TestCase> set_up(const Args& args, int round,
                             double& compile_seconds) {
  std::vector<TestCase> designs = make_designs(args.seed);
  std::vector<fti::ir::Design> verified;
  for (const TestCase& test : designs) {
    verified.push_back(verified_design(test));
  }
  std::filesystem::path so_dir =
      args.scratch / ("so-" + std::to_string(round));
  std::filesystem::create_directories(so_dir);
  ::setenv("FTI_COMPILED_CACHE_DIR", so_dir.c_str(), 1);
  fti::elab::compiled_reset_for_testing();

  Clock::time_point start = Clock::now();
  std::vector<std::exception_ptr> errors(verified.size());
  std::vector<std::jthread> builders;
  for (std::size_t i = 0; i < verified.size(); ++i) {
    builders.emplace_back([&, i] {
      try {
        fti::mem::MemoryPool pool;
        fti::elab::make_engine("compiled")->run(verified[i], pool);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  builders.clear();  // joins
  compile_seconds = seconds_since(start);
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
  return designs;
}

/// The golden interpreter (which run_verify holds every engine to) against
/// the independently written C++ references.  With run_verify's verdict
/// this makes every engine's final memories equal to the reference.
void check_interpreter(const std::vector<TestCase>& designs, Result& result) {
  for (const TestCase& test : designs) {
    fti::compiler::Program program = fti::compiler::parse_program(test.source);
    fti::compiler::SemaInfo sema = fti::compiler::check_program(program);
    fti::mem::MemoryPool pool;
    prime_declared(sema, test, pool);
    fti::compiler::InterpOptions options;
    options.scalar_args = test.scalar_args;
    fti::compiler::run_program(program, pool, options);
    std::string why;
    if (!matches_reference(test, pool, why)) {
      result.wrong("golden interpreter on " + test.name + ": " + why);
    }
  }
}

/// Wall time and cycles of the run_verify jobs of a run, per engine.
struct JobLog {
  struct Totals {
    double seconds = 0;
    std::uint64_t cycles = 0;
  };
  std::vector<double> job_seconds;
  std::map<std::string, Totals> engines;
  /// Each design's cycle count, which every engine must reproduce.
  std::map<std::string, std::uint64_t> cycles;

  /// One run_verify of `test` on `engine`, checked and logged.
  void verify(const TestCase& test, const std::string& engine,
              Result& result) {
    std::ostream discard(nullptr);
    fti::flow::VerifyRequest request;
    request.test = test;
    request.engine = engine;
    result.attempt();
    Clock::time_point start = Clock::now();
    fti::flow::VerifyResult verified;
    try {
      verified = fti::flow::run_verify(request, {}, discard, discard);
    } catch (const std::exception& error) {
      result.fail(test.name + " on " + engine + ": " + error.what());
      return;
    }
    double seconds = seconds_since(start);
    std::uint64_t run_cycles = verified.outcome.run.total_cycles();
    auto [expected, first] = cycles.emplace(test.name, run_cycles);
    if (verified.exit_code != 0 || !verified.outcome.passed) {
      result.fail(test.name + " on " + engine + ": " +
                  verified.outcome.message);
    } else if (!first && expected->second != run_cycles) {
      result.fail(test.name + " on " + engine + " ran " +
                  std::to_string(run_cycles) + " cycles, other engines " +
                  std::to_string(expected->second));
    } else {
      job_seconds.push_back(seconds);
      engines[engine].seconds += seconds;
      engines[engine].cycles += run_cycles;
    }
  }
};

void check_compiled(const fti::elab::CompiledStats& before, Result& result) {
  fti::elab::CompiledStats after = fti::elab::compiled_stats();
  if (after.fallbacks != 0) {
    result.wrong("compiled engine fell back to levelized " +
                 std::to_string(after.fallbacks) + " time(s)");
  }
  if (after.compiles != before.compiles) {
    result.wrong("compiled engine ran the host compiler " +
                 std::to_string(after.compiles - before.compiles) +
                 " time(s) in the timed phase");
  }
}

void run_untraced(const Args& args, Result& result) {
  std::vector<double> setups;
  std::vector<TestCase> designs;
  for (int round = 0; round < kSetups; ++round) {
    Clock::time_point start = Clock::now();
    double compile_seconds = 0;
    designs = set_up(args, round, compile_seconds);
    setups.push_back(seconds_since(start));
  }
  check_interpreter(designs, result);

  const fti::elab::CompiledStats before = fti::elab::compiled_stats();
  JobLog log;
  // Whole rounds only, so every run weighs the twelve jobs alike: a round
  // starts while it is expected to end within the time budget.
  Clock::time_point start = Clock::now();
  double round_seconds = 0;
  do {
    Clock::time_point round_start = Clock::now();
    for (const TestCase& test : designs) {
      for (const std::string& engine : kEngines) {
        log.verify(test, engine, result);
      }
    }
    round_seconds = seconds_since(round_start);
  } while (seconds_since(start) + round_seconds <= args.seconds);
  double wall = seconds_since(start);
  check_compiled(before, result);

  report_jobs(result, log.job_seconds, wall);
  result.set("setup_s", median(setups), "s");
  result.note("peak_rss_mb", peak_rss_mb(), "MB");
  for (const auto& [engine, totals] : log.engines) {
    result.note("mcycles_per_s." + engine,
                static_cast<double>(totals.cycles) / totals.seconds / 1e6,
                "Mcycle/s");
  }
}

void run_traced(const Args& args, Result& result) {
  double compile_seconds = 0;
  std::vector<TestCase> designs = set_up(args, 0, compile_seconds);
  const fti::elab::CompiledStats built = fti::elab::compiled_stats();
  result.set("cache.so.compile_s", compile_seconds, "s");

  // One round of the timed runs' jobs, each run twice back to back:
  // untraced through run_verify, and replayed call by call with each
  // engine's final memories checked directly against the golden
  // references.
  JobLog log;
  SpanLog spans;
  Counts counts;
  std::map<std::string, std::uint64_t> engine_cycles;
  bool swap = false;
  for (const TestCase& test : designs) {
    for (const std::string& engine : kEngines) {
      ReplayOptions options;
      options.engine = engine;
      ReplayOutcome outcome;
      run_pair(
          swap, [&] { log.verify(test, engine, result); },
          [&] { outcome = replay_verify(test, options, spans, counts); });
      swap = !swap;
      std::string why;
      if (!outcome.passed) {
        result.wrong(outcome.message);
      } else if (!matches_reference(test, outcome.pools.front(), why)) {
        result.wrong(test.name + " on " + engine + ": " + why);
      } else if (outcome.cycles != log.cycles[test.name]) {
        result.wrong(test.name + " on " + engine +
                     ": replay cycles differ from run_verify");
      }
      engine_cycles[engine] += outcome.cycles;
    }
  }
  double untraced = 0;
  for (const auto& [engine, totals] : log.engines) {
    untraced += totals.seconds;
    result.set("elab." + engine + ".mcycles_per_s",
               static_cast<double>(totals.cycles) / totals.seconds / 1e6,
               "Mcycle/s");
  }
  check_compiled(built, result);
  report_verify_layers(result, spans, log.job_seconds.size(), untraced);
  for (const std::string& engine : kEngines) {
    double sim = spans.total("elab." + engine + ".sim");
    result.set("elab." + engine + ".sim_ms", sim / designs.size() * 1e3, "ms");
    result.set("elab." + engine + ".ns_per_cycle",
               sim / static_cast<double>(engine_cycles[engine]) * 1e9, "ns");
  }
  fti::elab::CompiledStats stats = fti::elab::compiled_stats();
  result.set("cache.so.compiles", static_cast<double>(stats.compiles),
             "count");
  result.set("cache.so.hits_memory",
             static_cast<double>(stats.cache_hits_memory), "count");
  result.set("cache.so.hits_disk", static_cast<double>(stats.cache_hits_disk),
             "count");
  result.set("cache.so.fallbacks", static_cast<double>(stats.fallbacks),
             "count");
  counts.report(result);
}

}  // namespace

void run_sim_long(const Args& args, Result& result) {
  if (args.trace) {
    run_traced(args, result);
  } else {
    run_untraced(args, result);
  }
}

}  // namespace perfbench
