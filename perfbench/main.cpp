// fti_perfbench: the repository's benchmark program (see run.py, which
// builds it and runs one workload per invocation).
//
//   fti_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --scratch DIR --root DIR
//
// --trace 0 measures the workload untraced and prints the end-to-end
// metrics; --trace 1 replays a fixed, seed-determined set of the
// workload's steps call by call with a span around each and prints the
// per-layer metrics.  Exit 0 when every output was correct, 1 when one was
// wrong, 2 on a usage or infrastructure error (then no result line).
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <utility>

#include "common.hpp"
#include "workloads.hpp"

namespace {

/// Every per-layer metric with its unit; a traced run reports all of
/// them, 0 where its workload does not exercise the layer.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"compiler.parse_ms", "ms"},
    {"compiler.sema_ms", "ms"},
    {"compiler.hls_ms", "ms"},
    {"compiler.interp_ms", "ms"},
    {"lint.structural_ms", "ms"},
    {"lint.semantic_ms", "ms"},
    {"xml.emit_ms", "ms"},
    {"xml.parse_ms", "ms"},
    {"codegen.verilog_ms", "ms"},
    {"codegen.vhdl_ms", "ms"},
    {"codegen.systemc_ms", "ms"},
    {"codegen.hds_ms", "ms"},
    {"codegen.dot_ms", "ms"},
    {"cache.hash_ms", "ms"},
    {"elab.event.sim_ms", "ms"},
    {"elab.levelized.sim_ms", "ms"},
    {"elab.batched.sim_ms", "ms"},
    {"elab.compiled.sim_ms", "ms"},
    {"elab.event.ns_per_cycle", "ns"},
    {"elab.levelized.ns_per_cycle", "ns"},
    {"elab.batched.ns_per_cycle", "ns"},
    {"elab.compiled.ns_per_cycle", "ns"},
    {"elab.event.mcycles_per_s", "Mcycle/s"},
    {"elab.levelized.mcycles_per_s", "Mcycle/s"},
    {"elab.batched.mcycles_per_s", "Mcycle/s"},
    {"elab.compiled.mcycles_per_s", "Mcycle/s"},
    {"elab.levelized.wire_data_ms", "ms"},
    {"elab.event.small_run_us", "us"},
    {"elab.levelized.small_run_us", "us"},
    {"elab.batched.small_run_us", "us"},
    {"elab.batched.lane_ns_per_cycle", "ns"},
    {"cache.design.hits", "count"},
    {"cache.design.misses", "count"},
    {"cache.design.insertions", "count"},
    {"cache.design.evictions", "count"},
    {"cache.design.schedule_hits", "count"},
    {"cache.design.hit_ratio", "ratio"},
    {"cache.so.compiles", "count"},
    {"cache.so.hits_memory", "count"},
    {"cache.so.hits_disk", "count"},
    {"cache.so.fallbacks", "count"},
    {"cache.so.compile_s", "s"},
    {"serve.ping_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"fuzz.generate_ms", "ms"},
    {"fuzz.diff_ms", "ms"},
    {"fuzz.lanes_ms", "ms"},
    {"harness.prime_ms", "ms"},
    {"harness.compare_ms", "ms"},
    {"harness.verify_ms", "ms"},
    {"harness.unattributed_ms", "ms"},
    {"trace.span_coverage", "ratio"},
    {"trace.overhead_ms", "ms"},
    {"elab.cycles", "count"},
    {"elab.event.events", "count"},
    {"compiler.ir_units", "count"},
    {"compiler.fsm_states", "count"},
    {"xml.lines", "count"},
    {"codegen.lines", "count"},
    {"lint.findings", "count"},
    {"fuzz.total_cycles", "count"},
};

perfbench::Args parse_args(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else if (flag == "--root") {
      args.root = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.scratch.empty() || args.root.empty() || !(args.seconds > 0)) {
    throw std::invalid_argument("--scratch, --root and --seconds > 0 needed");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "fti_perfbench: " << error.what() << "\n";
    return 2;
  }
  // Compiled-engine modules never come from, or go to, a cache outside
  // this run (sim_long points each set-up at its own directory).
  const std::string so_dir = (args.scratch / "so").string();
  ::setenv("FTI_COMPILED_CACHE_DIR", so_dir.c_str(), 1);

  perfbench::Result result;
  if (args.trace) {
    for (const auto& [name, unit] : kPerLayer) {
      result.set(name, 0, unit);
    }
  }
  try {
    if (args.workload == "sim_long") {
      perfbench::run_sim_long(args, result);
    } else if (args.workload == "compile_cold") {
      perfbench::run_compile_cold(args, result);
    } else if (args.workload == "serve_warm") {
      perfbench::run_serve_warm(args, result);
    } else if (args.workload == "fuzz_campaign") {
      perfbench::run_fuzz_campaign(args, result);
    } else {
      std::cerr << "fti_perfbench: unknown workload '" << args.workload
                << "'\n";
      return 2;
    }
  } catch (const std::exception& error) {
    std::cerr << "fti_perfbench: " << args.workload << ": " << error.what()
              << "\n";
    return 2;
  }
  result.print();
  return result.correct() ? 0 : 1;
}
