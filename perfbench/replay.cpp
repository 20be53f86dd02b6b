// Traced replay of one verify: the steps of harness::run_test_case, each
// as the public call of its layer, inside a span.  Stimulus priming and
// the lane seeds follow run_test_case exactly, so the replay simulates
// the same cycles and compares the same words as the untraced run_verify
// it is measured against.
#include <algorithm>

#include "fti/codegen/dot.hpp"
#include "fti/codegen/hds.hpp"
#include "fti/codegen/systemc.hpp"
#include "fti/codegen/verilog.hpp"
#include "fti/codegen/vhdl.hpp"
#include "fti/compiler/parser.hpp"
#include "fti/compiler/sema.hpp"
#include "fti/elab/engines.hpp"
#include "fti/fuzz/rand.hpp"
#include "fti/ir/serde.hpp"
#include "fti/lint/dataflow.hpp"
#include "fti/lint/lint.hpp"
#include "fti/sim/bits.hpp"
#include "fti/util/strings.hpp"
#include "fti/xml/parser.hpp"
#include "fti/xml/writer.hpp"
#include "workloads.hpp"

namespace perfbench {

using fti::harness::TestCase;

namespace {

/// Random stimulus of lane `lane` >= 1, drawn as run_test_case draws it
/// (splitmix64 from seed ^ (lane constant), sign bit clear).
void prime_random(const fti::compiler::SemaInfo& sema, std::uint64_t seed,
                  std::uint32_t lane, fti::mem::MemoryPool& pool) {
  fti::fuzz::Rng rng(seed ^ (0xa0761d6478bd642full * (lane + 1)));
  for (const auto& [name, param] : sema.arrays) {
    std::uint32_t width = fti::compiler::width_of(param.type);
    std::uint64_t mask = width > 1 ? fti::sim::Bits::mask(width - 1)
                                   : fti::sim::Bits::mask(width);
    fti::mem::MemoryImage& image = pool.create(name, param.array_size, width);
    for (std::size_t i = 0; i < image.depth(); ++i) {
      image.write(i, rng.u64() & mask);
    }
  }
}

void prime_lanes(const fti::compiler::SemaInfo& sema, const TestCase& test,
                 const ReplayOptions& options,
                 std::deque<fti::mem::MemoryPool>& pools) {
  for (std::uint32_t lane = 0; lane < pools.size(); ++lane) {
    if (lane == 0) {
      if (!test.embed_inputs) {
        prime_declared(sema, test, pools[0]);
      }
    } else {
      prime_random(sema, options.lane_seed, lane, pools[lane]);
    }
  }
}

fti::cache::Key source_key(const TestCase& test) {
  fti::cache::Hasher hasher;
  hasher.mix_string(test.source);
  for (const auto& [name, value] : test.scalar_args) {
    hasher.mix_string(name);
    hasher.mix_u64(static_cast<std::uint64_t>(value));
  }
  const fti::compiler::Resources& resources = test.resources;
  for (const auto& [fu_class, limit] : resources.limits) {
    hasher.mix_string(fu_class);
    hasher.mix_u32(limit);
  }
  hasher.mix_u32(resources.default_limit);
  for (const auto& [fu_class, latency] : resources.latencies) {
    hasher.mix_string(fu_class);
    hasher.mix_u32(latency);
  }
  hasher.mix_u32(resources.default_memory_read_ports);
  return hasher.key();
}

std::string xml_of(const auto& ir) {
  return fti::xml::to_string(*fti::ir::to_xml(ir));
}

/// The artefacts of a cold run: per-configuration XML plus every HDL/dot
/// backend (harness collect_artifacts; counted, never written).
void emit_artifacts(const fti::ir::Design& design, SpanLog& spans,
                    Counts& counts) {
  using fti::util::count_lines;
  spans.time("xml.emit", [&] {
    for (const std::string& node : design.rtg.nodes) {
      const fti::ir::Configuration& config = design.configuration(node);
      counts.xml_lines += count_lines(xml_of(config.datapath));
      counts.xml_lines += count_lines(xml_of(config.fsm));
    }
    counts.xml_lines += count_lines(xml_of(design.rtg));
  });
  auto backend = [&](const char* span, auto&& emit) {
    counts.codegen_lines += count_lines(spans.time(span, emit));
  };
  backend("codegen.hds", [&] { return fti::codegen::design_to_hds(design); });
  backend("codegen.vhdl", [&] { return fti::codegen::design_to_vhdl(design); });
  backend("codegen.verilog",
          [&] { return fti::codegen::design_to_verilog(design); });
  backend("codegen.systemc",
          [&] { return fti::codegen::design_to_systemc(design); });
  backend("codegen.dot", [&] {
    std::string dot;
    for (const std::string& node : design.rtg.nodes) {
      const fti::ir::Configuration& config = design.configuration(node);
      dot += fti::codegen::datapath_to_dot(config.datapath);
      dot += fti::codegen::fsm_to_dot(config.fsm);
    }
    return dot + fti::codegen::rtg_to_dot(design.rtg);
  });
}

}  // namespace

void prime_declared(const fti::compiler::SemaInfo& sema, const TestCase& test,
                    fti::mem::MemoryPool& pool) {
  for (const auto& [name, param] : sema.arrays) {
    pool.create(name, param.array_size, fti::compiler::width_of(param.type));
  }
  for (const auto& [name, values] : test.inputs) {
    fti::harness::load_inputs(pool, name, values);
  }
}

ReplayOutcome replay_verify(const TestCase& test, const ReplayOptions& options,
                            SpanLog& spans, Counts& counts) {
  ReplayOutcome outcome;
  SpanLog::Scope job(spans, "job");
  fti::compiler::Program program = spans.time(
      "compiler.parse", [&] { return fti::compiler::parse_program(test.source); });
  fti::compiler::SemaInfo sema = spans.time(
      "compiler.sema", [&] { return fti::compiler::check_program(program); });

  fti::cache::Key key;
  fti::cache::DesignCache::Entry entry;
  if (options.cache != nullptr) {
    entry = spans.time("cache.lookup", [&] {
      key = source_key(test);
      return options.cache->find_source(key);
    });
  }
  fti::ir::Design local;
  const fti::ir::Design* design = nullptr;
  if (entry) {
    outcome.cache_hit = true;
    design = entry->design.get();
  } else {
    fti::compiler::CompileOptions compile_options;
    compile_options.resources = test.resources;
    compile_options.scalar_args = test.scalar_args;
    if (test.embed_inputs) {
      compile_options.rom_contents = test.inputs;
    }
    fti::compiler::CompileResult compiled = spans.time("compiler.hls", [&] {
      return fti::compiler::compile_program(program, compile_options);
    });
    for (const auto& stats : compiled.stats) {
      counts.ir_units += stats.units;
      counts.fsm_states += stats.fsm_states;
    }
    // lint_design with the semantic tier on is exactly these two calls:
    // the structural rules, then the dataflow analysis's findings.
    fti::lint::Report report = spans.time("lint.structural", [&] {
      return fti::lint::lint_design(compiled.design,
                                    fti::lint::Options{.semantic = false});
    });
    spans.time("lint.semantic", [&] {
      for (fti::lint::Finding& finding :
           fti::lint::dataflow::analyze(compiled.design).findings) {
        report.findings.push_back(std::move(finding));
      }
    });
    counts.lint_findings += report.findings.size();
    if (fti::lint::blocks(fti::lint::Gate::kError, report)) {
      outcome.message = "lint gate blocked '" + test.name + "'";
      return outcome;
    }
    std::string serialized =
        spans.time("xml.emit", [&] { return xml_of(compiled.design); });
    local = spans.time("xml.parse", [&] {
      return fti::ir::design_from_xml(*fti::xml::parse(serialized));
    });
    if (spans.time("xml.emit", [&] { return xml_of(local); }) != serialized) {
      outcome.message = "XML round trip of '" + test.name + "' is not stable";
      return outcome;
    }
    design = &local;
    if (options.cache != nullptr) {
      fti::cache::Key ir_key = spans.time(
          "cache.hash", [&] { return fti::cache::hash_design(local); });
      entry = spans.time("cache.insert", [&] {
        auto inserted =
            options.cache->insert(ir_key, std::move(local), std::move(report));
        options.cache->alias_source(key, ir_key);
        return inserted;
      });
      design = entry->design.get();
    }
    emit_artifacts(*design, spans, counts);
  }

  const std::uint32_t lanes = std::max<std::uint32_t>(1, options.lanes);
  std::deque<fti::mem::MemoryPool> golden(lanes);
  spans.time("compiler.interp", [&] {
    fti::compiler::InterpOptions interp_options;
    interp_options.scalar_args = test.scalar_args;
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      if (lane == 0) {
        prime_declared(sema, test, golden[0]);
      } else {
        prime_random(sema, options.lane_seed, lane, golden[lane]);
      }
      fti::compiler::run_program(program, golden[lane], interp_options);
    }
  });

  outcome.pools.resize(lanes);
  std::vector<fti::mem::MemoryPool*> lane_pools;
  spans.time("harness.prime", [&] {
    prime_lanes(sema, test, options, outcome.pools);
    for (fti::mem::MemoryPool& pool : outcome.pools) {
      lane_pools.push_back(&pool);
    }
  });
  std::vector<fti::sim::EngineResult> runs =
      spans.time("elab." + options.engine + ".sim", [&] {
        fti::sim::EngineRunOptions run_options;
        run_options.max_cycles_per_partition = test.max_cycles;
        return fti::elab::make_engine(options.engine)
            ->run_batch(*design, lane_pools, run_options);
      });
  for (const fti::sim::EngineResult& run : runs) {
    if (!run.completed) {
      outcome.message = "simulation of '" + test.name + "' did not complete";
      return outcome;
    }
    outcome.cycles += run.total_cycles();
    if (options.engine == "event") {
      counts.events += run.total_events();
    }
  }
  counts.cycles += outcome.cycles;

  outcome.passed = spans.time("harness.compare", [&] {
    std::vector<std::string> arrays = test.check_arrays;
    if (arrays.empty()) {
      for (const auto& [name, param] : sema.arrays) {
        arrays.push_back(name);
      }
    }
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      for (const std::string& array : arrays) {
        if (!outcome.pools[lane].contains(array) ||
            golden[lane].get(array).words() !=
                outcome.pools[lane].get(array).words()) {
          outcome.message = "'" + test.name + "' lane " +
                            std::to_string(lane) + " memory '" + array +
                            "' differs from the golden interpreter";
          return false;
        }
      }
    }
    return true;
  });
  return outcome;
}

void Counts::report(Result& result) const {
  result.set("elab.cycles", static_cast<double>(cycles), "count");
  result.set("elab.event.events", static_cast<double>(events), "count");
  result.set("compiler.ir_units", static_cast<double>(ir_units), "count");
  result.set("compiler.fsm_states", static_cast<double>(fsm_states), "count");
  result.set("xml.lines", static_cast<double>(xml_lines), "count");
  result.set("codegen.lines", static_cast<double>(codegen_lines), "count");
  result.set("lint.findings", static_cast<double>(lint_findings), "count");
  result.set("fuzz.total_cycles", static_cast<double>(fuzz_total_cycles),
             "count");
}

void report_cache(Result& result, const fti::cache::DesignCache::Stats& stats,
                  bool as_metrics) {
  auto put = [&](const std::string& name, double value, const char* unit) {
    if (as_metrics) {
      result.set(name, value, unit);
    } else {
      result.note(name, value, unit);
    }
  };
  put("cache.design.hits", static_cast<double>(stats.hits), "count");
  put("cache.design.misses", static_cast<double>(stats.misses), "count");
  put("cache.design.insertions", static_cast<double>(stats.insertions),
      "count");
  put("cache.design.evictions", static_cast<double>(stats.evictions), "count");
  put("cache.design.schedule_hits", static_cast<double>(stats.schedule_hits),
      "count");
  double lookups = static_cast<double>(stats.hits + stats.misses);
  put("cache.design.hit_ratio", lookups > 0 ? stats.hits / lookups : 0,
      "ratio");
}

void report_verify_layers(Result& result, const SpanLog& spans,
                          std::size_t jobs, double untraced_seconds) {
  const double per_job_ms = jobs > 0 ? 1e3 / static_cast<double>(jobs) : 0;
  auto layer = [&](const std::string& metric, const std::string& span) {
    result.set(metric, spans.total(span) * per_job_ms, "ms");
  };
  layer("compiler.parse_ms", "compiler.parse");
  layer("compiler.sema_ms", "compiler.sema");
  layer("compiler.hls_ms", "compiler.hls");
  layer("compiler.interp_ms", "compiler.interp");
  layer("lint.structural_ms", "lint.structural");
  layer("lint.semantic_ms", "lint.semantic");
  layer("xml.emit_ms", "xml.emit");
  layer("xml.parse_ms", "xml.parse");
  layer("cache.hash_ms", "cache.hash");
  for (const char* backend : {"verilog", "vhdl", "systemc", "hds", "dot"}) {
    layer(std::string("codegen.") + backend + "_ms",
          std::string("codegen.") + backend);
  }
  layer("harness.prime_ms", "harness.prime");
  layer("harness.compare_ms", "harness.compare");
  const double spans_total = spans.children_total("job");
  const double traced_total = spans.total("job");
  result.set("harness.verify_ms", untraced_seconds * per_job_ms, "ms");
  result.set("harness.unattributed_ms",
             (untraced_seconds - spans_total) * per_job_ms, "ms");
  result.set("trace.span_coverage",
             untraced_seconds > 0 ? spans_total / untraced_seconds : 0,
             "ratio");
  result.set("trace.overhead_ms", (traced_total - untraced_seconds) * per_job_ms,
             "ms");
}

}  // namespace perfbench
