// fuzz_campaign: fuzz::run_fuzz with 2 jobs, generator defaults, 64
// batched lanes and no compiled lane.  Many tiny designs, each run on
// every diff lane with wire traces collected plus one 64-lane batched
// check: per-run engine set-up and trace collection, which sim_long
// amortises or switches off.  The compiled lane stays off because each
// fresh design would cost one host-compiler call, and the workload would
// time the host compiler.  A job is one run_fuzz call of 25 designs.
#include "fti/elab/engines.hpp"
#include "fti/fuzz/fuzzer.hpp"
#include "fti/fuzz/generate.hpp"
#include "fti/fuzz/lanes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kDesignsPerJob = 25;
constexpr std::uint64_t kTracedDesigns = 100;
constexpr std::uint64_t kWarmupDesigns = 32;
constexpr std::uint32_t kJobs = 2;
constexpr int kSetups = 5;

fti::fuzz::FuzzOptions campaign(std::uint64_t seed, std::uint64_t runs,
                                std::uint32_t jobs) {
  fti::fuzz::FuzzOptions options;
  options.seed = seed;
  options.runs = runs;
  options.jobs = jobs;
  options.batch_lanes = 64;
  options.diff.auto_compiled = false;
  return options;
}

/// Runs one campaign; false (with the failure recorded) unless every
/// design ran and every lane agreed.
bool run_campaign(const fti::fuzz::FuzzOptions& options, Result& result,
                  fti::fuzz::FuzzReport* out = nullptr) {
  result.attempt(options.runs);
  fti::fuzz::FuzzReport report = fti::fuzz::run_fuzz(options);
  for (const fti::fuzz::FuzzFailure& failure : report.failures) {
    result.fail("fuzz seed " + std::to_string(failure.case_seed) + ": " +
                (failure.mismatches.empty() ? std::string("mismatch")
                                            : failure.mismatches.front()));
  }
  if (report.cases_run != options.runs) {
    result.wrong("fuzz campaign ran " + std::to_string(report.cases_run) +
                 " of " + std::to_string(options.runs) + " designs");
  }
  bool ok = report.ok() && report.cases_run == options.runs;
  if (out != nullptr) {
    *out = std::move(report);
  }
  return ok;
}

void run_untraced(const Args& args, Result& result) {
  // Set-up: a short warm-up campaign (engine registry, first-use costs).
  std::vector<double> setups;
  for (int round = 0; round < kSetups; ++round) {
    Clock::time_point start = Clock::now();
    run_campaign(campaign(fti::fuzz::Rng::derive(args.seed, 1u << 20 | round),
                          kWarmupDesigns, kJobs),
                 result);
    setups.push_back(seconds_since(start));
  }

  std::vector<double> job_seconds;
  Clock::time_point start = Clock::now();
  for (std::uint64_t job = 0; seconds_since(start) < args.seconds; ++job) {
    Clock::time_point job_start = Clock::now();
    if (run_campaign(campaign(fti::fuzz::Rng::derive(args.seed, job),
                              kDesignsPerJob, kJobs),
                     result)) {
      job_seconds.push_back(seconds_since(job_start));
    }
  }
  double wall = seconds_since(start);
  report_jobs(result, job_seconds, wall);
  result.set("setup_s", median(setups), "s");
  result.note("peak_rss_mb", peak_rss_mb(), "MB");
  result.note("designs_per_s",
              static_cast<double>(job_seconds.size() * kDesignsPerJob) / wall,
              "1/s");
}

/// Mean wall of one engine run per design, on fresh pools, in µs.
double small_runs(const std::vector<fti::ir::Design>& designs,
                  const std::string& engine, Counts& counts) {
  double seconds = 0;
  for (const fti::ir::Design& design : designs) {
    fti::mem::MemoryPool pool;
    Clock::time_point start = Clock::now();
    fti::sim::EngineResult run = fti::elab::make_engine(engine)->run(design, pool);
    seconds += seconds_since(start);
    counts.cycles += run.total_cycles();
    if (engine == "event") {
      counts.events += run.total_events();
    }
  }
  return seconds / static_cast<double>(designs.size()) * 1e6;
}

void run_traced(const Args& args, Result& result) {
  // One campaign's designs, single-threaded on both sides so the walls
  // compare: the untraced campaign runs before and after the replay, and
  // the mean of the two walls is its time.
  const std::uint64_t seed = fti::fuzz::Rng::derive(args.seed, 0);
  fti::fuzz::FuzzReport report;
  auto untraced_campaign = [&] {
    Clock::time_point start = Clock::now();
    run_campaign(campaign(seed, kTracedDesigns, 1), result, &report);
    return seconds_since(start);
  };
  double untraced = untraced_campaign();

  SpanLog spans;
  Counts counts;
  std::vector<fti::ir::Design> designs;
  fti::fuzz::FuzzOptions options = campaign(seed, kTracedDesigns, 1);
  for (std::uint64_t index = 0; index < kTracedDesigns; ++index) {
    SpanLog::Scope job(spans, "job");
    std::uint64_t case_seed = fti::fuzz::Rng::derive(seed, index);
    designs.push_back(spans.time("fuzz.generate", [&] {
      return fti::fuzz::generate_design_seeded(case_seed, options.generator);
    }));
    fti::fuzz::DiffResult diff = spans.time("fuzz.diff", [&] {
      return fti::fuzz::diff_design(designs.back(), options.diff);
    });
    fti::fuzz::LaneCheckOptions lane_options;
    lane_options.lanes = options.batch_lanes;
    lane_options.max_cycles_per_partition =
        options.diff.max_cycles_per_partition;
    fti::fuzz::LaneCheckResult lanes = spans.time("fuzz.lanes", [&] {
      return fti::fuzz::check_lanes(designs.back(), case_seed, lane_options);
    });
    if (!diff.ok || !lanes.ok) {
      result.wrong("replayed fuzz design " + std::to_string(case_seed) +
                   " diverged");
    }
    counts.fuzz_total_cycles +=
        diff.observations.front().total_cycles + lanes.lane_cycles;
  }
  untraced = (untraced + untraced_campaign()) / 2;
  if (counts.fuzz_total_cycles != report.total_cycles) {
    result.wrong("replayed fuzz cycles differ from run_fuzz's");
  }
  const double per_design_ms = 1e3 / static_cast<double>(kTracedDesigns);
  result.set("fuzz.generate_ms", spans.total("fuzz.generate") * per_design_ms,
             "ms");
  result.set("fuzz.diff_ms", spans.total("fuzz.diff") * per_design_ms, "ms");
  result.set("fuzz.lanes_ms", spans.total("fuzz.lanes") * per_design_ms, "ms");
  const double spans_total = spans.children_total("job");
  result.set("harness.verify_ms", untraced * per_design_ms, "ms");
  result.set("harness.unattributed_ms",
             (untraced - spans_total) * per_design_ms, "ms");
  result.set("trace.span_coverage", spans_total / untraced, "ratio");
  result.set("trace.overhead_ms",
             (spans.total("job") - untraced) * per_design_ms, "ms");

  for (const char* engine : {"event", "levelized", "batched"}) {
    result.set(std::string("elab.") + engine + ".small_run_us",
               small_runs(designs, engine, counts), "us");
  }
  // Trace collection: the levelized run of each design with wire data
  // off and on, the median of five of each, summed over the designs.
  double with_wires = 0;
  double without_wires = 0;
  for (const fti::ir::Design& design : designs) {
    for (bool wires : {false, true}) {
      std::vector<double> runs;
      for (int repeat = 0; repeat < 5; ++repeat) {
        fti::mem::MemoryPool pool;
        fti::sim::EngineRunOptions run_options;
        run_options.collect_wire_data = wires;
        Clock::time_point run_start = Clock::now();
        fti::elab::make_engine("levelized")->run(design, pool, run_options);
        runs.push_back(seconds_since(run_start));
      }
      (wires ? with_wires : without_wires) += median(runs);
    }
  }
  result.set("elab.levelized.wire_data_ms",
             (with_wires - without_wires) * 1e3, "ms");
  counts.report(result);
}

}  // namespace

void run_fuzz_campaign(const Args& args, Result& result) {
  if (args.trace) {
    run_traced(args, result);
  } else {
    run_untraced(args, result);
  }
}

}  // namespace perfbench
