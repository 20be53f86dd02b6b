// compile_cold: flow::run_verify on seeded kernels that never repeat, with
// the defaults (artefacts on, semantic lint on, event engine) and a design
// cache of the daemon's default capacity attached -- so every job is a
// cache miss plus an insert, and the cache evicts once full.  Compiler,
// lint, XML and codegen work dominates; simulations are short.  This is
// also the cache's write path.  A job is one run_verify.
#include <algorithm>
#include <map>
#include <stdexcept>

#include "fti/flow/flow.hpp"
#include "fti/fuzz/rand.hpp"
#include "fti/harness/suite_io.hpp"
#include "kernels.hpp"
#include "workloads.hpp"

namespace perfbench {

using fti::harness::TestCase;

namespace {

constexpr std::size_t kCacheEntries = 64;  // serve::ServerOptions default
constexpr int kSetups = 5;
constexpr std::size_t kTracedJobs = 32;

/// The never-repeating kernel stream.  Families come in a fixed rotation;
/// the n-th kernel of a family takes variant (n * 97) mod (32 * sizes) of
/// the family's sizes x 8 unit limits x 4 read-port counts -- a fixed
/// permutation that steps through every size once per `sizes` kernels,
/// so no variant repeats and every run weighs the same mix for any seed.
/// The seed draws the wide kernels' operands and every kernel's input
/// data (wide kernels never repeat: their operands are random).
class KernelStream {
 public:
  KernelStream(std::uint64_t seed, std::vector<TestCase> examples)
      : seed_(seed), examples_(std::move(examples)) {}

  TestCase next() {
    // Wide kernels fill just over half the slots, so the median job lies
    // inside their dense, size-graded cost range rather than in the gap
    // between them and the small golden and example kernels.
    static const char kRotation[] = "wfwxwhwewmww";
    const std::uint64_t job = jobs_++;
    char family = kRotation[job % (sizeof(kRotation) - 1)];
    std::uint64_t n = drawn_[family]++;
    if (n >= 32 * sizes(family)) {
      family = 'w';  // variants used up: fresh random statements are new
      n = drawn_[family]++;
    }
    const std::uint64_t variants = sizes(family);
    const std::uint64_t variant = n * 97 % (32 * variants);
    TestCase test =
        draw(family, variant % variants, fti::fuzz::Rng::derive(seed_, job));
    test.resources.default_limit =
        static_cast<unsigned>(1 + variant / variants % 8);
    test.resources.default_memory_read_ports =
        static_cast<unsigned>(1 + variant / (8 * variants) % 4);
    return test;
  }

 private:
  std::uint64_t sizes(char family) const {
    switch (family) {
      case 'f':
        return 4;  // 1-2 blocks x FDCT1/FDCT2
      case 'x':
        return 25 * 7;  // 8-32 samples x 2-8 taps
      case 'm':
        return 5;  // 2x2 .. 6x6
      case 'h':
        return 113;  // 16-128 words
      case 'e':
        return examples_.size();
      default:
        return 33;  // 32-256 statements in steps of 7
    }
  }

  TestCase draw(char family, std::uint64_t size, std::uint64_t data_seed) {
    switch (family) {
      case 'f':
        return fdct_case(1 + size % 2, size / 2 == 1, data_seed);
      case 'x':
        return fir_case(8 + size % 25, 2 + size / 25, data_seed);
      case 'm':
        return matmul_case(2 + size, data_seed);
      case 'h':
        return hamming_case(16 + size, data_seed);
      case 'e':
        return examples_[size];
      default:
        return wide_case(32 + 7 * size, data_seed);
    }
  }

  std::uint64_t seed_;
  std::vector<TestCase> examples_;
  std::map<char, std::uint64_t> drawn_;
  std::uint64_t jobs_ = 0;
};

}  // namespace

std::vector<std::filesystem::path> example_kernels(const Args& args) {
  std::vector<std::filesystem::path> kernels;
  for (const auto& entry : std::filesystem::directory_iterator(
           args.root / "examples" / "kernels")) {
    if (entry.path().extension() == ".k") {
      kernels.push_back(entry.path());
    }
  }
  std::sort(kernels.begin(), kernels.end());
  if (kernels.empty()) {
    throw std::runtime_error("no example kernels under examples/kernels");
  }
  return kernels;
}

namespace {

std::vector<TestCase> load_examples(const Args& args) {
  std::vector<TestCase> examples;
  for (const std::filesystem::path& kernel : example_kernels(args)) {
    examples.push_back(fti::harness::load_test_case(kernel));
  }
  return examples;
}

/// One cold verify; false (with the failure recorded) unless it passed as
/// a cache miss.
bool verify_cold(const TestCase& test, fti::cache::DesignCache& cache,
                 Result& result) {
  std::ostream discard(nullptr);
  fti::flow::VerifyRequest request;
  request.test = test;
  fti::flow::FlowContext context{&cache, nullptr};
  result.attempt();
  try {
    fti::flow::VerifyResult verify =
        fti::flow::run_verify(request, context, discard, discard);
    if (verify.exit_code != 0 || !verify.outcome.passed) {
      result.fail(test.name + ": exit " + std::to_string(verify.exit_code) +
                  " " + verify.outcome.message);
      return false;
    }
    if (verify.outcome.cache_hit) {
      result.fail(test.name + ": unexpected cache hit");
      return false;
    }
  } catch (const std::exception& error) {
    result.fail(test.name + ": " + error.what());
    return false;
  }
  return true;
}

void run_untraced(const Args& args, Result& result) {
  // Set-up: load the example kernels, create the cache, and run one cold
  // verify of a fixed-size kernel to pay first-use costs.
  std::vector<double> setups;
  std::unique_ptr<fti::cache::DesignCache> cache;
  std::unique_ptr<KernelStream> stream;
  for (int round = 0; round < kSetups; ++round) {
    Clock::time_point start = Clock::now();
    stream = std::make_unique<KernelStream>(args.seed, load_examples(args));
    cache = std::make_unique<fti::cache::DesignCache>(kCacheEntries);
    verify_cold(wide_case(64, args.seed + round), *cache, result);
    setups.push_back(seconds_since(start));
  }

  std::vector<double> job_seconds;
  Clock::time_point start = Clock::now();
  while (seconds_since(start) < args.seconds) {
    TestCase test = stream->next();
    Clock::time_point job_start = Clock::now();
    if (verify_cold(test, *cache, result)) {
      job_seconds.push_back(seconds_since(job_start));
    }
  }
  double wall = seconds_since(start);
  report_jobs(result, job_seconds, wall);
  result.set("setup_s", median(setups), "s");
  result.note("peak_rss_mb", peak_rss_mb(), "MB");
  report_cache(result, cache->stats(), false);
}

void run_traced(const Args& args, Result& result) {
  std::vector<TestCase> examples = load_examples(args);
  std::vector<TestCase> jobs;
  KernelStream stream(args.seed, examples);
  for (std::size_t i = 0; i < kTracedJobs; ++i) {
    jobs.push_back(stream.next());
  }

  // Each kernel twice back to back, into caches of its own: untraced
  // through run_verify, and replayed call by call.
  fti::cache::DesignCache cache(kCacheEntries);
  fti::cache::DesignCache replay_cache(kCacheEntries);
  SpanLog spans;
  Counts counts;
  double untraced = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const TestCase& test = jobs[i];
    ReplayOptions options;
    options.cache = &replay_cache;
    ReplayOutcome outcome;
    run_pair(
        i % 2 == 1,
        [&] {
          Clock::time_point start = Clock::now();
          verify_cold(test, cache, result);
          untraced += seconds_since(start);
        },
        [&] { outcome = replay_verify(test, options, spans, counts); });
    if (!outcome.passed || outcome.cache_hit) {
      result.wrong("replay of " + test.name + ": " +
                   (outcome.cache_hit ? "unexpected cache hit"
                                      : outcome.message));
    }
  }
  report_cache(result, cache.stats(), true);
  report_verify_layers(result, spans, jobs.size(), untraced);
  double sim = spans.total("elab.event.sim");
  result.set("elab.event.sim_ms", sim / jobs.size() * 1e3, "ms");
  result.set("elab.event.ns_per_cycle",
             sim / static_cast<double>(counts.cycles) * 1e9, "ns");
  counts.report(result);
}

}  // namespace

void run_compile_cold(const Args& args, Result& result) {
  if (args.trace) {
    run_traced(args, result);
  } else {
    run_untraced(args, result);
  }
}

}  // namespace perfbench
