// serve_warm: an in-process serve::Server (2 workers) on a socket in the
// run's scratch directory, driven by 2 closed-loop clients through
// serve::request.  Every request is a verify of a kernel from a fixed
// pool on the batched engine with 8 lanes and a fresh lane seed; each
// kernel was submitted once during set-up, so every timed job is a
// design-cache hit.  This is the cache's read path plus the daemon's
// transport, queue and job table, multi-lane batched runs and per-lane
// golden runs; the compiler is skipped entirely.  A job is one request
// round trip.
#include <atomic>
#include <mutex>
#include <thread>

#include "fti/flow/flow.hpp"
#include "fti/fuzz/rand.hpp"
#include "fti/harness/suite_io.hpp"
#include "fti/serve/serve.hpp"
#include "fti/util/json.hpp"
#include "fti/util/json_reader.hpp"
#include "kernels.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using fti::harness::TestCase;

namespace {

constexpr std::uint32_t kLanes = 8;
constexpr std::uint32_t kWorkers = 2;
constexpr int kClients = 2;
constexpr int kSetups = 3;
constexpr std::size_t kTracedRequests = 200;
constexpr std::size_t kPings = 200;

/// The kernel pool (36 kernels, within the cache's 64 entries): the
/// example kernels as they are, plus seeded FDCT1 and FDCT2 at 1-8
/// blocks, Hamming at 64-512 words and wide kernels of 32-95 statements.
std::vector<fs::path> write_pool(const Args& args, const fs::path& dir) {
  fs::create_directories(dir);
  std::vector<fs::path> kernels;
  for (const fs::path& example : example_kernels(args)) {
    const std::string prefix = example.stem().string() + ".";
    for (const auto& entry : fs::directory_iterator(example.parent_path())) {
      if (entry.path().filename().string().rfind(prefix, 0) == 0) {
        fs::copy_file(entry.path(), dir / entry.path().filename(),
                      fs::copy_options::overwrite_existing);
      }
    }
    kernels.push_back(dir / example.filename());
  }
  for (std::size_t i = 1; i <= 8; ++i) {
    std::uint64_t seed = fti::fuzz::Rng::derive(args.seed, i);
    kernels.push_back(write_case(fdct_case(i, false, seed), dir));
    kernels.push_back(write_case(fdct_case(i, true, seed), dir));
    kernels.push_back(write_case(hamming_case(64 * i, seed), dir));
    kernels.push_back(write_case(wide_case(32 + 9 * (i - 1), seed), dir));
  }
  return kernels;
}

std::string verify_line(const fs::path& kernel, std::uint64_t lane_seed) {
  return "{\"cmd\": \"verify\", \"kernel\": \"" +
         fti::util::json_escape(kernel.string()) +
         "\", \"engine\": \"batched\", \"lanes\": " + std::to_string(kLanes) +
         ", \"lane_seed\": " + std::to_string(lane_seed) + "}";
}

/// Lane seeds stay below 2^53 so they survive the daemon's JSON numbers.
std::uint64_t lane_seed_of(std::uint64_t seed, std::uint64_t index) {
  return fti::fuzz::Rng::derive(seed, index) >> 11;
}

/// One client's view of its requests.
struct ClientLog {
  std::vector<double> seconds;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
};

/// Sends one verify and checks the reply: accepted, finished, passed,
/// and a cache hit exactly when `warm`.
void send_verify(const fs::path& socket, const fs::path& kernel,
                 std::uint64_t lane_seed, bool warm, ClientLog& log) {
  ++log.attempted;
  Clock::time_point start = Clock::now();
  try {
    fti::util::JsonValue reply = fti::util::parse_json(
        fti::serve::request(socket, verify_line(kernel, lane_seed)));
    double seconds = seconds_since(start);
    const fti::util::JsonValue* ok = reply.find("ok");
    if (ok == nullptr || !ok->as_bool()) {
      log.failures.push_back(kernel.filename().string() + ": request refused");
    } else if (reply.at("status").as_string() != "done" ||
               reply.at("exit_code").as_u64() != 0) {
      log.failures.push_back(
          kernel.filename().string() + ": status " +
          reply.at("status").as_string() + ", exit " +
          std::to_string(reply.at("exit_code").as_u64()) + " " +
          reply.at("errors").as_string());
    } else if (reply.at("cache_hit").as_bool() != warm) {
      log.failures.push_back(kernel.filename().string() +
                             (warm ? ": cache miss" : ": cache hit"));
    } else {
      log.seconds.push_back(seconds);
    }
  } catch (const std::exception& error) {
    log.failures.push_back(kernel.filename().string() + ": " + error.what());
  }
}

void merge(const ClientLog& log, Result& result) {
  result.attempt(log.attempted);
  for (const std::string& failure : log.failures) {
    result.fail(failure);
  }
}

/// Starts a daemon and submits every pool kernel once, split between the
/// clients, so the design cache holds the whole pool.
std::unique_ptr<fti::serve::Server> start_server(
    const Args& args, const std::vector<fs::path>& pool, Result& result) {
  fti::serve::ServerOptions options;
  options.socket_path = args.scratch / "serve.sock";
  options.jobs = kWorkers;
  auto server = std::make_unique<fti::serve::Server>(options);
  server->start();
  std::vector<ClientLog> logs(kClients);
  std::vector<std::jthread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = c; i < pool.size(); i += kClients) {
        send_verify(options.socket_path, pool[i], 1, false, logs[c]);
      }
    });
  }
  clients.clear();  // joins
  for (const ClientLog& log : logs) {
    merge(log, result);
  }
  return server;
}

void run_untraced(const Args& args, Result& result) {
  std::vector<double> setups;
  std::unique_ptr<fti::serve::Server> server;
  std::vector<fs::path> pool;
  for (int round = 0; round < kSetups; ++round) {
    server.reset();  // shut the previous round's daemon down first
    Clock::time_point start = Clock::now();
    pool = write_pool(args, args.scratch / ("pool-" + std::to_string(round)));
    server = start_server(args, pool, result);
    setups.push_back(seconds_since(start));
  }

  std::atomic<std::uint64_t> requests{0};
  std::vector<ClientLog> logs(kClients);
  std::vector<std::jthread> clients;
  Clock::time_point start = Clock::now();
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Both clients walk the pool round-robin, so every run weighs the
      // kernels alike; the seed varies the lane stimuli and kernel data.
      while (seconds_since(start) < args.seconds) {
        std::uint64_t n = requests.fetch_add(1);
        send_verify(server->socket_path(), pool[n % pool.size()],
                    lane_seed_of(args.seed, n), true, logs[c]);
      }
    });
  }
  clients.clear();  // joins
  double wall = seconds_since(start);
  std::vector<double> job_seconds;
  for (const ClientLog& log : logs) {
    merge(log, result);
    job_seconds.insert(job_seconds.end(), log.seconds.begin(),
                       log.seconds.end());
  }
  report_cache(result, server->cache().stats(), false);
  server.reset();
  report_jobs(result, job_seconds, wall);
  result.set("setup_s", median(setups), "s");
  result.note("peak_rss_mb", peak_rss_mb(), "MB");
}

void run_traced(const Args& args, Result& result) {
  std::vector<fs::path> pool = write_pool(args, args.scratch / "pool");
  std::unique_ptr<fti::serve::Server> server =
      start_server(args, pool, result);

  // Transport and dispatch alone: ping carries no job.
  std::vector<double> pings;
  for (std::size_t i = 0; i < kPings; ++i) {
    Clock::time_point start = Clock::now();
    fti::serve::request(server->socket_path(), "{\"cmd\": \"ping\"}");
    pings.push_back(seconds_since(start));
  }
  result.set("serve.ping_ms", median(pings) * 1e3, "ms");

  // The same warm requests three ways: through the daemon, through
  // run_verify in process, and replayed call by call.
  std::vector<std::pair<std::size_t, std::uint64_t>> requests;
  for (std::size_t n = 0; n < kTracedRequests; ++n) {
    requests.emplace_back(n % pool.size(), lane_seed_of(args.seed, n));
  }
  ClientLog daemon;
  for (const auto& [kernel, lane_seed] : requests) {
    send_verify(server->socket_path(), pool[kernel], lane_seed, true, daemon);
  }
  merge(daemon, result);
  report_cache(result, server->cache().stats(), true);
  server.reset();

  std::vector<TestCase> tests;
  for (const fs::path& kernel : pool) {
    tests.push_back(fti::harness::load_test_case(kernel));
  }
  fti::cache::DesignCache cache(64);
  std::ostream discard(nullptr);
  auto verify = [&](std::size_t kernel, std::uint64_t lane_seed) {
    fti::flow::VerifyRequest request;
    request.test = tests[kernel];
    request.engine = "batched";
    request.lanes = kLanes;
    request.lane_seed = lane_seed;
    fti::flow::VerifyResult verified = fti::flow::run_verify(
        request, fti::flow::FlowContext{&cache, nullptr}, discard, discard);
    if (verified.exit_code != 0) {
      result.wrong(tests[kernel].name + ": in-process verify failed");
    }
  };
  for (std::size_t kernel = 0; kernel < tests.size(); ++kernel) {
    verify(kernel, 1);
  }
  fti::cache::DesignCache replay_cache(64);
  ReplayOptions options;
  options.engine = "batched";
  options.lanes = kLanes;
  options.cache = &replay_cache;
  {
    SpanLog warm_spans;
    Counts warm_counts;
    for (const TestCase& test : tests) {
      replay_verify(test, options, warm_spans, warm_counts);
    }
  }
  // Each request twice back to back against the warm caches: through
  // run_verify in process, and replayed call by call.
  std::vector<double> in_process;
  SpanLog spans;
  Counts counts;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& [kernel, lane_seed] = requests[i];
    options.lane_seed = lane_seed;
    ReplayOutcome outcome;
    run_pair(
        i % 2 == 1,
        [&] {
          Clock::time_point start = Clock::now();
          verify(kernel, lane_seed);
          in_process.push_back(seconds_since(start));
        },
        [&] { outcome = replay_verify(tests[kernel], options, spans, counts); });
    if (!outcome.passed || !outcome.cache_hit) {
      result.wrong("replay of " + tests[kernel].name + ": " +
                   (outcome.cache_hit ? outcome.message : "cache miss"));
    }
  }
  result.set("serve.overhead_ms",
             (median(daemon.seconds) - median(in_process)) * 1e3, "ms");

  double in_process_total = 0;
  for (double seconds : in_process) {
    in_process_total += seconds;
  }
  report_verify_layers(result, spans, requests.size(), in_process_total);
  double sim = spans.total("elab.batched.sim");
  result.set("elab.batched.sim_ms", sim / requests.size() * 1e3, "ms");
  result.set("elab.batched.lane_ns_per_cycle",
             sim / static_cast<double>(counts.cycles) * 1e9, "ns");
  counts.report(result);
}

}  // namespace

void run_serve_warm(const Args& args, Result& result) {
  if (args.trace) {
    run_traced(args, result);
  } else {
    run_untraced(args, result);
  }
}

}  // namespace perfbench
