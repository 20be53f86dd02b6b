// Shared plumbing of the benchmark program: run arguments, sample
// statistics, the result line, and the span log of traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Per-run scratch directory inside the checkout (created and removed
  /// by run.py).  Kept relative so the serve socket path stays short.
  std::filesystem::path scratch;
  /// Repository root, for examples/kernels.
  std::filesystem::path root;
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

/// What one run reports: the verdict, the attempt counts and the named
/// metrics, printed as the final JSON line.
class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// A figure printed in the table only, not in the JSON line (workload-
  /// specific views such as per-engine cycle rates).
  void note(const std::string& name, double value, const std::string& unit);
  /// Records one wrong output (or refused/failed operation) with a reason
  /// printed to stderr; the run then reports correct = false.
  void fail(const std::string& why);
  void attempt(std::uint64_t count = 1) { attempted_ += count; }

  /// No failure, no wrong output, and at least one attempt.
  bool correct() const { return failed_ == 0 && !wrong_ && attempted_ > 0; }
  /// A wrong output that is not one attempt (e.g. a broken invariant of
  /// the whole run) -- fails the run without counting an attempt.
  void wrong(const std::string& why);

  /// A human-readable table followed by the single-line JSON result.
  void print() const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, Metric> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool wrong_ = false;
};

/// End-to-end job statistics shared by every workload: closed-loop
/// latencies of one "job" (what a job is depends on the workload).
void report_jobs(Result& result, const std::vector<double>& job_seconds,
                 double wall_seconds);

/// Runs `first` then `second`, or the other way round when `swap`.
/// Paired measurements alternate so that neither side always runs on
/// caches the other has warmed.
template <typename First, typename Second>
void run_pair(bool swap, First&& first, Second&& second) {
  if (swap) {
    second();
    first();
  } else {
    first();
    second();
  }
}

/// Spans of a traced run, kept in memory and summed by name at the end.
/// Each span nests under the one open when it started.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0;     ///< seconds since the log was created
    double duration = 0;  ///< seconds
    int parent = -1;      ///< index of the enclosing span, -1 at top level
  };

  class Scope {
   public:
    Scope(SpanLog& log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_;
  };

  /// Runs `body` inside a span named `name` and returns its result (if
  /// any).
  template <typename Body>
  auto time(const std::string& name, Body&& body) {
    Scope scope(*this, name);
    return body();
  }

  /// Total seconds of every span named `name`.
  double total(const std::string& name) const;
  /// Total seconds of the direct children of spans named `parent`.
  double children_total(const std::string& parent) const;

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace perfbench
