#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double position = q * static_cast<double>(values.size() - 1);
  std::size_t below = static_cast<std::size_t>(position);
  if (below + 1 >= values.size()) {
    return values.back();
  }
  double fraction = position - static_cast<double>(below);
  return values[below] + fraction * (values[below + 1] - values[below]);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    wrong("metric " + name + " is not a finite number");
    value = 0;
  }
  metrics_[name] = Metric{value, unit};
}

void Result::note(const std::string& name, double value,
                  const std::string& unit) {
  notes_[name] = Metric{value, unit};
}

void Result::fail(const std::string& why) {
  ++failed_;
  // The first few reasons are enough to diagnose; a systematic failure
  // would otherwise flood stderr once per job.
  if (failed_ <= 5) {
    std::cerr << "perfbench: FAIL: " << why << "\n";
  }
}

void Result::wrong(const std::string& why) {
  wrong_ = true;
  std::cerr << "perfbench: WRONG: " << why << "\n";
}

void Result::print() const {
  auto row = [](const std::string& name, const Metric& metric) {
    std::printf("%-32s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  };
  for (const auto& [name, metric] : metrics_) {
    row(name, metric);
  }
  for (const auto& [name, metric] : notes_) {
    row(name, metric);
  }
  row("fail_ratio", Metric{attempted_ > 0 ? static_cast<double>(failed_) /
                                                static_cast<double>(attempted_)
                                          : 1.0,
                           "ratio"});
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  attempted_, 1)),
              static_cast<unsigned long long>(failed_));
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void report_jobs(Result& result, const std::vector<double>& job_seconds,
                 double wall_seconds) {
  result.set("jobs_per_s",
             wall_seconds > 0 ? job_seconds.size() / wall_seconds : 0, "1/s");
  result.set("job_ms_p50", quantile(job_seconds, 0.50) * 1e3, "ms");
  result.set("job_ms_p95", quantile(job_seconds, 0.95) * 1e3, "ms");
}

SpanLog::Scope::Scope(SpanLog& log, std::string name) : log_(log) {
  index_ = static_cast<int>(log_.spans_.size());
  log_.spans_.push_back(
      Span{std::move(name), seconds_since(log_.epoch_), 0, log_.open_});
  log_.open_ = index_;
}

SpanLog::Scope::~Scope() {
  Span& span = log_.spans_[static_cast<std::size_t>(index_)];
  span.duration = seconds_since(log_.epoch_) - span.start;
  log_.open_ = span.parent;
}

double SpanLog::total(const std::string& name) const {
  double sum = 0;
  for (const Span& span : spans_) {
    if (span.name == name) {
      sum += span.duration;
    }
  }
  return sum;
}

double SpanLog::children_total(const std::string& parent) const {
  double sum = 0;
  for (const Span& span : spans_) {
    if (span.parent >= 0 &&
        spans_[static_cast<std::size_t>(span.parent)].name == parent) {
      sum += span.duration;
    }
  }
  return sum;
}

}  // namespace perfbench
