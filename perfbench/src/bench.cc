// Entry point of the same-host benchmark and the pieces every workload
// shares: argument parsing, the build check, statistics, span recording
// and the result line.
//
//   cupid_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--out-dir <dir>]
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:value,...}}
// holding the metrics the workload set for the run's mode; run.py orders
// them and adds their units from BENCHMARK.json. Earlier lines describe
// the host, the build and the generated inputs.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "util/json.h"
#include "util/strings.h"

namespace perfbench {

void Report::Fail(const std::string& why) {
  ++failed;
  // Keep the first few reasons; a systematic failure would flood stdout.
  if (failed <= 5) notes.push_back("{\"failure\":\"" + cupid::JsonEscape(why) +
                                   "\"}");
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

namespace {

/// The reference computation: trigram overlap between the words of a fixed
/// vocabulary, through a hash map (like the linguistic layer's name
/// tokens), then a sweep of a float matrix (like the structural layer's
/// similarity matrices). About 3 ms on the 4-vCPU VM of the baseline.
double ReferenceWork() {
  static const std::vector<std::string> words = [] {
    std::vector<std::string> out;
    cupid::SplitMix64 rng(7);
    for (int i = 0; i < 100; ++i) {
      std::string w;
      const uint64_t n = 4 + rng.NextBounded(8);
      for (uint64_t j = 0; j < n; ++j) {
        w += static_cast<char>('a' + rng.NextBounded(26));
      }
      out.push_back(w);
    }
    return out;
  }();
  double common = 0;
  std::unordered_map<std::string, int> grams;
  for (const std::string& a : words) {
    grams.clear();
    for (size_t k = 0; k + 3 <= a.size(); ++k) ++grams[a.substr(k, 3)];
    for (const std::string& b : words) {
      for (size_t k = 0; k + 3 <= b.size(); ++k) {
        common += grams.count(b.substr(k, 3)) != 0 ? 1 : 0;
      }
    }
  }
  constexpr int kSide = 256;
  std::vector<float> m(kSide * kSide, 0.0f);
  for (int rep = 0; rep < 3; ++rep) {
    for (int i = 1; i < kSide; ++i) {
      for (int j = 1; j < kSide; ++j) {
        float v = 0.5f * m[(i - 1) * kSide + j] + 0.25f * m[i * kSide + j - 1] +
                  0.001f * static_cast<float>(i ^ j);
        m[i * kSide + j] = v > 1.0f ? v - 1.0f : v;
      }
    }
  }
  return common + m.back();
}

}  // namespace

void HostReference::TimeIfDue() {
  const Clock::time_point now = Clock::now();
  if (MsBetween(last_, now) < 100.0) return;
  volatile double sink = ReferenceWork();
  (void)sink;
  last_ = Clock::now();
  samples_.Add(MsBetween(now, last_));
}

void ReportLatency(const Samples& latencies, Tail tail,
                   const HostReference& reference, Report* report) {
  const double n = static_cast<double>(latencies.size());
  const bool enough = n * (1.0 - tail.q) >= 10.0;
  report->notes.push_back(cupid::StringFormat(
      "{\"latency\":{\"samples\":%zu,\"p50_ms\":%.4f,\"p90_ms\":%.4f,"
      "\"tail\":\"%s\",\"tail_ms\":%.4f,\"ten_beyond_tail\":%s,"
      "\"ops_per_s\":%.4f,\"reference_ms\":%.4f,"
      "\"reference_samples\":%zu}}",
      latencies.size(), latencies.Median(), latencies.Quantile(0.9),
      tail.name, latencies.Quantile(tail.q), enough ? "true" : "false",
      1000.0 / latencies.Mean(), reference.MedianMs(), reference.size()));
  report->Set("p50_ref", latencies.Median() / reference.MedianMs());
}

int64_t SpanLog::Open(const char* name, int64_t parent, int64_t request) {
  int64_t id = static_cast<int64_t>(spans_.size());
  int64_t now = std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now() - epoch_)
                    .count();
  spans_.push_back(Span{name, id, parent, request, now, now});
  return id;
}

double SpanLog::Close(int64_t id) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_us = std::chrono::duration_cast<std::chrono::microseconds>(
                 Clock::now() - epoch_)
                 .count();
  return static_cast<double>(s.end_us - s.start_us) / 1000.0;
}

void ProgramSpans::Emit(const cupid::obs::SpanRecord& span) {
  cupid::MutexLock lock(&mu_);
  pending_.push_back(span);
}

std::vector<cupid::obs::SpanRecord> ProgramSpans::Take(int64_t request,
                                                       int64_t parent) {
  cupid::MutexLock lock(&mu_);
  std::vector<cupid::obs::SpanRecord> out;
  out.swap(pending_);
  for (const auto& s : out) taken_.push_back(Tagged{s, request, parent});
  return out;
}

void WriteSpans(const std::string& path, const SpanLog& log,
                const ProgramSpans& program) {
  std::ofstream out(path);
  for (const SpanLog::Span& s : log.spans()) {
    out << "{\"src\":\"bench\",\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
        << "}\n";
  }
  for (const ProgramSpans::Tagged& t : program.taken_) {
    const cupid::obs::SpanRecord& s = t.span;
    out << "{\"src\":\"program\",\"name\":\"" << s.name
        << "\",\"parent\":" << t.parent << ",\"request\":" << t.request
        << ",\"depth\":" << s.depth << ",\"start_us\":" << s.start_us
        << ",\"end_us\":" << s.start_us + s.duration_us << ",\"attrs\":{";
    for (size_t i = 0; i < s.attr_count; ++i) {
      out << (i ? "," : "") << "\"" << s.attrs[i].key
          << "\":" << s.attrs[i].value;
    }
    out << "}}\n";
  }
}

double SpanAttr(const cupid::obs::SpanRecord& span, const char* key,
                double fallback) {
  for (size_t i = 0; i < span.attr_count; ++i) {
    if (std::strcmp(span.attrs[i].key, key) == 0) return span.attrs[i].value;
  }
  return fallback;
}

void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& w : workers) w.join();
}

double SelfPeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

/// Refuses unoptimized or instrumented builds of libcupid: their numbers
/// say nothing about the shipped program. Returns "" when acceptable.
std::string BuildProblem() {
  std::string flags = PERFBENCH_LIB_FLAGS;
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    return std::string("libcupid build type is '") + PERFBENCH_BUILD_TYPE +
           "', not Release";
  }
  if (flags.find("-fsanitize") != std::string::npos) {
    return "libcupid is built with a sanitizer: " + flags;
  }
  if (flags.find("-O2") == std::string::npos &&
      flags.find("-O3") == std::string::npos) {
    return "libcupid is built without optimization: " + flags;
  }
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG unset)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "the benchmark itself is built with a sanitizer";
#endif
  return "";
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) {
    std::fprintf(stderr, "flags take one value each\n");
    return false;
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: cupid_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  std::string problem = BuildProblem();
  std::printf("{\"host\":{\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":"
              "\"%s\",\"lib_flags\":\"%s\"}}\n",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE,
              cupid::JsonEscape(PERFBENCH_LIB_FLAGS).c_str());
  if (!problem.empty()) {
    std::fprintf(stderr, "refusing to report: %s\n", problem.c_str());
    return 3;
  }

  const std::map<std::string, std::function<void(const Args&, Report*)>>
      workloads = {{"cold_match", RunColdMatch},
                   {"edit_rematch", RunEditRematch}};
  auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  Report report;
  int uncaught = RunCheckSelfTest(&report);
  it->second(args, &report);
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }

  std::string metrics;
  for (const auto& [name, value] : report.metrics) {
    // A ratio over an empty sample is left out, as if never set.
    if (!std::isfinite(value)) continue;
    if (!metrics.empty()) metrics += ",";
    metrics += cupid::StringFormat("\"%s\":%.9g", name.c_str(), value);
  }
  const bool correct = uncaught == 0 && report.failed == 0 &&
                       report.attempted > 0;
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(report.attempted, 1)),
              static_cast<long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
