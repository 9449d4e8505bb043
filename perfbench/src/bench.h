// Shared pieces of the same-host benchmark: arguments, the result report,
// sample statistics, span recording, seeded inputs and output checks.
//
// Each workload lives in its own file and fills a Report. An untraced run
// (--trace 0) reports the end-to-end metrics; a traced run (--trace 1)
// reports the per-layer metrics (see perfbench/CATALOGUE.md).

#ifndef CUPID_PERFBENCH_BENCH_H_
#define CUPID_PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cupid_matcher.h"
#include "eval/synthetic.h"
#include "incremental/schema_edit.h"
#include "obs/trace.h"
#include "schema/schema.h"
#include "util/mutex.h"
#include "util/random.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for span dumps (inside the checkout's build directory).
  std::string out_dir = ".";
};

/// What a run prints: attempted/failed operation counts, the metrics of
/// the run's mode, and descriptive lines (inputs, percentiles used) that
/// precede the result line.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> notes;
  std::map<std::string, double> metrics;

  void Fail(const std::string& why);
  void Set(const std::string& name, double value) { metrics[name] = value; }
};

/// Latency samples with linear-interpolated quantiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Mean() const;

 private:
  std::vector<double> values_;
};

/// The percentile a workload reports as its tail.
struct Tail {
  double q;
  const char* name;
};

/// A fixed computation compiled into the benchmark, timed at even
/// intervals over a run as a measure of the host's momentary speed. On a
/// shared VM that speed drifts by a fifth and more from one minute to the
/// next and moves every latency with it. The reference depends on nothing
/// in the program, so a change to the program moves the latencies and not
/// the reference; their ratio keeps the change and drops most of the drift.
class HostReference {
 public:
  /// Times the reference once if 100 ms have passed since the last time.
  void TimeIfDue();
  double MedianMs() const { return samples_.Median(); }
  size_t size() const { return samples_.size(); }

 private:
  Clock::time_point last_ = Clock::now();
  Samples samples_;
};

/// Reports p50_ref: the median of `latencies` over the median time of
/// `reference` in the same run. Notes the sample count, the median, p90,
/// the tail percentile's value and whether at least ten samples lie beyond
/// it, the closed loop's operations per second, and the reference time.
void ReportLatency(const Samples& latencies, Tail tail,
                   const HostReference& reference, Report* report);

/// The benchmark's own spans: one per call into a layer's public function.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t id;
    int64_t parent;  ///< -1 at top level
    int64_t request;
    int64_t start_us;
    int64_t end_us;
  };
  int64_t Open(const char* name, int64_t parent, int64_t request);
  /// Closes span `id`; returns its duration in milliseconds.
  double Close(int64_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// Collects the spans the program emits through obs::SetGlobalTraceSink.
class ProgramSpans : public cupid::obs::TraceSink {
 public:
  void Emit(const cupid::obs::SpanRecord& span) override;
  /// Moves out the spans emitted since the last call, tagging them with
  /// the benchmark request id and parent span for the dump.
  std::vector<cupid::obs::SpanRecord> Take(int64_t request, int64_t parent);

 private:
  struct Tagged {
    cupid::obs::SpanRecord span;
    int64_t request;
    int64_t parent;
  };
  friend void WriteSpans(const std::string& path, const SpanLog& log,
                         const ProgramSpans& program);
  cupid::Mutex mu_;
  std::vector<cupid::obs::SpanRecord> pending_;
  std::vector<Tagged> taken_;
};

/// Installs `sink` as the program's trace sink for the scope.
class ScopedSink {
 public:
  explicit ScopedSink(cupid::obs::TraceSink* sink) {
    cupid::obs::SetGlobalTraceSink(sink);
  }
  ~ScopedSink() { cupid::obs::SetGlobalTraceSink(nullptr); }
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;
};

/// Writes both span sets as JSONL (one object per span).
void WriteSpans(const std::string& path, const SpanLog& log,
                const ProgramSpans& program);

/// Value of attribute `key` of a program span, or `fallback`.
double SpanAttr(const cupid::obs::SpanRecord& span, const char* key,
                double fallback = 0.0);

/// Runs fn(i) for every i in [0, n) on four threads (oracle and
/// verification work after or before the timed phase, never inside it).
void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

/// Peak resident set of this process, MB.
double SelfPeakRssMb();

/// Set-up repetitions spread over a run; setup_s is their median. The
/// host's speed drifts over seconds, so repetitions run back to back all
/// see one moment; spread over the run, they see the mix of moments the
/// operations see. Repetitions after the first build a throwaway copy of
/// the state, which `teardown` drops untimed.
class SetupSampler {
 public:
  /// `repetitions` in all: the caller times the first at once, the rest
  /// fall due at even intervals over the next `seconds`.
  SetupSampler(int repetitions, double seconds)
      : repetitions_(repetitions), seconds_(seconds) {}

  /// Times one run of `setup`.
  template <typename F>
  void Time(F&& setup) {
    Clock::time_point t0 = Clock::now();
    setup();
    samples_.Add(MsBetween(t0, Clock::now()) / 1000.0);
  }
  /// Times `setup` and runs `teardown` if the next repetition is due.
  template <typename F, typename G>
  void TimeIfDue(F&& setup, G&& teardown) {
    const int done = static_cast<int>(samples_.size());
    if (done == 0 || done >= repetitions_) return;
    const double due_s = seconds_ * done / repetitions_;
    if (MsBetween(start_, Clock::now()) / 1000.0 < due_s) return;
    Time(setup);
    teardown();
  }
  /// Times the repetitions that did not fall due during the run.
  template <typename F, typename G>
  void TimeRemaining(F&& setup, G&& teardown) {
    while (static_cast<int>(samples_.size()) < repetitions_) {
      Time(setup);
      teardown();
    }
  }
  double MedianSeconds() const { return samples_.Median(); }

 private:
  const int repetitions_;
  const double seconds_;
  const Clock::time_point start_ = Clock::now();
  Samples samples_;
};

// ------------------------------------------------------------- inputs --

/// Seed of one input stream of a run: the workload seed mixed with a
/// stream tag, so streams are independent and each is fixed by the seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// Round-trips `schema` through the native-format importer, the path the
/// program's inputs take in a deployment.
cupid::Schema ThroughImporter(const cupid::Schema& schema);

/// A synthetic pair of about `elements` per side; Zipf-skewed names when
/// `zipf` is true.
cupid::SyntheticPair MakePair(int elements, bool zipf, uint64_t seed);

/// Deterministic single-element edit generator. kind: 0 rename, 1 retype,
/// 2 add a leaf, 3 remove a leaf. Targets only elements whose path is
/// unique, so the edit addresses exactly one element.
class EditGenerator {
 public:
  explicit EditGenerator(uint64_t seed) : rng_(seed) {}
  cupid::SchemaEdit Make(const cupid::Schema& schema, int kind,
                         cupid::EditSide side);

 private:
  cupid::ElementId PickElement(const cupid::Schema& schema, bool leaf,
                               bool container);
  cupid::SplitMix64 rng_;
  int counter_ = 0;
};

// ------------------------------------------------------------- checks --

/// Bit-for-bit comparison of two match results: element lsim, node
/// lsim/ssim/wsim, and both mappings. Returns "" when equal, else the
/// first difference.
std::string CompareResults(const cupid::MatchResult& got,
                           const cupid::MatchResult& want);

/// Digest of every bit CompareResults compares; the form reference
/// results are kept in, so they do not weigh on the measured memory.
uint64_t ResultDigest(const cupid::MatchResult& result);

/// Digest of both mappings (paths and the bit patterns of every
/// similarity), the compact form edit_rematch keeps per response.
uint64_t MappingDigest(const cupid::Mapping& leaf,
                       const cupid::Mapping& nonleaf);

/// Protocol frame check: protocol version 1 and status ok.
std::string CheckFrame(const std::string& line);

/// Protocol response check: the mappings of a match response line equal
/// the rendering of (`leaf`, `nonleaf`) byte for byte.
std::string CompareMappingJson(const std::string& line,
                               const cupid::Mapping& leaf,
                               const cupid::Mapping& nonleaf);

/// Feeds each output check a corrupted result and confirms it reports a
/// failure. Returns the number of checks that did NOT catch corruption.
int RunCheckSelfTest(Report* report);

// ---------------------------------------------------------- workloads --

void RunColdMatch(const Args& args, Report* report);
void RunEditRematch(const Args& args, Report* report);

}  // namespace perfbench

#endif  // CUPID_PERFBENCH_BENCH_H_
