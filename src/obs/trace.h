// Scoped-span tracing: structured phase-boundary timings as JSONL records
// to a pluggable sink, with a guaranteed zero-cost disabled path.
//
// Spans give every traced phase one structured record shape
// (docs/OBSERVABILITY.md lists the span taxonomy) while keeping the
// non-negotiable property that observability never influences match
// results: a span only reads clocks and writes to the sink; nothing in
// match code branches on tracing state except the trace emission itself.
// tests/obs_test.cc asserts bit-identical match results traced vs
// untraced through the differential harness.
//
// Cost model:
//   * Disabled (no sink installed): ScopedSpan's constructor is one
//     relaxed atomic load; Attr() and the destructor are no-ops. No
//     clock reads, no allocation, nothing.
//   * Enabled: two steady_clock reads per span, attributes in a
//     fixed-capacity inline array, one formatted write on destruction.
//     Still no heap allocation per span.
//
// Nesting: spans record their depth from the active TraceContext, and
// because emission happens in the destructor, inner spans appear in the
// stream before the outer span that contains them (close order).
//
// Context: services install a TraceContext per request with
// ScopedTraceContext (thread-local). Code running outside any installed
// context — direct MatchSession use, CLI tools, tests — falls back to a
// process-wide ambient context: set CUPID_TRACE and every traced phase logs
// to stderr, service or not.

#ifndef CUPID_OBS_TRACE_H_
#define CUPID_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace cupid {
namespace obs {

/// One completed span. `name`, `label` and attribute keys are expected to
/// be string literals (they are stored as raw pointers and may be read
/// after the emitting frame returns, e.g. by VectorTraceSink).
struct SpanRecord {
  static constexpr size_t kMaxAttrs = 16;

  const char* name = "";   ///< span name, e.g. "session.rematch"
  const char* label = "";  ///< request label from the TraceContext
  int depth = 0;           ///< nesting depth at open (0 = top level)
  int64_t start_us = 0;    ///< microseconds since process trace epoch
  int64_t duration_us = 0;

  struct Attr {
    const char* key;
    double value;
  };
  Attr attrs[kMaxAttrs];
  size_t attr_count = 0;
};

/// \brief Destination for completed spans. Emit may be called
/// concurrently from any thread; implementations synchronize internally.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Emit(const SpanRecord& span) = 0;
};

/// \brief One JSONL object per span on stderr (the CUPID_TRACE sink).
class StderrTraceSink : public TraceSink {
 public:
  void Emit(const SpanRecord& span) override EXCLUDES(mu_);

 private:
  Mutex mu_;  ///< serializes writes so lines never interleave
};

/// \brief Captures spans in memory, in emission order. Test support.
class VectorTraceSink : public TraceSink {
 public:
  void Emit(const SpanRecord& span) override EXCLUDES(mu_);
  std::vector<SpanRecord> spans() const EXCLUDES(mu_);
  size_t size() const EXCLUDES(mu_);
  void Clear() EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::vector<SpanRecord> spans_ GUARDED_BY(mu_);
};

/// \brief Accepts and discards spans. Measures the full record-building
/// path without I/O (bench_service traced-overhead runs).
class NullTraceSink : public TraceSink {
 public:
  void Emit(const SpanRecord& span) override { (void)span; }
};

/// Formats one span as a single JSONL line into `buf`; returns the number
/// of bytes written (no trailing NUL guarantee beyond snprintf's).
/// Exposed for sink implementations and tests.
size_t FormatSpanJson(const SpanRecord& span, char* buf, size_t buf_size);

/// \brief Installs the process-wide span sink. nullptr disables tracing.
/// The sink must outlive all subsequent spans; callers keep ownership.
/// Overrides any sink the environment variables installed.
void SetGlobalTraceSink(TraceSink* sink);

/// The installed sink, after a one-time environment check: if CUPID_TRACE
/// is on and no sink was set programmatically, a StderrTraceSink is
/// installed. nullptr means tracing is disabled.
TraceSink* GlobalTraceSink();

/// True when a sink is installed (spans will be recorded and emitted).
inline bool TracingEnabledFast();

/// \brief Per-request trace state: a label stamped on every span and the
/// current nesting depth. `label` must be a string literal or otherwise
/// outlive the context.
class TraceContext {
 public:
  explicit TraceContext(const char* label) : label_(label) {}
  const char* label() const { return label_; }

  std::atomic<int> depth{0};

 private:
  const char* label_;
};

/// The context spans attach to on this thread: the innermost installed
/// ScopedTraceContext, else the process-wide ambient context.
TraceContext* CurrentTraceContext();

/// \brief Installs `ctx` as this thread's trace context for the scope,
/// restoring the previous one on destruction.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext* ctx);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext* previous_;
};

namespace trace_internal {
extern std::atomic<TraceSink*> g_sink;  ///< set only via SetGlobalTraceSink
/// Runs the env check once and returns the current sink.
TraceSink* SinkSlowPath();
/// Microseconds on the steady clock since the process trace epoch.
int64_t NowUs();
/// Builds the record and hands it to `sink` (out-of-line cold path).
void EmitSpan(TraceSink* sink, TraceContext* ctx, const char* name, int depth,
              int64_t start_us, const SpanRecord::Attr* attrs,
              size_t attr_count);
extern std::atomic<bool> g_env_checked;
}  // namespace trace_internal

inline bool TracingEnabledFast() {
  return trace_internal::g_sink.load(std::memory_order_acquire) != nullptr;
}

/// \brief RAII span: opens at construction, emits at destruction.
///
///   obs::ScopedSpan span("treematch.sweep");
///   ...
///   span.Attr("visited", visited);
///
/// When tracing is disabled every member is a no-op (see cost model
/// above). Attributes beyond SpanRecord::kMaxAttrs are dropped silently —
/// spans are fixed-shape by design, not a general logging channel.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    using trace_internal::g_env_checked;
    // One-time env probe, then a single acquire load per span.
    sink_ = g_env_checked.load(std::memory_order_acquire)
                ? trace_internal::g_sink.load(std::memory_order_acquire)
                : trace_internal::SinkSlowPath();
    if (sink_ == nullptr) return;
    name_ = name;
    ctx_ = CurrentTraceContext();
    depth_ = ctx_->depth.fetch_add(1, std::memory_order_relaxed);
    start_us_ = trace_internal::NowUs();
  }

  ~ScopedSpan() {
    if (sink_ == nullptr) return;
    ctx_->depth.fetch_sub(1, std::memory_order_relaxed);
    trace_internal::EmitSpan(sink_, ctx_, name_, depth_, start_us_, attrs_,
                             attr_count_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// True when this span will be emitted; callers may skip computing
  /// expensive attribute values when false.
  bool enabled() const { return sink_ != nullptr; }

  /// Attaches a numeric attribute. `key` must be a string literal.
  /// Integer counts convert implicitly (exact below 2^53; the JSONL
  /// formatter prints integral values without a decimal point).
  void Attr(const char* key, double value) {
    if (sink_ == nullptr || attr_count_ >= SpanRecord::kMaxAttrs) return;
    attrs_[attr_count_++] = {key, value};
  }

 private:
  TraceSink* sink_ = nullptr;
  TraceContext* ctx_ = nullptr;
  const char* name_ = "";
  int depth_ = 0;
  int64_t start_us_ = 0;
  SpanRecord::Attr attrs_[SpanRecord::kMaxAttrs];
  size_t attr_count_ = 0;
};

}  // namespace obs
}  // namespace cupid

#endif  // CUPID_OBS_TRACE_H_
