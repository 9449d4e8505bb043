#include "obs/trace.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>

#include "util/env.h"

namespace cupid {
namespace obs {

namespace trace_internal {

std::atomic<TraceSink*> g_sink{nullptr};
std::atomic<bool> g_env_checked{false};

namespace {
std::once_flag g_env_once;

void CheckEnvOnce() {
  std::call_once(g_env_once, [] {
    if (g_sink.load(std::memory_order_acquire) == nullptr &&
        EnvFlag("CUPID_TRACE")) {
      // Leaked: the env-installed sink must outlive every span, including
      // ones emitted during static teardown.
      g_sink.store(new StderrTraceSink(), std::memory_order_release);
    }
    g_env_checked.store(true, std::memory_order_release);
  });
}
}  // namespace

TraceSink* SinkSlowPath() {
  CheckEnvOnce();
  return g_sink.load(std::memory_order_acquire);
}

int64_t NowUs() {
  // Steady clock against a process-wide epoch: trace timestamps order
  // events within one run and never consult wall-clock time.
  static const std::chrono::steady_clock::time_point kEpoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

void EmitSpan(TraceSink* sink, TraceContext* ctx, const char* name, int depth,
              int64_t start_us, const SpanRecord::Attr* attrs,
              size_t attr_count) {
  SpanRecord record;
  record.name = name;
  record.label = ctx->label();
  record.depth = depth;
  record.start_us = start_us;
  record.duration_us = NowUs() - start_us;
  record.attr_count = attr_count;
  for (size_t i = 0; i < attr_count; ++i) record.attrs[i] = attrs[i];
  sink->Emit(record);
}

}  // namespace trace_internal

namespace {

/// Appends at most `avail` bytes of formatted output; returns bytes that
/// snprintf would have written (standard truncation-aware accounting).
template <typename... Args>
size_t AppendF(char* buf, size_t pos, size_t size, const char* fmt,
               Args... args) {
  if (pos >= size) return 0;
  int n = std::snprintf(buf + pos, size - pos, fmt, args...);
  return n < 0 ? 0 : static_cast<size_t>(n);
}

TraceContext* AmbientContext() {
  static TraceContext* kAmbient = new TraceContext("ambient");
  return kAmbient;
}

TraceContext*& TlsContext() {
  thread_local TraceContext* ctx = nullptr;
  return ctx;
}

}  // namespace

size_t FormatSpanJson(const SpanRecord& span, char* buf, size_t buf_size) {
  // Span names, labels and attribute keys are identifiers we author; no
  // JSON string escaping is needed (and none is attempted).
  size_t pos = 0;
  pos += AppendF(buf, pos, buf_size,
                 "{\"span\":\"%s\",\"label\":\"%s\",\"depth\":%d,"
                 "\"start_us\":%lld,\"dur_us\":%lld",
                 span.name, span.label, span.depth,
                 static_cast<long long>(span.start_us),
                 static_cast<long long>(span.duration_us));
  if (span.attr_count > 0) {
    pos += AppendF(buf, pos, buf_size, ",\"attrs\":{");
    for (size_t i = 0; i < span.attr_count; ++i) {
      const SpanRecord::Attr& attr = span.attrs[i];
      const char* sep = i == 0 ? "" : ",";
      // Counts print as integers, durations keep microsecond precision.
      if (attr.value == std::floor(attr.value) &&
          std::abs(attr.value) < 9.0e15) {
        pos += AppendF(buf, pos, buf_size, "%s\"%s\":%lld", sep, attr.key,
                       static_cast<long long>(attr.value));
      } else {
        pos += AppendF(buf, pos, buf_size, "%s\"%s\":%.3f", sep, attr.key,
                       attr.value);
      }
    }
    pos += AppendF(buf, pos, buf_size, "}");
  }
  pos += AppendF(buf, pos, buf_size, "}\n");
  return pos < buf_size ? pos : buf_size - 1;
}

void StderrTraceSink::Emit(const SpanRecord& span) {
  char buf[1024];
  size_t n = FormatSpanJson(span, buf, sizeof(buf));
  MutexLock lock(&mu_);
  std::fwrite(buf, 1, n, stderr);
}

void VectorTraceSink::Emit(const SpanRecord& span) {
  MutexLock lock(&mu_);
  spans_.push_back(span);
}

std::vector<SpanRecord> VectorTraceSink::spans() const {
  MutexLock lock(&mu_);
  return spans_;
}

size_t VectorTraceSink::size() const {
  MutexLock lock(&mu_);
  return spans_.size();
}

void VectorTraceSink::Clear() {
  MutexLock lock(&mu_);
  spans_.clear();
}

void SetGlobalTraceSink(TraceSink* sink) {
  // Run the env probe first so it can never overwrite an explicit sink.
  trace_internal::SinkSlowPath();
  trace_internal::g_sink.store(sink, std::memory_order_release);
}

TraceSink* GlobalTraceSink() { return trace_internal::SinkSlowPath(); }

TraceContext* CurrentTraceContext() {
  TraceContext* ctx = TlsContext();
  return ctx != nullptr ? ctx : AmbientContext();
}

ScopedTraceContext::ScopedTraceContext(TraceContext* ctx)
    : previous_(TlsContext()) {
  TlsContext() = ctx;
}

ScopedTraceContext::~ScopedTraceContext() { TlsContext() = previous_; }

}  // namespace obs
}  // namespace cupid
