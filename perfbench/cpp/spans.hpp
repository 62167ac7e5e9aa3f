// In-memory span log for the traced run. The benchmark records a span around
// each call it makes into a module's public API; spans of one map or request
// share its request id. Nothing is written until the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = nullptr;  ///< string literal
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  std::int64_t request = -1;
};

/// Thread-safe append-only span store. A disabled log records nothing and
/// costs one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  /// Record a finished span; returns its index (-1 when disabled).
  int add(const char* name, std::int64_t begin_ns, std::int64_t end_ns,
          int parent = -1, std::int64_t request = -1);

  /// Start a span now and return its index, so children can name it as
  /// their parent before it ends; close() stamps its end.
  int open(const char* name, int parent = -1, std::int64_t request = -1);
  void close(int index);

  /// Total seconds of the spans named `name`.
  double total_seconds(const std::string& name) const;

  /// Write one JSON object per line: name, begin_ns, end_ns, parent,
  /// request. Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Scoped span: records [construction, destruction) into `log`.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int parent = -1,
             std::int64_t request = -1)
      : log_(log), index_(log.open(name, parent, request)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

}  // namespace perfbench
