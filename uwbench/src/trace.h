#ifndef UWBENCH_TRACE_H_
#define UWBENCH_TRACE_H_

// Outside-in tracing: spans the benchmark records around its calls into
// the program's public functions. Spans live in memory and are written as
// one Chrome trace file when the run ends.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace uwbench {

/// Nanoseconds on the steady clock since the process-wide trace epoch.
int64_t NowNs();

struct Span {
  std::string name;
  int64_t start = 0;  // NowNs() clock
  int64_t end = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = no observable parent
  /// Link key where a parent can only be found after the fact: the wire
  /// request id (== frame trace_id) on the client -> frontend link.
  uint64_t key = 0;
  int thread = 0;
};

/// Outcome of SpanRecorder::LinkByKey.
struct LinkStats {
  size_t children = 0;   // spans named `child` with a key
  size_t linked = 0;     // given their one containing parent
  size_t ambiguous = 0;  // contained by more than one candidate parent
};

/// Thread-safe in-memory span store. Disabled recorders drop every span,
/// so decorators can stay in place on untraced runs.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = false) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Records a finished span and returns its id (0 when disabled).
  uint64_t Record(std::string name, int64_t start, int64_t end,
                  uint64_t parent = 0, uint64_t key = 0);

  /// Links every span named `child` to the span named `parent` that has
  /// the same key and whose interval contains it. Keys need not be unique
  /// (every connection numbers its own requests), so a child that more
  /// than one such parent contains is left unlinked and counted as
  /// ambiguous.
  LinkStats LinkByKey(const std::string& parent, const std::string& child);

  /// Self time in microseconds of every span named `parent` that has
  /// linked children named `child`: its duration minus the part of it
  /// those children cover.
  std::vector<double> SelfTimesUs(const std::string& parent,
                                  const std::string& child) const;

  std::vector<Span> Snapshot() const;
  /// Durations in microseconds of every span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  size_t Count(const std::string& name) const;

  /// Writes the spans as a Chrome trace-event JSON file.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

/// Times one call into the program: records `name` on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, uint64_t key = 0)
      : recorder_(recorder), name_(std::move(name)), key_(key),
        start_(NowNs()) {}
  ~ScopedSpan() { recorder_.Record(std::move(name_), start_, NowNs(), 0, key_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  std::string name_;
  uint64_t key_;
  int64_t start_;
};

}  // namespace uwbench

#endif  // UWBENCH_TRACE_H_
