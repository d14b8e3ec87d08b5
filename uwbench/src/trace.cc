#include "trace.h"

#include <cstdio>
#include <map>
#include <utility>

#include "stats.h"

namespace uwbench {
namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

int ThreadNumber() {
  static std::atomic<int> next{1};
  thread_local const int number = next.fetch_add(1);
  return number;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

uint64_t SpanRecorder::Record(std::string name, int64_t start, int64_t end,
                              uint64_t parent, uint64_t key) {
  if (!enabled()) return 0;
  Span span;
  span.name = std::move(name);
  span.start = start;
  span.end = end;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = parent;
  span.key = key;
  span.thread = ThreadNumber();
  const uint64_t id = span.id;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return id;
}

LinkStats SpanRecorder::LinkByKey(const std::string& parent,
                                  const std::string& child) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::multimap<uint64_t, const Span*> parents;
  for (const Span& span : spans_) {
    if (span.name == parent && span.key != 0) {
      parents.emplace(span.key, &span);
    }
  }
  LinkStats stats;
  for (Span& span : spans_) {
    if (span.name != child || span.key == 0 || span.parent != 0) continue;
    ++stats.children;
    const Span* found = nullptr;
    size_t containing = 0;
    const auto [first, last] = parents.equal_range(span.key);
    for (auto it = first; it != last; ++it) {
      const Span& candidate = *it->second;
      if (candidate.start <= span.start && span.end <= candidate.end) {
        found = &candidate;
        ++containing;
      }
    }
    if (containing == 1) {
      span.parent = found->id;
      ++stats.linked;
    } else if (containing > 1) {
      ++stats.ambiguous;
    }
  }
  return stats;
}

std::vector<double> SpanRecorder::SelfTimesUs(const std::string& parent,
                                              const std::string& child) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<uint64_t, std::vector<Interval>> children;
  for (const Span& span : spans_) {
    if (span.name == child && span.parent != 0) {
      children[span.parent].push_back({span.start, span.end});
    }
  }
  std::vector<double> out;
  for (const Span& span : spans_) {
    const auto it = children.find(span.id);
    if (span.name != parent || it == children.end()) continue;
    out.push_back(static_cast<double>(
                      SelfTime({span.start, span.end}, it->second)) /
                  1e3);
  }
  return out;
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> SpanRecorder::DurationsUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end - span.start) / 1e3);
    }
  }
  return out;
}

size_t SpanRecorder::Count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t count = 0;
  for (const Span& span : spans_) count += span.name == name ? 1 : 0;
  return count;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"key\":%llu}}%s\n",
                 JsonEscape(s.name).c_str(), s.thread,
                 static_cast<double>(s.start) / 1e3,
                 static_cast<double>(s.end - s.start) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.key),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

}  // namespace uwbench
