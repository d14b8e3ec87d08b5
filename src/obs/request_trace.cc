#include "obs/request_trace.h"

#include <algorithm>
#include <utility>

#include "common/env.h"

namespace ultrawiki {
namespace obs {
namespace {

thread_local RequestTrace* tls_active_request_trace = nullptr;

}  // namespace

RequestTrace::RequestTrace(uint64_t trace_id, std::string method,
                           std::chrono::steady_clock::time_point epoch)
    : trace_id_(trace_id), method_(std::move(method)), epoch_(epoch) {
  events_.reserve(16);
}

int64_t RequestTrace::SinceEpochUs(
    std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_)
      .count();
}

int RequestTrace::AddInterval(const char* name,
                              std::chrono::steady_clock::time_point start,
                              std::chrono::steady_clock::time_point end,
                              int parent) {
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return -1;
  }
  RequestSpanEvent event;
  event.name = name;
  event.start_us = SinceEpochUs(start);
  event.dur_us = std::max<int64_t>(0, SinceEpochUs(end) - event.start_us);
  event.parent = parent;
  events_.push_back(std::move(event));
  return static_cast<int>(events_.size()) - 1;
}

int RequestTrace::BeginSpan(const char* name) {
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return -1;
  }
  // The slot is appended at open time so nested children can point at a
  // stable parent index; the duration is filled in by EndSpan.
  RequestSpanEvent event;
  event.name = name;
  event.start_us = SinceEpochUs(std::chrono::steady_clock::now());
  event.dur_us = 0;
  event.parent = open_stack_.empty() ? -1 : open_stack_.back();
  events_.push_back(std::move(event));
  const int handle = static_cast<int>(events_.size()) - 1;
  open_stack_.push_back(handle);
  return handle;
}

void RequestTrace::EndSpan(int handle) {
  if (handle < 0) return;
  RequestSpanEvent& event = events_[static_cast<size_t>(handle)];
  event.dur_us = std::max<int64_t>(
      0, SinceEpochUs(std::chrono::steady_clock::now()) - event.start_us);
  // RAII call sites guarantee LIFO close order, so the handle is the top
  // of the open stack.
  if (!open_stack_.empty() && open_stack_.back() == handle) {
    open_stack_.pop_back();
  }
}

RequestTraceData RequestTrace::Finish(
    std::chrono::steady_clock::time_point end) {
  RequestTraceData data;
  data.trace_id = trace_id_;
  data.method = std::move(method_);
  data.total_us = std::max<int64_t>(0, SinceEpochUs(end));
  data.events_dropped = dropped_;
  data.events = std::move(events_);
  return data;
}

ScopedRequestBinding::ScopedRequestBinding(RequestTrace* trace) {
  saved_ = tls_active_request_trace;
  tls_active_request_trace = trace != nullptr ? trace : saved_;
}

ScopedRequestBinding::~ScopedRequestBinding() {
  tls_active_request_trace = saved_;
}

RequestTrace* ActiveRequestTrace() { return tls_active_request_trace; }

SlowQueryLog& SlowQueryLog::Global() {
  // Leaky singleton, same discipline as the metrics registry: entries
  // must outlive any thread that might record during shutdown.
  static SlowQueryLog* log = new SlowQueryLog(
      static_cast<size_t>(EnvInt("UW_SLOW_QUERY_LOG", 16, 1)));
  return *log;
}

void SlowQueryLog::Record(RequestTraceData data) {
  std::lock_guard<std::mutex> lock(mutex_);
  data.sequence = next_sequence_++;
  ++total_recorded_;
  ring_.push_back(std::move(data));
  while (ring_.size() > capacity_) ring_.erase(ring_.begin());
}

std::vector<RequestTraceData> SlowQueryLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<RequestTraceData> out(ring_.rbegin(), ring_.rend());
  return out;
}

int64_t SlowQueryLog::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_recorded_;
}

void SlowQueryLog::ResetForTest() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_sequence_ = 1;
  total_recorded_ = 0;
}

void SlowQueryLog::SetCapacityForTest(size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = std::max<size_t>(1, capacity);
  while (ring_.size() > capacity_) ring_.erase(ring_.begin());
}

}  // namespace obs
}  // namespace ultrawiki
