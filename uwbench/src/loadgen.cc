#include "loadgen.h"

#include <atomic>
#include <chrono>
#include <thread>

namespace uwbench {

std::vector<Arrival> EvenSchedule(
    double rate, size_t count, const std::function<int(size_t)>& method_of,
    const std::function<uint32_t(size_t)>& query_of) {
  std::vector<Arrival> schedule(count);
  for (size_t i = 0; i < count; ++i) {
    schedule[i].due = static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate);
    schedule[i].method = method_of(i);
    schedule[i].query = query_of(i);
  }
  return schedule;
}

std::vector<Arrival> SliceSchedule(const std::vector<Arrival>& schedule,
                                   int part, int parts) {
  const size_t begin = schedule.size() * static_cast<size_t>(part) /
                       static_cast<size_t>(parts);
  const size_t end = schedule.size() * static_cast<size_t>(part + 1) /
                     static_cast<size_t>(parts);
  std::vector<Arrival> out(schedule.begin() + static_cast<ptrdiff_t>(begin),
                           schedule.begin() + static_cast<ptrdiff_t>(end));
  for (Arrival& arrival : out) arrival.due -= schedule[begin].due;
  return out;
}

namespace {

/// Shared engine: lanes take arrivals in order. Open loop waits for each
/// arrival's due time; closed loop sends at once and stops taking new
/// arrivals after `deadline_ns`. Unsent arrivals are dropped.
std::vector<RequestRecord> RunLanes(const std::vector<Arrival>& sequence,
                                    int lanes, bool closed,
                                    int64_t deadline_ns,
                                    const IssueFn& issue) {
  std::vector<RequestRecord> records(sequence.size());
  std::vector<char> sent(sequence.size(), 0);
  std::atomic<size_t> next{0};
  const auto origin = std::chrono::steady_clock::now();
  auto since_origin = [origin] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin)
        .count();
  };
  auto lane_loop = [&](int lane) {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= sequence.size()) return;
      const Arrival& arrival = sequence[i];
      if (closed) {
        if (since_origin() >= deadline_ns) return;
      } else {
        std::this_thread::sleep_until(origin +
                                      std::chrono::nanoseconds(arrival.due));
      }
      RequestRecord& record = records[i];
      record.method = arrival.method;
      record.sent = since_origin();
      record.due = closed ? record.sent : arrival.due;
      record.ok = issue(lane, arrival);
      record.done = since_origin();
      sent[i] = 1;
    }
  };
  std::vector<std::thread> threads;
  for (int lane = 0; lane < lanes; ++lane) threads.emplace_back(lane_loop, lane);
  for (std::thread& thread : threads) thread.join();
  std::vector<RequestRecord> out;
  for (size_t i = 0; i < records.size(); ++i) {
    if (sent[i]) out.push_back(records[i]);
  }
  return out;
}

}  // namespace

std::vector<RequestRecord> RunOpenLoop(const std::vector<Arrival>& schedule,
                                       int lanes, const IssueFn& issue) {
  return RunLanes(schedule, lanes, /*closed=*/false, 0, issue);
}

std::vector<RequestRecord> RunClosedLoop(const std::vector<Arrival>& sequence,
                                         int lanes, double seconds,
                                         const IssueFn& issue) {
  return RunLanes(sequence, lanes, /*closed=*/true,
                  static_cast<int64_t>(seconds * 1e9), issue);
}

std::vector<double> WindowThroughputs(const std::vector<RequestRecord>& records,
                                      double seconds, int windows) {
  if (windows < 1 || !(seconds > 0)) return {};
  const double window_ns = seconds * 1e9 / windows;
  std::vector<double> counts(static_cast<size_t>(windows), 0);
  for (const RequestRecord& r : records) {
    const auto w = static_cast<int64_t>(static_cast<double>(r.done) / window_ns);
    if (w >= 0 && w < windows) counts[static_cast<size_t>(w)] += 1;
  }
  for (double& count : counts) count /= window_ns / 1e9;
  return counts;
}

}  // namespace uwbench
