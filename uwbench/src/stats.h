#ifndef UWBENCH_STATS_H_
#define UWBENCH_STATS_H_

// The benchmark's own arithmetic: percentiles, the tail rule and span
// self time. Pure functions, unit-tested in
// tests/uwbench_test.cc.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace uwbench {

/// Nearest-rank percentile of `values` (p in [0, 100]); 0 when empty.
double Percentile(std::vector<double> values, double p);

/// The middle value, or the mean of the two middle values when the count
/// is even; 0 when empty.
double Median(std::vector<double> values);

/// The tail of a sample: the highest percentile of the fixed ladder
/// {50, 90, 95, 99, 99.9, 99.99} that leaves at least ten samples beyond
/// it, and its nearest-rank value. `percentile` is 0 (and `value` the
/// maximum) when the sample has fewer than eleven values, so no ladder
/// rung qualifies.
struct Tail {
  double percentile = 0;
  double value = 0;
  size_t samples = 0;
};
Tail TailOf(const std::vector<double>& values);

/// A closed interval of a span on one clock, in nanoseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// Self time of `parent`: its length minus the part of it covered by the
/// union of `children` (clipped to the parent, overlaps counted once).
int64_t SelfTime(Interval parent, std::vector<Interval> children);

/// One request of an open-loop run. Times are nanoseconds from the run
/// start. `due` is when the schedule says the request is sent, `sent` when
/// a lane actually sent it, `done` when its response arrived.
struct RequestRecord {
  int64_t due = 0;
  int64_t sent = 0;
  int64_t done = 0;
  int method = 0;
  bool ok = false;
};

/// Latency counted from the due time (a stall delays every later request,
/// and that wait is charged to them).
inline double LatencyMs(const RequestRecord& r) {
  return static_cast<double>(r.done - r.due) / 1e6;
}
/// How late the generator sent the request.
inline double LatenessUs(const RequestRecord& r) {
  return static_cast<double>(r.sent - r.due) / 1e3;
}

}  // namespace uwbench

#endif  // UWBENCH_STATS_H_
