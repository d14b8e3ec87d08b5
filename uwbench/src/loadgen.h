#ifndef UWBENCH_LOADGEN_H_
#define UWBENCH_LOADGEN_H_

// Open-loop load generator: requests are due on a fixed schedule whether
// or not earlier ones have completed. A bounded set of lanes (one client
// connection each) sends them; when every lane is busy, later requests
// go out late, and their latency still counts from the due time.

#include <cstdint>
#include <functional>
#include <vector>

#include "stats.h"

namespace uwbench {

/// One scheduled request: what to send and when, relative to the start.
struct Arrival {
  int64_t due = 0;  // ns from the run start
  int method = 0;
  uint32_t query = 0;
};

/// `count` arrivals evenly spaced at `rate` per second. Methods and query
/// indices come from `method_of(i)` / `query_of(i)`.
std::vector<Arrival> EvenSchedule(double rate, size_t count,
                                  const std::function<int(size_t)>& method_of,
                                  const std::function<uint32_t(size_t)>&
                                      query_of);

/// Part `part` of `parts` consecutive, near-equal parts of a schedule,
/// with due times counted from the part's first arrival.
std::vector<Arrival> SliceSchedule(const std::vector<Arrival>& schedule,
                                   int part, int parts);

/// Sends one request on `lane`; returns true when the response arrived
/// and matched its reference.
using IssueFn = std::function<bool(int lane, const Arrival& arrival)>;

/// Runs the schedule over `lanes` threads and returns one record per
/// arrival, in schedule order. Blocks until every request has completed.
std::vector<RequestRecord> RunOpenLoop(const std::vector<Arrival>& schedule,
                                       int lanes, const IssueFn& issue);

/// Closed loop over the same lanes: each lane sends its next request as
/// soon as its previous one completes, taking arrivals in order and
/// ignoring their due times, until `seconds` have passed or the sequence
/// runs out. Returns the requests sent, in sequence order; each record's
/// `due` is its send time, so its latency is its service time.
std::vector<RequestRecord> RunClosedLoop(const std::vector<Arrival>& sequence,
                                         int lanes, double seconds,
                                         const IssueFn& issue);

/// Throughput of a closed-loop run of `seconds` in each of `windows`
/// equal windows: the completions in the window per second of window.
/// Completions after `seconds` are not counted. Callers take the median,
/// so a host stall moves one window, not the result.
std::vector<double> WindowThroughputs(const std::vector<RequestRecord>& records,
                                      double seconds, int windows);

}  // namespace uwbench

#endif  // UWBENCH_LOADGEN_H_
