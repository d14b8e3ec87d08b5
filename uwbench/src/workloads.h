#ifndef UWBENCH_WORKLOADS_H_
#define UWBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace uwbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Artifact cache root (warm and cold caches live below it).
  std::string cache_root = ".bench_build/cache";
  /// Where span files and detailed results are written.
  std::string out_dir = ".bench_build/out";
  /// Recorded offline_table2 ranking digests ("seed method hex" lines).
  std::string digests;
  /// When set, offline_table2 appends its digests to this file.
  std::string record_digests;
  /// Digest of the sources under test. It names the warm artifact cache,
  /// so a warm cache is only ever read by the code that filled it.
  std::string source = "unknown";
  /// CPUs the process is confined to ("2,3"), or "unpinned".
  std::string cpus = "unpinned";
};

/// What one workload run reports. `end_to_end` and `per_layer` are keyed
/// by metric name; main.cc prints them against the canonical lists.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Effective configuration and notes (tail percentiles, sample counts).
  std::map<std::string, std::string> config;
};

Report RunOfflineTable2(const Options& options);
Report RunServeRetexpan(const Options& options);
Report RunClusterMixed(const Options& options);

}  // namespace uwbench

#endif  // UWBENCH_WORKLOADS_H_
