// uwbench: the repository benchmark. One process runs one workload and
// prints, as its last stdout line, one JSON object with the keys correct,
// attempted, failed and metrics. `--trace 0` reports the end-to-end
// metrics, `--trace 1` the per-layer ones. The line before it is the
// effective configuration of the run.
//
//   uwbench --workload offline_table2 --seed 3 --seconds 10 --trace 0

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "workloads.h"

extern char** environ;

namespace uwbench {
namespace {

constexpr int kPoolLanes = 2;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json. Every workload prints every metric; a
// per-layer metric the workload does not exercise reads 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_qps", "1/s"},
    {"retexpan_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"pipeline.build_s", "s"},
    {"embedding.weak_store_s", "s"},
    {"embedding.static_store_s", "s"},
    {"embedding.contrast_store_s", "s"},
    {"embedding.ra_store_s", "s"},
    {"embedding.distributions_s", "s"},
    {"embedding.trainer_steps", "count"},
    {"eval.setexpan.query_ms", "ms"},
    {"eval.case.query_ms", "ms"},
    {"eval.cgexpan.query_ms", "ms"},
    {"eval.probexpan.query_ms", "ms"},
    {"eval.gpt4.query_ms", "ms"},
    {"eval.retexpan.query_ms", "ms"},
    {"eval.retexpan_contrast.query_ms", "ms"},
    {"eval.retexpan_ra.query_ms", "ms"},
    {"eval.genexpan.query_ms", "ms"},
    {"eval.genexpan_cot.query_ms", "ms"},
    {"eval.genexpan_ra.query_ms", "ms"},
    {"eval.fine_grained_map_s", "s"},
    {"expand.gen_over_ret", "ratio"},
    {"retexpan.tail_ms", "ms"},
    {"request.tail_ms", "ms"},
    {"genexpan.p50_ms", "ms"},
    {"genexpan.tail_ms", "ms"},
    {"lm.beam_expansions", "count"},
    {"lm.beam_prune_ratio", "ratio"},
    {"expand.genexpan_rounds", "count"},
    {"math.rows_scored", "count"},
    {"index.postings_scanned", "count"},
    {"index.blocks_skipped_ratio", "ratio"},
    {"io.cache_bytes", "bytes"},
    {"io.cache_files", "count"},
    {"serve.prewarm_s", "s"},
    {"serve.shard_store_s", "s"},
    {"serve.client.roundtrip_p50_us", "us"},
    {"serve.client.roundtrip_tail_us", "us"},
    {"serve.frontend.expand_us", "us"},
    {"serve.net_us", "us"},
    {"expand.retexpan.expand_us", "us"},
    {"serve.queue_batch_us", "us"},
    {"serve.batch_size_mean", "count"},
    {"serve.saturation_qps", "1/s"},
    {"serve.router.retexpan_expand_us", "us"},
    {"serve.router.genexpan_expand_us", "us"},
    {"serve.shard.retrieve_us", "us"},
    {"serve.shard.score_us", "us"},
    {"serve.shard.expand_us", "us"},
    {"serve.router.overhead_us", "us"},
    {"router.failovers", "count"},
    {"router.lookup_cache_hit_ratio", "ratio"},
    {"loadgen.lateness_p50_us", "us"},
    {"loadgen.lateness_tail_us", "us"},
    {"error_rate", "ratio"},
    {"trace.overhead_pct", "%"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: uwbench --workload offline_table2|serve_retexpan|"
               "cluster_mixed --seed N --seconds S --trace 0|1\n"
               "               [--cache-dir D] [--out-dir D] [--digests F]\n"
               "               [--record-digests F] [--source DIGEST]\n");
  return 2;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

/// Confines the process, and every thread it starts later, to the last
/// `count` CPUs it may run on, and returns their numbers ("2,3").
std::string PinToCpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "unpinned";
  std::vector<int> cpus;
  for (int cpu = CPU_SETSIZE - 1;
       cpu >= 0 && static_cast<int>(cpus.size()) < count; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.insert(cpus.begin(), cpu);
  }
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  std::string names;
  for (const int cpu : cpus) {
    CPU_SET(cpu, &pinned);
    names += (names.empty() ? "" : ",") + std::to_string(cpu);
  }
  if (sched_setaffinity(0, sizeof(pinned), &pinned) != 0) return "unpinned";
  return names;
}

/// Every UW_* knob is cleared so the environment cannot change what runs;
/// the workloads set what they need (UW_CACHE_DIR) explicitly.
void ClearProgramKnobs() {
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "UW_", 3) == 0) {
      const char* eq = std::strchr(*env, '=');
      if (eq != nullptr) names.emplace_back(*env, static_cast<size_t>(eq - *env));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

int Main(int argc, char** argv) {
  Options options;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage();
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) return Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      options.trace = value == "1";
    } else if (flag == "--cache-dir") {
      options.cache_root = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--digests") {
      options.digests = value;
    } else if (flag == "--record-digests") {
      options.record_digests = value;
    } else if (flag == "--source") {
      // It names a cache directory: letters, digits, '-' and '_' only.
      if (value.empty() ||
          value.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                                  "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                  "0123456789-_") != std::string::npos) {
        return Usage();
      }
      options.source = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed) return Usage();

  ClearProgramKnobs();
  // Two pool lanes on every machine: on a shared 4-vCPU host, 4 lanes
  // made Table 2 throughput spread 0.28 of its median between runs, and
  // 2 lanes about half that.
  setenv("UW_THREADS", std::to_string(kPoolLanes).c_str(), 1);
  // Pinned before any thread starts, so that all of them inherit the mask.
  // Offline evaluation is compute-bound and gets one CPU per pool lane.
  // A served request is a chain of thread hand-offs (client, router,
  // shards, batcher); on a shared 4-vCPU host each hand-off to an idle
  // vCPU waits for the host to run it, so unpinned cluster_mixed RetExpan
  // p50 read 2.2-11.7 ms between runs. On one CPU every hand-off is a
  // local wake-up: 1.1-2.4 ms over the same stretch.
  options.cpus =
      PinToCpus(options.workload == "offline_table2" ? kPoolLanes : 1);
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);

  Report report;
  if (options.workload == "offline_table2") {
    report = RunOfflineTable2(options);
  } else if (options.workload == "serve_retexpan") {
    report = RunServeRetexpan(options);
  } else if (options.workload == "cluster_mixed") {
    report = RunClusterMixed(options);
  } else {
    return Usage();
  }

  std::string config = "{";
  for (const auto& [key, value] : report.config) {
    if (config.size() > 1) config += ", ";
    config += JsonString(key) + ": " + JsonString(value);
  }
  config += "}";

  const bool trace = options.trace;
  const auto& table = trace ? report.per_layer : report.end_to_end;
  std::string metrics = "{";
  auto emit = [&](const MetricSpec& spec) {
    const auto it = table.find(spec.name);
    double value = it == table.end() ? 0 : it->second;
    if (!std::isfinite(value)) value = 0;
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    if (metrics.size() > 1) metrics += ", ";
    metrics += JsonString(spec.name) + ": {\"value\": " + number +
               ", \"unit\": " + JsonString(spec.unit) + "}";
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      // An end-to-end metric the workload failed to produce is a broken
      // run, not a zero.
      if (table.count(spec.name) == 0) {
        std::fprintf(stderr, "uwbench: %s produced no %s\n",
                     options.workload.c_str(), spec.name);
        return 1;
      }
      emit(spec);
    }
  }
  metrics += "}";

  std::printf("%s\n", config.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace uwbench

int main(int argc, char** argv) { return uwbench::Main(argc, argv); }
