// The three benchmark workloads. Each builds its inputs from the seed,
// sets up several times (set-up time is the median), computes reference
// outputs before timing, runs its timed phase, and checks every output.
//
// Layers are timed from outside: spans around calls into Pipeline::Build
// and the substrate getters, EvaluateExpander and Expander::Expand (via
// TimedExpander), ServeClient calls, and TimedFrontend placed between each
// TcpServer and what it serves. Work counts come from obs::GetCounter /
// obs::GetHistogram, which the program already exports.

#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "common/thread_pool.h"
#include "decorators.h"
#include "eval/evaluator.h"
#include "expand/pipeline.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/service_host.h"
#include "stats.h"
#include "trace.h"

namespace uwbench {
namespace {

using ultrawiki::EntityId;
using ultrawiki::Expander;
using ultrawiki::Pipeline;
using ultrawiki::PipelineConfig;
using ultrawiki::Query;
namespace serve = ultrawiki::serve;
namespace obs = ultrawiki::obs;

// Set-ups per run; setup_s is their median. The serving workloads drive
// an equal share of their timed load on every rig they set up. Warm
// serving set-ups take about 1.5 s, so serve_retexpan affords more rigs:
// its throughput reads alike in the windows of one rig but differs by up
// to 37% between rigs, and a median over 5 rigs moves less than over 3.
constexpr int kOfflineSetupReps = 3;
constexpr int kServeSetupReps = 5;
constexpr int kClusterSetupReps = 3;
constexpr int kServeK = 20;
constexpr size_t kEvalMaxK = 100;  // the largest K EvaluateExpander ranks
// Offline RetExpan p50: pipelines sampled, and serial passes on each.
constexpr int kRetexpanLayouts = 6;
constexpr int kProbePasses = 2;
constexpr int kTailWindows = 8;
// Serving runs: the open-loop nominal phase takes kNominalShare of
// --seconds and the closed-loop saturation phase kSaturationShare, both
// shared out evenly over the set-up rigs. Saturation throughput is the
// median over kSaturationWindowsPerRig windows on every rig.
constexpr double kNominalShare = 0.5;
constexpr double kSaturationShare = 0.4;
constexpr int kSaturationWindowsPerRig = 3;
constexpr double kClosedLoopCeiling = 20000;  // requests/s

// ------------------------------------------------------------ helpers.

/// Every workload runs the paper-table world, PipelineConfig::Bench(); the
/// seed varies the order and mix of the work sent to it. A fixed world
/// keeps run-to-run cost differences down to the host's own noise, lets
/// the warm cache be filled once per checkout, and lets every run's
/// offline rankings be checked against recorded digests.
PipelineConfig WorkloadConfig() { return PipelineConfig::Bench(); }

/// Heap-allocates a built pipeline without moving it: substrates hold
/// pointers into the pipeline, so it must be constructed in place (the
/// prvalue initializes the new object directly).
std::unique_ptr<Pipeline> BuildPipeline(const PipelineConfig& config) {
  return std::unique_ptr<Pipeline>(new Pipeline(Pipeline::Build(config)));
}

int64_t CounterValue(const char* name) {
  return obs::GetCounter(name).Value();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double MedianOr0(const std::vector<double>& values) {
  return values.empty() ? 0 : Median(values);
}

std::string Fmt(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

struct DirStats {
  uint64_t bytes = 0;
  uint64_t files = 0;
};
DirStats ScanDir(const std::string& path) {
  DirStats stats;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(path, ec)) {
    if (entry.is_regular_file(ec)) {
      stats.bytes += entry.file_size(ec);
      ++stats.files;
    }
  }
  return stats;
}

void ResetDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path, ec);
}

/// Points the artifact cache at `dir`. Must run before anything touches
/// ArtifactCache::Global(), which reads UW_CACHE_DIR once.
void UseCacheDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  setenv("UW_CACHE_DIR", dir.c_str(), 1);
}

/// Points the artifact cache at the warm cache of the sources under test,
/// removes the warm caches of any other sources, and fills it with the
/// code under test, untimed. The directory is named after the digest of
/// the sources, so no other code ever wrote what a run reads.
std::string UseWarmCache(const Options& options, const PipelineConfig& config,
                         Report& report) {
  const std::string name = "warm-" + options.source;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.cache_root, ec)) {
    const std::string other = entry.path().filename().string();
    if (other.rfind("warm", 0) == 0 && other != name) {
      std::filesystem::remove_all(entry.path(), ec);
    }
  }
  const std::string dir = options.cache_root + "/" + name;
  const bool was_filled = ScanDir(dir).files > 0;
  UseCacheDir(dir);
  { Pipeline fill = Pipeline::Build(config); }
  report.config["cache"] =
      was_filled ? "warm, hit: filled by an earlier run of these sources"
                 : "warm, miss: filled by this run before timing";
  report.config["cache_dir"] = name;
  return dir;
}

/// A seeded permutation of [0, n).
std::vector<uint32_t> Permutation(size_t n, uint64_t seed) {
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

/// Sets up `reps` times, each from nothing (the previous rig is torn down
/// first, untimed), keeps the last rig, and stores the median set-up
/// time in `setup_s`. `before_rep` and `after_rep` run untimed around
/// each set-up.
template <typename Rig, typename BuildFn>
std::unique_ptr<Rig> SetUpRepeatedly(
    int reps, const BuildFn& build, const std::function<void()>& before_rep,
    const std::function<void(Rig&)>& after_rep, double* setup_s) {
  std::vector<double> times;
  std::unique_ptr<Rig> rig;
  for (int rep = 0; rep < reps; ++rep) {
    rig.reset();
    if (before_rep) before_rep();
    const int64_t start = NowNs();
    rig = build();
    times.push_back(Seconds(start, NowNs()));
    if (after_rep) after_rep(*rig);
  }
  *setup_s = Median(times);
  return rig;
}

void RecordCommonConfig(const Options& options, Report& report) {
  report.config["workload"] = options.workload;
  report.config["seed"] = std::to_string(options.seed);
  report.config["seconds"] = Fmt(options.seconds);
  report.config["trace"] = options.trace ? "1" : "0";
  report.config["source"] = options.source;
  report.config["nproc"] =
      std::to_string(std::thread::hardware_concurrency());
  report.config["cpus"] = options.cpus;
  report.config["pool_lanes"] =
      std::to_string(ultrawiki::ThreadPool::Global().thread_count());
}

// ------------------------------------------------------ offline_table2.

struct OfflineMethod {
  const char* key;
  std::function<std::unique_ptr<Expander>(Pipeline&)> make;
};

const std::vector<OfflineMethod>& OfflineMethods() {
  using ultrawiki::CotMode;
  using ultrawiki::GenExpanConfig;
  static const std::vector<OfflineMethod> methods = {
      {"setexpan", [](Pipeline& p) -> std::unique_ptr<Expander> {
         return p.MakeSetExpan();
       }},
      {"case", [](Pipeline& p) -> std::unique_ptr<Expander> {
         return p.MakeCaSE();
       }},
      {"cgexpan", [](Pipeline& p) -> std::unique_ptr<Expander> {
         return p.MakeCgExpan();
       }},
      {"probexpan", [](Pipeline& p) -> std::unique_ptr<Expander> {
         return p.MakeProbExpan();
       }},
      {"gpt4", [](Pipeline& p) -> std::unique_ptr<Expander> {
         return p.MakeGpt4Baseline();
       }},
      {"retexpan", [](Pipeline& p) -> std::unique_ptr<Expander> {
         return p.MakeRetExpan();
       }},
      {"retexpan_contrast", [](Pipeline& p) -> std::unique_ptr<Expander> {
         return p.MakeRetExpanContrast();
       }},
      {"retexpan_ra", [](Pipeline& p) -> std::unique_ptr<Expander> {
         return p.MakeRetExpanRa();
       }},
      {"genexpan", [](Pipeline& p) -> std::unique_ptr<Expander> {
         return p.MakeGenExpan();
       }},
      {"genexpan_cot", [](Pipeline& p) -> std::unique_ptr<Expander> {
         GenExpanConfig config;
         config.cot = CotMode::kGenClassNameGenPos;
         return p.MakeGenExpan(config);
       }},
      {"genexpan_ra", [](Pipeline& p) -> std::unique_ptr<Expander> {
         GenExpanConfig config;
         config.retrieval_augmentation = true;
         return p.MakeGenExpan(config);
       }},
  };
  return methods;
}

size_t RetexpanMethodIndex() {
  const auto& methods = OfflineMethods();
  for (size_t i = 0; i < methods.size(); ++i) {
    if (std::string(methods[i].key) == "retexpan") return i;
  }
  return methods.size();
}

/// Serial RetExpan passes over every query, one set per pipeline: each
/// pipeline's median per-query time (ms) and ranking digest.
struct RetexpanProbes {
  std::vector<double> p50_ms;
  std::vector<uint64_t> digests;

  void Probe(Expander& retexpan, const std::vector<Query>& queries) {
    SpanRecorder off(/*enabled=*/false);
    TimedExpander probe(retexpan, off, "expand.retexpan.probe");
    for (int pass = 0; pass < kProbePasses; ++pass) {
      for (const Query& query : queries) probe.Expand(query, kEvalMaxK);
    }
    p50_ms.push_back(Median(probe.latencies_ms()));
    digests.push_back(probe.digest());
  }
};

/// Everything offline_table2 sets up: the pipeline, every substrate the
/// 11 methods read, and the expanders themselves.
struct OfflineRig {
  std::unique_ptr<Pipeline> pipeline;
  std::vector<std::unique_ptr<Expander>> methods;  // OfflineMethods order
  std::unique_ptr<Expander> fine_case;
  std::unique_ptr<Expander> fine_retexpan;
};

std::unique_ptr<OfflineRig> BuildOfflineRig(const PipelineConfig& config,
                                            SpanRecorder& setup) {
  auto rig = std::make_unique<OfflineRig>();
  {
    ScopedSpan span(setup, "pipeline.build");
    rig->pipeline = BuildPipeline(config);
  }
  Pipeline& p = *rig->pipeline;
  {
    ScopedSpan span(setup, "embedding.weak_store");
    p.weak_store();
  }
  {
    ScopedSpan span(setup, "embedding.static_store");
    p.static_store();
  }
  {
    ScopedSpan span(setup, "embedding.contrast_store");
    p.contrast_store();
  }
  {
    ScopedSpan span(setup, "embedding.ra_store");
    p.ra_store(ultrawiki::RaSource::kIntroduction);
  }
  {
    ScopedSpan span(setup, "embedding.distributions");
    p.distributions();
  }
  {
    ScopedSpan span(setup, "expand.make_expanders");
    for (const OfflineMethod& method : OfflineMethods()) {
      rig->methods.push_back(method.make(p));
    }
    rig->fine_case = p.MakeCaSE();
    rig->fine_retexpan = p.MakeRetExpan();
  }
  return rig;
}

/// Recorded ranking digests of the Bench() world: "method hex" per line,
/// '#' starts a comment.
std::map<std::string, uint64_t> LoadDigests(const std::string& path) {
  std::map<std::string, uint64_t> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string method, hex;
    if (!(fields >> method >> hex) || method[0] == '#') continue;
    out[method] = std::stoull(hex, nullptr, 16);
  }
  return out;
}

/// Per-layer counters read around a timed phase.
struct WorkCounters {
  int64_t beam_expansions = 0, beam_prunes = 0, genexpan_rounds = 0;
  int64_t rows_scored = 0, postings_scanned = 0;
  int64_t blocks_skipped = 0, blocks_decoded = 0;

  static WorkCounters Read() {
    WorkCounters c;
    c.beam_expansions = CounterValue("beam.expansions");
    c.beam_prunes = CounterValue("beam.prunes");
    c.genexpan_rounds = CounterValue("genexpan.rounds");
    c.rows_scored = CounterValue("kernel.rows_scored");
    c.postings_scanned = CounterValue("bm25.postings_scanned");
    c.blocks_skipped = CounterValue("index.blocks_skipped");
    c.blocks_decoded = CounterValue("index.blocks_decoded");
    return c;
  }
  /// Per-layer work of the phase between `before` and `after`, divided
  /// by `units` (batches or requests).
  static void Report(const WorkCounters& before, const WorkCounters& after,
                     double units, std::map<std::string, double>& out) {
    const double expansions =
        static_cast<double>(after.beam_expansions - before.beam_expansions);
    out["lm.beam_expansions"] = Ratio(expansions, units);
    out["lm.beam_prune_ratio"] = Ratio(
        static_cast<double>(after.beam_prunes - before.beam_prunes),
        expansions);
    out["expand.genexpan_rounds"] = Ratio(
        static_cast<double>(after.genexpan_rounds - before.genexpan_rounds),
        units);
    out["math.rows_scored"] = Ratio(
        static_cast<double>(after.rows_scored - before.rows_scored), units);
    out["index.postings_scanned"] = Ratio(
        static_cast<double>(after.postings_scanned - before.postings_scanned),
        units);
    const double skipped =
        static_cast<double>(after.blocks_skipped - before.blocks_skipped);
    const double decoded =
        static_cast<double>(after.blocks_decoded - before.blocks_decoded);
    out["index.blocks_skipped_ratio"] = Ratio(skipped, skipped + decoded);
  }
};

}  // namespace

Report RunOfflineTable2(const Options& options) {
  Report report;
  RecordCommonConfig(options, report);
  const PipelineConfig config = WorkloadConfig();
  const std::string cache_dir = UseWarmCache(options, config, report);

  SpanRecorder setup(/*enabled=*/true);
  int64_t trainer_steps_before = 0;
  double setup_s = 0;
  // RetExpan per-query time depends on where a pipeline's data landed in
  // memory: serial passes over one pipeline agree within a few percent,
  // while two set-ups of the same process differ by up to 25%. So the
  // offline RetExpan p50 samples kRetexpanLayouts pipelines, further warm
  // builds first (so they add nothing to the peak RSS) and then the set-up
  // repetitions, and reports the median of their medians.
  RetexpanProbes probes;
  for (int i = kOfflineSetupReps; i < kRetexpanLayouts; ++i) {
    const std::unique_ptr<Pipeline> pipeline = BuildPipeline(config);
    probes.Probe(*pipeline->MakeRetExpan(), pipeline->dataset().queries);
  }
  std::unique_ptr<OfflineRig> rig = SetUpRepeatedly<OfflineRig>(
      kOfflineSetupReps, [&] { return BuildOfflineRig(config, setup); },
      [&] { trainer_steps_before = CounterValue("trainer.steps"); },
      [&](OfflineRig& built) {
        probes.Probe(*built.methods[RetexpanMethodIndex()],
                     built.pipeline->dataset().queries);
      },
      &setup_s);
  report.config["setup_reps"] = std::to_string(kOfflineSetupReps);
  const int64_t trainer_steps =
      CounterValue("trainer.steps") - trainer_steps_before;
  // The seed orders the queries each evaluation walks; rankings and their
  // digests do not depend on the order.
  ultrawiki::UltraWikiDataset dataset = rig->pipeline->dataset();
  {
    const std::vector<uint32_t> order =
        Permutation(dataset.queries.size(), options.seed);
    std::vector<Query> permuted;
    for (const uint32_t q : order) permuted.push_back(dataset.queries[q]);
    dataset.queries = std::move(permuted);
  }
  report.config["queries"] = std::to_string(dataset.queries.size());
  report.config["candidates"] = std::to_string(dataset.candidates.size());

  SpanRecorder run(/*enabled=*/false);
  const auto& methods = OfflineMethods();
  std::vector<std::unique_ptr<TimedExpander>> timed;
  for (size_t i = 0; i < methods.size(); ++i) {
    timed.push_back(std::make_unique<TimedExpander>(
        *rig->methods[i], run, std::string("expand.") + methods[i].key));
  }
  TimedExpander fine_case(*rig->fine_case, run, "expand.case.fine");
  TimedExpander fine_retexpan(*rig->fine_retexpan, run,
                              "expand.retexpan.fine");
  std::vector<TimedExpander*> all;
  std::vector<std::string> all_keys;
  for (size_t i = 0; i < timed.size(); ++i) {
    all.push_back(timed[i].get());
    all_keys.push_back(methods[i].key);
  }
  all.push_back(&fine_case);
  all_keys.push_back("fine_case");
  all.push_back(&fine_retexpan);
  all_keys.push_back("fine_retexpan");
  auto index_of = [&](const std::string& key) {
    return static_cast<size_t>(
        std::find(all_keys.begin(), all_keys.end(), key) - all_keys.begin());
  };
  const size_t retexpan_index = RetexpanMethodIndex();

  // Timed phase: closed batches of the 11 Table 2 methods plus the
  // fine-grained MAP@100 pass. At least one batch runs; another starts
  // only if it would end, at the last batch's pace, within `seconds`.
  // Every batch's per-method ranking digest must equal the first one's.
  std::vector<uint64_t> first_digests;
  bool deterministic = true;
  struct BatchRun {
    double seconds = 0;
    int batches = 0;
    int64_t calls = 0;
  };
  auto run_batches = [&](double seconds) {
    for (TimedExpander* t : all) t->Reset();
    BatchRun out;
    const int64_t start = NowNs();
    double last_batch_s = 0;
    do {
      const int64_t batch_start = NowNs();
      std::vector<uint64_t> before;
      for (TimedExpander* t : all) before.push_back(t->digest());
      for (size_t i = 0; i < timed.size(); ++i) {
        ScopedSpan span(run, std::string("eval.") + methods[i].key);
        ultrawiki::EvaluateExpander(*timed[i], dataset);
      }
      {
        ScopedSpan span(run, "eval.fine_grained_map");
        ultrawiki::EvaluateFineGrainedMap(fine_case, dataset,
                                          rig->pipeline->world(), 100);
        ultrawiki::EvaluateFineGrainedMap(fine_retexpan, dataset,
                                          rig->pipeline->world(), 100);
      }
      std::vector<uint64_t> digests;
      for (size_t i = 0; i < all.size(); ++i) {
        digests.push_back(all[i]->digest() - before[i]);
      }
      if (first_digests.empty()) first_digests = digests;
      if (digests != first_digests) deterministic = false;
      ++out.batches;
      last_batch_s = Seconds(batch_start, NowNs());
    } while (Seconds(start, NowNs()) + last_batch_s <= seconds);
    out.seconds = Seconds(start, NowNs());
    for (TimedExpander* t : all) {
      out.calls += static_cast<int64_t>(t->latencies_ms().size());
    }
    return out;
  };

  const BatchRun measured = run_batches(options.seconds);
  int64_t attempted = measured.calls;
  int batches = measured.batches;
  report.config["batches"] = std::to_string(measured.batches);

  // End-to-end metrics.
  std::vector<double> pooled;
  for (TimedExpander* t : all) {
    const std::vector<double> l = t->latencies_ms();
    pooled.insert(pooled.end(), l.begin(), l.end());
  }
  TimedExpander& retexpan = *all[retexpan_index];
  TimedExpander& genexpan = *all[index_of("genexpan")];
  const std::vector<double> ret_ms = retexpan.latencies_ms();
  const std::vector<double> gen_ms = genexpan.latencies_ms();
  const Tail ret_tail = TailOf(ret_ms);
  const Tail pooled_tail = TailOf(pooled);
  report.end_to_end["setup_s"] = setup_s;
  report.end_to_end["throughput_qps"] =
      static_cast<double>(measured.calls) / measured.seconds;
  // Pipelines fall into a fast (about 0.14 ms) and a slow (about 0.21 ms)
  // layout, in proportions that vary between runs. A median over them
  // jumps between the two; the mean moves by the share of each.
  double p50_sum = 0;
  std::string p50s;
  for (const double ms : probes.p50_ms) {
    p50_sum += ms;
    p50s += Fmt(ms) + " ";
  }
  report.end_to_end["retexpan_p50_ms"] =
      p50_sum / static_cast<double>(probes.p50_ms.size());
  report.config["retexpan_p50"] =
      "mean over pipelines of the p50 of serial RetExpan passes (" +
      std::to_string(kProbePasses) + " x " +
      std::to_string(dataset.queries.size()) + " queries each): " + p50s;
  // Tails are reported with the per-layer metrics: on a shared host they
  // swing by 2x between runs, too far for an end-to-end bound.
  report.per_layer["retexpan.tail_ms"] = ret_tail.value;
  report.per_layer["request.tail_ms"] = pooled_tail.value;
  report.config["retexpan_tail"] = "p" + Fmt(ret_tail.percentile) + " of " +
                                   std::to_string(ret_tail.samples);
  report.config["request_tail"] = "p" + Fmt(pooled_tail.percentile) +
                                  " of " + std::to_string(pooled_tail.samples);

  if (options.trace) {
    // Second, traced pass: per-layer numbers, and the tracing overhead as
    // the throughput gap to the untraced pass above.
    run.set_enabled(true);
    const WorkCounters before = WorkCounters::Read();
    const BatchRun traced = run_batches(options.seconds);
    const WorkCounters after = WorkCounters::Read();
    attempted += traced.calls;
    batches += traced.batches;
    std::map<std::string, double>& layer = report.per_layer;
    WorkCounters::Report(before, after, traced.batches, layer);
    const double traced_qps =
        static_cast<double>(traced.calls) / traced.seconds;
    layer["trace.overhead_pct"] =
        (report.end_to_end["throughput_qps"] / traced_qps - 1) * 100;
    for (size_t i = 0; i < timed.size(); ++i) {
      layer[std::string("eval.") + methods[i].key + ".query_ms"] =
          Median(timed[i]->latencies_ms());
    }
    layer["eval.fine_grained_map_s"] =
        MedianOr0(run.DurationsUs("eval.fine_grained_map")) / 1e6;
    layer["expand.gen_over_ret"] = Ratio(Median(genexpan.latencies_ms()),
                                         Median(retexpan.latencies_ms()));
    layer["genexpan.p50_ms"] = Median(gen_ms);
    layer["genexpan.tail_ms"] = TailOf(gen_ms).value;
    layer["pipeline.build_s"] =
        MedianOr0(setup.DurationsUs("pipeline.build")) / 1e6;
    for (const char* store : {"weak_store", "static_store", "contrast_store",
                              "ra_store", "distributions"}) {
      layer[std::string("embedding.") + store + "_s"] =
          MedianOr0(setup.DurationsUs(std::string("embedding.") + store)) /
          1e6;
    }
    layer["embedding.trainer_steps"] = static_cast<double>(trainer_steps);
    const DirStats cache = ScanDir(cache_dir);
    layer["io.cache_bytes"] = static_cast<double>(cache.bytes);
    layer["io.cache_files"] = static_cast<double>(cache.files);
    run.WriteChromeTrace(options.out_dir + "/trace-offline_table2-seed" +
                         std::to_string(options.seed) + ".json");
  }
  report.end_to_end["peak_rss_mb"] = PeakRssMb();

  // Correctness: every batch ranks exactly like the first, and the first
  // matches the digests recorded for the Bench() world.
  const std::map<std::string, uint64_t> recorded = LoadDigests(options.digests);
  int mismatched_methods = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    const auto it = recorded.find(all_keys[i]);
    if (it == recorded.end() || it->second != first_digests[i]) {
      std::fprintf(stderr, "uwbench: %s ranking digest %016llx is not the "
                   "recorded one\n", all_keys[i].c_str(),
                   static_cast<unsigned long long>(first_digests[i]));
      ++mismatched_methods;
    }
  }
  if (!options.record_digests.empty()) {
    std::ofstream out(options.record_digests);
    out << "# Ranking digests of the offline_table2 methods on the Bench() "
           "world.\n";
    for (size_t i = 0; i < all.size(); ++i) {
      char hex[24];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(first_digests[i]));
      out << all_keys[i] << ' ' << hex << '\n';
    }
  }
  // Every probe pass must rank exactly like the batch's RetExpan pass.
  for (const uint64_t digest : probes.digests) {
    if (digest != first_digests[retexpan_index] *
                      static_cast<uint64_t>(kProbePasses)) {
      deterministic = false;
    }
  }
  // A digest covers a whole method, so a mismatch fails all of that
  // method's queries; nondeterminism across batches fails every query.
  report.attempted = attempted;
  report.failed =
      deterministic ? mismatched_methods *
                          static_cast<int64_t>(dataset.queries.size()) * batches
                    : attempted;
  report.correct = report.failed == 0;
  report.per_layer["error_rate"] = Ratio(static_cast<double>(report.failed),
                                         static_cast<double>(attempted));
  return report;
}

// ------------------------------------------------------- serving load.

namespace {

[[noreturn]] void Fail(const std::string& what, const ultrawiki::Status& s) {
  std::fprintf(stderr, "uwbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

/// The traffic of a serving workload. Index m of `methods` and `share` is
/// RequestRecord::method m. The open loop runs on `lanes` connections and
/// the closed loop on `saturation_lanes`, enough to fill the server's
/// largest batch.
struct LoadPlan {
  std::vector<std::string> methods;
  std::vector<double> share;
  double nominal_rate = 0;
  double nominal_seconds = 0;
  double saturation_seconds = 0;
  int lanes = 0;
  int saturation_lanes = 0;
};

/// Evenly spaced arrivals at `rate` for `seconds`. Methods are drawn with
/// the plan's shares; each method walks its own seeded permutation of the
/// queries, so a long enough phase covers every query.
std::vector<Arrival> MakeSchedule(const LoadPlan& plan, double rate,
                                  double seconds, uint64_t seed,
                                  size_t query_count) {
  const size_t count =
      std::max<size_t>(1, static_cast<size_t>(std::llround(rate * seconds)));
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0, 1);
  std::vector<int> method_of(count);
  for (size_t i = 0; i < count; ++i) {
    double draw = unit(rng);
    int m = 0;
    while (m + 1 < static_cast<int>(plan.share.size()) &&
           draw >= plan.share[static_cast<size_t>(m)]) {
      draw -= plan.share[static_cast<size_t>(m)];
      ++m;
    }
    method_of[i] = m;
  }
  std::vector<std::vector<uint32_t>> order;
  for (size_t m = 0; m < plan.methods.size(); ++m) {
    order.push_back(Permutation(query_count, seed * 31 + m));
  }
  std::vector<size_t> next(plan.methods.size(), 0);
  std::vector<uint32_t> query_of(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t m = static_cast<size_t>(method_of[i]);
    query_of[i] = order[m][next[m]++ % query_count];
  }
  return EvenSchedule(
      rate, count, [&](size_t i) { return method_of[i]; },
      [&](size_t i) { return query_of[i]; });
}

/// Offline rankings of every query for every method of the plan,
/// computed in-process with Expander::Expand before timing starts.
struct References {
  std::vector<std::vector<std::vector<EntityId>>> rankings;  // [m][q]
  std::vector<std::vector<double>> direct_us;                // [m]
};

References ComputeReferences(Pipeline& pipeline, const LoadPlan& plan) {
  const auto& queries = pipeline.dataset().queries;
  References refs;
  for (size_t m = 0; m < plan.methods.size(); ++m) {
    std::unique_ptr<Expander> expander =
        serve::MakeExpanderByName(pipeline, plan.methods[m]);
    std::vector<std::vector<EntityId>> rankings(queries.size());
    std::vector<double> micros(queries.size());
    ultrawiki::ThreadPool::Global().ParallelFor(
        0, static_cast<int64_t>(queries.size()), 1, [&](int64_t i) {
          const size_t q = static_cast<size_t>(i);
          const int64_t start = NowNs();
          rankings[q] = expander->Expand(queries[q], kServeK);
          micros[q] = static_cast<double>(NowNs() - start) / 1e3;
        });
    refs.rankings.push_back(std::move(rankings));
    refs.direct_us.push_back(std::move(micros));
  }
  return refs;
}

/// Client side of the load: one ServeClient per lane.
IssueFn MakeIssue(std::vector<serve::ServeClient>& clients,
                  const LoadPlan& plan, const References& refs,
                  SpanRecorder& run) {
  return [&clients, &plan, &refs, &run](int lane, const Arrival& arrival) {
    serve::ServeClient& client = clients[static_cast<size_t>(lane)];
    const std::string& method =
        plan.methods[static_cast<size_t>(arrival.method)];
    const int64_t start = NowNs();
    const auto ranking = client.ExpandByIndex(method, arrival.query, kServeK);
    run.Record("client.expand." + method, start, NowNs(), 0,
               client.last_trace_id());
    return ranking.ok() &&
           *ranking == refs.rankings[static_cast<size_t>(arrival.method)]
                                    [arrival.query];
  };
}

std::vector<serve::ServeClient> ConnectLanes(int port, int lanes) {
  std::vector<serve::ServeClient> clients;
  for (int i = 0; i < lanes; ++i) {
    auto client = serve::ServeClient::Connect("127.0.0.1", port);
    if (!client.ok()) Fail("connect", client.status());
    clients.push_back(std::move(client).value());
  }
  return clients;
}

std::vector<double> LatenciesMs(const std::vector<RequestRecord>& records,
                                int method) {
  std::vector<double> out;
  for (const RequestRecord& r : records) {
    if (method < 0 || r.method == method) out.push_back(LatencyMs(r));
  }
  return out;
}

/// Median over kTailWindows consecutive windows of each window's tail:
/// one stall in a run moves one window, not the reported tail.
Tail WindowedTail(const std::vector<RequestRecord>& records, int method) {
  std::vector<double> values;
  Tail shape;
  for (int w = 0; w < kTailWindows; ++w) {
    const size_t begin = records.size() * static_cast<size_t>(w) / kTailWindows;
    const size_t end =
        records.size() * static_cast<size_t>(w + 1) / kTailWindows;
    const std::vector<RequestRecord> window(records.begin() + begin,
                                            records.begin() + end);
    shape = TailOf(LatenciesMs(window, method));
    values.push_back(shape.value);
  }
  shape.value = Median(values);
  shape.samples = LatenciesMs(records, method).size();
  return shape;
}

struct LoadOutcome {
  std::vector<RequestRecord> nominal;  // every rig's share, in rig order
  std::vector<double> rig_p50_ms;      // RetExpan p50 on each rig
  double saturation_qps = 0;
  std::vector<double> saturation_windows;  // requests/s per window
  int64_t attempted = 0;
  int64_t failed = 0;
};

void Tally(const std::vector<RequestRecord>& records, LoadOutcome& out) {
  out.attempted += static_cast<int64_t>(records.size());
  for (const RequestRecord& r : records) out.failed += r.ok ? 0 : 1;
}

void RecordPlan(const LoadPlan& plan, const serve::ServeConfig& serve_config,
                Report& report) {
  std::string methods;
  for (size_t m = 0; m < plan.methods.size(); ++m) {
    methods += plan.methods[m] + ":" + Fmt(plan.share[m]) + " ";
  }
  report.config["mix"] = methods;
  report.config["nominal_rate"] = Fmt(plan.nominal_rate);
  report.config["nominal_seconds"] = Fmt(plan.nominal_seconds);
  report.config["saturation_seconds"] = Fmt(plan.saturation_seconds);
  report.config["connections"] = std::to_string(plan.lanes);
  report.config["saturation_connections"] =
      std::to_string(plan.saturation_lanes);
  report.config["serve_config"] =
      "max_batch=" + std::to_string(serve_config.max_batch) +
      " batch_wait_ms=" + std::to_string(serve_config.batch_wait_ms) +
      " max_queue=" + std::to_string(serve_config.max_queue) +
      " default_timeout_ms=" +
      std::to_string(serve_config.default_timeout_ms) +
      " trace_sample=" + std::to_string(serve_config.trace_sample);
}

/// Shared end-to-end metrics of both serving workloads.
void ServingEndToEnd(const LoadOutcome& load, double setup_s,
                     Report& report) {
  const Tail ret_tail = WindowedTail(load.nominal, 0);
  const Tail all_tail = WindowedTail(load.nominal, -1);
  report.end_to_end["setup_s"] = setup_s;
  report.end_to_end["throughput_qps"] = load.saturation_qps;
  report.end_to_end["retexpan_p50_ms"] = Median(load.rig_p50_ms);
  std::string rig_p50s;
  for (const double ms : load.rig_p50_ms) rig_p50s += Fmt(ms) + " ";
  report.config["retexpan_p50"] =
      "median over rigs of each rig's p50: " + rig_p50s;
  report.per_layer["retexpan.tail_ms"] = ret_tail.value;
  report.per_layer["request.tail_ms"] = all_tail.value;
  std::string windows;
  for (const double qps : load.saturation_windows) windows += Fmt(qps) + " ";
  report.config["saturation_window_qps"] = windows;
  report.config["saturation_windows"] =
      std::to_string(load.saturation_windows.size());
  report.config["retexpan_tail"] =
      "median of " + std::to_string(kTailWindows) + " window p" +
      Fmt(ret_tail.percentile) + "s over " +
      std::to_string(ret_tail.samples);
  report.config["request_tail"] =
      "median of " + std::to_string(kTailWindows) + " window p" +
      Fmt(all_tail.percentile) + "s over " +
      std::to_string(all_tail.samples);
  report.attempted = load.attempted;
  report.failed = load.failed;
  report.correct = load.failed == 0;
}

/// Per-layer numbers both serving workloads share: client round trip,
/// frontend span, network share, generator lateness, tracing overhead.
void ServingLayers(SpanRecorder& run, const LoadOutcome& untraced,
                   const std::vector<RequestRecord>& traced,
                   const std::string& front_prefix, Report& report) {
  std::map<std::string, double>& layer = report.per_layer;
  LinkStats links;
  for (const char* method : {"retexpan", "genexpan"}) {
    const LinkStats linked = run.LinkByKey(
        std::string("client.expand.") + method,
        front_prefix + ".expand." + method);
    links.linked += linked.linked;
    links.ambiguous += linked.ambiguous;
    links.children += linked.children;
  }
  report.config["client_links"] =
      std::to_string(links.linked) + " of " + std::to_string(links.children) +
      " frontend spans linked, " + std::to_string(links.ambiguous) +
      " left out as ambiguous";
  const std::vector<double> roundtrip =
      run.DurationsUs("client.expand.retexpan");
  layer["serve.client.roundtrip_p50_us"] = MedianOr0(roundtrip);
  layer["serve.client.roundtrip_tail_us"] = TailOf(roundtrip).value;
  layer["serve.frontend.expand_us"] =
      MedianOr0(run.DurationsUs(front_prefix + ".expand.retexpan"));
  // Per request: the client span's time outside its linked frontend span
  // (encode, loopback, decode and handler wake-up on both sides).
  layer["serve.net_us"] = MedianOr0(run.SelfTimesUs(
      "client.expand.retexpan", front_prefix + ".expand.retexpan"));
  std::vector<double> lateness;
  for (const RequestRecord& r : untraced.nominal) {
    lateness.push_back(LatenessUs(r));
  }
  layer["loadgen.lateness_p50_us"] = MedianOr0(lateness);
  layer["loadgen.lateness_tail_us"] = TailOf(lateness).value;
  // The traced pass repeats the last rig's nominal share on that rig.
  layer["trace.overhead_pct"] =
      (Ratio(Median(LatenciesMs(traced, 0)), untraced.rig_p50_ms.back()) - 1) *
      100;
  layer["error_rate"] = Ratio(static_cast<double>(report.failed),
                              static_cast<double>(report.attempted));
  layer["serve.saturation_qps"] = untraced.saturation_qps;
}

/// A serving run's set-ups and timed phases. It sets up `reps` rigs, each
/// from nothing once the previous one is torn down, and drives each rig
/// with its 1/reps share of the open-loop nominal schedule and then of the
/// closed-loop saturation phase. What a served request costs differs from
/// rig to rig (cluster_mixed rigs of one run: p50 1.33 against 1.77 ms),
/// so RetExpan p50 is the median of the rigs' p50s and throughput the
/// median of all rigs' windows, as the offline RetExpan p50 is a median
/// over pipelines. The references come
/// from the first rig before anything is timed. `--trace 1` then repeats
/// the last rig's nominal share on it with spans on.
struct ServingRun {
  LoadOutcome load;
  References refs;
  double setup_s = 0;
  size_t query_count = 0;
  std::vector<RequestRecord> traced;
  WorkCounters before, after;
  int64_t batches = 0, batch_sum = 0;
};

template <typename Rig>
ServingRun SetUpAndDrive(const Options& options, const LoadPlan& plan,
                         int reps,
                         const std::function<std::unique_ptr<Rig>()>& build,
                         const std::function<void()>& before_rep,
                         SpanRecorder& run, std::unique_ptr<Rig>& rig) {
  ServingRun out;
  std::vector<double> setup_times;
  std::vector<Arrival> nominal;
  const double saturation_s = plan.saturation_seconds / reps;
  for (int rep = 0; rep < reps; ++rep) {
    rig.reset();
    if (before_rep) before_rep();
    const int64_t start = NowNs();
    rig = build();
    setup_times.push_back(Seconds(start, NowNs()));
    if (rep == 0) {
      out.query_count = rig->pipeline->dataset().queries.size();
      out.refs = ComputeReferences(*rig->pipeline, plan);
      nominal = MakeSchedule(plan, plan.nominal_rate, plan.nominal_seconds,
                             options.seed, out.query_count);
    }
    const IssueFn issue = MakeIssue(rig->clients, plan, out.refs, run);
    const std::vector<RequestRecord> share =
        RunOpenLoop(SliceSchedule(nominal, rep, reps), plan.lanes, issue);
    Tally(share, out.load);
    out.load.rig_p50_ms.push_back(MedianOr0(LatenciesMs(share, 0)));
    out.load.nominal.insert(out.load.nominal.end(), share.begin(),
                            share.end());
    // Arrivals far beyond any reachable rate; the loop stops on time.
    const std::vector<RequestRecord> closed = RunClosedLoop(
        MakeSchedule(plan, kClosedLoopCeiling, saturation_s,
                     options.seed + 1000 + static_cast<uint64_t>(rep),
                     out.query_count),
        plan.saturation_lanes, saturation_s, issue);
    Tally(closed, out.load);
    for (const double qps : WindowThroughputs(closed, saturation_s,
                                              kSaturationWindowsPerRig)) {
      out.load.saturation_windows.push_back(qps);
    }
  }
  out.setup_s = Median(setup_times);
  out.load.saturation_qps = Median(out.load.saturation_windows);
  if (options.trace) {
    const IssueFn issue = MakeIssue(rig->clients, plan, out.refs, run);
    obs::Histogram& batch_size = obs::GetHistogram("serve.batch_size", {});
    const ultrawiki::obs::HistogramData before = batch_size.Aggregate();
    out.before = WorkCounters::Read();
    run.set_enabled(true);
    out.traced =
        RunOpenLoop(SliceSchedule(nominal, reps - 1, reps), plan.lanes, issue);
    run.set_enabled(false);
    out.after = WorkCounters::Read();
    const ultrawiki::obs::HistogramData after = batch_size.Aggregate();
    out.batches = after.count - before.count;
    out.batch_sum = after.sum - before.sum;
    Tally(out.traced, out.load);
  }
  return out;
}

/// A serving plan: the given method mix, the open loop on min(nproc, 4)
/// connections and the closed loop on `max_batch` connections, with phase
/// lengths scaled to `--seconds`.
LoadPlan MakePlan(const Options& options,
                  const serve::ServeConfig& serve_config,
                  std::vector<std::string> methods, std::vector<double> share,
                  double nominal_rate) {
  LoadPlan plan;
  plan.methods = std::move(methods);
  plan.share = std::move(share);
  plan.nominal_rate = nominal_rate;
  plan.nominal_seconds = options.seconds * kNominalShare;
  plan.saturation_seconds = options.seconds * kSaturationShare;
  plan.lanes = static_cast<int>(
      std::clamp<unsigned>(std::thread::hardware_concurrency(), 1, 4));
  plan.saturation_lanes = std::max(plan.lanes, serve_config.max_batch);
  return plan;
}

// ------------------------------------------------------ serve_retexpan.

struct ServeRig {
  std::unique_ptr<Pipeline> pipeline;
  std::unique_ptr<serve::ExpansionService> service;
  serve::ServiceHost host;
  std::unique_ptr<TimedFrontend> front;
  std::unique_ptr<serve::TcpServer> server;
  std::vector<serve::ServeClient> clients;

  ServeRig() = default;
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;
  ~ServeRig() {
    clients.clear();
    if (server != nullptr) server->Shutdown();
  }
};

std::unique_ptr<ServeRig> BuildServeRig(const PipelineConfig& config,
                                        const serve::ServeConfig& serve_config,
                                        int lanes, SpanRecorder& setup,
                                        SpanRecorder& run) {
  auto rig = std::make_unique<ServeRig>();
  {
    ScopedSpan span(setup, "pipeline.build");
    rig->pipeline = BuildPipeline(config);
  }
  rig->service =
      std::make_unique<serve::ExpansionService>(*rig->pipeline, serve_config);
  {
    ScopedSpan span(setup, "serve.prewarm");
    const ultrawiki::Status status =
        rig->service->PrewarmMethods({"retexpan"});
    if (!status.ok()) Fail("prewarm", status);
  }
  rig->host.Install(serve::ServiceHost::Borrow(*rig->service));
  rig->front = std::make_unique<TimedFrontend>(rig->host, run, "frontend");
  rig->server = std::make_unique<serve::TcpServer>(*rig->front);
  const ultrawiki::Status started = rig->server->Start(0);
  if (!started.ok()) Fail("server start", started);
  rig->clients = ConnectLanes(rig->server->port(), lanes);
  return rig;
}

// ------------------------------------------------------- cluster_mixed.

struct ShardRig {
  std::unique_ptr<serve::ExpansionService> service;
  serve::ServiceHost host;
  std::unique_ptr<TimedFrontend> front;
  std::unique_ptr<serve::TcpServer> server;

  ShardRig() = default;
  ShardRig(const ShardRig&) = delete;
  ShardRig& operator=(const ShardRig&) = delete;
  ~ShardRig() {
    if (server != nullptr) server->Shutdown();
  }
};

struct ClusterRig {
  std::unique_ptr<Pipeline> pipeline;
  std::vector<std::unique_ptr<ShardRig>> shards;
  std::unique_ptr<serve::ClusterRouter> router;
  std::unique_ptr<TimedFrontend> front;
  std::unique_ptr<serve::TcpServer> server;
  std::vector<serve::ServeClient> clients;

  ClusterRig() = default;
  ClusterRig(const ClusterRig&) = delete;
  ClusterRig& operator=(const ClusterRig&) = delete;
  ~ClusterRig() {
    clients.clear();
    if (server != nullptr) server->Shutdown();  // drains the router too
    shards.clear();
  }
};

constexpr int kShards = 2;

std::unique_ptr<ClusterRig> BuildClusterRig(
    const PipelineConfig& config, const serve::ServeConfig& serve_config,
    int lanes, SpanRecorder& setup, SpanRecorder& run) {
  auto rig = std::make_unique<ClusterRig>();
  {
    ScopedSpan span(setup, "pipeline.build");
    rig->pipeline = BuildPipeline(config);
  }
  serve::RouterConfig topology;
  topology.shard_count = kShards;
  topology.health_poll_ms = 0;  // in-process shards: transport signals only
  for (int s = 0; s < kShards; ++s) {
    auto shard = std::make_unique<ShardRig>();
    shard->service = std::make_unique<serve::ExpansionService>(
        *rig->pipeline, serve_config);
    {
      ScopedSpan span(setup, "serve.shard_store");
      const ultrawiki::Status status =
          shard->service->EnableSharding({s, kShards});
      if (!status.ok()) Fail("enable sharding", status);
    }
    {
      ScopedSpan span(setup, "serve.prewarm");
      const ultrawiki::Status status =
          shard->service->PrewarmMethods({"retexpan", "genexpan"});
      if (!status.ok()) Fail("prewarm", status);
    }
    shard->host.Install(serve::ServiceHost::Borrow(*shard->service));
    shard->front = std::make_unique<TimedFrontend>(shard->host, run, "shard");
    shard->server = std::make_unique<serve::TcpServer>(*shard->front);
    const ultrawiki::Status started = shard->server->Start(0);
    if (!started.ok()) Fail("shard start", started);
    serve::ReplicaEndpoint endpoint;
    endpoint.shard = s;
    endpoint.port = shard->server->port();
    topology.replicas.push_back(endpoint);
    rig->shards.push_back(std::move(shard));
  }
  rig->router = std::make_unique<serve::ClusterRouter>(std::move(topology));
  const ultrawiki::Status routed = rig->router->Start();
  if (!routed.ok()) Fail("router start", routed);
  rig->front = std::make_unique<TimedFrontend>(*rig->router, run, "router");
  rig->server = std::make_unique<serve::TcpServer>(*rig->front);
  const ultrawiki::Status started = rig->server->Start(0);
  if (!started.ok()) Fail("router front start", started);
  rig->clients = ConnectLanes(rig->server->port(), lanes);
  return rig;
}

}  // namespace

Report RunServeRetexpan(const Options& options) {
  Report report;
  RecordCommonConfig(options, report);
  const PipelineConfig config = WorkloadConfig();
  const serve::ServeConfig serve_config;  // production defaults
  const std::string cache_dir = UseWarmCache(options, config, report);

  const LoadPlan plan = MakePlan(options, serve_config, {"retexpan"}, {1.0},
                                 /*nominal_rate=*/400);
  RecordPlan(plan, serve_config, report);

  SpanRecorder setup(/*enabled=*/true);
  SpanRecorder run(/*enabled=*/false);
  std::unique_ptr<ServeRig> rig;
  const ServingRun served = SetUpAndDrive<ServeRig>(
      options, plan, kServeSetupReps,
      [&] {
        return BuildServeRig(config, serve_config, plan.saturation_lanes,
                             setup, run);
      },
      nullptr, run, rig);
  report.config["setup_reps"] = std::to_string(kServeSetupReps);
  report.config["queries"] = std::to_string(served.query_count);
  ServingEndToEnd(served.load, served.setup_s, report);
  report.end_to_end["peak_rss_mb"] = PeakRssMb();

  if (options.trace) {
    std::map<std::string, double>& layer = report.per_layer;
    ServingLayers(run, served.load, served.traced, "frontend", report);
    WorkCounters::Report(served.before, served.after,
                         static_cast<double>(served.traced.size()), layer);
    layer["pipeline.build_s"] =
        MedianOr0(setup.DurationsUs("pipeline.build")) / 1e6;
    layer["serve.prewarm_s"] =
        MedianOr0(setup.DurationsUs("serve.prewarm")) / 1e6;
    const double direct = MedianOr0(served.refs.direct_us[0]);
    layer["expand.retexpan.expand_us"] = direct;
    layer["serve.queue_batch_us"] = layer["serve.frontend.expand_us"] - direct;
    layer["serve.batch_size_mean"] =
        Ratio(static_cast<double>(served.batch_sum),
              static_cast<double>(served.batches));
    const DirStats cache = ScanDir(cache_dir);
    layer["io.cache_bytes"] = static_cast<double>(cache.bytes);
    layer["io.cache_files"] = static_cast<double>(cache.files);
    run.WriteChromeTrace(options.out_dir + "/trace-serve_retexpan-seed" +
                         std::to_string(options.seed) + ".json");
  }
  return report;
}

Report RunClusterMixed(const Options& options) {
  Report report;
  RecordCommonConfig(options, report);
  const std::string cache_dir =
      options.cache_root + "/cold-" + std::to_string(getpid());
  UseCacheDir(cache_dir);
  report.config["cache"] = "cold, miss: emptied before every set-up";
  report.config["shards"] = std::to_string(kShards);
  const PipelineConfig config = WorkloadConfig();
  const serve::ServeConfig serve_config;

  const LoadPlan plan =
      MakePlan(options, serve_config, {"retexpan", "genexpan"}, {0.9, 0.1},
               /*nominal_rate=*/150);
  RecordPlan(plan, serve_config, report);

  SpanRecorder setup(/*enabled=*/true);
  SpanRecorder run(/*enabled=*/false);
  const int64_t failovers_before = CounterValue("router.failovers");
  const int64_t lookups_before = CounterValue("router.lookups");
  const int64_t hits_before = CounterValue("router.lookup_cache_hits");
  std::unique_ptr<ClusterRig> rig;
  const ServingRun served = SetUpAndDrive<ClusterRig>(
      options, plan, kClusterSetupReps,
      [&] {
        return BuildClusterRig(config, serve_config, plan.saturation_lanes,
                               setup, run);
      },
      [&] { ResetDir(cache_dir); }, run, rig);
  report.config["setup_reps"] = std::to_string(kClusterSetupReps);
  report.config["queries"] = std::to_string(served.query_count);
  // Serving reads the artifacts; only the set-ups wrote them.
  const DirStats cache = ScanDir(cache_dir);
  ServingEndToEnd(served.load, served.setup_s, report);
  report.end_to_end["peak_rss_mb"] = PeakRssMb();

  if (options.trace) {
    std::map<std::string, double>& layer = report.per_layer;
    ServingLayers(run, served.load, served.traced, "router", report);
    WorkCounters::Report(served.before, served.after,
                         static_cast<double>(served.traced.size()), layer);
    layer["pipeline.build_s"] =
        MedianOr0(setup.DurationsUs("pipeline.build")) / 1e6;
    layer["serve.prewarm_s"] =
        MedianOr0(setup.DurationsUs("serve.prewarm")) / 1e6;
    layer["serve.shard_store_s"] =
        MedianOr0(setup.DurationsUs("serve.shard_store")) / 1e6;
    layer["io.cache_bytes"] = static_cast<double>(cache.bytes);
    layer["io.cache_files"] = static_cast<double>(cache.files);
    const double ret_direct = MedianOr0(served.refs.direct_us[0]);
    layer["expand.retexpan.expand_us"] = ret_direct;
    layer["expand.gen_over_ret"] =
        Ratio(MedianOr0(served.refs.direct_us[1]), ret_direct);
    const std::vector<double> gen_ms = LatenciesMs(served.load.nominal, 1);
    layer["genexpan.p50_ms"] = MedianOr0(gen_ms);
    layer["genexpan.tail_ms"] = TailOf(gen_ms).value;
    const double router_ret =
        MedianOr0(run.DurationsUs("router.expand.retexpan"));
    const double retrieve = MedianOr0(run.DurationsUs("shard.retrieve"));
    const double score = MedianOr0(run.DurationsUs("shard.score"));
    layer["serve.router.retexpan_expand_us"] = router_ret;
    layer["serve.router.genexpan_expand_us"] =
        MedianOr0(run.DurationsUs("router.expand.genexpan"));
    layer["serve.shard.retrieve_us"] = retrieve;
    layer["serve.shard.score_us"] = score;
    layer["serve.shard.expand_us"] =
        MedianOr0(run.DurationsUs("shard.expand.genexpan"));
    // Router self time as a difference of medians: every RetExpan request
    // waits on one retrieve phase and, when it has negative seeds, one
    // score phase (shards run each phase in parallel).
    const double score_share =
        Ratio(static_cast<double>(run.Count("shard.score")),
              static_cast<double>(run.Count("shard.retrieve")));
    layer["serve.router.overhead_us"] =
        router_ret - retrieve - score_share * score;
    layer["router.failovers"] = static_cast<double>(
        CounterValue("router.failovers") - failovers_before);
    layer["router.lookup_cache_hit_ratio"] = Ratio(
        static_cast<double>(CounterValue("router.lookup_cache_hits") -
                            hits_before),
        static_cast<double>(CounterValue("router.lookups") - lookups_before));
    run.WriteChromeTrace(options.out_dir + "/trace-cluster_mixed-seed" +
                         std::to_string(options.seed) + ".json");
  }
  rig.reset();
  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);
  return report;
}

}  // namespace uwbench
