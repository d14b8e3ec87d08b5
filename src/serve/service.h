#ifndef ULTRAWIKI_SERVE_SERVICE_H_
#define ULTRAWIKI_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "expand/pipeline.h"
#include "obs/request_trace.h"
#include "serve/protocol.h"

namespace ultrawiki {
namespace serve {

/// Knobs of the online expansion service. `FromEnv()` resolves the
/// production defaults from the environment:
///
///   UW_SERVE_BATCH         max requests coalesced into one batch (16)
///   UW_SERVE_BATCH_WAIT_MS how long a forming batch waits to fill (1)
///   UW_SERVE_QUEUE         admission-controlled queue depth bound (256)
///   UW_SERVE_TIMEOUT_MS    default per-request deadline, 0 = none (0)
///   UW_TRACE_SAMPLE        trace every Nth accepted request, 0 = off (0)
///   UW_SLOW_QUERY_MS       log requests slower than this, 0 = off (0)
struct ServeConfig {
  int max_batch = 16;
  int batch_wait_ms = 1;
  int max_queue = 256;
  int default_timeout_ms = 0;
  /// Synthetic per-batch execution delay. Load-shaping knob for the
  /// overload bench and the shedding/deadline tests; leave 0 in
  /// production.
  int synthetic_delay_ms = 0;
  /// Trace every Nth accepted request (1 = all, 0 = only forced /
  /// slow-threshold traces). Tracing is passive: rankings are
  /// bit-identical at any sampling rate.
  int trace_sample = 0;
  /// Requests slower end-to-end than this land in the SlowQueryLog with
  /// their full span tree. 0 disables the slow-query log.
  int slow_query_ms = 0;

  static ServeConfig FromEnv();
};

/// One expansion request submitted to the service. `timeout_ms < 0`
/// inherits the config default; 0 disables the deadline.
struct ExpandRequest {
  std::string method;
  Query query;
  int k = 20;
  int timeout_ms = -1;
  /// Trace context from the wire (frame header extension). `trace_id` 0
  /// means none supplied — the service assigns its own if it decides to
  /// trace. `force_trace` (the header's sample flag) traces this request
  /// regardless of the sampling rate.
  uint64_t trace_id = 0;
  bool force_trace = false;
};

/// Status + ranking. On any non-OK status the ranking is empty.
/// `degraded` marks an OK result whose expander hit the request deadline
/// mid-flight and returned a budget-truncated (but valid, ranked)
/// best-so-far instead of timing out — the anytime-degradation contract.
struct ExpandResult {
  Status status;
  std::vector<EntityId> ranking;
  bool degraded = false;
};

/// Case-stable registry of method names the service can serve
/// ("retexpan", "genexpan", "probexpan", "setexpan", "case", "cgexpan",
/// "gpt4", "interaction"). Shared with the offline query runner.
const std::vector<std::string>& KnownMethods();

/// Builds the expander for `method`, or nullptr for an unknown name.
/// May lazily train pipeline substrates (contrast store, distributions).
std::unique_ptr<Expander> MakeExpanderByName(Pipeline& pipeline,
                                             const std::string& method);

/// Long-lived serving front-end over a resident Pipeline.
///
/// Requests enter a bounded MPMC queue (admission control: when
/// `max_queue` requests are already waiting, new arrivals are shed
/// immediately with kUnavailable rather than growing the backlog). A
/// dedicated scheduler thread coalesces up to `max_batch` requests —
/// waiting at most `batch_wait_ms` for a partial batch to fill — and
/// executes the batch on the global ThreadPool, one request per lane.
/// Expired deadlines complete with kDeadlineExceeded without executing.
///
/// Determinism: expanders are logically const (expander.h contract), so a
/// request's ranking is bit-identical whether it is served alone or
/// coalesced into any batch composition, at any thread count.
///
/// `Drain()` (also run by the destructor) stops admission, serves
/// everything already queued, and joins the scheduler — the graceful
/// SIGINT/SIGTERM path of `uw_serve`.
class ExpansionService {
 public:
  /// `pipeline` must outlive the service. Expander instances are created
  /// lazily on first use per method; `PrewarmMethods` front-loads that
  /// cost before traffic arrives.
  explicit ExpansionService(Pipeline& pipeline,
                            ServeConfig config = ServeConfig::FromEnv());
  ~ExpansionService();

  ExpansionService(const ExpansionService&) = delete;
  ExpansionService& operator=(const ExpansionService&) = delete;

  /// Builds the expanders for `methods` now. Unknown names fail.
  Status PrewarmMethods(const std::vector<std::string>& methods);

  /// Asynchronous submission; the future resolves when the request is
  /// served, shed, or timed out. Unknown methods and invalid k fail
  /// immediately with kInvalidArgument.
  std::future<ExpandResult> Submit(ExpandRequest request);

  /// Blocking convenience over Submit.
  ExpandResult ExpandSync(ExpandRequest request);

  /// Stops admission, serves the backlog, joins the scheduler.
  /// Idempotent.
  void Drain();

  // --- Shard role (cluster serving; see serve/router.h). ---

  /// Scopes the scatter plane to one shard of the deterministic candidate
  /// partition. With `count > 1` this builds (or loads from the artifact
  /// cache) the shard's EntityStore; `count == 1` serves scatter calls
  /// straight off the full store. Call before taking traffic — the shard
  /// store swap is not synchronized against in-flight scatter calls.
  Status EnableSharding(const ShardSpec& spec);

  /// Scatter recall: RetExpan's StridedRecall over this service's shard
  /// slice (top-`size`, seeds excluded), carrying *global* candidate
  /// positions so the router's TopKStream merge reproduces the unsharded
  /// RanksBefore order bit for bit.
  StatusOr<std::vector<ShardScoredEntity>> ScatterRetrieve(
      const Query& query, size_t size) const;

  /// Scatter rerank support: pos/neg seed-centroid scores for explicit
  /// ids (scored on this shard's store; ids the store lacks score 0,
  /// exactly as the full scan scores them).
  StatusOr<ShardScores> ScatterScore(const Query& query,
                                     const std::vector<EntityId>& ids) const;

  /// Resolves a dataset query index (the wire `by_index` path).
  StatusOr<Query> QueryByIndex(uint32_t index) const;

  const ShardSpec& shard_spec() const { return shard_spec_; }

  const ServeConfig& config() const { return config_; }
  const Pipeline& pipeline() const { return pipeline_; }
  /// Requests currently waiting (excludes the executing batch).
  int queue_depth() const;
  /// Requests admitted but not yet resolved (queued + executing).
  int inflight() const { return inflight_.load(std::memory_order_relaxed); }
  /// True once Drain() has started (admission is closed).
  bool draining() const;

 private:
  struct Pending {
    ExpandRequest request;
    std::chrono::steady_clock::time_point admitted;
    std::chrono::steady_clock::time_point dequeued;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
    std::promise<ExpandResult> promise;
    /// Non-null only for traced requests (sampled / forced / slow-query
    /// threshold armed). Epoch = `admitted`.
    std::unique_ptr<obs::RequestTrace> trace;
  };

  void SchedulerLoop();
  void ExecuteBatch(std::vector<Pending> batch);
  Expander* GetOrBuildExpander(const std::string& method);
  /// Finishes a traced request: records the trace into the SlowQueryLog
  /// when it is slow or forced, then drops it.
  void FinishTrace(Pending& pending,
                   std::chrono::steady_clock::time_point end);

  Pipeline& pipeline_;
  const ServeConfig config_;

  /// Scatter-plane scope. `shard_store_` is null when this service serves
  /// the whole candidate list (count == 1); otherwise it holds the rows
  /// of the shard's slice plus every query seed (expand/pipeline.h).
  ShardSpec shard_spec_;
  std::unique_ptr<EntityStore> shard_store_;

  mutable std::mutex mutex_;  // guards queue_ and draining_
  std::condition_variable scheduler_cv_;
  std::deque<Pending> queue_;
  bool draining_ = false;

  std::mutex expander_mutex_;  // guards expanders_ and pipeline mutation
  std::map<std::string, std::unique_ptr<Expander>> expanders_;

  std::once_flag drain_once_;
  std::thread scheduler_;

  /// Admission sequence (drives the every-Nth sampling decision) and the
  /// live in-flight gauge for the admin endpoint.
  std::atomic<uint64_t> sequence_{0};
  std::atomic<int> inflight_{0};
};

}  // namespace serve
}  // namespace ultrawiki

#endif  // ULTRAWIKI_SERVE_SERVICE_H_
