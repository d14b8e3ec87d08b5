#include "serve/service.h"

#include <algorithm>

#include "common/env.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "expand/expander.h"
#include "expand/retexpan.h"
#include "obs/metrics.h"

namespace ultrawiki {
namespace serve {
namespace {

/// Serving metrics (see README "Online expansion service"). Counters
/// partition every submitted request into exactly one terminal outcome:
/// completed, shed, or timeout. `latency_us` is the lifetime histogram
/// (the deterministic bench artifact); `latency_us.1m` is the sliding
/// ~60s window the admin endpoint's p50/p99 come from.
struct ServeMetrics {
  obs::Counter& accepted = obs::GetCounter("serve.accepted");
  obs::Counter& completed = obs::GetCounter("serve.completed");
  obs::Counter& shed = obs::GetCounter("serve.shed");
  obs::Counter& timeout = obs::GetCounter("serve.timeout");
  obs::Counter& rejected = obs::GetCounter("serve.rejected");
  obs::Counter& batches = obs::GetCounter("serve.batches");
  obs::Counter& traced = obs::GetCounter("serve.traced");
  obs::Counter& slow_queries = obs::GetCounter("serve.slow_queries");
  /// Scatter plane (cluster serving): shard-scoped recall and rerank
  /// scoring calls, plus by-index query lookups.
  obs::Counter& scatter_retrieves = obs::GetCounter("serve.scatter.retrieves");
  obs::Counter& scatter_scores = obs::GetCounter("serve.scatter.scores");
  obs::Counter& lookups = obs::GetCounter("serve.lookups");
  /// Completed requests whose expander degraded to best-so-far at the
  /// deadline (subset of `completed`, disjoint from `timeout`).
  obs::Counter& degraded = obs::GetCounter("serve.degraded");
  obs::Gauge& queue_depth = obs::GetGauge("serve.queue_depth");
  obs::Gauge& queue_peak = obs::GetGauge("serve.queue_peak");
  obs::Histogram& batch_size =
      obs::GetHistogram("serve.batch_size", {1, 2, 4, 8, 16, 32, 64, 128});
  obs::Histogram& latency_us =
      obs::GetHistogram("serve.latency_us", obs::LatencyBoundsUs());
  obs::WindowedHistogram& latency_us_1m =
      obs::GetWindowedHistogram("serve.latency_us.1m", obs::LatencyBoundsUs());
};

ServeMetrics& Metrics() {
  static ServeMetrics* metrics = new ServeMetrics();
  return *metrics;
}

int64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

std::future<ExpandResult> ImmediateResult(Status status) {
  std::promise<ExpandResult> promise;
  promise.set_value(ExpandResult{std::move(status), {}});
  return promise.get_future();
}

}  // namespace

ServeConfig ServeConfig::FromEnv() {
  ServeConfig config;
  config.max_batch = EnvInt("UW_SERVE_BATCH", config.max_batch, 1);
  config.batch_wait_ms =
      EnvInt("UW_SERVE_BATCH_WAIT_MS", config.batch_wait_ms, 0);
  config.max_queue = EnvInt("UW_SERVE_QUEUE", config.max_queue, 1);
  config.default_timeout_ms =
      EnvInt("UW_SERVE_TIMEOUT_MS", config.default_timeout_ms, 0);
  config.trace_sample = EnvInt("UW_TRACE_SAMPLE", config.trace_sample, 0);
  config.slow_query_ms = EnvInt("UW_SLOW_QUERY_MS", config.slow_query_ms, 0);
  return config;
}

const std::vector<std::string>& KnownMethods() {
  static const std::vector<std::string>* methods =
      new std::vector<std::string>{"retexpan", "genexpan", "probexpan",
                                   "setexpan", "case",     "cgexpan",
                                   "gpt4",     "interaction"};
  return *methods;
}

std::unique_ptr<Expander> MakeExpanderByName(Pipeline& pipeline,
                                             const std::string& method) {
  if (method == "retexpan") return pipeline.MakeRetExpan();
  if (method == "genexpan") return pipeline.MakeGenExpan();
  if (method == "probexpan") return pipeline.MakeProbExpan();
  if (method == "setexpan") return pipeline.MakeSetExpan();
  if (method == "case") return pipeline.MakeCaSE();
  if (method == "cgexpan") return pipeline.MakeCgExpan();
  if (method == "gpt4") return pipeline.MakeGpt4Baseline();
  if (method == "interaction") {
    return pipeline.MakeInteraction(InteractionOrder::kGenThenRet);
  }
  return nullptr;
}

ExpansionService::ExpansionService(Pipeline& pipeline, ServeConfig config)
    : pipeline_(pipeline), config_(config) {
  Metrics();  // register eagerly so snapshots list the serve.* family
  scheduler_ = std::thread([this] { SchedulerLoop(); });
}

ExpansionService::~ExpansionService() { Drain(); }

Status ExpansionService::PrewarmMethods(
    const std::vector<std::string>& methods) {
  for (const std::string& method : methods) {
    if (GetOrBuildExpander(method) == nullptr) {
      return Status::InvalidArgument("unknown method: " + method);
    }
  }
  return Status::Ok();
}

Expander* ExpansionService::GetOrBuildExpander(const std::string& method) {
  std::lock_guard<std::mutex> lock(expander_mutex_);
  auto it = expanders_.find(method);
  if (it != expanders_.end()) return it->second.get();
  std::unique_ptr<Expander> expander = MakeExpanderByName(pipeline_, method);
  if (expander == nullptr) return nullptr;
  Expander* raw = expander.get();
  expanders_.emplace(method, std::move(expander));
  return raw;
}

std::future<ExpandResult> ExpansionService::Submit(ExpandRequest request) {
  // Validate before admission so malformed requests never consume queue
  // capacity or batch slots.
  const auto& known = KnownMethods();
  if (std::find(known.begin(), known.end(), request.method) == known.end()) {
    Metrics().rejected.Increment();
    return ImmediateResult(
        Status::InvalidArgument("unknown method: " + request.method));
  }
  if (request.k <= 0) {
    Metrics().rejected.Increment();
    return ImmediateResult(Status::InvalidArgument("k must be positive"));
  }

  Pending pending;
  pending.admitted = std::chrono::steady_clock::now();
  const int timeout_ms = request.timeout_ms >= 0 ? request.timeout_ms
                                                 : config_.default_timeout_ms;
  if (timeout_ms > 0) {
    pending.has_deadline = true;
    pending.deadline =
        pending.admitted + std::chrono::milliseconds(timeout_ms);
  }
  // Trace decision at admission. A trace is allocated when the request is
  // explicitly sampled (forced by the client or hit by the every-Nth
  // sampler) or when a slow-query threshold is armed — in the latter case
  // the trace is speculative and recorded only if the request turns out
  // slow. `force_trace` downstream means "record unconditionally".
  const uint64_t sequence =
      sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
  const bool sampled =
      request.force_trace ||
      (config_.trace_sample > 0 && sequence % config_.trace_sample == 0);
  request.force_trace = sampled;
  if (sampled || config_.slow_query_ms > 0) {
    const uint64_t trace_id =
        request.trace_id != 0 ? request.trace_id : sequence;
    pending.trace = std::make_unique<obs::RequestTrace>(
        trace_id, request.method, pending.admitted);
  }
  pending.request = std::move(request);
  std::future<ExpandResult> future = pending.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      Metrics().rejected.Increment();
      pending.promise.set_value(
          ExpandResult{Status::Unavailable("service draining"), {}});
      return future;
    }
    if (static_cast<int>(queue_.size()) >= config_.max_queue) {
      // Admission control: shed immediately instead of growing the
      // backlog past the configured bound.
      Metrics().shed.Increment();
      pending.promise.set_value(ExpandResult{
          Status::Unavailable("overloaded: queue depth at limit"), {}});
      return future;
    }
    queue_.push_back(std::move(pending));
    inflight_.fetch_add(1, std::memory_order_relaxed);
    Metrics().accepted.Increment();
    Metrics().queue_depth.Set(static_cast<int64_t>(queue_.size()));
    Metrics().queue_peak.UpdateMax(static_cast<int64_t>(queue_.size()));
  }
  scheduler_cv_.notify_all();
  return future;
}

ExpandResult ExpansionService::ExpandSync(ExpandRequest request) {
  return Submit(std::move(request)).get();
}

int ExpansionService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(queue_.size());
}

bool ExpansionService::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

void ExpansionService::FinishTrace(
    Pending& pending, std::chrono::steady_clock::time_point end) {
  if (pending.trace == nullptr) return;
  obs::RequestTraceData data = pending.trace->Finish(end);
  pending.trace.reset();
  const bool slow =
      config_.slow_query_ms > 0 &&
      data.total_us >= static_cast<int64_t>(config_.slow_query_ms) * 1000;
  if (slow) Metrics().slow_queries.Increment();
  if (slow || pending.request.force_trace) {
    // `traced` counts exactly the traces that are published. Counting at
    // admission would also tally requests that were then shed (their
    // speculative trace is dropped unrecorded) and speculative slow-query
    // traces that never crossed the threshold.
    Metrics().traced.Increment();
    obs::SlowQueryLog::Global().Record(std::move(data));
  }
}

Status ExpansionService::EnableSharding(const ShardSpec& spec) {
  if (!spec.valid()) {
    return Status::InvalidArgument(
        "invalid shard spec: index " + std::to_string(spec.index) + " of " +
        std::to_string(spec.count));
  }
  shard_spec_ = spec;
  shard_store_.reset();
  // A single-shard "cluster" serves scatter calls off the full store —
  // the partition is the identity, so no derived store is needed.
  if (spec.count > 1) {
    shard_store_ = pipeline_.BuildShardStore(spec);
    if (shard_store_ == nullptr) {
      return Status::Internal("shard store construction failed");
    }
  }
  return Status::Ok();
}

StatusOr<std::vector<ShardScoredEntity>> ExpansionService::ScatterRetrieve(
    const Query& query, size_t size) const {
  if (draining()) return Status::Unavailable("service draining");
  Metrics().scatter_retrieves.Increment();
  const EntityStore& store =
      shard_store_ != nullptr ? *shard_store_ : pipeline_.store();
  const std::vector<EntityId>& candidates = pipeline_.candidates();
  // The shard's slice of the full scan (position p belongs to shard
  // p % count), ranked by the expander's own StridedRecall.
  const std::vector<ScoredIndex> scored = StridedRecall(
      store, candidates, query, static_cast<size_t>(shard_spec_.index),
      static_cast<size_t>(shard_spec_.count), size);
  std::vector<ShardScoredEntity> entities;
  entities.reserve(scored.size());
  for (const ScoredIndex& s : scored) {
    entities.push_back(ShardScoredEntity{
        s.score, static_cast<uint64_t>(s.index), candidates[s.index]});
  }
  return entities;
}

StatusOr<ShardScores> ExpansionService::ScatterScore(
    const Query& query, const std::vector<EntityId>& ids) const {
  if (draining()) return Status::Unavailable("service draining");
  Metrics().scatter_scores.Increment();
  const EntityStore& store =
      shard_store_ != nullptr ? *shard_store_ : pipeline_.store();
  ShardScores scores;
  scores.pos = store.SeedCentroidScores(query.pos_seeds, ids);
  scores.neg = store.SeedCentroidScores(query.neg_seeds, ids);
  return scores;
}

StatusOr<Query> ExpansionService::QueryByIndex(uint32_t index) const {
  const std::vector<Query>& queries = pipeline_.dataset().queries;
  if (index >= queries.size()) {
    return Status::OutOfRange("query index " + std::to_string(index) +
                              " out of range (have " +
                              std::to_string(queries.size()) + ")");
  }
  Metrics().lookups.Increment();
  return queries[index];
}

void ExpansionService::Drain() {
  std::call_once(drain_once_, [this] {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      draining_ = true;
    }
    scheduler_cv_.notify_all();
    if (scheduler_.joinable()) scheduler_.join();
  });
}

void ExpansionService::SchedulerLoop() {
  while (true) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      scheduler_cv_.wait(lock,
                         [this] { return draining_ || !queue_.empty(); });
      if (queue_.empty()) return;  // draining and fully served
      // Dynamic micro-batching: give a partial batch a short window to
      // fill before running it. Draining skips the window — latency no
      // longer matters, only finishing the backlog.
      if (static_cast<int>(queue_.size()) < config_.max_batch &&
          config_.batch_wait_ms > 0 && !draining_) {
        scheduler_cv_.wait_for(
            lock, std::chrono::milliseconds(config_.batch_wait_ms), [this] {
              return static_cast<int>(queue_.size()) >= config_.max_batch ||
                     draining_;
            });
      }
      const size_t take = std::min<size_t>(
          static_cast<size_t>(config_.max_batch), queue_.size());
      batch.reserve(take);
      const auto dequeued = std::chrono::steady_clock::now();
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        batch.back().dequeued = dequeued;
        queue_.pop_front();
      }
      Metrics().queue_depth.Set(static_cast<int64_t>(queue_.size()));
    }
    ExecuteBatch(std::move(batch));
  }
}

void ExpansionService::ExecuteBatch(std::vector<Pending> batch) {
  if (batch.empty()) return;
  if (config_.synthetic_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.synthetic_delay_ms));
  }
  Metrics().batches.Increment();
  Metrics().batch_size.Observe(static_cast<int64_t>(batch.size()));

  // Expired deadlines complete without executing; resolving the expander
  // happens on the scheduler thread because a first use may lazily train
  // pipeline substrates (a mutation the parallel section must not race).
  struct Runnable {
    Pending* pending;
    Expander* expander;
  };
  std::vector<Runnable> runnable;
  runnable.reserve(batch.size());
  const auto now = std::chrono::steady_clock::now();
  for (Pending& pending : batch) {
    if (pending.has_deadline && now >= pending.deadline) {
      Metrics().timeout.Increment();
      const int64_t latency = ElapsedUs(pending.admitted);
      Metrics().latency_us.Observe(latency);
      Metrics().latency_us_1m.Observe(latency);
      if (pending.trace != nullptr) {
        pending.trace->AddInterval("queue_wait", pending.admitted,
                                   pending.dequeued);
        FinishTrace(pending, std::chrono::steady_clock::now());
      }
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      pending.promise.set_value(ExpandResult{
          Status::DeadlineExceeded("deadline expired before execution"),
          {}});
      continue;
    }
    Expander* expander = GetOrBuildExpander(pending.request.method);
    if (expander == nullptr) {  // unreachable: Submit validates methods
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      pending.promise.set_value(ExpandResult{
          Status::Internal("expander vanished: " + pending.request.method),
          {}});
      continue;
    }
    runnable.push_back({&pending, expander});
  }

  // One lane per request. Expand is logically const, and any parallelism
  // inside an expander collapses to the exact sequential path when
  // invoked from a pool task, so rankings are independent of batch
  // composition and thread count.
  ThreadPool::Global().ParallelFor(
      0, static_cast<int64_t>(runnable.size()), /*grain=*/1, [&](int64_t i) {
        Runnable& item = runnable[static_cast<size_t>(i)];
        Pending& pending = *item.pending;
        obs::RequestTrace* trace = pending.trace.get();
        const auto exec_start = std::chrono::steady_clock::now();
        if (trace != nullptr) {
          // The two waiting stages, then the compute stage opened below;
          // together with the residual they tile the request end to end.
          trace->AddInterval("queue_wait", pending.admitted,
                             pending.dequeued);
          trace->AddInterval("batch_wait", pending.dequeued, exec_start);
        }
        ExpandResult result;
        {
          // Bind the trace to this lane so every UW_SPAN the expander
          // opens (retrieval, rerank, beam rounds, ...) records into it.
          // Nested ParallelFor calls run inline on a pool lane, so the
          // whole expansion stays on this thread.
          obs::ScopedRequestBinding binding(trace);
          const int handle =
              trace != nullptr ? trace->BeginSpan("execute") : -1;
          // Thread the request deadline into the expander so anytime
          // methods (GenExpan) degrade to best-so-far instead of blowing
          // the tail; budget-blind methods ignore it.
          ExpandBudget expand_budget;
          if (pending.has_deadline) expand_budget.deadline = pending.deadline;
          ExpandOutcome outcome = item.expander->ExpandWithBudget(
              pending.request.query,
              static_cast<size_t>(pending.request.k), expand_budget);
          result.ranking = std::move(outcome.ranking);
          result.degraded = outcome.degraded;
          if (trace != nullptr) trace->EndSpan(handle);
        }
        result.status = Status::Ok();
        if (result.degraded) Metrics().degraded.Increment();
        const auto end = std::chrono::steady_clock::now();
        const int64_t latency = std::chrono::duration_cast<
                                    std::chrono::microseconds>(
                                    end - pending.admitted)
                                    .count();
        Metrics().completed.Increment();
        Metrics().latency_us.Observe(latency);
        Metrics().latency_us_1m.Observe(latency);
        // Publish the trace before resolving the future so a client that
        // observes completion also observes its slow-log entry.
        FinishTrace(pending, end);
        inflight_.fetch_sub(1, std::memory_order_relaxed);
        pending.promise.set_value(std::move(result));
      });
}

}  // namespace serve
}  // namespace ultrawiki
