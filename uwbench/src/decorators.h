#ifndef UWBENCH_DECORATORS_H_
#define UWBENCH_DECORATORS_H_

// Timing decorators the benchmark slots between the program's own layers.
// Both forward every call unchanged; they only time it.

#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "expand/expander.h"
#include "serve/frontend.h"
#include "trace.h"

namespace uwbench {

/// Sits between a TcpServer and what it serves (a ServiceHost, a shard's
/// ServiceHost, or a ClusterRouter) and records one span per Expand /
/// ScatterRetrieve / ScatterScore call, named `<prefix>.expand.<method>`,
/// `<prefix>.retrieve` and `<prefix>.score`. Expand spans carry the frame
/// trace_id (the client's request id) as their link key.
class TimedFrontend : public ultrawiki::serve::Frontend {
 public:
  TimedFrontend(ultrawiki::serve::Frontend& inner, SpanRecorder& recorder,
                std::string prefix)
      : inner_(inner), recorder_(recorder), prefix_(std::move(prefix)) {}

  ultrawiki::serve::ExpandResult Expand(
      ultrawiki::serve::ExpandRequest request) override {
    ScopedSpan span(recorder_, prefix_ + ".expand." + request.method,
                    request.trace_id);
    return inner_.Expand(std::move(request));
  }
  ultrawiki::StatusOr<ultrawiki::Query> QueryByIndex(uint32_t index) override {
    return inner_.QueryByIndex(index);
  }
  ultrawiki::StatusOr<std::vector<ultrawiki::serve::ShardScoredEntity>>
  ScatterRetrieve(const ultrawiki::Query& query, size_t size) override {
    ScopedSpan span(recorder_, prefix_ + ".retrieve");
    return inner_.ScatterRetrieve(query, size);
  }
  ultrawiki::StatusOr<ultrawiki::serve::ShardScores> ScatterScore(
      const ultrawiki::Query& query,
      const std::vector<ultrawiki::EntityId>& ids) override {
    ScopedSpan span(recorder_, prefix_ + ".score");
    return inner_.ScatterScore(query, ids);
  }
  void Drain() override { inner_.Drain(); }

 private:
  ultrawiki::serve::Frontend& inner_;
  SpanRecorder& recorder_;
  const std::string prefix_;
};

/// Wraps an Expander: times every call (always, since per-query latency
/// is an end-to-end metric of the offline workload), folds each ranking
/// into an order-independent digest, and records a span when tracing.
class TimedExpander : public ultrawiki::Expander {
 public:
  TimedExpander(ultrawiki::Expander& inner, SpanRecorder& recorder,
                std::string span_name)
      : inner_(inner), recorder_(recorder), span_name_(std::move(span_name)) {}

  std::vector<ultrawiki::EntityId> Expand(const ultrawiki::Query& query,
                                          size_t k) override {
    const int64_t start = NowNs();
    std::vector<ultrawiki::EntityId> ranking = inner_.Expand(query, k);
    Finish(start, query, k, ranking);
    return ranking;
  }
  ultrawiki::ExpandOutcome ExpandWithBudget(
      const ultrawiki::Query& query, size_t k,
      const ultrawiki::ExpandBudget& budget) override {
    const int64_t start = NowNs();
    ultrawiki::ExpandOutcome outcome =
        inner_.ExpandWithBudget(query, k, budget);
    Finish(start, query, k, outcome.ranking);
    return outcome;
  }
  std::string name() const override { return inner_.name(); }

  /// Per-call latencies (ms) and the ranking digest since the last Reset.
  std::vector<double> latencies_ms() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return latencies_ms_;
  }
  uint64_t digest() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return digest_;
  }
  void Reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    latencies_ms_.clear();
    digest_ = 0;
  }

 private:
  void Finish(int64_t start, const ultrawiki::Query& query, size_t k,
              const std::vector<ultrawiki::EntityId>& ranking);

  ultrawiki::Expander& inner_;
  SpanRecorder& recorder_;
  const std::string span_name_;
  mutable std::mutex mutex_;  // guards latencies_ms_ and digest_
  std::vector<double> latencies_ms_;
  uint64_t digest_ = 0;
};

/// FNV-1a style hash of one (query, k, ranking) triple; summed over calls
/// it gives a digest independent of the order calls complete in.
uint64_t RankingHash(const ultrawiki::Query& query, size_t k,
                     const std::vector<ultrawiki::EntityId>& ranking);

inline void TimedExpander::Finish(
    int64_t start, const ultrawiki::Query& query, size_t k,
    const std::vector<ultrawiki::EntityId>& ranking) {
  const int64_t end = NowNs();
  recorder_.Record(span_name_, start, end);
  const uint64_t hash = RankingHash(query, k, ranking);
  std::lock_guard<std::mutex> lock(mutex_);
  latencies_ms_.push_back(static_cast<double>(end - start) / 1e6);
  digest_ += hash;
}

}  // namespace uwbench

#endif  // UWBENCH_DECORATORS_H_
