// Tests of the benchmark's own arithmetic and instrumentation: the tail
// rule, span self time, open-loop lateness accounting, and the timing
// decorators' bit-identical forwarding.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "decorators.h"
#include "loadgen.h"
#include "stats.h"
#include "trace.h"

namespace uwbench {
namespace {

using ultrawiki::EntityId;
using ultrawiki::Query;
using ultrawiki::Status;
using ultrawiki::StatusOr;
namespace serve = ultrawiki::serve;

std::vector<double> OneTo(int n) {
  std::vector<double> values;
  for (int i = 1; i <= n; ++i) values.push_back(i);
  return values;
}

// ------------------------------------------------------------ tail rule.

TEST(TailRule, PicksHighestPercentileWithTenBeyond) {
  // n = 1000: p99 is rank 990 with exactly ten samples beyond it; p99.9
  // would leave one.
  Tail tail = TailOf(OneTo(1000));
  EXPECT_EQ(tail.percentile, 99);
  EXPECT_EQ(tail.value, 990);
  EXPECT_EQ(tail.samples, 1000u);

  // n = 999: p99 is rank 990 and leaves nine, so the tail falls to p95.
  tail = TailOf(OneTo(999));
  EXPECT_EQ(tail.percentile, 95);
  EXPECT_EQ(tail.value, 950);

  // n = 258 (one pass over the dataset's queries): p95, rank 246.
  tail = TailOf(OneTo(258));
  EXPECT_EQ(tail.percentile, 95);
  EXPECT_EQ(tail.value, 246);
}

TEST(TailRule, TooFewSamplesFallBackToMaximum) {
  Tail tail = TailOf(OneTo(19));  // p50 leaves nine
  EXPECT_EQ(tail.percentile, 0);
  EXPECT_EQ(tail.value, 19);
  tail = TailOf(OneTo(20));  // p50 leaves ten
  EXPECT_EQ(tail.percentile, 50);
  EXPECT_EQ(tail.value, 10);
  EXPECT_EQ(TailOf({}).value, 0);
}

TEST(TailRule, IgnoresInputOrder) {
  std::vector<double> values = OneTo(1000);
  std::reverse(values.begin(), values.end());
  EXPECT_EQ(TailOf(values).value, 990);
  EXPECT_EQ(Percentile(values, 50), 500);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

// ------------------------------------------------------------ self time.

TEST(SelfTime, OverlappingChildrenAreCountedOnce) {
  // Children [10,30] and [20,50] overlap: together they cover [10,50].
  EXPECT_EQ(SelfTime({0, 100}, {{10, 30}, {20, 50}}), 60);
  // A child nested inside another adds nothing.
  EXPECT_EQ(SelfTime({0, 100}, {{10, 50}, {20, 30}}), 60);
  // Order does not matter.
  EXPECT_EQ(SelfTime({0, 100}, {{20, 50}, {10, 30}, {60, 70}}), 50);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  // [90,120] sticks out of the parent; only [90,100] counts. [150,160]
  // lies wholly outside.
  EXPECT_EQ(SelfTime({0, 100}, {{-20, 10}, {90, 120}, {150, 160}}), 80);
  EXPECT_EQ(SelfTime({0, 100}, {}), 100);
  EXPECT_EQ(SelfTime({0, 100}, {{0, 100}, {40, 60}}), 0);
}

// ------------------------------------------------- open-loop accounting.

/// A Frontend whose Expand stalls once for `stall_ms`, on the call with
/// index `stall_at`, and otherwise answers at once with a fixed ranking.
class StallingFrontend : public serve::Frontend {
 public:
  StallingFrontend(int stall_at, int stall_ms)
      : stall_at_(stall_at), stall_ms_(stall_ms) {}

  serve::ExpandResult Expand(serve::ExpandRequest request) override {
    if (calls_.fetch_add(1) == stall_at_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
    }
    serve::ExpandResult result;
    result.ranking = {static_cast<EntityId>(request.k), 7, 3};
    result.degraded = request.method == "degrade";
    return result;
  }
  StatusOr<Query> QueryByIndex(uint32_t index) override {
    Query query;
    query.ultra_class = static_cast<int>(index);
    return query;
  }
  StatusOr<std::vector<serve::ShardScoredEntity>> ScatterRetrieve(
      const Query& query, size_t size) override {
    std::vector<serve::ShardScoredEntity> out(size);
    for (size_t i = 0; i < size; ++i) {
      out[i].score = 0.5f / static_cast<float>(i + 1);
      out[i].position = i * 2 + 1;
      out[i].id = static_cast<EntityId>(query.ultra_class + i);
    }
    return out;
  }
  StatusOr<serve::ShardScores> ScatterScore(
      const Query&, const std::vector<EntityId>& ids) override {
    if (ids.empty()) return Status::Unavailable("no ids");
    serve::ShardScores scores;
    for (const EntityId id : ids) {
      scores.pos.push_back(static_cast<float>(id) * 0.25f);
      scores.neg.push_back(-static_cast<float>(id));
    }
    return scores;
  }
  void Drain() override { drained_ = true; }

  bool drained() const { return drained_; }

 private:
  std::atomic<int> calls_{0};
  const int stall_at_;
  const int stall_ms_;
  bool drained_ = false;
};

/// A Frontend whose every Expand takes a fixed time.
class SlowFrontend : public StallingFrontend {
 public:
  explicit SlowFrontend(std::chrono::milliseconds delay)
      : StallingFrontend(-1, 0), delay_(delay) {}
  serve::ExpandResult Expand(serve::ExpandRequest request) override {
    std::this_thread::sleep_for(delay_);
    return StallingFrontend::Expand(std::move(request));
  }

 private:
  const std::chrono::milliseconds delay_;
};

IssueFn IssueTo(serve::Frontend& frontend) {
  return [&frontend](int, const Arrival& arrival) {
    serve::ExpandRequest request;
    request.method = "retexpan";
    request.k = static_cast<int>(arrival.query) + 1;
    return frontend.Expand(std::move(request)).status.ok();
  };
}

std::vector<Arrival> Schedule(double rate, size_t count) {
  return EvenSchedule(
      rate, count, [](size_t) { return 0; },
      [](size_t i) { return static_cast<uint32_t>(i); });
}

TEST(OpenLoop, StallDelaysLaterRequestsAndIsChargedFromDueTime) {
  // 100 requests/s on one lane; the first request stalls 200 ms. Requests
  // due during the stall go out late, and their latency counts from when
  // they were due, not from when they were sent.
  StallingFrontend frontend(/*stall_at=*/0, /*stall_ms=*/200);
  const std::vector<RequestRecord> records =
      RunOpenLoop(Schedule(100, 40), /*lanes=*/1, IssueTo(frontend));
  ASSERT_EQ(records.size(), 40u);
  EXPECT_GE(LatencyMs(records[0]), 200);
  for (size_t i = 1; i < 20; ++i) {
    const double due_ms = static_cast<double>(records[i].due) / 1e6;
    EXPECT_EQ(due_ms, static_cast<double>(i) * 10);
    // Sent no earlier than the end of the stall.
    EXPECT_GE(LatenessUs(records[i]), (200 - due_ms) * 1e3) << i;
    EXPECT_GE(LatencyMs(records[i]), 200 - due_ms) << i;
    EXPECT_GE(LatencyMs(records[i]) * 1e3, LatenessUs(records[i]));
  }
  // The generator caught up: the last requests are nearly on time.
  EXPECT_LT(LatenessUs(records.back()), 50e3);
  for (const RequestRecord& r : records) EXPECT_TRUE(r.ok);
}

TEST(OpenLoop, MoreLanesAbsorbTheStall) {
  // With a second lane, requests due during the stall are sent on time.
  StallingFrontend frontend(/*stall_at=*/0, /*stall_ms=*/200);
  const std::vector<RequestRecord> records =
      RunOpenLoop(Schedule(100, 30), /*lanes=*/2, IssueTo(frontend));
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_LT(LatenessUs(records[i]), 50e3) << i;
  }
}

TEST(OpenLoop, SlicesPartitionTheScheduleAndRebaseDueTimes) {
  const std::vector<Arrival> schedule = EvenSchedule(
      1000, 10, [](size_t i) { return static_cast<int>(i % 2); },
      [](size_t i) { return static_cast<uint32_t>(i); });
  std::vector<uint32_t> seen;
  for (int part = 0; part < 3; ++part) {
    const std::vector<Arrival> slice = SliceSchedule(schedule, part, 3);
    ASSERT_FALSE(slice.empty());
    EXPECT_EQ(slice.front().due, 0);
    for (size_t i = 1; i < slice.size(); ++i) {
      EXPECT_EQ(slice[i].due - slice[i - 1].due, 1000000);  // 1 ms apart
    }
    for (const Arrival& arrival : slice) {
      EXPECT_EQ(arrival.method, static_cast<int>(arrival.query % 2));
      seen.push_back(arrival.query);
    }
  }
  // Every arrival lands in exactly one part, in schedule order.
  ASSERT_EQ(seen.size(), schedule.size());
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(ClosedLoop, LanesSendBackToBackUntilTheDeadline) {
  // Every call takes 10 ms; two lanes for 0.3 s complete about 60.
  SlowFrontend frontend(std::chrono::milliseconds(10));
  const std::vector<RequestRecord> records =
      RunClosedLoop(Schedule(1, 1000), /*lanes=*/2, 0.3, IssueTo(frontend));
  ASSERT_GE(records.size(), 40u);
  ASSERT_LE(records.size(), 64u);
  for (const RequestRecord& r : records) {
    EXPECT_EQ(r.due, r.sent);  // latency is service time
    EXPECT_GE(LatencyMs(r), 10);
    EXPECT_LT(r.sent, 300000000);  // nothing sent after the deadline
  }
  const double qps = Median(WindowThroughputs(records, 0.3, 3));
  EXPECT_GT(qps, 140);
  EXPECT_LE(qps, 200);
  // A short sequence ends the loop early.
  EXPECT_EQ(RunClosedLoop(Schedule(1, 5), 2, 10, IssueTo(frontend)).size(),
            5u);
}

TEST(ClosedLoop, WindowThroughputsCountCompletionsPerWindow) {
  // 4 windows of 0.25 s: 10, 10, 2 (a stall) and 12 completions, plus
  // one after the end that does not count.
  std::vector<RequestRecord> records;
  auto complete = [&records](int count, int64_t from_ms) {
    for (int i = 0; i < count; ++i) {
      RequestRecord r;
      r.done = (from_ms + i) * 1000000;
      records.push_back(r);
    }
  };
  complete(10, 0);
  complete(10, 250);
  complete(2, 500);
  complete(12, 750);
  complete(1, 1000);
  EXPECT_EQ(WindowThroughputs(records, 1.0, 4),
            (std::vector<double>{40, 40, 8, 48}));
  // The median, 40/s, ignores the stall; the plain mean would be 34/s.
  EXPECT_DOUBLE_EQ(Median(WindowThroughputs(records, 1.0, 4)), 40);
  EXPECT_EQ(WindowThroughputs(records, 1.0, 0), std::vector<double>{});
}

// ------------------------------------------------------------ decorators.

TEST(TimedFrontend, ForwardsEveryCallBitIdentically) {
  StallingFrontend inner(/*stall_at=*/-1, 0);
  SpanRecorder recorder(/*enabled=*/true);
  TimedFrontend timed(inner, recorder, "front");

  for (const char* method : {"retexpan", "degrade"}) {
    serve::ExpandRequest request;
    request.method = method;
    request.k = 9;
    request.trace_id = 42;
    const serve::ExpandResult want = inner.Expand(request);
    const serve::ExpandResult got = timed.Expand(request);
    EXPECT_EQ(got.ranking, want.ranking);
    EXPECT_EQ(got.degraded, want.degraded);
    EXPECT_EQ(got.status.code(), want.status.code());
  }
  Query query;
  query.ultra_class = 5;
  const auto want_retrieve = inner.ScatterRetrieve(query, 4);
  const auto got_retrieve = timed.ScatterRetrieve(query, 4);
  ASSERT_TRUE(got_retrieve.ok());
  ASSERT_EQ(got_retrieve->size(), want_retrieve->size());
  for (size_t i = 0; i < got_retrieve->size(); ++i) {
    EXPECT_EQ((*got_retrieve)[i].score, (*want_retrieve)[i].score);
    EXPECT_EQ((*got_retrieve)[i].position, (*want_retrieve)[i].position);
    EXPECT_EQ((*got_retrieve)[i].id, (*want_retrieve)[i].id);
  }
  const auto got_score = timed.ScatterScore(query, {1, 2, 3});
  const auto want_score = inner.ScatterScore(query, {1, 2, 3});
  ASSERT_TRUE(got_score.ok());
  EXPECT_EQ(got_score->pos, want_score->pos);
  EXPECT_EQ(got_score->neg, want_score->neg);
  // Errors pass through unchanged too.
  EXPECT_EQ(timed.ScatterScore(query, {}).status().code(),
            inner.ScatterScore(query, {}).status().code());
  EXPECT_EQ(timed.QueryByIndex(11)->ultra_class, 11);
  timed.Drain();
  EXPECT_TRUE(inner.drained());

  // One span per timed call, keyed by the frame trace id.
  EXPECT_EQ(recorder.Count("front.expand.retexpan"), 1u);
  EXPECT_EQ(recorder.Count("front.expand.degrade"), 1u);
  EXPECT_EQ(recorder.Count("front.retrieve"), 1u);
  EXPECT_EQ(recorder.Count("front.score"), 2u);
  for (const Span& span : recorder.Snapshot()) {
    if (span.name == "front.expand.retexpan") EXPECT_EQ(span.key, 42u);
  }
}

/// Expander returning a ranking that depends only on the query.
class FixedExpander : public ultrawiki::Expander {
 public:
  std::vector<EntityId> Expand(const Query& query, size_t k) override {
    std::vector<EntityId> out;
    for (size_t i = 0; i < k; ++i) {
      out.push_back(static_cast<EntityId>(query.ultra_class * 100 + i));
    }
    return out;
  }
  std::string name() const override { return "fixed"; }
};

TEST(TimedExpander, ForwardsRankingsAndDigestsIgnoreCallOrder) {
  FixedExpander inner;
  SpanRecorder recorder(/*enabled=*/false);
  TimedExpander a(inner, recorder, "expand.fixed");
  TimedExpander b(inner, recorder, "expand.fixed");
  std::vector<Query> queries(5);
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].ultra_class = static_cast<int>(i);
    queries[i].pos_seeds = {static_cast<EntityId>(i)};
  }
  for (const Query& q : queries) {
    EXPECT_EQ(a.Expand(q, 4), inner.Expand(q, 4));
  }
  for (auto it = queries.rbegin(); it != queries.rend(); ++it) {
    b.ExpandWithBudget(*it, 4, {});
  }
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.latencies_ms().size(), 5u);
  EXPECT_EQ(a.name(), "fixed");
  EXPECT_EQ(recorder.Count("expand.fixed"), 0u);  // disabled recorder

  // A different ranking for one query changes the digest.
  TimedExpander c(inner, recorder, "expand.fixed");
  for (const Query& q : queries) c.Expand(q, q.ultra_class == 3 ? 3 : 4);
  EXPECT_NE(c.digest(), a.digest());
}

TEST(SpanRecorder, LinksChildrenToTheContainingParentWithTheSameKey) {
  SpanRecorder recorder(/*enabled=*/true);
  // Two connections reuse request id 1; containment picks the parent.
  const uint64_t first = recorder.Record("client", 0, 100, 0, 1);
  const uint64_t second = recorder.Record("client", 200, 300, 0, 1);
  recorder.Record("front", 210, 290, 0, 1);
  recorder.Record("front", 10, 90, 0, 1);
  recorder.Record("front", 400, 410, 0, 1);  // no containing parent
  const LinkStats stats = recorder.LinkByKey("client", "front");
  EXPECT_EQ(stats.children, 3u);
  EXPECT_EQ(stats.linked, 2u);
  EXPECT_EQ(stats.ambiguous, 0u);
  // Self time of each linked client span: 100 - 80 and 100 - 80 ns.
  EXPECT_EQ(recorder.SelfTimesUs("client", "front"),
            (std::vector<double>{0.02, 0.02}));
  for (const Span& span : recorder.Snapshot()) {
    if (span.name != "front") continue;
    if (span.start == 210) EXPECT_EQ(span.parent, second);
    if (span.start == 10) EXPECT_EQ(span.parent, first);
    if (span.start == 400) EXPECT_EQ(span.parent, 0u);
  }
}

TEST(SpanRecorder, LeavesAChildWithTwoContainingParentsUnlinked) {
  SpanRecorder recorder(/*enabled=*/true);
  // Two connections' request 5 overlap in time; a frontend span inside
  // both cannot be attributed to either.
  recorder.Record("client", 0, 100, 0, 5);
  const uint64_t wide = recorder.Record("client", 20, 200, 0, 5);
  recorder.Record("front", 30, 90, 0, 5);    // inside both
  recorder.Record("front", 120, 190, 0, 5);  // inside the second only
  const LinkStats stats = recorder.LinkByKey("client", "front");
  EXPECT_EQ(stats.children, 2u);
  EXPECT_EQ(stats.linked, 1u);
  EXPECT_EQ(stats.ambiguous, 1u);
  for (const Span& span : recorder.Snapshot()) {
    if (span.name != "front") continue;
    EXPECT_EQ(span.parent, span.start == 120 ? wide : 0u);
  }
}

}  // namespace
}  // namespace uwbench
