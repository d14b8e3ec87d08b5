#ifndef ULTRAWIKI_SERVE_ROUTER_H_
#define ULTRAWIKI_SERVE_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "expand/retexpan.h"
#include "serve/client.h"
#include "serve/frontend.h"

namespace ultrawiki {
namespace serve {

/// One shard replica the router can reach: the shard it serves, its
/// request-plane port, and (optionally) its admin port for health
/// scraping. `admin_port` 0 disables scraping — the replica is then
/// assumed healthy until the transport says otherwise.
struct ReplicaEndpoint {
  int shard = 0;
  std::string host = "127.0.0.1";
  int port = 0;
  int admin_port = 0;
};

/// Cluster topology + routing knobs.
struct RouterConfig {
  /// Number of shards the candidate list is partitioned into. 0 infers
  /// max(replica.shard) + 1.
  int shard_count = 0;
  std::vector<ReplicaEndpoint> replicas;
  /// Health-scrape period (UW_ROUTER_HEALTH_MS). 0 disables the poller;
  /// routing then runs on transport signals alone.
  int health_poll_ms = 200;
  /// Socket send/receive timeout for health scrapes.
  int health_timeout_ms = 1000;
  /// RetExpan knobs mirrored on the router for the scatter-gather path.
  /// Must match the shard servers' config (both default-construct) or
  /// the merged ranking diverges from the single-process one.
  RetExpanConfig retexpan;

  /// Parses a topology string: comma-separated replicas, each
  /// "shard@host:port" or "shard@host:port/admin_port", e.g.
  /// "0@127.0.0.1:5000/5001,0@127.0.0.1:5002,1@127.0.0.1:5004/5005".
  /// The UW_ROUTER_SHARDS wire format.
  static StatusOr<RouterConfig> ParseTopology(const std::string& topology);
};

/// Scatter-gather front-end of the sharded serving cluster. Implements
/// Frontend, so a plain TcpServer exposes it on the wire protocol —
/// clients cannot tell a router from a single-process server.
///
/// RetExpan requests take the scatter path: fan `ScatterRetrieve` (each
/// shard's StridedRecall) out to one replica of every shard in parallel,
/// merge the per-shard streaming top-k (global candidate positions
/// preserve the RanksBefore tie-break, so the merged L0 is bit-identical
/// to the unsharded recall — the global top-|L0| is a subset of the union
/// of per-shard top-|L0|s), then run RetExpan's MarginRerank over
/// per-shard `ScatterScore` results (expand/retexpan.h). Every
/// other method is proxied whole to the least-loaded replica (every shard
/// process holds the full pipeline, so any replica can serve any method).
///
/// Replica choice is health-driven: a poller thread scrapes each
/// replica's admin `/statusz` every `health_poll_ms` for draining /
/// queue_depth / inflight, and the per-shard pick is the reachable,
/// non-draining replica with the least load (backpressure balancing).
/// Transport failures mark a replica unreachable immediately and the
/// request fails over to the next replica of the same shard, so killing
/// a replica mid-load costs retries, not errors, as long as each shard
/// keeps one live replica.
class ClusterRouter : public Frontend {
 public:
  explicit ClusterRouter(RouterConfig config);
  ~ClusterRouter() override;

  ClusterRouter(const ClusterRouter&) = delete;
  ClusterRouter& operator=(const ClusterRouter&) = delete;

  /// Validates the topology (every shard needs at least one replica),
  /// runs one synchronous health poll, and starts the poller thread.
  /// Call before taking traffic; at most once.
  Status Start();

  const RouterConfig& config() const { return config_; }

  /// Live view of one replica's health, for tests and the drain report.
  struct ReplicaState {
    bool reachable = false;
    bool draining = false;
    int load = 0;
    uint64_t generation = 0;
  };
  ReplicaState replica_state(size_t replica_index) const;

  /// One synchronous scrape of every replica with an admin port (the
  /// poller thread does this on its own cadence).
  void PollHealthNow();

  // --- Frontend ---
  ExpandResult Expand(ExpandRequest request) override;
  StatusOr<Query> QueryByIndex(uint32_t index) override;
  /// The router is not a shard: scatter-plane calls addressed to it are
  /// kUnimplemented (routers do not chain).
  StatusOr<std::vector<ShardScoredEntity>> ScatterRetrieve(
      const Query& query, size_t size) override;
  StatusOr<ShardScores> ScatterScore(
      const Query& query, const std::vector<EntityId>& ids) override;
  /// Stops the poller and closes pooled connections. Idempotent.
  void Drain() override;

 private:
  struct Replica {
    ReplicaEndpoint endpoint;
    /// Idle pooled connections (LIFO, so the hottest socket is reused).
    std::mutex pool_mutex;
    std::vector<ServeClient> pool;
    std::atomic<bool> reachable{true};
    std::atomic<bool> draining{false};
    std::atomic<int> load{0};
    std::atomic<uint64_t> generation{0};
  };

  StatusOr<ServeClient> AcquireClient(Replica& replica);
  void ReleaseClient(Replica& replica, ServeClient client);

  /// Replica indices to try for `shard` (all replicas when shard < 0):
  /// reachable non-draining ones by ascending load first, then the rest
  /// in config order as last-resort probes.
  std::vector<size_t> ReplicaOrder(int shard) const;

  /// True for status codes that a different replica might not produce
  /// (transport faults, shedding, draining) — the failover trigger.
  static bool Retryable(const Status& status);

  /// Runs `call` against successive replicas of `shard` (all replicas
  /// when shard < 0, health-ordered) until one answers with a
  /// non-retryable result; marks replicas unreachable/draining as their
  /// failures reveal. The shared failover engine of every remote call.
  template <typename Result>
  StatusOr<Result> CallWithFailover(
      int shard, const std::function<StatusOr<Result>(ServeClient&)>& call);

  StatusOr<std::vector<ShardScoredEntity>> RetrieveFromShard(
      int shard, const Query& query, size_t size);
  StatusOr<ShardScores> ScoreOnShard(int shard, const Query& query,
                                     const std::vector<EntityId>& ids);

  ExpandResult ScatterExpand(const ExpandRequest& request);
  ExpandResult ProxyExpand(const ExpandRequest& request);

  void HealthLoop();
  void PollReplica(Replica& replica);

  RouterConfig config_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  /// Per shard: indices into replicas_, in config order.
  std::vector<std::vector<size_t>> shard_replicas_;

  std::atomic<bool> stopping_{false};
  std::thread health_thread_;
  std::mutex health_mutex_;
  std::condition_variable health_cv_;

  /// By-index lookups resolved once against a shard's resident dataset
  /// and cached forever (the dataset is immutable within a generation
  /// and identical across shards of one generation).
  std::mutex lookup_mutex_;
  std::unordered_map<uint32_t, Query> lookup_cache_;

  std::once_flag drain_once_;
  bool started_ = false;
};

}  // namespace serve
}  // namespace ultrawiki

#endif  // ULTRAWIKI_SERVE_ROUTER_H_
