#include "serve/router.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/env.h"
#include "common/logging.h"
#include "math/topk.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/tcp_listener.h"

namespace ultrawiki {
namespace serve {
namespace {

struct RouterMetrics {
  obs::Counter& expands = obs::GetCounter("router.expands");
  obs::Counter& rejected = obs::GetCounter("router.rejected");
  obs::Counter& scatter_expands = obs::GetCounter("router.scatter_expands");
  obs::Counter& proxied = obs::GetCounter("router.proxied");
  obs::Counter& failovers = obs::GetCounter("router.failovers");
  obs::Counter& lookups = obs::GetCounter("router.lookups");
  obs::Counter& lookup_cache_hits =
      obs::GetCounter("router.lookup_cache_hits");
  obs::Counter& health_polls = obs::GetCounter("router.health_polls");
  obs::Counter& health_errors = obs::GetCounter("router.health_errors");
  obs::Gauge& replicas_reachable =
      obs::GetGauge("router.replicas_reachable");
};

RouterMetrics& Metrics() {
  static RouterMetrics* metrics = new RouterMetrics();
  return *metrics;
}

/// Runs `call(shard)` for every shard in `shards`, one thread each, and
/// returns the first failure in `shards` order. Each call carries its
/// own failover chain over that shard's replicas. Losing any shard loses
/// part of the candidate space — a partial merge would silently return a
/// different (wrong) ranking — so callers fail the request instead.
Status FanOut(const std::vector<int>& shards,
              const std::function<Status(int)>& call) {
  std::vector<Status> statuses(shards.size(), Status::Ok());
  std::vector<std::thread> workers;
  workers.reserve(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    workers.emplace_back([&, i] { statuses[i] = call(shards[i]); });
  }
  for (std::thread& worker : workers) worker.join();
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

/// Minimal HTTP/1.0 GET for the admin plane: numeric-host connect with
/// send/receive timeouts (a hung replica must not wedge the poller), one
/// request, read to EOF. Returns the full response (headers + body).
StatusOr<std::string> HttpGet(const std::string& host, int port,
                              const std::string& path, int timeout_ms) {
  StatusOr<int> connected = ConnectTcp(host, port, timeout_ms);
  if (!connected.ok()) return connected.status();
  const int fd = *connected;
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    const Status status =
        Status::Unavailable(std::string("send: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  std::string response;
  char buffer[4096];
  while (true) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got < 0) {
      const Status status =
          Status::Unavailable(std::string("recv: ") + std::strerror(errno));
      ::close(fd);
      return status;
    }
    if (got == 0) break;
    response.append(buffer, static_cast<size_t>(got));
  }
  ::close(fd);
  return response;
}

/// Value of `"key":<integer>` in a flat JSON blob; `fallback` if absent.
int64_t JsonIntField(const std::string& json, const std::string& key,
                     int64_t fallback) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return fallback;
  return std::strtoll(json.c_str() + at + needle.size(), nullptr, 10);
}

}  // namespace

StatusOr<RouterConfig> RouterConfig::ParseTopology(
    const std::string& topology) {
  RouterConfig config;
  size_t start = 0;
  while (start <= topology.size()) {
    size_t end = topology.find(',', start);
    if (end == std::string::npos) end = topology.size();
    const std::string entry = topology.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;
    // "shard@host:port" or "shard@host:port/admin_port".
    const size_t at = entry.find('@');
    const size_t colon = entry.rfind(':');
    if (at == std::string::npos || colon == std::string::npos ||
        colon < at) {
      return Status::InvalidArgument("bad replica spec: " + entry);
    }
    ReplicaEndpoint endpoint;
    const std::optional<int> shard = ParseIntStrict(entry.substr(0, at));
    if (!shard.has_value() || *shard < 0) {
      return Status::InvalidArgument("bad shard index in: " + entry);
    }
    endpoint.shard = *shard;
    endpoint.host = entry.substr(at + 1, colon - at - 1);
    if (endpoint.host.empty()) {
      return Status::InvalidArgument("empty host in: " + entry);
    }
    std::string port_part = entry.substr(colon + 1);
    const size_t slash = port_part.find('/');
    if (slash != std::string::npos) {
      const std::optional<int> admin = ParsePort(port_part.substr(slash + 1));
      if (!admin.has_value() || *admin == 0) {
        return Status::InvalidArgument("bad admin port in: " + entry);
      }
      endpoint.admin_port = *admin;
      port_part.resize(slash);
    }
    const std::optional<int> port = ParsePort(port_part);
    if (!port.has_value() || *port == 0) {
      return Status::InvalidArgument("bad port in: " + entry);
    }
    endpoint.port = *port;
    config.replicas.push_back(std::move(endpoint));
  }
  if (config.replicas.empty()) {
    return Status::InvalidArgument("empty topology");
  }
  for (const ReplicaEndpoint& endpoint : config.replicas) {
    config.shard_count = std::max(config.shard_count, endpoint.shard + 1);
  }
  return config;
}

ClusterRouter::ClusterRouter(RouterConfig config)
    : config_(std::move(config)) {
  Metrics();
}

ClusterRouter::~ClusterRouter() { Drain(); }

Status ClusterRouter::Start() {
  UW_CHECK(!started_) << "Start called twice";
  started_ = true;
  if (config_.replicas.empty()) {
    return Status::InvalidArgument("router has no replicas");
  }
  int max_shard = 0;
  for (const ReplicaEndpoint& endpoint : config_.replicas) {
    if (endpoint.shard < 0) {
      return Status::InvalidArgument("negative shard index");
    }
    max_shard = std::max(max_shard, endpoint.shard);
  }
  if (config_.shard_count == 0) config_.shard_count = max_shard + 1;
  if (max_shard >= config_.shard_count) {
    return Status::InvalidArgument("replica shard index exceeds shard_count");
  }
  shard_replicas_.assign(static_cast<size_t>(config_.shard_count), {});
  for (size_t i = 0; i < config_.replicas.size(); ++i) {
    auto replica = std::make_unique<Replica>();
    replica->endpoint = config_.replicas[i];
    shard_replicas_[static_cast<size_t>(replica->endpoint.shard)].push_back(
        i);
    replicas_.push_back(std::move(replica));
  }
  for (int shard = 0; shard < config_.shard_count; ++shard) {
    if (shard_replicas_[static_cast<size_t>(shard)].empty()) {
      return Status::InvalidArgument("shard " + std::to_string(shard) +
                                     " has no replicas");
    }
  }
  PollHealthNow();
  if (config_.health_poll_ms > 0) {
    health_thread_ = std::thread([this] { HealthLoop(); });
  }
  return Status::Ok();
}

ClusterRouter::ReplicaState ClusterRouter::replica_state(
    size_t replica_index) const {
  UW_CHECK_LT(replica_index, replicas_.size());
  const Replica& replica = *replicas_[replica_index];
  ReplicaState state;
  state.reachable = replica.reachable.load(std::memory_order_relaxed);
  state.draining = replica.draining.load(std::memory_order_relaxed);
  state.load = replica.load.load(std::memory_order_relaxed);
  state.generation = replica.generation.load(std::memory_order_relaxed);
  return state;
}

void ClusterRouter::PollReplica(Replica& replica) {
  if (replica.endpoint.admin_port <= 0) return;  // transport signals only
  Metrics().health_polls.Increment();
  StatusOr<std::string> response =
      HttpGet(replica.endpoint.host, replica.endpoint.admin_port, "/statusz",
              config_.health_timeout_ms);
  if (!response.ok()) {
    Metrics().health_errors.Increment();
    replica.reachable.store(false, std::memory_order_relaxed);
    return;
  }
  replica.reachable.store(true, std::memory_order_relaxed);
  replica.draining.store(JsonIntField(*response, "draining", 1) != 0,
                         std::memory_order_relaxed);
  const int64_t queue_depth = JsonIntField(*response, "queue_depth", 0);
  const int64_t inflight = JsonIntField(*response, "inflight", 0);
  replica.load.store(static_cast<int>(queue_depth + inflight),
                     std::memory_order_relaxed);
  replica.generation.store(
      static_cast<uint64_t>(JsonIntField(*response, "generation", 0)),
      std::memory_order_relaxed);
}

void ClusterRouter::PollHealthNow() {
  int reachable = 0;
  for (const std::unique_ptr<Replica>& replica : replicas_) {
    PollReplica(*replica);
    if (replica->reachable.load(std::memory_order_relaxed)) ++reachable;
  }
  Metrics().replicas_reachable.Set(reachable);
}

void ClusterRouter::HealthLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> lock(health_mutex_);
      health_cv_.wait_for(
          lock, std::chrono::milliseconds(config_.health_poll_ms),
          [this] { return stopping_.load(std::memory_order_acquire); });
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    PollHealthNow();
  }
}

StatusOr<ServeClient> ClusterRouter::AcquireClient(Replica& replica) {
  {
    std::lock_guard<std::mutex> lock(replica.pool_mutex);
    if (!replica.pool.empty()) {
      ServeClient client = std::move(replica.pool.back());
      replica.pool.pop_back();
      return client;
    }
  }
  return ServeClient::Connect(replica.endpoint.host, replica.endpoint.port);
}

void ClusterRouter::ReleaseClient(Replica& replica, ServeClient client) {
  if (!client.connected() || stopping_.load(std::memory_order_acquire)) {
    return;  // dropped; destructor closes
  }
  std::lock_guard<std::mutex> lock(replica.pool_mutex);
  replica.pool.push_back(std::move(client));
}

std::vector<size_t> ClusterRouter::ReplicaOrder(int shard) const {
  std::vector<size_t> all;
  if (shard < 0) {
    all.resize(replicas_.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  } else {
    UW_CHECK_LT(static_cast<size_t>(shard), shard_replicas_.size());
    all = shard_replicas_[static_cast<size_t>(shard)];
  }
  // Healthy (reachable, not draining) replicas by ascending load — the
  // backpressure signal scraped from /statusz — with config order as the
  // tie-break; then the unhealthy rest in config order as last-resort
  // probes (the scrape may be stale; a "dead" replica that answers is
  // better than an error).
  std::vector<size_t> healthy;
  std::vector<size_t> rest;
  for (const size_t index : all) {
    const Replica& replica = *replicas_[index];
    if (replica.reachable.load(std::memory_order_relaxed) &&
        !replica.draining.load(std::memory_order_relaxed)) {
      healthy.push_back(index);
    } else {
      rest.push_back(index);
    }
  }
  std::stable_sort(healthy.begin(), healthy.end(),
                   [this](size_t a, size_t b) {
                     return replicas_[a]->load.load(
                                std::memory_order_relaxed) <
                            replicas_[b]->load.load(
                                std::memory_order_relaxed);
                   });
  healthy.insert(healthy.end(), rest.begin(), rest.end());
  return healthy;
}

bool ClusterRouter::Retryable(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kInternal:
    case StatusCode::kFailedPrecondition:
      return true;
    default:
      return false;
  }
}

template <typename Result>
StatusOr<Result> ClusterRouter::CallWithFailover(
    int shard, const std::function<StatusOr<Result>(ServeClient&)>& call) {
  Status last = Status::Unavailable(
      shard < 0 ? std::string("no replicas configured")
                : "no replicas configured for shard " +
                      std::to_string(shard));
  bool first = true;
  for (const size_t index : ReplicaOrder(shard)) {
    Replica& replica = *replicas_[index];
    if (!first) Metrics().failovers.Increment();
    first = false;
    StatusOr<ServeClient> client = AcquireClient(replica);
    if (!client.ok()) {
      replica.reachable.store(false, std::memory_order_relaxed);
      last = client.status();
      continue;
    }
    StatusOr<Result> result = call(*client);
    if (result.ok()) {
      replica.reachable.store(true, std::memory_order_relaxed);
      ReleaseClient(replica, std::move(*client));
      return result;
    }
    const Status& status = result.status();
    if (!Retryable(status)) {
      // A well-formed application error (bad index, bad argument):
      // deterministic across replicas, and the connection is intact.
      ReleaseClient(replica, std::move(*client));
      return status;
    }
    // kUnavailable with a well-formed response means the replica is up
    // but refusing work (draining / no generation yet): keep the
    // connection, mark it draining so the health order demotes it.
    // Anything else is a transport fault: drop the connection and mark
    // the replica unreachable until a scrape or a success revives it.
    if (status.code() == StatusCode::kUnavailable &&
        (status.message() == "service draining" ||
         status.message() == "no generation installed")) {
      replica.draining.store(true, std::memory_order_relaxed);
      ReleaseClient(replica, std::move(*client));
    } else {
      replica.reachable.store(false, std::memory_order_relaxed);
    }
    last = status;
  }
  return last;
}

StatusOr<std::vector<ShardScoredEntity>> ClusterRouter::RetrieveFromShard(
    int shard, const Query& query, size_t size) {
  return CallWithFailover<std::vector<ShardScoredEntity>>(
      shard, [&](ServeClient& client) {
        return client.ScatterRetrieve(query, static_cast<uint64_t>(size));
      });
}

StatusOr<ShardScores> ClusterRouter::ScoreOnShard(
    int shard, const Query& query, const std::vector<EntityId>& ids) {
  return CallWithFailover<ShardScores>(shard, [&](ServeClient& client) {
    return client.ScatterScore(query, ids);
  });
}

StatusOr<Query> ClusterRouter::QueryByIndex(uint32_t index) {
  Metrics().lookups.Increment();
  {
    std::lock_guard<std::mutex> lock(lookup_mutex_);
    auto it = lookup_cache_.find(index);
    if (it != lookup_cache_.end()) {
      Metrics().lookup_cache_hits.Increment();
      return it->second;
    }
  }
  StatusOr<Query> query = CallWithFailover<Query>(
      -1, [&](ServeClient& client) { return client.QueryLookup(index); });
  if (query.ok()) {
    std::lock_guard<std::mutex> lock(lookup_mutex_);
    lookup_cache_.emplace(index, *query);
  }
  return query;
}

ExpandResult ClusterRouter::Expand(ExpandRequest request) {
  // Mirror ExpansionService::Submit's validation so a router front-end
  // rejects exactly what a single-process server rejects.
  const auto& known = KnownMethods();
  if (std::find(known.begin(), known.end(), request.method) == known.end()) {
    Metrics().rejected.Increment();
    return ExpandResult{
        Status::InvalidArgument("unknown method: " + request.method), {}};
  }
  if (request.k <= 0) {
    Metrics().rejected.Increment();
    return ExpandResult{Status::InvalidArgument("k must be positive"), {}};
  }
  Metrics().expands.Increment();
  if (request.method == "retexpan") return ScatterExpand(request);
  return ProxyExpand(request);
}

ExpandResult ClusterRouter::ScatterExpand(const ExpandRequest& request) {
  Metrics().scatter_expands.Increment();
  UW_SPAN("router.scatter_expand");
  const size_t k = static_cast<size_t>(request.k);
  const size_t initial_size = InitialListSize(config_.retexpan, k);
  const size_t shards = static_cast<size_t>(config_.shard_count);

  // Phase 1 — scatter recall: every shard returns its slice's top
  // `initial_size` (StridedRecall) with global candidate positions.
  std::vector<std::vector<ShardScoredEntity>> per_shard(shards);
  std::vector<int> all_shards(shards);
  std::iota(all_shards.begin(), all_shards.end(), 0);
  Status status = FanOut(all_shards, [&](int shard) -> Status {
    StatusOr<std::vector<ShardScoredEntity>> result =
        RetrieveFromShard(shard, request.query, initial_size);
    if (!result.ok()) return result.status();
    per_shard[static_cast<size_t>(shard)] = std::move(*result);
    return Status::Ok();
  });
  if (!status.ok()) return ExpandResult{status, {}};

  // Gather — merge the per-shard streams. TopKStream's kept set and
  // order depend only on the pushed (score, position) multiset, and the
  // global top-initial_size is a subset of the union of per-shard tops,
  // so this reproduces the unsharded recall list bit for bit.
  TopKStream stream(initial_size);
  std::unordered_map<uint64_t, EntityId> id_at_position;
  for (const std::vector<ShardScoredEntity>& entities : per_shard) {
    for (const ShardScoredEntity& entity : entities) {
      stream.Push(entity.score, static_cast<size_t>(entity.position));
      id_at_position.emplace(entity.position, entity.id);
    }
  }
  const std::vector<ScoredIndex> scored = stream.TakeSortedDescending();
  std::vector<EntityId> list;
  list.reserve(scored.size());
  for (const ScoredIndex& s : scored) {
    list.push_back(id_at_position[static_cast<uint64_t>(s.index)]);
  }

  // Phase 2 — MarginRerank over pos/neg scores from the shard that owns
  // each merged entity's global position, stitched back into list order.
  if (NeedsNegativeRerank(config_.retexpan, request.query)) {
    std::vector<std::vector<EntityId>> shard_ids(shards);
    std::vector<std::vector<size_t>> shard_slots(shards);
    for (size_t i = 0; i < list.size(); ++i) {
      const size_t owner = scored[i].index % shards;
      shard_ids[owner].push_back(list[i]);
      shard_slots[owner].push_back(i);
    }
    std::vector<int> owners;
    for (size_t s = 0; s < shards; ++s) {
      if (!shard_ids[s].empty()) owners.push_back(static_cast<int>(s));
    }
    std::vector<float> pos(list.size(), 0.0f);
    std::vector<float> neg(list.size(), 0.0f);
    status = FanOut(owners, [&](int shard) -> Status {
      const size_t s = static_cast<size_t>(shard);
      StatusOr<ShardScores> scores =
          ScoreOnShard(shard, request.query, shard_ids[s]);
      if (!scores.ok()) return scores.status();
      for (size_t j = 0; j < shard_slots[s].size(); ++j) {
        pos[shard_slots[s][j]] = scores->pos[j];
        neg[shard_slots[s][j]] = scores->neg[j];
      }
      return Status::Ok();
    });
    if (!status.ok()) return ExpandResult{status, {}};
    list =
        MarginRerank(list, pos, neg, config_.retexpan.rerank_segment_length);
  }
  if (list.size() > k) list.resize(k);
  return ExpandResult{Status::Ok(), std::move(list)};
}

ExpandResult ClusterRouter::ProxyExpand(const ExpandRequest& request) {
  Metrics().proxied.Increment();
  UW_SPAN("router.proxy_expand");
  // Non-retexpan methods need substrates (LM, distributions, graph) that
  // are not sharded — every shard process holds the full pipeline, so the
  // whole request goes to the globally least-loaded replica. A shed
  // (kUnavailable) answer fails over to the next replica, which is the
  // load-balancing behavior a fleet wants from a front door.
  StatusOr<std::vector<EntityId>> ranking =
      CallWithFailover<std::vector<EntityId>>(
          -1, [&](ServeClient& client) {
            return client.ExpandQuery(
                request.method, request.query, request.k,
                request.timeout_ms > 0 ? request.timeout_ms : 0);
          });
  if (!ranking.ok()) return ExpandResult{ranking.status(), {}};
  return ExpandResult{Status::Ok(), std::move(*ranking)};
}

StatusOr<std::vector<ShardScoredEntity>> ClusterRouter::ScatterRetrieve(
    const Query& query, size_t size) {
  (void)query;
  (void)size;
  return Status::Unimplemented("router is not a shard");
}

StatusOr<ShardScores> ClusterRouter::ScatterScore(
    const Query& query, const std::vector<EntityId>& ids) {
  (void)query;
  (void)ids;
  return Status::Unimplemented("router is not a shard");
}

void ClusterRouter::Drain() {
  std::call_once(drain_once_, [this] {
    stopping_.store(true, std::memory_order_release);
    health_cv_.notify_all();
    if (health_thread_.joinable()) health_thread_.join();
    for (const std::unique_ptr<Replica>& replica : replicas_) {
      std::lock_guard<std::mutex> lock(replica->pool_mutex);
      replica->pool.clear();  // destructors close the sockets
    }
  });
}

}  // namespace serve
}  // namespace ultrawiki
