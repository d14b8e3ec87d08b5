// Tests for the sharded serving cluster and the hardened connection
// lifecycle underneath it: strict env parsing, topology parsing, the
// shard manifest round trip, TcpListener bookkeeping under churn and fd
// exhaustion, the published-traces-only `serve.traced` counter, shard
// scatter-gather bit-identity against the single-process rankings,
// router failover when a replica dies, and the ServiceHost hot swap
// shedding nothing under load.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "io/shard_manifest.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/service_host.h"

namespace ultrawiki {
namespace serve {
namespace {

/// One Tiny pipeline per test process (the usual expensive-fixture
/// pattern of this suite; see tests/CMakeLists.txt).
Pipeline& TestPipeline() {
  static Pipeline* pipeline = [] {
    PipelineConfig config = PipelineConfig::Tiny();
    config.generator.scale = 0.08;
    config.dataset.ultra_class_scale = 0.08;
    return new Pipeline(Pipeline::Build(config));
  }();
  return *pipeline;
}

std::vector<EntityId> Reference(const std::string& method,
                                const Query& query, int k) {
  auto expander = MakeExpanderByName(TestPipeline(), method);
  UW_CHECK(expander != nullptr);
  return expander->Expand(query, static_cast<size_t>(k));
}

/// A query guaranteed to exercise the negative-seed rerank phase: the
/// dataset's query `q`, with neg seeds borrowed from the next query's
/// pos seeds if it has none of its own.
Query QueryWithNegSeeds(size_t q) {
  const auto& queries = TestPipeline().dataset().queries;
  UW_CHECK_GE(queries.size(), 2u);
  Query query = queries[q];
  if (query.neg_seeds.empty()) {
    query.neg_seeds = queries[(q + 1) % queries.size()].pos_seeds;
  }
  return query;
}

// ------------------------------------------------------- Env parsing.

TEST(EnvIntTest, ParseIntStrictRejectsSuffixesAndGarbage) {
  EXPECT_EQ(ParseIntStrict("64"), 64);
  EXPECT_EQ(ParseIntStrict("-3"), -3);
  EXPECT_EQ(ParseIntStrict("+7"), 7);
  EXPECT_EQ(ParseIntStrict("0"), 0);
  // atoi would accept all of these; the strict parser must not.
  EXPECT_FALSE(ParseIntStrict("64k").has_value());
  EXPECT_FALSE(ParseIntStrict("6 4").has_value());
  EXPECT_FALSE(ParseIntStrict(" 64").has_value());
  EXPECT_FALSE(ParseIntStrict("64 ").has_value());
  EXPECT_FALSE(ParseIntStrict("").has_value());
  EXPECT_FALSE(ParseIntStrict("-").has_value());
  EXPECT_FALSE(ParseIntStrict("0x10").has_value());
  EXPECT_FALSE(ParseIntStrict("99999999999999999999").has_value());
}

TEST(EnvIntTest, EnvIntFallsBackLoudlyOnBadValues) {
  constexpr const char* kKnob = "UW_TEST_CLUSTER_KNOB";
  ::unsetenv(kKnob);
  EXPECT_EQ(EnvInt(kKnob, 42, 0), 42);
  ::setenv(kKnob, "64", 1);
  EXPECT_EQ(EnvInt(kKnob, 42, 0), 64);
  // "64k" must not silently become 64 — that is the atoi bug this
  // replaces.
  ::setenv(kKnob, "64k", 1);
  EXPECT_EQ(EnvInt(kKnob, 42, 0), 42);
  ::setenv(kKnob, "garbage", 1);
  EXPECT_EQ(EnvInt(kKnob, 42, 0), 42);
  // Below the floor is rejected, not clamped.
  ::setenv(kKnob, "1", 1);
  EXPECT_EQ(EnvInt(kKnob, 42, 8), 42);
  ::unsetenv(kKnob);
}

TEST(EnvIntTest, ParseDoubleStrictRejectsSuffixesAndNonFinite) {
  EXPECT_EQ(ParseDoubleStrict("0.05"), 0.05);
  EXPECT_EQ(ParseDoubleStrict("+0.5"), 0.5);
  EXPECT_EQ(ParseDoubleStrict("-2"), -2.0);
  EXPECT_EQ(ParseDoubleStrict("1e-3"), 1e-3);
  // atof would accept all of these; the strict parser must not.
  EXPECT_FALSE(ParseDoubleStrict("0.05x").has_value());
  EXPECT_FALSE(ParseDoubleStrict(" 0.05").has_value());
  EXPECT_FALSE(ParseDoubleStrict("0.05 ").has_value());
  EXPECT_FALSE(ParseDoubleStrict("").has_value());
  EXPECT_FALSE(ParseDoubleStrict("+").has_value());
  EXPECT_FALSE(ParseDoubleStrict("+-1").has_value());
  EXPECT_FALSE(ParseDoubleStrict("0x1p3").has_value());
  EXPECT_FALSE(ParseDoubleStrict("inf").has_value());
  EXPECT_FALSE(ParseDoubleStrict("nan").has_value());
  EXPECT_FALSE(ParseDoubleStrict("1e999").has_value());
}

TEST(EnvIntTest, ParsePortAcceptsOnlyTheTcpRange) {
  EXPECT_EQ(ParsePort("0"), 0);
  EXPECT_EQ(ParsePort("7979"), 7979);
  EXPECT_EQ(ParsePort("65535"), 65535);
  EXPECT_FALSE(ParsePort("65536").has_value());
  EXPECT_FALSE(ParsePort("-1").has_value());
  EXPECT_FALSE(ParsePort("79x").has_value());
  EXPECT_FALSE(ParsePort("").has_value());
}

TEST(EnvIntTest, ProcessKnobsParseStrictly) {
  // Create the lazily built global pool (and the shared pipeline) first,
  // so they get the caller's UW_THREADS (CI oversubscribes this binary
  // with UW_THREADS=8) and not whatever this test sets below.
  ThreadPool& pool = ThreadPool::Global();
  Pipeline& pipeline = TestPipeline();
  const char* incoming = std::getenv("UW_THREADS");
  const std::optional<std::string> saved_threads =
      incoming != nullptr ? std::optional<std::string>(incoming)
                          : std::nullopt;

  // A suffixed lane count is malformed, not truncated: it falls back to
  // the hardware default. The second value differs from that default on
  // any machine, so a truncating parser cannot pass by coincidence.
  ::unsetenv("UW_THREADS");
  const int hardware_default = ThreadPool::DefaultThreadCount();
  for (const std::string& bad :
       {std::string("8x"), std::to_string(hardware_default + 1) + "x"}) {
    ::setenv("UW_THREADS", bad.c_str(), 1);
    EXPECT_EQ(ThreadPool::DefaultThreadCount(), hardware_default) << bad;
  }
  if (saved_threads.has_value()) {
    ::setenv("UW_THREADS", saved_threads->c_str(), 1);
  } else {
    ::unsetenv("UW_THREADS");
  }
  EXPECT_EQ(pool.thread_count(), ThreadPool::DefaultThreadCount());

  // A GenExpan standing budget with a suffix is ignored, not truncated.
  ::setenv("UW_GENEXPAN_MAX_EXPANSIONS", "500x", 1);
  EXPECT_EQ(pipeline.MakeGenExpan()->config().max_expansions, 0);
  ::setenv("UW_GENEXPAN_MAX_EXPANSIONS", "500", 1);
  EXPECT_EQ(pipeline.MakeGenExpan()->config().max_expansions, 500);
  ::unsetenv("UW_GENEXPAN_MAX_EXPANSIONS");
}

// --------------------------------------------------- Topology parsing.

TEST(RouterTopologyTest, ParsesRepicatedMultiShardTopology) {
  const StatusOr<RouterConfig> parsed = RouterConfig::ParseTopology(
      "0@127.0.0.1:5000/5001,0@10.0.0.2:5002,1@127.0.0.1:5004/5005");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->shard_count, 2);
  ASSERT_EQ(parsed->replicas.size(), 3u);
  EXPECT_EQ(parsed->replicas[0].shard, 0);
  EXPECT_EQ(parsed->replicas[0].host, "127.0.0.1");
  EXPECT_EQ(parsed->replicas[0].port, 5000);
  EXPECT_EQ(parsed->replicas[0].admin_port, 5001);
  EXPECT_EQ(parsed->replicas[1].host, "10.0.0.2");
  EXPECT_EQ(parsed->replicas[1].admin_port, 0);  // no scrape endpoint
  EXPECT_EQ(parsed->replicas[2].shard, 1);
}

TEST(RouterTopologyTest, MalformedTopologiesAreRejected) {
  for (const char* bad : {
           "",                        // empty
           "0@127.0.0.1",             // no port
           "x@127.0.0.1:5000",        // non-integer shard
           "0@:5000",                 // empty host
           "0@127.0.0.1:64k",         // the atoi trap, on the wire format
           "0@127.0.0.1:5000/zz",     // bad admin port
           "@127.0.0.1:5000",         // empty shard
           "0@127.0.0.1:70000",       // port out of range
           "0@127.0.0.1:5000/70000",  // admin port out of range
       }) {
    const StatusOr<RouterConfig> parsed = RouterConfig::ParseTopology(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: \"" << bad << "\"";
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

// ------------------------------------------------------ Shard manifest.

TEST(ShardManifestTest, RoundTripsAndFailsClosedOnCorruption) {
  const std::string path =
      ::testing::TempDir() + "/cluster_manifest.uws2";
  ShardManifest manifest;
  manifest.generation = 7;
  manifest.shard_count = 3;
  manifest.store_fingerprint = 0xfeedfacecafef00dull;
  manifest.shard_store_keys = {11, 22, 33};
  ASSERT_TRUE(SaveShardManifest(manifest, path).ok());

  const StatusOr<ShardManifest> loaded = LoadShardManifest(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->generation, 7u);
  EXPECT_EQ(loaded->shard_count, 3u);
  EXPECT_EQ(loaded->store_fingerprint, manifest.store_fingerprint);
  EXPECT_EQ(loaded->shard_store_keys, manifest.shard_store_keys);

  // Invalid manifests never reach disk.
  ShardManifest zero = manifest;
  zero.shard_count = 0;
  EXPECT_FALSE(SaveShardManifest(zero, path + ".zero").ok());
  ShardManifest mismatched = manifest;
  mismatched.shard_store_keys.pop_back();
  EXPECT_FALSE(SaveShardManifest(mismatched, path + ".mismatch").ok());

  // A flipped payload byte and a truncated tail both fail closed.
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string bytes;
  char buffer[512];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    bytes.append(buffer, got);
  }
  std::fclose(file);
  ASSERT_GT(bytes.size(), 24u);
  auto write_bytes = [](const std::string& to, const std::string& data) {
    std::FILE* out = std::fopen(to.c_str(), "wb");
    UW_CHECK(out != nullptr);
    UW_CHECK_EQ(std::fwrite(data.data(), 1, data.size(), out), data.size());
    std::fclose(out);
  };
  std::string flipped = bytes;
  flipped[bytes.size() / 2] =
      static_cast<char>(flipped[bytes.size() / 2] ^ 0x10);
  write_bytes(path + ".flip", flipped);
  EXPECT_FALSE(LoadShardManifest(path + ".flip").ok());
  write_bytes(path + ".trunc", bytes.substr(0, bytes.size() - 5));
  EXPECT_FALSE(LoadShardManifest(path + ".trunc").ok());
  EXPECT_FALSE(LoadShardManifest(path + ".missing").ok());
}

// ------------------------------------- Connection lifecycle (TcpListener).

TEST(TcpLifecycleTest, ConnectionChurnKeepsFdAndThreadBookkeepingBounded) {
  ExpansionService service(TestPipeline(), ServeConfig{});
  TcpServer server(service);
  ASSERT_TRUE(server.Start(0).ok());

  // Dozens of short-lived sessions: each connects, pings, disconnects.
  // The old implementation leaked one fd-registry entry and one
  // un-joined thread per session; the listener must keep both bounded.
  constexpr int kChurn = 40;
  for (int i = 0; i < kChurn; ++i) {
    auto client = ServeClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE(client->Ping().ok()) << "session " << i;
    client->Close();
  }
  EXPECT_EQ(server.connections_accepted(), kChurn);

  // Handlers notice the close asynchronously; wait for the registry to
  // empty, then reap and assert nothing is left tracked.
  for (int spin = 0; spin < 500 && server.listener().open_connections() > 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.listener().open_connections(), 0);
  server.listener().ReapFinishedHandlers();
  EXPECT_EQ(server.listener().tracked_handler_threads(), 0);

  // The server is still fully alive after the churn.
  auto survivor = ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(survivor.ok()) << survivor.status();
  EXPECT_TRUE(survivor->Ping().ok());
  survivor->Close();
  server.Shutdown();
  EXPECT_EQ(server.protocol_errors(), 0);
}

int MaxOpenFd() {
  int max_fd = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  UW_CHECK(dir != nullptr);
  while (dirent* entry = ::readdir(dir)) {
    const std::optional<int> fd = ParseIntStrict(entry->d_name);
    if (fd.has_value()) max_fd = std::max(max_fd, *fd);
  }
  ::closedir(dir);
  return max_fd;
}

TEST(TcpLifecycleTest, AcceptLoopSurvivesFdExhaustion) {
  ExpansionService service(TestPipeline(), ServeConfig{});
  TcpServer server(service);
  ASSERT_TRUE(server.Start(0).ok());
  const int64_t errors_before = server.accept_errors();

  // The client's socket exists before the squeeze — connecting needs no
  // new fd, only accepting does.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);

  // Exhaust the fd table: clamp the limit just above the highest live
  // fd, then fill every hole below it, so the server-side accept() of
  // the probe's connection must fail with EMFILE.
  rlimit original{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &original), 0);
  rlimit tight = original;
  tight.rlim_cur = static_cast<rlim_t>(MaxOpenFd() + 2);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::vector<int> fillers;
  for (int i = 0; i < 4096; ++i) {
    const int filler = ::open("/dev/null", O_RDONLY);
    if (filler < 0) break;
    fillers.push_back(filler);
  }

  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  // The TCP handshake completes in the kernel backlog even though the
  // server cannot accept yet.
  ASSERT_EQ(
      ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // The accept loop must register the failure and keep retrying — the
  // old loop exited here and the server was dead until restart.
  bool saw_error = false;
  for (int spin = 0; spin < 1000; ++spin) {
    if (server.accept_errors() > errors_before) {
      saw_error = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (const int filler : fillers) ::close(filler);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &original), 0);
  ::close(probe);
  EXPECT_TRUE(saw_error);

  // With fds available again the very same listener serves new clients.
  auto client = ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_TRUE(client->Ping().ok());
  client->Close();
  server.Shutdown();
}

// ------------------------------------------------------ Traced counter.

TEST(ServeTracedCounterTest, CountsExactlyThePublishedTraces) {
  obs::SlowQueryLog::Global().ResetForTest();
  const Query query = TestPipeline().dataset().queries.at(0);

  // Sampled every request: each completed request publishes one trace.
  {
    ServeConfig config;
    config.trace_sample = 1;
    ExpansionService service(TestPipeline(), config);
    const int64_t traced_before = obs::GetCounter("serve.traced").Value();
    const int64_t recorded_before =
        obs::SlowQueryLog::Global().total_recorded();
    constexpr int kN = 5;
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(
          service.ExpandSync({"setexpan", query, 10, -1}).status.ok());
    }
    EXPECT_EQ(obs::GetCounter("serve.traced").Value(), traced_before + kN);
    EXPECT_EQ(obs::SlowQueryLog::Global().total_recorded(),
              recorded_before + kN);
  }

  // Speculative traces (slow threshold armed, nothing actually slow, no
  // sampling) are allocated but never published — and never counted.
  // This was the overcount: the counter used to tick at admission.
  {
    ServeConfig config;
    config.slow_query_ms = 1000000;
    ExpansionService service(TestPipeline(), config);
    const int64_t traced_before = obs::GetCounter("serve.traced").Value();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          service.ExpandSync({"setexpan", query, 10, -1}).status.ok());
    }
    EXPECT_EQ(obs::GetCounter("serve.traced").Value(), traced_before);
  }

  // Shed requests drop their speculative trace unrecorded: under a
  // sampled overload burst, traced must equal the served count, not the
  // submitted count.
  {
    ServeConfig config;
    config.trace_sample = 1;
    config.max_queue = 3;
    config.max_batch = 1;
    config.batch_wait_ms = 0;
    config.synthetic_delay_ms = 10;
    ExpansionService service(TestPipeline(), config);
    const int64_t traced_before = obs::GetCounter("serve.traced").Value();
    constexpr int kBurst = 24;
    std::vector<std::future<ExpandResult>> futures;
    for (int i = 0; i < kBurst; ++i) {
      futures.push_back(service.Submit({"setexpan", query, 10, -1}));
    }
    int served = 0;
    int shed = 0;
    for (auto& future : futures) {
      if (future.get().status.ok()) {
        ++served;
      } else {
        ++shed;
      }
    }
    ASSERT_GT(shed, 0) << "burst did not overload; tighten the config";
    EXPECT_EQ(obs::GetCounter("serve.traced").Value(),
              traced_before + served)
        << "served=" << served << " shed=" << shed;
  }
  obs::SlowQueryLog::Global().ResetForTest();
}

// ---------------------------------------------- Scatter-gather cluster.

/// One in-process shard replica: a sharded service and a TcpServer
/// exposing it.
struct ShardProcess {
  std::unique_ptr<ExpansionService> service;
  std::unique_ptr<TcpServer> server;

  static std::unique_ptr<ShardProcess> Start(const ShardSpec& spec) {
    auto shard = std::make_unique<ShardProcess>();
    shard->service =
        std::make_unique<ExpansionService>(TestPipeline(), ServeConfig{});
    UW_CHECK(shard->service->EnableSharding(spec).ok());
    shard->server = std::make_unique<TcpServer>(*shard->service);
    UW_CHECK(shard->server->Start(0).ok());
    return shard;
  }
};

RouterConfig TopologyOf(const std::vector<std::unique_ptr<ShardProcess>>&
                            shards,
                        int shard_count) {
  RouterConfig config;
  config.shard_count = shard_count;
  config.health_poll_ms = 0;  // transport signals only; no poller thread
  for (size_t i = 0; i < shards.size(); ++i) {
    ReplicaEndpoint endpoint;
    endpoint.shard = static_cast<int>(i) % shard_count;
    endpoint.port = shards[i]->server->port();
    config.replicas.push_back(endpoint);
  }
  return config;
}

TEST(ClusterTest, ShardedScatterGatherBitIdenticalToSingleProcess) {
  const auto& queries = TestPipeline().dataset().queries;
  constexpr int kK = 25;

  for (int shard_count : {1, 2, 3}) {
    std::vector<std::unique_ptr<ShardProcess>> shards;
    for (int s = 0; s < shard_count; ++s) {
      shards.push_back(ShardProcess::Start({s, shard_count}));
    }
    ClusterRouter router(TopologyOf(shards, shard_count));
    ASSERT_TRUE(router.Start().ok());
    TcpServer front(router);
    ASSERT_TRUE(front.Start(0).ok());
    auto client = ServeClient::Connect("127.0.0.1", front.port());
    ASSERT_TRUE(client.ok()) << client.status();

    // The scatter-gather path (retexpan) over every dataset query, by
    // index — the client cannot tell the cluster from one process.
    for (size_t q = 0; q < queries.size(); ++q) {
      const auto remote =
          client->ExpandByIndex("retexpan", static_cast<uint32_t>(q), kK);
      ASSERT_TRUE(remote.ok()) << remote.status();
      EXPECT_EQ(*remote, Reference("retexpan", queries[q], kK))
          << "shards=" << shard_count << " query=" << q;
      // Explicit-seed wire shape, with the negative-seed rerank phase
      // guaranteed live.
      const Query neg_query = QueryWithNegSeeds(q);
      ASSERT_FALSE(neg_query.neg_seeds.empty());
      const auto reranked = client->ExpandQuery("retexpan", neg_query, kK);
      ASSERT_TRUE(reranked.ok()) << reranked.status();
      EXPECT_EQ(*reranked, Reference("retexpan", neg_query, kK))
          << "shards=" << shard_count << " query=" << q;
    }
    // Non-scatter methods proxy whole to one replica, same answer.
    const auto proxied = client->ExpandByIndex("setexpan", 0, kK);
    ASSERT_TRUE(proxied.ok()) << proxied.status();
    EXPECT_EQ(*proxied, Reference("setexpan", queries[0], kK))
        << "shards=" << shard_count;
    // Validation failures surface as typed statuses through the router.
    EXPECT_EQ(client->ExpandByIndex("bogus", 0, 5).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(client
                  ->ExpandByIndex("retexpan",
                                  static_cast<uint32_t>(queries.size() + 99),
                                  5)
                  .status()
                  .code(),
              StatusCode::kOutOfRange);

    client->Close();
    front.Shutdown();
    router.Drain();
    for (auto& shard : shards) shard->server->Shutdown();
  }
}

TEST(ClusterTest, RouterFailsOverWhenAReplicaDies) {
  const auto& queries = TestPipeline().dataset().queries;
  constexpr int kK = 15;
  const std::vector<EntityId> want = Reference("retexpan", queries[0], kK);

  // Two replicas of a single shard.
  std::vector<std::unique_ptr<ShardProcess>> replicas;
  replicas.push_back(ShardProcess::Start({0, 1}));
  replicas.push_back(ShardProcess::Start({0, 1}));
  ClusterRouter router(TopologyOf(replicas, /*shard_count=*/1));
  ASSERT_TRUE(router.Start().ok());

  ExpandRequest request{"retexpan", queries[0], kK, -1};
  ExpandResult before = router.Expand(request);
  ASSERT_TRUE(before.status.ok()) << before.status;
  EXPECT_EQ(before.ranking, want);

  // Kill replica 0 outright. The next requests must fail over to
  // replica 1 without surfacing an error, and keep the exact ranking.
  replicas[0]->server->Shutdown();
  for (int i = 0; i < 6; ++i) {
    ExpandResult after = router.Expand(request);
    ASSERT_TRUE(after.status.ok()) << "request " << i << ": "
                                   << after.status;
    EXPECT_EQ(after.ranking, want);
  }
  EXPECT_FALSE(router.replica_state(0).reachable);

  // The scatter plane is for shards only; the router itself refuses it.
  EXPECT_EQ(router.ScatterRetrieve(queries[0], 10).status().code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(router.ScatterScore(queries[0], {}).status().code(),
            StatusCode::kUnimplemented);

  router.Drain();
  replicas[1]->server->Shutdown();
}

// ------------------------------------------------- ServiceHost hot swap.

TEST(ServiceHostTest, EmptyHostAnswersUnavailable) {
  ServiceHost host;
  EXPECT_EQ(host.generation_id(), 0u);
  ExpandRequest request{"retexpan", Query{}, 5, -1};
  const ExpandResult result = host.Expand(request);
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status.message().find("no generation"),
            std::string::npos);
  EXPECT_EQ(host.QueryByIndex(0).status().code(), StatusCode::kUnavailable);
}

TEST(ServiceHostTest, HotSwapUnderLoadShedsNothing) {
  const auto& queries = TestPipeline().dataset().queries;
  constexpr int kK = 12;
  const std::vector<EntityId> want = Reference("retexpan", queries[0], kK);

  ExpansionService first(TestPipeline(), ServeConfig{});
  ExpansionService second(TestPipeline(), ServeConfig{});
  ServiceHost host;
  const uint64_t first_id = host.Install(ServiceHost::Borrow(first));
  EXPECT_EQ(first_id, 1u);
  EXPECT_EQ(host.swaps(), 0);  // installing the boot generation is not a swap

  TcpServer server(static_cast<Frontend&>(host));
  ASSERT_TRUE(server.Start(0).ok());

  // Load threads hammer the host over TCP while the main thread swaps
  // generations; every request must land on *a* generation and return
  // the bit-identical ranking — the swap may shed nothing.
  constexpr int kThreads = 3;
  constexpr int kPerThread = 25;
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> load;
  for (int t = 0; t < kThreads; ++t) {
    load.emplace_back([&, t] {
      auto client = ServeClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures.fetch_add(kPerThread);
        return;
      }
      for (int i = 0; i < kPerThread; ++i) {
        const auto ranking = client->ExpandByIndex("retexpan", 0, kK);
        if (!ranking.ok()) {
          failures.fetch_add(1);
        } else if (*ranking != want) {
          mismatches.fetch_add(1);
        }
      }
      client->Close();
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const uint64_t second_id = host.Install(ServiceHost::Borrow(second));
  for (std::thread& thread : load) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(second_id, 2u);
  EXPECT_EQ(host.generation_id(), 2u);
  EXPECT_EQ(host.swaps(), 1);

  // Post-swap requests run on the new generation and stay correct.
  auto client = ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  const auto after = client->ExpandByIndex("retexpan", 0, kK);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*after, want);
  client->Close();
  server.Shutdown();
}

}  // namespace
}  // namespace serve
}  // namespace ultrawiki
