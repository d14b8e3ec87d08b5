// Tests for the online expansion service (src/serve/): wire-protocol
// framing (round trips + the corruption matrix), batching determinism —
// a request's ranking must be bit-identical whether it is served alone
// or coalesced into any batch composition, at any thread count —
// deadline expiry, overload shedding with correct accepted results, and
// the TCP loopback path end to end.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "serve/admin.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"

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

// ----------------------------------------------------------- Protocol.

/// An expand request frame, encoded the way ServeClient sends one.
std::string EncodeExpandRequest(const WireRequest& request,
                                uint64_t request_id = 0,
                                const FrameOptions& options = {}) {
  SnapshotWriter body;
  PutExpandRequest(body, request);
  return EncodeRequestFrame(FrameKind::kExpandRequest, request_id,
                            body.payload(), options);
}

/// Decodes an expand request payload the way TcpServer does.
Status DecodeExpandRequest(std::string_view payload, uint64_t* request_id,
                           WireRequest* request) {
  SnapshotReader reader(payload);
  reader.ReadU64(request_id);
  ReadExpandRequest(reader, request);
  return reader.Finish();
}

TEST(ServeProtocolTest, RequestFrameRoundTripsThroughASocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  WireRequest request;
  request.method = "retexpan";
  request.k = 13;
  request.timeout_ms = 250;
  request.by_index = false;
  request.query.ultra_class = 3;
  request.query.pos_seeds = {1, 2, 5};
  request.query.neg_seeds = {9, 11};
  const std::string encoded = EncodeExpandRequest(request, 77);
  ASSERT_TRUE(WriteAll(fds[0], encoded.data(), encoded.size()).ok());

  StatusOr<Frame> frame = ReadFrame(fds[1]);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->kind, FrameKind::kExpandRequest);
  uint64_t request_id = 0;
  WireRequest decoded;
  ASSERT_TRUE(DecodeExpandRequest(frame->payload, &request_id, &decoded).ok());
  EXPECT_EQ(request_id, 77u);
  EXPECT_EQ(decoded.method, "retexpan");
  EXPECT_EQ(decoded.k, 13u);
  EXPECT_EQ(decoded.timeout_ms, 250u);
  EXPECT_FALSE(decoded.by_index);
  EXPECT_EQ(decoded.query.ultra_class, 3);
  EXPECT_EQ(decoded.query.pos_seeds, request.query.pos_seeds);
  EXPECT_EQ(decoded.query.neg_seeds, request.query.neg_seeds);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServeProtocolTest, ResponsePayloadRoundTrips) {
  const Status status(StatusCode::kDeadlineExceeded,
                      "deadline expired before execution");
  const std::vector<EntityId> ranking = {7, -1, 12};
  SnapshotWriter body;
  body.PutI32Vec(ranking);
  const std::string frame = EncodeResponseFrame(
      FrameKind::kExpandResponse, 42, status, body.payload());
  // Slice the payload out of the framed bytes (header 32 bytes, CRC 4).
  ASSERT_GT(frame.size(), kFrameHeaderBytes + 4);
  const std::string_view payload(frame.data() + kFrameHeaderBytes,
                                 frame.size() - kFrameHeaderBytes - 4);
  SnapshotReader reader(payload);
  uint64_t request_id = 0;
  Status decoded;
  std::vector<EntityId> decoded_ranking;
  ReadResponseEnvelope(reader, &request_id, &decoded);
  reader.ReadI32Vec(&decoded_ranking);
  ASSERT_TRUE(reader.Finish().ok());
  EXPECT_EQ(request_id, 42u);
  EXPECT_EQ(decoded.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(decoded.message(), status.message());
  EXPECT_EQ(decoded_ranking, ranking);
}

TEST(ServeProtocolTest, EnvelopeAndBodyChecksFailClosed) {
  // A status code outside StatusCode, in any response kind's envelope.
  for (const FrameKind kind :
       {FrameKind::kExpandResponse, FrameKind::kShardRetrieveResponse,
        FrameKind::kShardScoreResponse, FrameKind::kQueryLookupResponse}) {
    const std::string frame = EncodeResponseFrame(
        kind, 1, Status(static_cast<StatusCode>(9), "from the future"), {});
    SnapshotReader reader(std::string_view(frame).substr(
        kFrameHeaderBytes, frame.size() - kFrameHeaderBytes - 4));
    uint64_t request_id = 0;
    Status carried;
    ReadResponseEnvelope(reader, &request_id, &carried);
    EXPECT_NE(reader.Finish().message().find("status code out of range"),
              std::string::npos);
  }
  // An entity count whose byte size overflows u64 is capped before any
  // allocation.
  {
    SnapshotWriter body;
    body.PutU64(uint64_t{1} << 60);
    body.PutBytes(std::string(16, '\0'));
    SnapshotReader reader(body.payload());
    std::vector<ShardScoredEntity> entities;
    ReadShardEntities(reader, &entities);
    EXPECT_NE(reader.Finish().message().find("entity count exceeds payload"),
              std::string::npos);
    EXPECT_TRUE(entities.empty());
  }
  // Pos/neg score vectors of different lengths.
  {
    SnapshotWriter body;
    body.PutFloatVec(std::vector<float>{0.5f});
    body.PutFloatVec(std::vector<float>{});
    SnapshotReader reader(body.payload());
    ShardScores scores;
    ReadShardScores(reader, &scores);
    EXPECT_NE(reader.Finish().message().find("pos/neg score lengths differ"),
              std::string::npos);
  }
  // A by_index flag other than 0 or 1.
  {
    WireRequest request;
    SnapshotWriter body;
    PutExpandRequest(body, request);
    std::string bytes = body.payload();
    bytes[8 + request.method.size() + 8] = 2;  // u32 by_index, low byte
    SnapshotReader reader(bytes);
    ReadExpandRequest(reader, &request);
    EXPECT_NE(reader.Finish().message().find("by_index flag out of range"),
              std::string::npos);
  }
}

TEST(ServeProtocolTest, CorruptionMatrixFailsClosed) {
  WireRequest request;
  request.method = "setexpan";
  const std::string good = EncodeExpandRequest(request);

  auto read_back = [](std::string bytes) {
    int fds[2];
    UW_CHECK_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    UW_CHECK(WriteAll(fds[0], bytes.data(), bytes.size()).ok());
    ::shutdown(fds[0], SHUT_WR);
    StatusOr<Frame> frame = ReadFrame(fds[1]);
    ::close(fds[0]);
    ::close(fds[1]);
    return frame.status();
  };

  // Pristine bytes parse.
  EXPECT_TRUE(read_back(good).ok());
  // A flipped payload byte breaks the checksum.
  {
    std::string bad = good;
    bad[kFrameHeaderBytes] ^= 0x40;
    const Status status = read_back(bad);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("checksum"), std::string::npos);
  }
  // A flipped magic byte is rejected before anything else.
  {
    std::string bad = good;
    bad[0] ^= 0xff;
    EXPECT_NE(read_back(bad).message().find("magic"), std::string::npos);
  }
  // Truncation mid-payload is a hard error, not an EOF.
  {
    const Status status = read_back(good.substr(0, good.size() - 6));
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInternal);
  }
  // A hostile length field is capped before allocation.
  {
    std::string bad = good;
    bad[12] = '\xff';
    bad[13] = '\xff';
    bad[14] = '\xff';
    bad[15] = '\xff';
    const Status status = read_back(bad);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("too large"), std::string::npos);
  }
  // Clean EOF before the first byte is the distinguished "eof" status.
  EXPECT_EQ(read_back("").message(), "eof");
}

TEST(ServeProtocolTest, FrameVersionCompatMatrix) {
  auto read_back = [](const std::string& bytes) {
    int fds[2];
    UW_CHECK_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    UW_CHECK(WriteAll(fds[0], bytes.data(), bytes.size()).ok());
    ::shutdown(fds[0], SHUT_WR);
    StatusOr<Frame> frame = ReadFrame(fds[1]);
    ::close(fds[0]);
    ::close(fds[1]);
    return frame;
  };

  WireRequest request;
  request.method = "retexpan";

  // v2: the header round-trips trace context.
  {
    FrameOptions options;
    options.trace_id = 0xabcdef0123456789ull;
    options.flags = kFrameFlagSample;
    StatusOr<Frame> frame =
        read_back(EncodeExpandRequest(request, 0, options));
    ASSERT_TRUE(frame.ok()) << frame.status();
    EXPECT_EQ(frame->trace_id, 0xabcdef0123456789ull);
    EXPECT_EQ(frame->flags, kFrameFlagSample);
    uint64_t request_id = 0;
    WireRequest decoded;
    ASSERT_TRUE(
        DecodeExpandRequest(frame->payload, &request_id, &decoded).ok());
    EXPECT_EQ(decoded.method, "retexpan");
  }
  // Every other version fails closed on the header's version field: v1
  // (the retired trace-context-free header) and an unknown future one.
  for (const uint32_t version : {1u, 3u}) {
    std::string bytes = EncodeExpandRequest(request);
    bytes[4] = static_cast<char>(version);  // u32 LE version, low byte
    const StatusOr<Frame> frame = read_back(bytes);
    ASSERT_FALSE(frame.ok()) << "version " << version;
    EXPECT_NE(frame.status().message().find("unsupported frame version"),
              std::string::npos)
        << frame.status();
  }
  // The CRC covers the trace context: a flipped trace-id byte is caught
  // even though the payload is untouched.
  {
    std::string bad = EncodeExpandRequest(request);
    bad[kFramePrefixBytes + 3] ^= 0x20;  // inside the trace_id field
    const StatusOr<Frame> frame = read_back(bad);
    ASSERT_FALSE(frame.ok());
    EXPECT_NE(frame.status().message().find("checksum"), std::string::npos);
  }
}

// ------------------------------------------------------- Wire bytes.
//
// These tests speak to ServeClient and TcpServer through sockets only, so
// they pin the bytes on the wire independently of how the codec is
// written: every frame kind is compared against bytes captured from a
// known-good encoder, and every payload decoder (the server's for
// requests, the client's for responses) is swept with truncated and
// overlong payloads.

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    hex.push_back(kDigits[byte >> 4]);
    hex.push_back(kDigits[byte & 0xf]);
  }
  return hex;
}

std::string Unhex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

void PutLittleEndian(uint64_t value, int bytes, std::string& out) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

/// One whole frame (header, payload, CRC) read off `fd` unparsed; empty
/// if the peer closed or sent less.
std::string ReadRawFrame(int fd) {
  std::string bytes(kFrameHeaderBytes, '\0');
  if (!ReadExact(fd, bytes.data(), bytes.size()).ok()) return "";
  uint64_t length = 0;
  for (int i = 7; i >= 0; --i) {
    length = (length << 8) | static_cast<unsigned char>(bytes[12 + i]);
  }
  if (length > kMaxFramePayload) return "";
  bytes.resize(kFrameHeaderBytes + length + 4);
  if (!ReadExact(fd, bytes.data() + kFrameHeaderBytes, length + 4).ok()) {
    return "";
  }
  return bytes;
}

std::string PayloadOf(const std::string& frame) {
  return frame.substr(kFrameHeaderBytes,
                      frame.size() - kFrameHeaderBytes - 4);
}

/// `frame`'s header around a different payload, with the length field
/// and the CRC rewritten so the frame itself stays valid.
std::string Reframe(const std::string& frame, std::string_view payload) {
  std::string out = frame.substr(0, 12);
  PutLittleEndian(payload.size(), 8, out);
  out.append(frame, 20, kFrameHeaderBytes - 20);
  out.append(payload);
  PutLittleEndian(Crc32(out), 4, out);
  return out;
}

/// Bounds every read on `fd`, so a wrongly framed reply fails a test
/// instead of hanging it.
void BoundReads(int fd) {
  timeval timeout{};
  timeout.tv_sec = 5;
  UW_CHECK_EQ(
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)),
      0);
}

int RawConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  UW_CHECK_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  UW_CHECK_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  UW_CHECK_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  BoundReads(fd);
  return fd;
}

/// A loopback listening socket on an ephemeral port.
int RawListen(int* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  UW_CHECK_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  UW_CHECK_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  UW_CHECK_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
  UW_CHECK_EQ(::listen(fd, 16), 0);
  socklen_t len = sizeof(addr);
  UW_CHECK_EQ(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  *port = ntohs(addr.sin_port);
  return fd;
}

Query FixedQuery() {
  Query query;
  query.ultra_class = 3;
  query.pos_seeds = {1, 2, 5};
  query.neg_seeds = {9};
  return query;
}

const std::vector<EntityId> kFixedRanking = {7, -1, 12};

/// A Frontend with fixed answers: the server's reply bytes depend only
/// on the request bytes.
class FixedFrontend : public Frontend {
 public:
  ExpandResult Expand(ExpandRequest request) override {
    (void)request;
    return ExpandResult{Status::Ok(), kFixedRanking};
  }
  StatusOr<Query> QueryByIndex(uint32_t index) override {
    if (index != 4) return Status::NotFound("no query " + std::to_string(index));
    return FixedQuery();
  }
  StatusOr<std::vector<ShardScoredEntity>> ScatterRetrieve(
      const Query& query, size_t size) override {
    (void)query;
    (void)size;
    return std::vector<ShardScoredEntity>{{0.5f, 3, 21}, {-1.25f, 8, 34}};
  }
  StatusOr<ShardScores> ScatterScore(
      const Query& query, const std::vector<EntityId>& ids) override {
    (void)query;
    (void)ids;
    return ShardScores{{0.75f, 0.25f}, {-0.5f, 1.0f}};
  }
  void Drain() override {}
};

/// One client call and the frames it exchanges. `call` checks the
/// decoded reply and returns OK when it is the expected one.
struct WireExchange {
  const char* name;
  std::function<Status(ServeClient&)> call;
  const char* request_hex;
  const char* response_hex;
};

std::vector<WireExchange> WireExchanges() {
  const auto ranking_is_fixed =
      [](const StatusOr<std::vector<EntityId>>& ranking) {
        if (!ranking.ok()) return ranking.status();
        EXPECT_EQ(*ranking, kFixedRanking);
        return Status::Ok();
      };
  return {
      {"ping", [](ServeClient& client) { return client.Ping(); },
       "3146575502000000030000000000000000000000000000000000000000000000"
       "5e9119a4",
       "3146575502000000040000000000000000000000000000000000000000000000"
       "29a60195"},
      {"expand by index",
       [=](ServeClient& client) {
         return ranking_is_fixed(
             client.ExpandByIndex("retexpan", 4, 3, 250));
       },
       "3146575502000000010000003c00000000000000010000000000000000000000"
       "01000000000000000800000000000000726574657870616e03000000fa000000"
       "01000000040000000000000000000000000000000000000000000000312e5cd5",
       "3146575502000000020000002800000000000000000000000000000000000000"
       "0100000000000000000000000000000000000000030000000000000007000000"
       "ffffffff0c000000d0bad113"},
      {"expand query",
       [=](ServeClient& client) {
         return ranking_is_fixed(
             client.ExpandQuery("genexpan", FixedQuery(), 5));
       },
       "3146575502000000010000004c00000000000000010000000000000000000000"
       "0100000000000000080000000000000067656e657870616e0500000000000000"
       "0000000000000000030000000300000000000000010000000200000005000000"
       "010000000000000009000000d33a01fe",
       "3146575502000000020000002800000000000000000000000000000000000000"
       "0100000000000000000000000000000000000000030000000000000007000000"
       "ffffffff0c000000d0bad113"},
      {"shard retrieve",
       [](ServeClient& client) {
         const auto entities = client.ScatterRetrieve(FixedQuery(), 2);
         if (!entities.ok()) return entities.status();
         EXPECT_EQ(entities->size(), 2u);
         if (entities->size() == 2) {
           EXPECT_EQ((*entities)[1].score, -1.25f);
           EXPECT_EQ((*entities)[1].position, 8u);
           EXPECT_EQ((*entities)[1].id, 34);
         }
         return Status::Ok();
       },
       "3146575502000000050000003400000000000000010000000000000000000000"
       "0100000000000000020000000000000003000000030000000000000001000000"
       "02000000050000000100000000000000090000007feadee9",
       "3146575502000000060000003c00000000000000000000000000000000000000"
       "010000000000000000000000000000000000000002000000000000000000003f"
       "0300000000000000150000000000a0bf0800000000000000220000006492fbfc"},
      {"shard score",
       [](ServeClient& client) {
         const auto scores = client.ScatterScore(FixedQuery(), {21, 34});
         if (!scores.ok()) return scores.status();
         EXPECT_EQ(scores->pos, (std::vector<float>{0.75f, 0.25f}));
         EXPECT_EQ(scores->neg, (std::vector<float>{-0.5f, 1.0f}));
         return Status::Ok();
       },
       "3146575502000000070000003c00000000000000010000000000000000000000"
       "0100000000000000020000000000000015000000220000000300000003000000"
       "00000000010000000200000005000000010000000000000009000000b8c9eed9",
       "3146575502000000080000003400000000000000000000000000000000000000"
       "010000000000000000000000000000000000000002000000000000000000403f"
       "0000803e0200000000000000000000bf0000803fccc66e17"},
      {"query lookup",
       [](ServeClient& client) {
         const auto query = client.QueryLookup(4);
         if (!query.ok()) return query.status();
         EXPECT_EQ(query->ultra_class, 3);
         EXPECT_EQ(query->pos_seeds, FixedQuery().pos_seeds);
         EXPECT_EQ(query->neg_seeds, FixedQuery().neg_seeds);
         return Status::Ok();
       },
       "3146575502000000090000000c00000000000000010000000000000000000000"
       "0100000000000000040000000f96b952",
       "31465755020000000a0000003800000000000000000000000000000000000000"
       "0100000000000000000000000000000000000000030000000300000000000000"
       "010000000200000005000000010000000000000009000000218da150"},
      // An error reply (the envelope carries a message) on a sampled
      // request (the header carries the sample flag).
      {"sampled query lookup error",
       [](ServeClient& client) {
         client.set_force_trace(true);
         const Status status = client.QueryLookup(99).status();
         if (status == Status::NotFound("no query 99")) return Status::Ok();
         return status.ok() ? Status::Internal("lookup of 99 succeeded")
                            : status;
       },
       "3146575502000000090000000c00000000000000010000000000000001000000"
       "01000000000000006300000024c8205a",
       "31465755020000000a0000003300000000000000000000000000000000000000"
       "0100000000000000020000000b000000000000006e6f20717565727920393900"
       "000000000000000000000000000000000000003120e571"},
  };
}

/// Runs `exchange.call` on a fresh client whose connection the test
/// accepts on `tap`: `reply(request_frame)` gives the bytes sent back.
Status CallThroughTap(const WireExchange& exchange, int tap, int tap_port,
                      std::string* request,
                      const std::function<std::string(const std::string&)>&
                          reply) {
  auto client = ServeClient::Connect("127.0.0.1", tap_port);
  if (!client.ok()) return client.status();
  std::future<Status> result = std::async(
      std::launch::async, [&] { return exchange.call(*client); });
  const int peer = ::accept(tap, nullptr, nullptr);
  UW_CHECK_GE(peer, 0);
  BoundReads(peer);
  *request = ReadRawFrame(peer);
  const std::string response = reply(*request);
  UW_CHECK(WriteAll(peer, response.data(), response.size()).ok());
  ::close(peer);  // the client sees EOF after the reply, never a hang
  return result.get();
}

TEST(ServeWireTest, GoldenBytesForEveryFrameKind) {
  FixedFrontend frontend;
  TcpServer server(frontend);
  ASSERT_TRUE(server.Start(0).ok());
  const int upstream = RawConnect(server.port());
  int tap_port = 0;
  const int tap = RawListen(&tap_port);

  // The test relays each client frame to the server and each reply back,
  // comparing both against the captured bytes on the way.
  for (const WireExchange& exchange : WireExchanges()) {
    SCOPED_TRACE(exchange.name);
    std::string request;
    std::string response;
    const Status status = CallThroughTap(
        exchange, tap, tap_port, &request, [&](const std::string& bytes) {
          UW_CHECK(WriteAll(upstream, bytes.data(), bytes.size()).ok());
          response = ReadRawFrame(upstream);
          return response;
        });
    EXPECT_TRUE(status.ok()) << status;
    EXPECT_EQ(Hex(request), exchange.request_hex);
    EXPECT_EQ(Hex(response), exchange.response_hex);
  }
  ::close(upstream);
  ::close(tap);
  server.Shutdown();
  EXPECT_EQ(server.protocol_errors(), 0);
}

TEST(ServeWireTest, EveryDecoderRejectsTruncationAndTrailingBytes) {
  FixedFrontend frontend;
  TcpServer server(frontend);
  ASSERT_TRUE(server.Start(0).ok());
  int tap_port = 0;
  const int tap = RawListen(&tap_port);
  const LogLevel log_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);  // one dropped-connection warning per case

  // Every strict prefix of a valid payload, and the payload plus one byte.
  const auto damaged = [](const std::string& payload) {
    std::vector<std::string> variants;
    for (size_t size = 0; size < payload.size(); ++size) {
      variants.push_back(payload.substr(0, size));
    }
    variants.push_back(payload + '\0');
    return variants;
  };

  int64_t rejected_requests = 0;
  for (const WireExchange& exchange : WireExchanges()) {
    const std::string request = Unhex(exchange.request_hex);
    const std::string response = Unhex(exchange.response_hex);
    if (PayloadOf(request).empty()) continue;  // ping/pong: no payload

    // The valid frames are served and decoded: the sweep below fails for
    // the damage alone.
    {
      const int fd = RawConnect(server.port());
      ASSERT_TRUE(WriteAll(fd, request.data(), request.size()).ok());
      EXPECT_EQ(Hex(ReadRawFrame(fd)), exchange.response_hex)
          << exchange.name;
      ::close(fd);
      std::string sent;
      EXPECT_TRUE(CallThroughTap(exchange, tap, tap_port, &sent,
                                 [&](const std::string&) { return response; })
                      .ok())
          << exchange.name;
    }

    // Server-side request decoding: the server drops the connection
    // without a reply.
    for (const std::string& payload : damaged(PayloadOf(request))) {
      const std::string frame = Reframe(request, payload);
      const int fd = RawConnect(server.port());
      ASSERT_TRUE(WriteAll(fd, frame.data(), frame.size()).ok());
      char byte;
      EXPECT_FALSE(ReadExact(fd, &byte, 1).ok())
          << exchange.name << " request, " << payload.size() << " of "
          << PayloadOf(request).size() << " bytes";
      ::close(fd);
      ++rejected_requests;
    }

    // Client-side response decoding: the call fails.
    for (const std::string& payload : damaged(PayloadOf(response))) {
      std::string sent;
      const Status status = CallThroughTap(
          exchange, tap, tap_port, &sent,
          [&](const std::string&) { return Reframe(response, payload); });
      EXPECT_FALSE(status.ok())
          << exchange.name << " response, " << payload.size() << " of "
          << PayloadOf(response).size() << " bytes";
    }
  }
  SetLogLevel(log_level);
  ::close(tap);
  server.Shutdown();
  EXPECT_EQ(server.protocol_errors(), rejected_requests);
}

// ------------------------------------------------------------ Service.

TEST(ServeServiceTest, UnknownMethodAndBadKRejectImmediately) {
  ExpansionService service(TestPipeline(), ServeConfig{});
  ExpandRequest request;
  request.method = "no-such-method";
  request.query = TestPipeline().dataset().queries.at(0);
  ExpandResult result = service.ExpandSync(request);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);

  request.method = "retexpan";
  request.k = 0;
  result = service.ExpandSync(request);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
}

TEST(ServeServiceTest, RankingBitIdenticalAcrossBatchCompositions) {
  const auto& queries = TestPipeline().dataset().queries;
  ASSERT_GE(queries.size(), 2u);
  constexpr int kK = 25;
  const std::vector<EntityId> want_ret = Reference("retexpan", queries[0], kK);
  const std::vector<EntityId> want_set = Reference("setexpan", queries[0], kK);

  for (int threads : {1, 8}) {
    ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(threads).ok());
    // Served alone: batch size pinned to 1, no coalescing window.
    {
      ServeConfig solo;
      solo.max_batch = 1;
      solo.batch_wait_ms = 0;
      ExpansionService service(TestPipeline(), solo);
      ExpandRequest request{"retexpan", queries[0], kK, -1};
      EXPECT_EQ(service.ExpandSync(request).ranking, want_ret)
          << "solo, threads=" << threads;
    }
    // Coalesced into a mixed batch: the same request rides with other
    // methods and other queries; its ranking must not change.
    {
      ServeConfig batched;
      batched.max_batch = 16;
      batched.batch_wait_ms = 50;  // plenty to coalesce the burst below
      ExpansionService service(TestPipeline(), batched);
      std::vector<std::future<ExpandResult>> futures;
      std::vector<const std::vector<EntityId>*> want;
      for (int round = 0; round < 4; ++round) {
        futures.push_back(
            service.Submit({"retexpan", queries[0], kK, -1}));
        want.push_back(&want_ret);
        futures.push_back(
            service.Submit({"setexpan", queries[0], kK, -1}));
        want.push_back(&want_set);
        futures.push_back(service.Submit(
            {"retexpan", queries[1 + (round % (queries.size() - 1))], kK,
             -1}));
        want.push_back(nullptr);  // filler traffic, not checked
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        ExpandResult result = futures[i].get();
        ASSERT_TRUE(result.status.ok()) << result.status;
        if (want[i] != nullptr) {
          EXPECT_EQ(result.ranking, *want[i])
              << "slot " << i << ", threads=" << threads;
        }
      }
      // The burst really was batched, not trickled one by one.
      EXPECT_GT(obs::GetHistogram("serve.batch_size", {}).Aggregate().max, 1);
    }
  }
  ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(0).ok());
}

TEST(ServeServiceTest, ExpiredDeadlineTimesOutWithoutPoisoningTheQueue) {
  const auto& queries = TestPipeline().dataset().queries;
  ServeConfig config;
  config.max_batch = 8;
  // Every batch stalls long past the 1 ms deadline below.
  config.synthetic_delay_ms = 50;
  ExpansionService service(TestPipeline(), config);

  ExpandRequest doomed{"retexpan", queries[0], 10, /*timeout_ms=*/1};
  ExpandResult timed_out = service.ExpandSync(doomed);
  EXPECT_EQ(timed_out.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(timed_out.ranking.empty());

  // The queue keeps serving correct results afterwards.
  ExpandRequest fine{"retexpan", queries[0], 10, /*timeout_ms=*/0};
  ExpandResult ok = service.ExpandSync(fine);
  ASSERT_TRUE(ok.status.ok()) << ok.status;
  EXPECT_EQ(ok.ranking, Reference("retexpan", queries[0], 10));
}

TEST(ServeServiceTest, DegradedExpansionPropagatesThroughService) {
  // A standing one-expansion budget (resolved from the env when the
  // service lazily builds its GenExpan) deterministically truncates every
  // generation, so the degraded flag must surface in the ExpandResult
  // and the serve.degraded counter.
  setenv("UW_GENEXPAN_MAX_EXPANSIONS", "1", 1);
  const auto& queries = TestPipeline().dataset().queries;
  ExpansionService service(TestPipeline(), ServeConfig{});
  const int64_t degraded_before =
      obs::GetCounter("serve.degraded").Value();
  ExpandResult result =
      service.ExpandSync({"genexpan", queries[0], 20, /*timeout_ms=*/0});
  unsetenv("UW_GENEXPAN_MAX_EXPANSIONS");
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(obs::GetCounter("serve.degraded").Value(), degraded_before + 1);

  // An unbudgeted service never degrades and matches the offline path.
  ExpansionService fresh(TestPipeline(), ServeConfig{});
  ExpandResult full =
      fresh.ExpandSync({"genexpan", queries[0], 20, /*timeout_ms=*/0});
  ASSERT_TRUE(full.status.ok()) << full.status;
  EXPECT_FALSE(full.degraded);
  EXPECT_EQ(full.ranking, Reference("genexpan", queries[0], 20));
}

TEST(ServeServiceTest, RequestDeadlineThreadsIntoAnytimeExpanders) {
  // A 1 ms deadline lands in exactly one of three places, all legal:
  // expired before execution (kDeadlineExceeded, empty ranking), expired
  // mid-generation (OK + degraded best-so-far), or beaten by a fast
  // machine (OK, not degraded, bit-identical to the offline ranking).
  // What must never happen is an OK-but-unflagged partial result.
  const auto& queries = TestPipeline().dataset().queries;
  ExpansionService service(TestPipeline(), ServeConfig{});
  ExpandResult result =
      service.ExpandSync({"genexpan", queries[0], 30, /*timeout_ms=*/1});
  if (!result.status.ok()) {
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(result.ranking.empty());
  } else if (!result.degraded) {
    EXPECT_EQ(result.ranking, Reference("genexpan", queries[0], 30));
  }
}

TEST(ServeServiceTest, OverloadShedsButAcceptedResultsStayCorrect) {
  const auto& queries = TestPipeline().dataset().queries;
  constexpr int kK = 15;
  const std::vector<EntityId> want = Reference("setexpan", queries[0], kK);

  ServeConfig config;
  config.max_queue = 4;
  config.max_batch = 2;
  config.batch_wait_ms = 0;
  config.synthetic_delay_ms = 10;  // drain slower than the burst arrives
  ExpansionService service(TestPipeline(), config);

  constexpr int kBurst = 48;
  std::vector<std::future<ExpandResult>> futures;
  futures.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    futures.push_back(service.Submit({"setexpan", queries[0], kK, -1}));
  }
  int served = 0;
  int shed = 0;
  for (auto& future : futures) {
    ExpandResult result = future.get();
    if (result.status.ok()) {
      ++served;
      // Shedding must never corrupt an accepted request's ranking.
      ASSERT_EQ(result.ranking, want);
    } else {
      ASSERT_EQ(result.status.code(), StatusCode::kUnavailable)
          << result.status;
      EXPECT_TRUE(result.ranking.empty());
      ++shed;
    }
  }
  EXPECT_EQ(served + shed, kBurst);
  // A 4-deep queue drained 2-at-a-time every 10 ms cannot absorb a
  // 48-request burst: the bound must have shed some of it.
  EXPECT_GT(shed, 0);
  EXPECT_GT(served, 0);
}

TEST(ServeServiceTest, DrainServesBacklogThenRejectsNewWork) {
  const auto& queries = TestPipeline().dataset().queries;
  ServeConfig config;
  config.max_batch = 4;
  config.batch_wait_ms = 20;
  ExpansionService service(TestPipeline(), config);
  std::vector<std::future<ExpandResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.Submit({"retexpan", queries[0], 10, -1}));
  }
  service.Drain();
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  ExpandResult rejected = service.ExpandSync({"retexpan", queries[0], 10, -1});
  EXPECT_EQ(rejected.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.queue_depth(), 0);
}

// ------------------------------------------------------------ Tracing.

TEST(ServeTraceTest, RankingsBitIdenticalAcrossTracingModes) {
  obs::SlowQueryLog::Global().ResetForTest();
  const auto& queries = TestPipeline().dataset().queries;
  constexpr int kK = 25;
  const std::vector<EntityId> want_ret = Reference("retexpan", queries[0], kK);
  const std::vector<EntityId> want_set = Reference("setexpan", queries[0], kK);

  // Off / sampled (every request) / slow-threshold armed + forced: the
  // tracing plane is passive, so all three serve the reference ranking
  // byte for byte.
  ServeConfig off;
  ServeConfig sampled;
  sampled.trace_sample = 1;
  ServeConfig armed;
  armed.slow_query_ms = 1000000;  // armed, never slow
  for (const ServeConfig& config : {off, sampled, armed}) {
    ExpansionService service(TestPipeline(), config);
    ExpandRequest ret{"retexpan", queries[0], kK, -1};
    ExpandRequest set{"setexpan", queries[0], kK, -1};
    set.force_trace = true;  // exercise the forced path too
    ExpandResult ret_result = service.ExpandSync(ret);
    ExpandResult set_result = service.ExpandSync(set);
    ASSERT_TRUE(ret_result.status.ok()) << ret_result.status;
    ASSERT_TRUE(set_result.status.ok()) << set_result.status;
    EXPECT_EQ(ret_result.ranking, want_ret)
        << "trace_sample=" << config.trace_sample
        << " slow_query_ms=" << config.slow_query_ms;
    EXPECT_EQ(set_result.ranking, want_set)
        << "trace_sample=" << config.trace_sample
        << " slow_query_ms=" << config.slow_query_ms;
  }
  obs::SlowQueryLog::Global().ResetForTest();
}

TEST(ServeTraceTest, SlowQuerySpanTreeTilesTheEndToEndLatency) {
  obs::SlowQueryLog::Global().ResetForTest();
  const auto& queries = TestPipeline().dataset().queries;
  ServeConfig config;
  config.max_batch = 1;
  config.batch_wait_ms = 0;
  // Force the request slow: the synthetic stall lands in batch_wait, so
  // the stage breakdown must account for it.
  config.synthetic_delay_ms = 60;
  config.slow_query_ms = 20;
  ExpansionService service(TestPipeline(), config);

  ExpandRequest request{"retexpan", queries[0], 20, -1};
  request.trace_id = 4242;
  ExpandResult result = service.ExpandSync(request);
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.ranking, Reference("retexpan", queries[0], 20));

  const std::vector<obs::RequestTraceData> slow =
      obs::SlowQueryLog::Global().Snapshot();
  ASSERT_EQ(slow.size(), 1u);
  const obs::RequestTraceData& trace = slow[0];
  EXPECT_EQ(trace.trace_id, 4242u);
  EXPECT_EQ(trace.method, "retexpan");
  EXPECT_GE(trace.total_us, 60000);  // at least the synthetic stall

  // The three root stages tile the request: queue wait + batch wait +
  // execute must sum to the end-to-end latency within 5% (the residual
  // is promise resolution and timestamping).
  int64_t stage_sum = 0;
  bool saw_queue = false, saw_batch = false, saw_execute = false;
  for (const obs::RequestSpanEvent& event : trace.events) {
    if (event.parent != -1) continue;
    stage_sum += event.dur_us;
    saw_queue |= event.name == "queue_wait";
    saw_batch |= event.name == "batch_wait";
    saw_execute |= event.name == "execute";
  }
  EXPECT_TRUE(saw_queue && saw_batch && saw_execute)
      << "stages missing from " << obs::ExportRequestTracesJson({trace});
  EXPECT_GE(stage_sum, trace.total_us * 95 / 100)
      << obs::ExportRequestTracesJson({trace});
  EXPECT_LE(stage_sum, trace.total_us);

  // The expander's own UW_SPAN scopes nest under "execute".
  bool saw_expander_span = false;
  for (const obs::RequestSpanEvent& event : trace.events) {
    if (event.name == "retexpan.expand") {
      saw_expander_span = true;
      EXPECT_GE(event.parent, 0);
      EXPECT_EQ(trace.events[static_cast<size_t>(event.parent)].name,
                "execute");
    }
  }
  EXPECT_TRUE(saw_expander_span) << obs::ExportRequestTracesJson({trace});

  // And the whole thing exports as Chrome trace-event JSON.
  const std::string chrome = obs::ExportChromeTraceJson(slow);
  EXPECT_NE(chrome.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(chrome.find("\"pid\":4242"), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"queue_wait\""), std::string::npos);
  obs::SlowQueryLog::Global().ResetForTest();
}

// ---------------------------------------------------------------- TCP.

TEST(ServeTcpTest, LoopbackEndToEndMatchesLocalRankings) {
  const auto& queries = TestPipeline().dataset().queries;
  ExpansionService service(TestPipeline(), ServeConfig{});
  TcpServer server(service);
  ASSERT_TRUE(server.Start(/*port=*/0).ok());
  ASSERT_GT(server.port(), 0);

  auto client = ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(client->Ping().ok());

  for (const std::string method : {"retexpan", "setexpan"}) {
    const auto remote = client->ExpandByIndex(method, 0, 20);
    ASSERT_TRUE(remote.ok()) << remote.status();
    EXPECT_EQ(*remote, Reference(method, queries[0], 20)) << method;
  }
  // Explicit-seed queries take the other wire shape to the same answer.
  const auto explicit_ranking =
      client->ExpandQuery("retexpan", queries[0], 20);
  ASSERT_TRUE(explicit_ranking.ok()) << explicit_ranking.status();
  EXPECT_EQ(*explicit_ranking, Reference("retexpan", queries[0], 20));

  // Server-side validation surfaces as typed statuses, not dead sockets.
  EXPECT_EQ(client->ExpandByIndex("bogus", 0, 5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      client
          ->ExpandByIndex("retexpan",
                          static_cast<uint32_t>(queries.size() + 100), 5)
          .status()
          .code(),
      StatusCode::kOutOfRange);

  server.Shutdown();
  EXPECT_EQ(server.protocol_errors(), 0);
  EXPECT_GE(server.requests_served(), 5);
}

TEST(ServeTcpTest, GarbageBytesCountAsProtocolErrorAndCloseTheSession) {
  ExpansionService service(TestPipeline(), ServeConfig{});
  TcpServer server(service);
  ASSERT_TRUE(server.Start(0).ok());

  // A raw socket feeds the server a ping frame with a flipped CRC byte.
  const int fd = RawConnect(server.port());
  std::string bad = EncodeControlFrame(FrameKind::kPing);
  bad.back() = static_cast<char>(bad.back() ^ 0x1);
  ASSERT_TRUE(WriteAll(fd, bad.data(), bad.size()).ok());
  // The server must drop the session: the next read sees EOF, not a pong.
  char byte;
  EXPECT_EQ(ReadExact(fd, &byte, 1).code(), StatusCode::kUnavailable);
  ::close(fd);

  // The error is counted, and healthy clients are unaffected.
  for (int spin = 0; spin < 100 && server.protocol_errors() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.protocol_errors(), 1);
  auto client = ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_TRUE(client->Ping().ok());
  client->Close();
  server.Shutdown();
}

TEST(ServeTcpTest, V1FrameIsAProtocolErrorAndV2ClientsKeepWorking) {
  const auto& queries = TestPipeline().dataset().queries;
  ExpansionService service(TestPipeline(), ServeConfig{});
  TcpServer server(service);
  ASSERT_TRUE(server.Start(0).ok());

  // A raw socket sends a well-formed ping whose header claims version 1.
  const int fd = RawConnect(server.port());
  std::string v1 = EncodeControlFrame(FrameKind::kPing);
  v1[4] = 1;  // u32 LE version field
  ASSERT_TRUE(WriteAll(fd, v1.data(), v1.size()).ok());
  // The server drops the session after the 20-byte prefix: the next
  // read fails (EOF, or a reset for the unread bytes), never a pong.
  char byte;
  EXPECT_FALSE(ReadExact(fd, &byte, 1).ok());
  ::close(fd);
  for (int spin = 0; spin < 100 && server.protocol_errors() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.protocol_errors(), 1);

  // A v2 client on the same server is served as before.
  auto current = ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(current.ok()) << current.status();
  ASSERT_TRUE(current->Ping().ok());
  const auto ranking = current->ExpandByIndex("retexpan", 0, 20);
  ASSERT_TRUE(ranking.ok()) << ranking.status();
  EXPECT_EQ(*ranking, Reference("retexpan", queries[0], 20));

  current->Close();
  server.Shutdown();
  EXPECT_EQ(server.protocol_errors(), 1);
}

TEST(ServeTcpTest, ForcedTraceLandsInSlowLogWithClientTraceId) {
  obs::SlowQueryLog::Global().ResetForTest();
  const auto& queries = TestPipeline().dataset().queries;
  ExpansionService service(TestPipeline(), ServeConfig{});
  TcpServer server(service);
  ASSERT_TRUE(server.Start(0).ok());

  auto client = ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  client->set_force_trace(true);
  const auto ranking = client->ExpandByIndex("setexpan", 0, 15);
  ASSERT_TRUE(ranking.ok()) << ranking.status();
  EXPECT_EQ(*ranking, Reference("setexpan", queries[0], 15));

  const std::vector<obs::RequestTraceData> slow =
      obs::SlowQueryLog::Global().Snapshot();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].trace_id, client->last_trace_id());
  EXPECT_EQ(slow[0].method, "setexpan");
  EXPECT_FALSE(slow[0].events.empty());

  client->Close();
  server.Shutdown();
  obs::SlowQueryLog::Global().ResetForTest();
}

// -------------------------------------------------------------- Admin.

/// Minimal HTTP GET against the admin listener: full response text.
std::string AdminGet(int port, const std::string& path) {
  const int fd = RawConnect(port);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  UW_CHECK(WriteAll(fd, request.data(), request.size()).ok());
  std::string response;
  char buffer[4096];
  ssize_t got;
  while ((got = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(got));
  }
  ::close(fd);
  return response;
}

TEST(AdminServerTest, RoutesAnswerAndUnknownPathIs404) {
  ExpansionService service(TestPipeline(), ServeConfig{});
  AdminServer admin(service);
  ASSERT_TRUE(admin.Start(0).ok());
  ASSERT_GT(admin.port(), 0);

  const std::string health = AdminGet(admin.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics = AdminGet(admin.port(), "/metrics");
  EXPECT_NE(metrics.find("uw_serve_accepted"), std::string::npos);
  EXPECT_NE(metrics.find("TYPE uw_serve_latency_us histogram"),
            std::string::npos);

  const std::string statusz = AdminGet(admin.port(), "/statusz");
  EXPECT_NE(statusz.find("\"draining\":0"), std::string::npos) << statusz;
  EXPECT_NE(statusz.find("\"queue_depth\":"), std::string::npos);
  EXPECT_NE(statusz.find("\"inflight\":"), std::string::npos);

  const std::string slow = AdminGet(admin.port(), "/slow");
  EXPECT_NE(slow.find("\"traceEvents\":["), std::string::npos);

  EXPECT_NE(AdminGet(admin.port(), "/nope").find("404"), std::string::npos);

  // Draining flips /healthz to 503 and /statusz to draining:1.
  service.Drain();
  EXPECT_NE(AdminGet(admin.port(), "/healthz").find("503"),
            std::string::npos);
  EXPECT_NE(AdminGet(admin.port(), "/statusz").find("\"draining\":1"),
            std::string::npos);
  admin.Shutdown();
}

TEST(AdminServerTest, ScrapesCleanlyUnderConcurrentServingLoad) {
  obs::SlowQueryLog::Global().ResetForTest();
  const auto& queries = TestPipeline().dataset().queries;
  ServeConfig config;
  config.trace_sample = 3;  // mixed traced / untraced traffic
  ExpansionService service(TestPipeline(), config);
  AdminServer admin(service);
  ASSERT_TRUE(admin.Start(0).ok());

  // Load threads hammer the service while scrapers hit every route; TSan
  // (the serve_test job runs under it in CI) vouches for the absence of
  // data races between the serving plane and the telemetry reads.
  constexpr int kRequestsPerThread = 12;
  std::vector<std::thread> load;
  std::atomic<int> failures{0};
  for (int t = 0; t < 2; ++t) {
    load.emplace_back([&service, &queries, &failures] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        ExpandRequest request{"retexpan",
                              queries[static_cast<size_t>(i) % queries.size()],
                              10, -1};
        if (!service.ExpandSync(request).status.ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int scrape = 0; scrape < 6; ++scrape) {
    for (const char* path : {"/metrics", "/statusz", "/slow", "/healthz"}) {
      const std::string response = AdminGet(admin.port(), path);
      EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos)
          << path << " mid-load: " << response.substr(0, 64);
    }
  }
  for (std::thread& thread : load) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // The final scrape reflects the completed load.
  const std::string metrics = AdminGet(admin.port(), "/metrics");
  EXPECT_NE(metrics.find("uw_serve_completed"), std::string::npos);
  admin.Shutdown();
  obs::SlowQueryLog::Global().ResetForTest();
}

}  // namespace
}  // namespace serve
}  // namespace ultrawiki
