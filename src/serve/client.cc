#include "serve/client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "serve/tcp_listener.h"

namespace ultrawiki {
namespace serve {

StatusOr<ServeClient> ServeClient::Connect(const std::string& host,
                                           int port) {
  StatusOr<int> fd = ConnectTcp(host, port, /*timeout_ms=*/0);
  if (!fd.ok()) return fd.status();
  const int enable = 1;
  ::setsockopt(*fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  ServeClient client;
  client.fd_ = *fd;
  return client;
}

ServeClient::ServeClient(ServeClient&& other) noexcept {
  *this = std::move(other);
}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    next_request_id_ = other.next_request_id_;
    force_trace_ = other.force_trace_;
    last_trace_id_ = other.last_trace_id_;
  }
  return *this;
}

ServeClient::~ServeClient() { Close(); }

void ServeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status ServeClient::Ping() {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  const std::string ping = EncodeControlFrame(FrameKind::kPing);
  Status status = WriteAll(fd_, ping.data(), ping.size());
  if (!status.ok()) return status;
  StatusOr<Frame> frame = ReadFrame(fd_);
  if (!frame.ok()) return frame.status();
  if (frame->kind != FrameKind::kPong) {
    return Status::Internal("expected pong, got kind " +
                            std::to_string(static_cast<int>(frame->kind)));
  }
  return Status::Ok();
}

template <typename ReadBody>
Status ServeClient::Call(FrameKind kind, const SnapshotWriter& body,
                         ReadBody&& read_body) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  const uint64_t request_id = next_request_id_++;
  // The request id doubles as the trace id: unique per connection and
  // easy to correlate with client-side logs.
  FrameOptions options;
  options.trace_id = request_id;
  if (force_trace_) options.flags |= kFrameFlagSample;
  last_trace_id_ = options.trace_id;
  const std::string request =
      EncodeRequestFrame(kind, request_id, body.payload(), options);
  Status status = WriteAll(fd_, request.data(), request.size());
  if (!status.ok()) return status;
  StatusOr<Frame> frame = ReadFrame(fd_);
  if (!frame.ok()) return frame.status();
  if (frame->kind != ReplyKind(kind)) {
    return Status::Internal(
        "expected frame kind " +
        std::to_string(static_cast<int>(ReplyKind(kind))) + ", got " +
        std::to_string(static_cast<int>(frame->kind)));
  }
  SnapshotReader reply(frame->payload);
  uint64_t reply_id = 0;
  Status carried;
  ReadResponseEnvelope(reply, &reply_id, &carried);
  read_body(reply);
  status = reply.Finish();
  if (!status.ok()) return status;
  if (reply_id != request_id) {
    return Status::Internal("response id mismatch");
  }
  return carried;
}

StatusOr<std::vector<EntityId>> ServeClient::ExpandByIndex(
    const std::string& method, uint32_t query_index, int k, int timeout_ms) {
  WireRequest request;
  request.by_index = true;
  request.query_index = query_index;
  return Expand(std::move(request), method, k, timeout_ms);
}

StatusOr<std::vector<EntityId>> ServeClient::ExpandQuery(
    const std::string& method, const Query& query, int k, int timeout_ms) {
  WireRequest request;
  request.by_index = false;
  request.query = query;
  return Expand(std::move(request), method, k, timeout_ms);
}

StatusOr<std::vector<EntityId>> ServeClient::Expand(WireRequest request,
                                                    const std::string& method,
                                                    int k, int timeout_ms) {
  request.method = method;
  request.k = static_cast<uint32_t>(k > 0 ? k : 0);
  request.timeout_ms =
      static_cast<uint32_t>(timeout_ms > 0 ? timeout_ms : 0);
  SnapshotWriter body;
  PutExpandRequest(body, request);
  std::vector<EntityId> ranking;
  const Status status =
      Call(FrameKind::kExpandRequest, body,
           [&](SnapshotReader& reply) { reply.ReadI32Vec(&ranking); });
  if (!status.ok()) return status;
  return ranking;
}

StatusOr<std::vector<ShardScoredEntity>> ServeClient::ScatterRetrieve(
    const Query& query, uint64_t size) {
  SnapshotWriter body;
  body.PutU64(size);
  PutQuery(body, query);
  std::vector<ShardScoredEntity> entities;
  const Status status =
      Call(FrameKind::kShardRetrieveRequest, body,
           [&](SnapshotReader& reply) { ReadShardEntities(reply, &entities); });
  if (!status.ok()) return status;
  return entities;
}

StatusOr<ShardScores> ServeClient::ScatterScore(
    const Query& query, const std::vector<EntityId>& ids) {
  SnapshotWriter body;
  body.PutI32Vec(ids);
  PutQuery(body, query);
  ShardScores scores;
  const Status status =
      Call(FrameKind::kShardScoreRequest, body,
           [&](SnapshotReader& reply) { ReadShardScores(reply, &scores); });
  if (!status.ok()) return status;
  if (scores.pos.size() != ids.size()) {
    return Status::Internal("score count mismatch");
  }
  return scores;
}

StatusOr<Query> ServeClient::QueryLookup(uint32_t query_index) {
  SnapshotWriter body;
  body.PutU32(query_index);
  Query query;
  const Status status =
      Call(FrameKind::kQueryLookupRequest, body,
           [&](SnapshotReader& reply) { ReadQuery(reply, &query); });
  if (!status.ok()) return status;
  return query;
}

}  // namespace serve
}  // namespace ultrawiki
