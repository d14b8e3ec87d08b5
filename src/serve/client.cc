#include "serve/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace ultrawiki {
namespace serve {

StatusOr<ServeClient> ServeClient::Connect(const std::string& host,
                                           int port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &results);
  if (rc != 0) {
    return Status::Unavailable(std::string("getaddrinfo: ") +
                               ::gai_strerror(rc));
  }
  int fd = -1;
  Status last = Status::Unavailable("no addresses for " + host);
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::Internal(std::string("socket: ") + std::strerror(errno));
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last = Status::Unavailable(std::string("connect: ") +
                               std::strerror(errno));
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(results);
  if (fd < 0) return last;
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  ServeClient client;
  client.fd_ = fd;
  return client;
}

ServeClient::ServeClient(ServeClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_request_id_(other.next_request_id_),
      force_trace_(other.force_trace_),
      last_trace_id_(other.last_trace_id_) {}

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

FrameOptions ServeClient::MakeFrameOptions(uint64_t request_id) {
  // The request id doubles as the trace id: unique per connection and
  // easy to correlate with client-side logs.
  FrameOptions options;
  options.trace_id = request_id;
  if (force_trace_) options.flags |= kFrameFlagSample;
  last_trace_id_ = options.trace_id;
  return options;
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

StatusOr<std::vector<EntityId>> ServeClient::ExpandByIndex(
    const std::string& method, uint32_t query_index, int k, int timeout_ms) {
  WireRequest request;
  request.method = method;
  request.by_index = true;
  request.query_index = query_index;
  request.k = static_cast<uint32_t>(k > 0 ? k : 0);
  request.timeout_ms =
      static_cast<uint32_t>(timeout_ms > 0 ? timeout_ms : 0);
  return RoundTrip(std::move(request));
}

StatusOr<std::vector<EntityId>> ServeClient::ExpandQuery(
    const std::string& method, const Query& query, int k, int timeout_ms) {
  WireRequest request;
  request.method = method;
  request.by_index = false;
  request.query = query;
  request.k = static_cast<uint32_t>(k > 0 ? k : 0);
  request.timeout_ms =
      static_cast<uint32_t>(timeout_ms > 0 ? timeout_ms : 0);
  return RoundTrip(std::move(request));
}

StatusOr<Frame> ServeClient::FrameRoundTrip(const std::string& encoded,
                                            FrameKind expected) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  Status status = WriteAll(fd_, encoded.data(), encoded.size());
  if (!status.ok()) return status;
  StatusOr<Frame> frame = ReadFrame(fd_);
  if (!frame.ok()) return frame.status();
  if (frame->kind != expected) {
    return Status::Internal("expected frame kind " +
                            std::to_string(static_cast<int>(expected)) +
                            ", got " +
                            std::to_string(static_cast<int>(frame->kind)));
  }
  return frame;
}

StatusOr<std::vector<ShardScoredEntity>> ServeClient::ScatterRetrieve(
    const Query& query, uint64_t size) {
  WireShardRetrieveRequest request;
  request.request_id = next_request_id_++;
  request.size = size;
  request.query = query;
  StatusOr<Frame> frame = FrameRoundTrip(
      EncodeShardRetrieveRequestFrame(request,
                                      MakeFrameOptions(request.request_id)),
      FrameKind::kShardRetrieveResponse);
  if (!frame.ok()) return frame.status();
  WireShardRetrieveResponse response;
  Status status =
      DecodeShardRetrieveResponsePayload(frame->payload, &response);
  if (!status.ok()) return status;
  if (response.request_id != request.request_id) {
    return Status::Internal("response id mismatch");
  }
  if (response.code != 0) return response.ToStatus();
  return std::move(response.entities);
}

StatusOr<ShardScores> ServeClient::ScatterScore(
    const Query& query, const std::vector<EntityId>& ids) {
  WireShardScoreRequest request;
  request.request_id = next_request_id_++;
  request.ids = ids;
  request.query = query;
  StatusOr<Frame> frame = FrameRoundTrip(
      EncodeShardScoreRequestFrame(request,
                                   MakeFrameOptions(request.request_id)),
      FrameKind::kShardScoreResponse);
  if (!frame.ok()) return frame.status();
  WireShardScoreResponse response;
  Status status = DecodeShardScoreResponsePayload(frame->payload, &response);
  if (!status.ok()) return status;
  if (response.request_id != request.request_id) {
    return Status::Internal("response id mismatch");
  }
  if (response.code != 0) return response.ToStatus();
  if (response.scores.pos.size() != ids.size()) {
    return Status::Internal("score count mismatch");
  }
  return std::move(response.scores);
}

StatusOr<Query> ServeClient::QueryLookup(uint32_t query_index) {
  WireQueryLookupRequest request;
  request.request_id = next_request_id_++;
  request.query_index = query_index;
  StatusOr<Frame> frame = FrameRoundTrip(
      EncodeQueryLookupRequestFrame(request,
                                    MakeFrameOptions(request.request_id)),
      FrameKind::kQueryLookupResponse);
  if (!frame.ok()) return frame.status();
  WireQueryLookupResponse response;
  Status status = DecodeQueryLookupResponsePayload(frame->payload, &response);
  if (!status.ok()) return status;
  if (response.request_id != request.request_id) {
    return Status::Internal("response id mismatch");
  }
  if (response.code != 0) return response.ToStatus();
  return std::move(response.query);
}

StatusOr<std::vector<EntityId>> ServeClient::RoundTrip(WireRequest request) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  request.request_id = next_request_id_++;
  const std::string encoded =
      EncodeRequestFrame(request, MakeFrameOptions(request.request_id));
  Status status = WriteAll(fd_, encoded.data(), encoded.size());
  if (!status.ok()) return status;
  StatusOr<Frame> frame = ReadFrame(fd_);
  if (!frame.ok()) return frame.status();
  if (frame->kind != FrameKind::kExpandResponse) {
    return Status::Internal("expected response frame");
  }
  WireResponse response;
  status = DecodeResponsePayload(frame->payload, &response);
  if (!status.ok()) return status;
  if (response.request_id != request.request_id) {
    return Status::Internal("response id mismatch");
  }
  if (response.code != 0) return response.ToStatus();
  return std::move(response.ranking);
}

}  // namespace serve
}  // namespace ultrawiki
