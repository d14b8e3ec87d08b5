#include "serve/server.h"

#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/service_host.h"

namespace ultrawiki {
namespace serve {
namespace {

struct NetMetrics {
  obs::Counter& requests = obs::GetCounter("serve.net.requests");
  obs::Counter& protocol_errors =
      obs::GetCounter("serve.net.protocol_errors");
};

NetMetrics& Metrics() {
  static NetMetrics* metrics = new NetMetrics();
  return *metrics;
}

/// The response body's value when the call failed: an error response
/// carries an empty body, laid out like any other.
template <typename T>
const T& ValueOrEmpty(const StatusOr<T>& result) {
  static const T* empty = new T();
  return result.ok() ? *result : *empty;
}

// Request handlers. Each reads its request body from `in` and returns a
// malformed body's status: a protocol error. A body that decoded exactly
// goes to the frontend, whose status lands in `*result` and whose answer
// is written to `out` as the response body.

Status ServeExpand(Frontend& frontend, const Frame& frame,
                   SnapshotReader& in, Status* result, SnapshotWriter& out) {
  WireRequest request;
  ReadExpandRequest(in, &request);
  const Status decoded = in.Finish();
  if (!decoded.ok()) return decoded;
  ExpandRequest expand;
  expand.method = std::move(request.method);
  expand.k = static_cast<int>(request.k);
  expand.timeout_ms =
      request.timeout_ms > 0 ? static_cast<int>(request.timeout_ms) : -1;
  // Trace context rides in the frame header, not the payload.
  expand.trace_id = frame.trace_id;
  expand.force_trace = (frame.flags & kFrameFlagSample) != 0;
  if (request.by_index) {
    StatusOr<Query> query = frontend.QueryByIndex(request.query_index);
    if (!query.ok()) {
      *result = query.status();
      out.PutI32Vec({});
      return Status::Ok();
    }
    expand.query = std::move(*query);
  } else {
    expand.query = std::move(request.query);
  }
  // Blocking per connection keeps responses in request order; the
  // service batches across connections, not within one.
  ExpandResult expanded = frontend.Expand(std::move(expand));
  *result = std::move(expanded.status);
  out.PutI32Vec(expanded.ranking);
  return Status::Ok();
}

Status ServeShardRetrieve(Frontend& frontend, SnapshotReader& in,
                          Status* result, SnapshotWriter& out) {
  uint64_t size = 0;
  Query query;
  in.ReadU64(&size);
  ReadQuery(in, &query);
  if (in.ok() && size > kMaxFramePayload) {
    in.Corrupt("retrieve size implausibly large");
  }
  const Status decoded = in.Finish();
  if (!decoded.ok()) return decoded;
  const StatusOr<std::vector<ShardScoredEntity>> entities =
      frontend.ScatterRetrieve(query, static_cast<size_t>(size));
  *result = entities.status();
  PutShardEntities(out, ValueOrEmpty(entities));
  return Status::Ok();
}

Status ServeShardScore(Frontend& frontend, SnapshotReader& in,
                       Status* result, SnapshotWriter& out) {
  std::vector<EntityId> ids;
  Query query;
  in.ReadI32Vec(&ids);
  ReadQuery(in, &query);
  const Status decoded = in.Finish();
  if (!decoded.ok()) return decoded;
  const StatusOr<ShardScores> scores = frontend.ScatterScore(query, ids);
  *result = scores.status();
  PutShardScores(out, ValueOrEmpty(scores));
  return Status::Ok();
}

Status ServeQueryLookup(Frontend& frontend, SnapshotReader& in,
                        Status* result, SnapshotWriter& out) {
  uint32_t query_index = 0;
  in.ReadU32(&query_index);
  const Status decoded = in.Finish();
  if (!decoded.ok()) return decoded;
  const StatusOr<Query> query = frontend.QueryByIndex(query_index);
  *result = query.status();
  PutQuery(out, ValueOrEmpty(query));
  return Status::Ok();
}

/// Routes a request frame to its kind's handler; `in` is positioned
/// after the request envelope.
Status ServeRequest(Frontend& frontend, const Frame& frame,
                    SnapshotReader& in, Status* result, SnapshotWriter& out) {
  switch (frame.kind) {
    case FrameKind::kExpandRequest:
      return ServeExpand(frontend, frame, in, result, out);
    case FrameKind::kShardRetrieveRequest:
      return ServeShardRetrieve(frontend, in, result, out);
    case FrameKind::kShardScoreRequest:
      return ServeShardScore(frontend, in, result, out);
    case FrameKind::kQueryLookupRequest:
      return ServeQueryLookup(frontend, in, result, out);
    default:
      // Response kinds arriving at a server are a protocol violation.
      return Status::Internal(
          "unexpected frame kind " +
          std::to_string(static_cast<uint32_t>(frame.kind)));
  }
}

}  // namespace

TcpServer::TcpServer(Frontend& frontend)
    : frontend_(frontend),
      listener_("serve.net", [this](int fd) { HandleConnection(fd); }) {
  Metrics();
}

TcpServer::TcpServer(ExpansionService& service)
    : owned_host_(std::make_unique<ServiceHost>()),
      frontend_(*owned_host_),
      listener_("serve.net", [this](int fd) { HandleConnection(fd); }) {
  Metrics();
  owned_host_->Install(ServiceHost::Borrow(service));
}

TcpServer::~TcpServer() { Shutdown(); }

Status TcpServer::Start(int port) {
  return listener_.Start(port, /*backlog=*/128);
}

void TcpServer::HandleConnection(int fd) {
  // The fd is owned by the listener: it read-shuts it on Shutdown and
  // deregisters + closes it when this handler returns.
  while (true) {
    StatusOr<Frame> frame = ReadFrame(fd);
    if (!frame.ok()) {
      // A clean EOF ends the session; anything else is a protocol error.
      if (!(frame.status().code() == StatusCode::kUnavailable &&
            frame.status().message() == "eof")) {
        ProtocolError(frame.status());
      }
      return;
    }
    std::string reply;
    if (frame->kind == FrameKind::kPing) {
      reply = EncodeControlFrame(FrameKind::kPong);
    } else {
      SnapshotReader in(frame->payload);
      uint64_t request_id = 0;
      in.ReadU64(&request_id);  // the request envelope
      Status result;
      SnapshotWriter body;
      const Status decoded =
          ServeRequest(frontend_, *frame, in, &result, body);
      if (!decoded.ok()) {
        // A malformed request ends the session, like a malformed frame.
        ProtocolError(decoded);
        return;
      }
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      Metrics().requests.Increment();
      reply = EncodeResponseFrame(ReplyKind(frame->kind), request_id, result,
                                  body.payload());
    }
    if (!WriteAll(fd, reply.data(), reply.size()).ok()) return;
  }
}

void TcpServer::ProtocolError(const Status& status) {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  Metrics().protocol_errors.Increment();
  UW_LOG(Warning) << "connection dropped: " << status;
}

void TcpServer::Shutdown() {
  listener_.Shutdown();
  frontend_.Drain();
}

}  // namespace serve
}  // namespace ultrawiki
