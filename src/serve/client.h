#ifndef ULTRAWIKI_SERVE_CLIENT_H_
#define ULTRAWIKI_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/protocol.h"

namespace ultrawiki {
namespace serve {

/// Synchronous client for the framed TCP protocol: one connection, one
/// request in flight (the server batches across connections, so load
/// generators open one client per concurrent stream). Movable, not
/// copyable; the destructor closes the socket.
class ServeClient {
 public:
  static StatusOr<ServeClient> Connect(const std::string& host, int port);

  ServeClient() = default;
  ServeClient(ServeClient&& other) noexcept;
  ServeClient& operator=(ServeClient&& other) noexcept;
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;
  ~ServeClient();

  bool connected() const { return fd_ >= 0; }

  /// Round-trips a ping frame.
  Status Ping();

  /// Expands the server-side query at `query_index`. `timeout_ms` 0 means
  /// the server default. Non-OK server statuses (shed, timeout, bad
  /// method, bad index) come back as the corresponding Status.
  StatusOr<std::vector<EntityId>> ExpandByIndex(const std::string& method,
                                                uint32_t query_index, int k,
                                                int timeout_ms = 0);

  /// Expands an explicit query (seed ids must be meaningful to the
  /// server's resident world).
  StatusOr<std::vector<EntityId>> ExpandQuery(const std::string& method,
                                              const Query& query, int k,
                                              int timeout_ms = 0);

  /// Scatter plane (cluster serving): the recall stage of the connected
  /// shard — its top-`size` candidate-slice entities by positive-seed
  /// centroid score, with global positions for the router-side merge.
  StatusOr<std::vector<ShardScoredEntity>> ScatterRetrieve(const Query& query,
                                                           uint64_t size);

  /// Scatter plane: pos/neg seed-centroid scores for explicit ids (the
  /// router's rerank phase).
  StatusOr<ShardScores> ScatterScore(const Query& query,
                                     const std::vector<EntityId>& ids);

  /// Resolves a dataset query index against the server's resident
  /// dataset (the router serves by-index requests through this).
  StatusOr<Query> QueryLookup(uint32_t query_index);

  /// Closes the connection early (destructor does this too).
  void Close();

  /// When set, every subsequent request carries the sample flag in its
  /// frame header, asking the server to trace it end to end regardless of
  /// the server's sampling rate (slow-query log + admin /slow).
  void set_force_trace(bool on) { force_trace_ = on; }
  bool force_trace() const { return force_trace_; }

  /// Trace id of the most recently sent request (0 before the first) —
  /// what to look for in the server's slow-query log.
  uint64_t last_trace_id() const { return last_trace_id_; }

 private:
  /// Fills in the fields ExpandByIndex and ExpandQuery share and sends
  /// `request`.
  StatusOr<std::vector<EntityId>> Expand(WireRequest request,
                                         const std::string& method, int k,
                                         int timeout_ms);

  /// The one round trip. Stamps the next request id, which is also the
  /// frame's trace id (sampled under force_trace), frames `body` as a
  /// `kind` request, sends it, and reads the reply. The reply must be of
  /// ReplyKind(kind) and decode exactly — response envelope, then the
  /// body via `read_body(SnapshotReader&)`, nothing after — and must
  /// echo the request id. Returns the status the reply carries.
  template <typename ReadBody>
  Status Call(FrameKind kind, const SnapshotWriter& body,
              ReadBody&& read_body);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  bool force_trace_ = false;
  uint64_t last_trace_id_ = 0;
};

}  // namespace serve
}  // namespace ultrawiki

#endif  // ULTRAWIKI_SERVE_CLIENT_H_
