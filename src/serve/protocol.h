#ifndef ULTRAWIKI_SERVE_PROTOCOL_H_
#define ULTRAWIKI_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "dataset/dataset.h"
#include "io/snapshot.h"

namespace ultrawiki {
namespace serve {

/// Length-prefixed framed wire protocol for the online expansion service.
/// Frames reuse the UWS2 discipline from io/snapshot.h — the same header
/// layout, field-explicit little-endian payload records (SnapshotWriter /
/// SnapshotReader), and a trailing CRC32 over header + payload — under a
/// distinct magic so a stray snapshot file never parses as a frame:
///
///   offset  size  field
///        0     4  magic "UWF1" (0x55574631, little-endian u32)
///        4     4  protocol version (2, u32)
///        8     4  frame kind tag (FrameKind, u32)
///       12     8  payload byte length (u64)
///       20     8  trace id (u64; 0 = none)
///       28     4  trace flags (u32; bit 0 = sample this request)
///       32     N  payload
///     32+N     4  CRC32 (IEEE) over bytes [0, 32+N)
///
/// Only version 2 is spoken. Every client lives in this repository, so
/// the trace-context-free v1 header is not accepted: a v1 frame fails
/// closed like any other unsupported version.
///
/// Decoding fails closed into `Status`: bad magic, version skew, unknown
/// kind, an implausible length (> kMaxFramePayload), checksum mismatch,
/// and truncation all reject the frame before any payload field is
/// trusted. The CRC covers the extension bytes, so a corrupted trace id
/// is caught like any payload flip.

inline constexpr uint32_t kFrameMagic = 0x55574631;  // "1FWU" on disk
inline constexpr uint32_t kFrameVersion = 2;
/// Header prefix read first: magic, version, kind and payload length are
/// checked before any more bytes are awaited.
inline constexpr size_t kFramePrefixBytes = 20;
/// Full header (prefix + trace context).
inline constexpr size_t kFrameHeaderBytes = 32;
/// FrameOptions::flags bit: the sender asks for this request to be
/// traced end to end regardless of the server's sampling rate.
inline constexpr uint32_t kFrameFlagSample = 1u << 0;
/// Requests carry a handful of seed ids and responses at most a few
/// thousand ranked ids; 16 MiB bounds a hostile length field.
inline constexpr uint64_t kMaxFramePayload = 16ull << 20;

/// Every response kind is its request kind + 1 (see ReplyKind).
enum class FrameKind : uint32_t {
  kExpandRequest = 1,
  kExpandResponse = 2,
  kPing = 3,
  kPong = 4,
  // --- Scatter plane (cluster serving, serve/router.h). Shard servers
  // answer these alongside the request plane; the router never needs a
  // second port or protocol. ---
  kShardRetrieveRequest = 5,
  kShardRetrieveResponse = 6,
  kShardScoreRequest = 7,
  kShardScoreResponse = 8,
  kQueryLookupRequest = 9,
  kQueryLookupResponse = 10,
};

/// The kind that answers `request` (kPing answers with kPong).
inline FrameKind ReplyKind(FrameKind request) {
  return static_cast<FrameKind>(static_cast<uint32_t>(request) + 1);
}

/// Payloads. Every request payload opens with the request envelope,
/// `u64 request_id`; every response payload opens with the response
/// envelope, `u64 request_id, u32 code (StatusCode), string message`,
/// which echoes the request's id and says how it went. The kind's body
/// follows the envelope. An error response still carries its body, empty.
///
///   kind                    body
///   kExpandRequest          WireRequest            (Put/ReadExpandRequest)
///   kExpandResponse         ranking: i32 vector    (Put/ReadI32Vec)
///   kShardRetrieveRequest   u64 size, Query        (PutU64, PutQuery)
///   kShardRetrieveResponse  ShardScoredEntity list (Put/ReadShardEntities)
///   kShardScoreRequest      i32 vector ids, Query  (PutI32Vec, PutQuery)
///   kShardScoreResponse     ShardScores            (Put/ReadShardScores)
///   kQueryLookupRequest     u32 query index        (PutU32)
///   kQueryLookupResponse    Query                  (Put/ReadQuery)
///   kPing, kPong            no payload, no envelope
///
/// Each Read* below fails its reader (SnapshotReader::Corrupt or a short
/// read) on a malformed body and never allocates more than the remaining
/// payload could hold; callers test `Finish()` once, which also rejects
/// trailing bytes.

/// The expand request body. Either `by_index` (resolve against the
/// server's dataset — the common scripting path) or an explicit Query
/// (ultra_class is carried for bookkeeping but seeds drive expansion).
struct WireRequest {
  std::string method;      // "retexpan", "genexpan", ... (service.h)
  uint32_t k = 20;         // ranking length
  uint32_t timeout_ms = 0; // 0 = server default (UW_SERVE_TIMEOUT_MS)
  bool by_index = true;
  uint32_t query_index = 0;
  Query query;             // used when !by_index
};

/// One candidate scored by a shard's recall stage: the exact full-scan
/// centroid score, the candidate's *global* position in the dataset
/// candidate list (the RanksBefore tie-break, so a router-side TopKStream
/// merge reproduces the unsharded order bit for bit), and its entity id.
/// Scores travel as IEEE-754 bit patterns (PutF32), so the merge sees the
/// same floats the shard computed.
struct ShardScoredEntity {
  float score = 0.0f;
  uint64_t position = 0;
  EntityId id = kInvalidEntityId;
};

/// Per-candidate positive/negative seed-centroid scores for the router's
/// rerank phase; `pos[i]` and `neg[i]` score the i-th requested id.
struct ShardScores {
  std::vector<float> pos;
  std::vector<float> neg;
};

void PutExpandRequest(SnapshotWriter& writer, const WireRequest& request);
void ReadExpandRequest(SnapshotReader& reader, WireRequest* request);
void PutQuery(SnapshotWriter& writer, const Query& query);
void ReadQuery(SnapshotReader& reader, Query* query);
void PutShardEntities(SnapshotWriter& writer,
                      const std::vector<ShardScoredEntity>& entities);
void ReadShardEntities(SnapshotReader& reader,
                       std::vector<ShardScoredEntity>* entities);
void PutShardScores(SnapshotWriter& writer, const ShardScores& scores);
/// Rejects pos/neg vectors of different lengths.
void ReadShardScores(SnapshotReader& reader, ShardScores* scores);

/// Reads the response envelope. A code outside StatusCode fails `reader`.
void ReadResponseEnvelope(SnapshotReader& reader, uint64_t* request_id,
                          Status* status);

/// Header-level framing knobs for requests: the trace context carried in
/// the header. The defaults frame a request with no trace context.
/// Responses and control frames always carry none.
struct FrameOptions {
  uint64_t trace_id = 0;
  uint32_t flags = 0;
};

/// Frames a request: header, request envelope, `body`, CRC32.
std::string EncodeRequestFrame(FrameKind kind, uint64_t request_id,
                               std::string_view body,
                               const FrameOptions& options = {});
/// Frames a response: header, response envelope (`status` as its code
/// and message), `body`, CRC32.
std::string EncodeResponseFrame(FrameKind kind, uint64_t request_id,
                                const Status& status, std::string_view body);
/// Payload-free control frames (ping/pong).
std::string EncodeControlFrame(FrameKind kind);

/// A verified frame read off a socket: kind + raw payload bytes, plus the
/// trace context from its header.
struct Frame {
  FrameKind kind = FrameKind::kPing;
  std::string payload;
  uint64_t trace_id = 0;
  uint32_t flags = 0;
};

/// Blocking exact-size socket I/O. `ReadExact` returns kUnavailable with
/// message "eof" on a clean close before the first byte, kInternal on
/// short reads / errors. `WriteAll` sends with MSG_NOSIGNAL so a dead
/// peer surfaces as a Status, never SIGPIPE.
Status ReadExact(int fd, void* buffer, size_t bytes);
Status WriteAll(int fd, const void* buffer, size_t bytes);

/// Reads and verifies one frame (header sanity, length cap, CRC32).
StatusOr<Frame> ReadFrame(int fd);

}  // namespace serve
}  // namespace ultrawiki

#endif  // ULTRAWIKI_SERVE_PROTOCOL_H_
