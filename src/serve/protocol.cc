#include "serve/protocol.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

namespace ultrawiki {
namespace serve {
namespace {

/// The envelope's fixed fields: request id; request id + code + message
/// length (the message bytes follow).
constexpr size_t kRequestEnvelopeBytes = 8;
constexpr size_t kResponseEnvelopeBytes = 20;
/// A ShardScoredEntity on the wire: f32 score, u64 position, i32 id.
constexpr size_t kShardEntityBytes = 16;

/// Starts a frame whose payload is `payload_bytes` long: reserves room
/// for the whole frame and writes the header.
SnapshotWriter BeginFrame(FrameKind kind, size_t payload_bytes,
                          const FrameOptions& options) {
  SnapshotWriter frame;
  frame.Reserve(kFrameHeaderBytes + payload_bytes + 4);
  frame.PutU32(kFrameMagic);
  frame.PutU32(kFrameVersion);
  frame.PutU32(static_cast<uint32_t>(kind));
  frame.PutU64(payload_bytes);
  frame.PutU64(options.trace_id);
  frame.PutU32(options.flags);
  return frame;
}

/// Appends `body` and the CRC32 over everything before it.
std::string FinishFrame(SnapshotWriter& frame, std::string_view body) {
  frame.PutBytes(body);
  frame.PutU32(Crc32(frame.payload()));
  return frame.TakePayload();
}

bool KnownFrameKind(uint32_t kind) {
  return kind >= static_cast<uint32_t>(FrameKind::kExpandRequest) &&
         kind <= static_cast<uint32_t>(FrameKind::kQueryLookupResponse);
}

/// ReadExact for the bytes after a frame's first: EOF there is a
/// truncated frame, not a clean close.
Status ReadRestOfFrame(int fd, void* buffer, size_t bytes,
                       const char* eof_message) {
  Status status = ReadExact(fd, buffer, bytes);
  if (status.code() == StatusCode::kUnavailable) {
    return Status::Internal(eof_message);
  }
  return status;
}

}  // namespace

void PutExpandRequest(SnapshotWriter& writer, const WireRequest& request) {
  writer.PutString(request.method);
  writer.PutU32(request.k);
  writer.PutU32(request.timeout_ms);
  writer.PutU32(request.by_index ? 1 : 0);
  writer.PutU32(request.query_index);
  PutQuery(writer, request.query);
}

void ReadExpandRequest(SnapshotReader& reader, WireRequest* request) {
  uint32_t by_index = 0;
  reader.ReadString(&request->method);
  reader.ReadU32(&request->k);
  reader.ReadU32(&request->timeout_ms);
  reader.ReadU32(&by_index);
  reader.ReadU32(&request->query_index);
  ReadQuery(reader, &request->query);
  if (reader.ok() && by_index > 1) {
    reader.Corrupt("by_index flag out of range");
  }
  request->by_index = by_index == 1;
}

void PutQuery(SnapshotWriter& writer, const Query& query) {
  writer.PutI32(query.ultra_class);
  writer.PutI32Vec(query.pos_seeds);
  writer.PutI32Vec(query.neg_seeds);
}

void ReadQuery(SnapshotReader& reader, Query* query) {
  reader.ReadI32(&query->ultra_class);
  reader.ReadI32Vec(&query->pos_seeds);
  reader.ReadI32Vec(&query->neg_seeds);
}

void PutShardEntities(SnapshotWriter& writer,
                      const std::vector<ShardScoredEntity>& entities) {
  writer.PutU64(entities.size());
  for (const ShardScoredEntity& entity : entities) {
    writer.PutF32(entity.score);
    writer.PutU64(entity.position);
    writer.PutI32(entity.id);
  }
}

void ReadShardEntities(SnapshotReader& reader,
                       std::vector<ShardScoredEntity>* entities) {
  uint64_t count = 0;
  reader.ReadU64(&count);
  // Cap the count against the remaining payload before any allocation,
  // same discipline as ReadI32Vec.
  if (reader.ok() && count > reader.remaining() / kShardEntityBytes) {
    reader.Corrupt("entity count exceeds payload");
  }
  entities->clear();
  if (!reader.ok()) return;
  entities->resize(static_cast<size_t>(count));
  for (ShardScoredEntity& entity : *entities) {
    reader.ReadF32(&entity.score);
    reader.ReadU64(&entity.position);
    reader.ReadI32(&entity.id);
  }
}

void PutShardScores(SnapshotWriter& writer, const ShardScores& scores) {
  writer.PutFloatVec(scores.pos);
  writer.PutFloatVec(scores.neg);
}

void ReadShardScores(SnapshotReader& reader, ShardScores* scores) {
  reader.ReadFloatVec(&scores->pos);
  reader.ReadFloatVec(&scores->neg);
  if (reader.ok() && scores->pos.size() != scores->neg.size()) {
    reader.Corrupt("pos/neg score lengths differ");
  }
}

void ReadResponseEnvelope(SnapshotReader& reader, uint64_t* request_id,
                          Status* status) {
  uint32_t code = 0;
  std::string message;
  reader.ReadU64(request_id);
  reader.ReadU32(&code);
  reader.ReadString(&message);
  if (reader.ok() &&
      code > static_cast<uint32_t>(StatusCode::kUnavailable)) {
    reader.Corrupt("status code out of range");
  }
  *status = Status(static_cast<StatusCode>(code), std::move(message));
}

std::string EncodeRequestFrame(FrameKind kind, uint64_t request_id,
                               std::string_view body,
                               const FrameOptions& options) {
  SnapshotWriter frame =
      BeginFrame(kind, kRequestEnvelopeBytes + body.size(), options);
  frame.PutU64(request_id);
  return FinishFrame(frame, body);
}

std::string EncodeResponseFrame(FrameKind kind, uint64_t request_id,
                                const Status& status, std::string_view body) {
  SnapshotWriter frame = BeginFrame(
      kind,
      kResponseEnvelopeBytes + status.message().size() + body.size(), {});
  frame.PutU64(request_id);
  frame.PutU32(static_cast<uint32_t>(status.code()));
  frame.PutString(status.message());
  return FinishFrame(frame, body);
}

std::string EncodeControlFrame(FrameKind kind) {
  SnapshotWriter frame = BeginFrame(kind, 0, {});
  return FinishFrame(frame, {});
}

Status ReadExact(int fd, void* buffer, size_t bytes) {
  char* cursor = static_cast<char*>(buffer);
  size_t remaining = bytes;
  while (remaining > 0) {
    const ssize_t got = ::recv(fd, cursor, remaining, 0);
    if (got == 0) {
      if (remaining == bytes) return Status::Unavailable("eof");
      return Status::Internal("connection closed mid-frame");
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("recv: ") + std::strerror(errno));
    }
    cursor += got;
    remaining -= static_cast<size_t>(got);
  }
  return Status::Ok();
}

Status WriteAll(int fd, const void* buffer, size_t bytes) {
  const char* cursor = static_cast<const char*>(buffer);
  size_t remaining = bytes;
  while (remaining > 0) {
    const ssize_t sent = ::send(fd, cursor, remaining, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("send: ") + std::strerror(errno));
    }
    cursor += sent;
    remaining -= static_cast<size_t>(sent);
  }
  return Status::Ok();
}

StatusOr<Frame> ReadFrame(int fd) {
  // Read and check the 20-byte prefix first, so a peer speaking another
  // version (whose header may be shorter) is rejected instead of awaited.
  char header[kFrameHeaderBytes];
  Status status = ReadExact(fd, header, kFramePrefixBytes);
  if (!status.ok()) return status;
  SnapshotReader prefix(std::string_view(header, kFramePrefixBytes));
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t kind = 0;
  uint64_t payload_len = 0;
  prefix.ReadU32(&magic);
  prefix.ReadU32(&version);
  prefix.ReadU32(&kind);
  prefix.ReadU64(&payload_len);
  if (magic != kFrameMagic) {
    return Status::Internal("bad frame magic");
  }
  if (version != kFrameVersion) {
    return Status::Internal("unsupported frame version " +
                            std::to_string(version));
  }
  if (!KnownFrameKind(kind)) {
    return Status::Internal("unknown frame kind " + std::to_string(kind));
  }
  if (payload_len > kMaxFramePayload) {
    return Status::Internal("frame payload too large (" +
                            std::to_string(payload_len) + " bytes)");
  }
  status = ReadRestOfFrame(fd, header + kFramePrefixBytes,
                           kFrameHeaderBytes - kFramePrefixBytes,
                           "connection closed mid-frame");
  if (!status.ok()) return status;
  Frame frame;
  frame.kind = static_cast<FrameKind>(kind);
  SnapshotReader trace(std::string_view(
      header + kFramePrefixBytes, kFrameHeaderBytes - kFramePrefixBytes));
  trace.ReadU64(&frame.trace_id);
  trace.ReadU32(&frame.flags);
  frame.payload.resize(static_cast<size_t>(payload_len));
  if (payload_len > 0) {
    status = ReadRestOfFrame(fd, frame.payload.data(), frame.payload.size(),
                             "connection closed mid-frame");
    if (!status.ok()) return status;
  }
  char footer[4];
  status = ReadRestOfFrame(fd, footer, sizeof(footer),
                           "connection closed before checksum");
  if (!status.ok()) return status;
  uint32_t expected_crc = 0;
  SnapshotReader(std::string_view(footer, sizeof(footer)))
      .ReadU32(&expected_crc);
  uint32_t crc = Crc32(std::string_view(header, kFrameHeaderBytes));
  crc = Crc32(frame.payload, crc);
  if (crc != expected_crc) {
    return Status::Internal("frame checksum mismatch");
  }
  return frame;
}

}  // namespace serve
}  // namespace ultrawiki
