#include "serve/protocol.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

namespace ultrawiki {
namespace serve {
namespace {

void AppendU32(uint32_t value, std::string& out) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void AppendU64(uint64_t value, std::string& out) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

uint32_t ParseU32(const char* bytes) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[i]))
             << (8 * i);
  }
  return value;
}

uint64_t ParseU64(const char* bytes) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[i]))
             << (8 * i);
  }
  return value;
}

/// Frames `payload`: header, payload bytes, CRC32 over both.
std::string FramePayload(FrameKind kind, std::string_view payload,
                         const FrameOptions& options) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size() + 4);
  AppendU32(kFrameMagic, out);
  AppendU32(kFrameVersion, out);
  AppendU32(static_cast<uint32_t>(kind), out);
  AppendU64(payload.size(), out);
  AppendU64(options.trace_id, out);
  AppendU32(options.flags, out);
  out.append(payload);
  AppendU32(Crc32(out), out);
  return out;
}

bool KnownFrameKind(uint32_t kind) {
  return kind >= static_cast<uint32_t>(FrameKind::kExpandRequest) &&
         kind <= static_cast<uint32_t>(FrameKind::kQueryLookupResponse);
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

void CheckStatusCode(SnapshotReader& reader, uint32_t code) {
  if (reader.ok() &&
      code > static_cast<uint32_t>(StatusCode::kUnavailable)) {
    reader.Corrupt("status code out of range");
  }
}

}  // namespace

std::string EncodeRequestFrame(const WireRequest& request,
                               const FrameOptions& options) {
  SnapshotWriter writer;
  writer.PutU64(request.request_id);
  writer.PutString(request.method);
  writer.PutU32(request.k);
  writer.PutU32(request.timeout_ms);
  writer.PutU32(request.by_index ? 1 : 0);
  writer.PutU32(request.query_index);
  writer.PutI32(request.query.ultra_class);
  writer.PutI32Vec(request.query.pos_seeds);
  writer.PutI32Vec(request.query.neg_seeds);
  return FramePayload(FrameKind::kExpandRequest, writer.payload(), options);
}

std::string EncodeResponseFrame(const WireResponse& response) {
  SnapshotWriter writer;
  writer.PutU64(response.request_id);
  writer.PutU32(response.code);
  writer.PutString(response.message);
  writer.PutI32Vec(response.ranking);
  return FramePayload(FrameKind::kExpandResponse, writer.payload(), {});
}

std::string EncodeControlFrame(FrameKind kind) {
  return FramePayload(kind, {}, {});
}

std::string EncodeShardRetrieveRequestFrame(
    const WireShardRetrieveRequest& request, const FrameOptions& options) {
  SnapshotWriter writer;
  writer.PutU64(request.request_id);
  writer.PutU64(request.size);
  PutQuery(writer, request.query);
  return FramePayload(FrameKind::kShardRetrieveRequest, writer.payload(),
                      options);
}

std::string EncodeShardRetrieveResponseFrame(
    const WireShardRetrieveResponse& response) {
  SnapshotWriter writer;
  writer.PutU64(response.request_id);
  writer.PutU32(response.code);
  writer.PutString(response.message);
  writer.PutU64(response.entities.size());
  for (const ShardScoredEntity& entity : response.entities) {
    writer.PutF32(entity.score);
    writer.PutU64(entity.position);
    writer.PutI32(entity.id);
  }
  return FramePayload(FrameKind::kShardRetrieveResponse, writer.payload(), {});
}

std::string EncodeShardScoreRequestFrame(const WireShardScoreRequest& request,
                                         const FrameOptions& options) {
  SnapshotWriter writer;
  writer.PutU64(request.request_id);
  writer.PutI32Vec(request.ids);
  PutQuery(writer, request.query);
  return FramePayload(FrameKind::kShardScoreRequest, writer.payload(),
                      options);
}

std::string EncodeShardScoreResponseFrame(
    const WireShardScoreResponse& response) {
  SnapshotWriter writer;
  writer.PutU64(response.request_id);
  writer.PutU32(response.code);
  writer.PutString(response.message);
  writer.PutFloatVec(response.scores.pos);
  writer.PutFloatVec(response.scores.neg);
  return FramePayload(FrameKind::kShardScoreResponse, writer.payload(), {});
}

std::string EncodeQueryLookupRequestFrame(
    const WireQueryLookupRequest& request, const FrameOptions& options) {
  SnapshotWriter writer;
  writer.PutU64(request.request_id);
  writer.PutU32(request.query_index);
  return FramePayload(FrameKind::kQueryLookupRequest, writer.payload(),
                      options);
}

std::string EncodeQueryLookupResponseFrame(
    const WireQueryLookupResponse& response) {
  SnapshotWriter writer;
  writer.PutU64(response.request_id);
  writer.PutU32(response.code);
  writer.PutString(response.message);
  PutQuery(writer, response.query);
  return FramePayload(FrameKind::kQueryLookupResponse, writer.payload(), {});
}

Status DecodeRequestPayload(std::string_view payload, WireRequest* request) {
  SnapshotReader reader(payload);
  uint32_t by_index = 0;
  reader.ReadU64(&request->request_id);
  reader.ReadString(&request->method);
  reader.ReadU32(&request->k);
  reader.ReadU32(&request->timeout_ms);
  reader.ReadU32(&by_index);
  reader.ReadU32(&request->query_index);
  reader.ReadI32(&request->query.ultra_class);
  reader.ReadI32Vec(&request->query.pos_seeds);
  reader.ReadI32Vec(&request->query.neg_seeds);
  if (reader.ok() && by_index > 1) {
    reader.Corrupt("by_index flag out of range");
  }
  request->by_index = by_index == 1;
  return reader.Finish();
}

Status DecodeResponsePayload(std::string_view payload,
                             WireResponse* response) {
  SnapshotReader reader(payload);
  reader.ReadU64(&response->request_id);
  reader.ReadU32(&response->code);
  reader.ReadString(&response->message);
  reader.ReadI32Vec(&response->ranking);
  if (reader.ok() &&
      response->code > static_cast<uint32_t>(StatusCode::kUnavailable)) {
    reader.Corrupt("status code out of range");
  }
  return reader.Finish();
}

Status DecodeShardRetrieveRequestPayload(std::string_view payload,
                                         WireShardRetrieveRequest* request) {
  SnapshotReader reader(payload);
  reader.ReadU64(&request->request_id);
  reader.ReadU64(&request->size);
  ReadQuery(reader, &request->query);
  if (reader.ok() && request->size > kMaxFramePayload) {
    reader.Corrupt("retrieve size implausibly large");
  }
  return reader.Finish();
}

Status DecodeShardRetrieveResponsePayload(
    std::string_view payload, WireShardRetrieveResponse* response) {
  SnapshotReader reader(payload);
  reader.ReadU64(&response->request_id);
  reader.ReadU32(&response->code);
  reader.ReadString(&response->message);
  uint64_t count = 0;
  reader.ReadU64(&count);
  // Each entity is 16 encoded bytes; cap the count against the remaining
  // payload before any allocation, same discipline as ReadI32Vec.
  if (reader.ok() && count * 16 > reader.remaining()) {
    reader.Corrupt("entity count exceeds payload");
  }
  response->entities.clear();
  if (reader.ok()) {
    response->entities.resize(static_cast<size_t>(count));
    for (ShardScoredEntity& entity : response->entities) {
      reader.ReadF32(&entity.score);
      reader.ReadU64(&entity.position);
      reader.ReadI32(&entity.id);
    }
  }
  CheckStatusCode(reader, response->code);
  return reader.Finish();
}

Status DecodeShardScoreRequestPayload(std::string_view payload,
                                      WireShardScoreRequest* request) {
  SnapshotReader reader(payload);
  reader.ReadU64(&request->request_id);
  reader.ReadI32Vec(&request->ids);
  ReadQuery(reader, &request->query);
  return reader.Finish();
}

Status DecodeShardScoreResponsePayload(std::string_view payload,
                                       WireShardScoreResponse* response) {
  SnapshotReader reader(payload);
  reader.ReadU64(&response->request_id);
  reader.ReadU32(&response->code);
  reader.ReadString(&response->message);
  reader.ReadFloatVec(&response->scores.pos);
  reader.ReadFloatVec(&response->scores.neg);
  if (reader.ok() &&
      response->scores.pos.size() != response->scores.neg.size()) {
    reader.Corrupt("pos/neg score lengths differ");
  }
  CheckStatusCode(reader, response->code);
  return reader.Finish();
}

Status DecodeQueryLookupRequestPayload(std::string_view payload,
                                       WireQueryLookupRequest* request) {
  SnapshotReader reader(payload);
  reader.ReadU64(&request->request_id);
  reader.ReadU32(&request->query_index);
  return reader.Finish();
}

Status DecodeQueryLookupResponsePayload(std::string_view payload,
                                        WireQueryLookupResponse* response) {
  SnapshotReader reader(payload);
  reader.ReadU64(&response->request_id);
  reader.ReadU32(&response->code);
  reader.ReadString(&response->message);
  ReadQuery(reader, &response->query);
  CheckStatusCode(reader, response->code);
  return reader.Finish();
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
  if (ParseU32(header) != kFrameMagic) {
    return Status::Internal("bad frame magic");
  }
  const uint32_t version = ParseU32(header + 4);
  if (version != kFrameVersion) {
    return Status::Internal("unsupported frame version " +
                            std::to_string(version));
  }
  const uint32_t kind = ParseU32(header + 8);
  if (!KnownFrameKind(kind)) {
    return Status::Internal("unknown frame kind " + std::to_string(kind));
  }
  const uint64_t payload_len = ParseU64(header + 12);
  if (payload_len > kMaxFramePayload) {
    return Status::Internal("frame payload too large (" +
                            std::to_string(payload_len) + " bytes)");
  }
  status = ReadExact(fd, header + kFramePrefixBytes,
                     kFrameHeaderBytes - kFramePrefixBytes);
  if (!status.ok()) {
    if (status.code() == StatusCode::kUnavailable) {
      return Status::Internal("connection closed mid-frame");
    }
    return status;
  }
  Frame frame;
  frame.kind = static_cast<FrameKind>(kind);
  frame.trace_id = ParseU64(header + 20);
  frame.flags = ParseU32(header + 28);
  frame.payload.resize(static_cast<size_t>(payload_len));
  if (payload_len > 0) {
    status = ReadExact(fd, frame.payload.data(), frame.payload.size());
    if (!status.ok()) {
      if (status.code() == StatusCode::kUnavailable) {
        return Status::Internal("connection closed mid-frame");
      }
      return status;
    }
  }
  char footer[4];
  status = ReadExact(fd, footer, sizeof(footer));
  if (!status.ok()) {
    if (status.code() == StatusCode::kUnavailable) {
      return Status::Internal("connection closed before checksum");
    }
    return status;
  }
  uint32_t crc = Crc32(std::string_view(header, kFrameHeaderBytes));
  crc = Crc32(frame.payload, crc);
  if (crc != ParseU32(footer)) {
    return Status::Internal("frame checksum mismatch");
  }
  return frame;
}

}  // namespace serve
}  // namespace ultrawiki
