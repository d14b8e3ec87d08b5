#ifndef ULTRAWIKI_IO_SNAPSHOT_H_
#define ULTRAWIKI_IO_SNAPSHOT_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ann/ivf_index.h"
#include "common/status.h"
#include "corpus/corpus.h"
#include "corpus/generator.h"
#include "embedding/entity_store.h"
#include "index/inverted_index.h"

namespace ultrawiki {

/// Versioned, checksummed binary snapshots of the expensive pipeline
/// artifacts. Every file shares one framing:
///
///   offset  size  field
///        0     4  magic "UWS2" (0x55575332, little-endian u32)
///        4     4  format version (kSnapshotVersion, u32)
///        8     4  artifact kind tag (SnapshotKind, u32)
///       12     8  payload byte length (u64)
///       20     N  payload — field-explicit little-endian records
///     20+N     4  CRC32 (IEEE) over bytes [0, 20+N)
///
/// All multi-byte values are written byte-by-byte in little-endian order —
/// never as raw structs — so files are portable across compilers and ABIs.
/// Floats are stored by bit pattern (IEEE-754), which makes a load/save
/// round trip bit-exact: a warm run computes exactly what the cold run
/// computed.
///
/// Every load path fails closed into `Status`: bad magic, version skew,
/// kind mismatch, checksum mismatch, truncation, trailing bytes, and
/// implausible dimensions (counts that could not fit in the remaining
/// payload) all return kInternal/kNotFound — never UB and never an
/// unbounded allocation driven by an untrusted header.

inline constexpr uint32_t kSnapshotMagic = 0x55575332;  // "2SWU" on disk
/// Bumped from 1 (the raw-struct encoder format of model_io v1, which was
/// padding/ABI-dependent and unchecksummed) to 2: shared field-explicit
/// framing with a CRC32 footer.
inline constexpr uint32_t kSnapshotVersion = 2;

/// The kInvertedIndex payload is itself versioned (the framing version
/// above covers the envelope, not the index encoding). Version 2 payloads
/// open with `kIndexPayloadTagBase | kIndexPayloadVersion` — a 64-bit
/// pattern ("\0UWSIDX" + version byte). Loads of a tagged payload with an
/// unknown version fail closed, and so do untagged payloads (the retired
/// raw-postings format), which the artifact cache then treats as a miss.
inline constexpr uint64_t kIndexPayloadTagBase = 0x0055575349445800ULL;
inline constexpr uint64_t kIndexPayloadVersionMask = 0xFFULL;
inline constexpr uint64_t kIndexPayloadVersion = 2;

/// Artifact tag stored in the header; a file of one kind never parses as
/// another.
enum class SnapshotKind : uint32_t {
  kEncoder = 1,
  kCorpus = 2,
  kWorld = 3,
  kInvertedIndex = 4,
  kEntityStore = 5,
  kAnnIndex = 6,
  kShardManifest = 7,
  kSparseDistributions = 8,
};

/// CRC32 (IEEE 802.3 polynomial, reflected) of `data`, continuing from
/// `seed` (pass the previous return value to checksum in chunks).
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

/// Accumulates a snapshot payload. All writers append little-endian bytes
/// to an in-memory buffer; WriteSnapshotFile frames and flushes it.
class SnapshotWriter {
 public:
  void PutU32(uint32_t value);
  void PutU64(uint64_t value);
  void PutI32(int32_t value) { PutU32(static_cast<uint32_t>(value)); }
  void PutI64(int64_t value) { PutU64(static_cast<uint64_t>(value)); }
  void PutF32(float value);
  void PutF64(double value);
  /// u64 length + raw bytes.
  void PutString(std::string_view text);
  /// Raw float block, no count prefix (caller-known geometry).
  void PutFloats(std::span<const float> data);
  /// u64 count + raw elements.
  void PutFloatVec(std::span<const float> data);
  void PutI32Vec(std::span<const int32_t> data);
  void PutStringVec(const std::vector<std::string>& strings);
  /// Raw bytes, no length prefix (an already-encoded record).
  void PutBytes(std::string_view bytes);

  /// Pre-sizes the buffer for a payload of `bytes` in total.
  void Reserve(size_t bytes) { payload_.reserve(bytes); }
  const std::string& payload() const { return payload_; }
  /// Moves the payload out, leaving the writer empty.
  std::string TakePayload() { return std::move(payload_); }

 private:
  std::string payload_;
};

/// Bounds-checked cursor over a verified snapshot payload. Every read
/// validates the requested size against the remaining bytes; the first
/// failure latches an error status and all subsequent reads return false,
/// so decoding loops can run unchecked and test `Finish()` once.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::string_view payload) : data_(payload) {}

  bool ReadU32(uint32_t* value);
  bool ReadU64(uint64_t* value);
  bool ReadI32(int32_t* value);
  bool ReadI64(int64_t* value);
  bool ReadF32(float* value);
  bool ReadF64(double* value);
  bool ReadString(std::string* value);
  /// Fills `data` exactly; fails if fewer bytes remain.
  bool ReadFloats(std::span<float> data);
  /// Reads a u64 count + elements. The count is capped against the
  /// remaining payload before any allocation, so a corrupt header cannot
  /// trigger bad_alloc.
  bool ReadFloatVec(std::vector<float>* data);
  bool ReadI32Vec(std::vector<int32_t>* data);
  bool ReadStringVec(std::vector<std::string>* strings);

  size_t remaining() const { return data_.size() - cursor_; }
  bool ok() const { return error_.empty(); }

  /// OK only when no read failed and the payload was consumed exactly
  /// (leftover payload bytes mean a corrupt or mis-versioned file).
  Status Finish() const;

  /// Marks the payload corrupt with a caller-diagnosed reason (e.g. a
  /// count that fails a semantic bound). Subsequent reads fail.
  void Corrupt(std::string reason);

 private:
  bool Take(void* out, size_t size);

  std::string_view data_;
  size_t cursor_ = 0;
  std::string error_;
};

/// Frames `payload` (header + CRC32 footer) and atomically replaces
/// `path` (write to a temp file, then rename) so a crashed writer never
/// leaves a torn snapshot behind.
Status WriteSnapshotFile(const std::string& path, SnapshotKind kind,
                         const SnapshotWriter& writer);

/// Reads `path`, verifies magic/version/kind/length/CRC and rejects
/// trailing bytes, and returns the raw payload for a SnapshotReader.
StatusOr<std::string> ReadSnapshotFile(const std::string& path,
                                       SnapshotKind kind);

// --- Artifact save/load on the shared framing. ---

/// Corpus: vocabulary (tokens + counts), entities, labelled sentences,
/// auxiliary sentences. The per-entity sentence index is rebuilt on load.
Status SaveCorpusSnapshot(const Corpus& corpus, const std::string& path);
StatusOr<Corpus> LoadCorpusSnapshot(const std::string& path);

/// Full generated world: corpus + schema + knowledge base + background
/// ids + generator fingerprint; `entities_by_value` is rebuilt on load.
Status SaveWorldSnapshot(const GeneratedWorld& world,
                         const std::string& path);
StatusOr<GeneratedWorld> LoadWorldSnapshot(const std::string& path);

/// Inverted index in its frozen block-compressed form (payload version
/// 2): document lengths, the ascending term directory, per-block skip and
/// max-score metadata, and the concatenated varint-encoded blocks — so a
/// Bm25Scorer over the loaded index needs no corpus pass and no
/// re-compression. Save requires a frozen index (kInvalidArgument
/// otherwise). Load accepts payload version 2 only (an untagged legacy
/// raw-postings payload is kInternal) and returns a frozen index whose
/// searches are bit-identical to the saved one; every block is decoded
/// and validated against its metadata before the index is accepted.
Status SaveIndexSnapshot(const InvertedIndex& index,
                         const std::string& path);
StatusOr<InvertedIndex> LoadIndexSnapshot(const std::string& path);

/// Entity representations (dim + per-slot hidden vectors).
Status SaveEntityStoreSnapshot(const EntityStore& store,
                               const std::string& path);
StatusOr<EntityStore> LoadEntityStoreSnapshot(const std::string& path);

/// Sparse distribution rows (ProbExpan): a u64 row count, then per row a
/// u64 entry count, the `(i32 index, f32 value)` entries, and the f32
/// norm. Load fails closed on counts beyond the remaining payload, on
/// negative, unsorted or duplicate indices, and on trailing bytes.
Status SaveSparseDistributionsSnapshot(const std::vector<SparseVec>& rows,
                                       const std::string& path);
StatusOr<std::vector<SparseVec>> LoadSparseDistributionsSnapshot(
    const std::string& path);

/// IVF-Flat ANN index: versioned payload carrying the config fingerprint,
/// centroid matrix, and per-list member ids. Load rejects a file whose
/// stored config fingerprint differs from `config` (the caller's cache key
/// already encodes it; this is the fail-closed double-check) and funnels
/// the geometry through IvfIndex::Restore, so a checksum-valid file with
/// inconsistent lists still fails closed. A restored index answers
/// Candidates() bit-identically to the one that was saved.
Status SaveAnnIndexSnapshot(const IvfIndex& index, const std::string& path);
StatusOr<IvfIndex> LoadAnnIndexSnapshot(const std::string& path,
                                        const IvfConfig& config);

// The ContextEncoder lives on the same framing via SaveEncoder /
// LoadEncoder in io/model_io.h (SnapshotKind::kEncoder).

}  // namespace ultrawiki

#endif  // ULTRAWIKI_IO_SNAPSHOT_H_
