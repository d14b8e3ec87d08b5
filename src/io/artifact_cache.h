#ifndef ULTRAWIKI_IO_ARTIFACT_CACHE_H_
#define ULTRAWIKI_IO_ARTIFACT_CACHE_H_

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/status.h"
#include "dataset/dataset.h"
#include "embedding/encoder.h"
#include "embedding/entity_store.h"
#include "embedding/trainer.h"

namespace ultrawiki {

/// Content-addressed snapshot cache for the expensive pipeline artifacts:
/// the world, the mined inverted index, the main encoder and its entity
/// store, the weak, static, contrast and per-source RA stores, the
/// ProbExpan sparse distributions, the ANN index, and the shard stores.
/// Entries are keyed by a fingerprint of everything that determines the
/// artifact's bytes — the generator/trainer configs that produced it — and
/// by the snapshot format version, so a format bump or any config change
/// silently misses instead of serving a stale artifact.
///
/// The cache is rooted at the `UW_CACHE_DIR` environment variable and is
/// disabled (every lookup misses, nothing is written) when unset or empty.
/// Corrupt or truncated entries are indistinguishable from misses: the
/// checksummed loader rejects them and the builder overwrites them.
///
/// Observability: every lookup bumps `cache.hit` or `cache.miss`, and hits
/// add the file size to `cache.bytes_read`; successful writes bump
/// `cache.store`.
class ArtifactCache {
 public:
  /// Process-global instance rooted at UW_CACHE_DIR (read once).
  static ArtifactCache& Global();

  /// Repoints the global instance (empty string disables). Test-only.
  static void OverrideGlobalForTest(std::string root);

  /// `root` empty => disabled.
  explicit ArtifactCache(std::string root) : root_(std::move(root)) {}

  bool enabled() const { return !root_.empty(); }
  const std::string& root() const { return root_; }

  /// `<root>/<kind>-v<format>-<key as hex>.uws`; empty when disabled.
  std::string PathFor(std::string_view kind, uint64_t key) const;

  /// Counter plumbing used by the Try/Store helpers below.
  void RecordHit(uint64_t bytes_read);
  void RecordMiss();
  void RecordStore();

 private:
  std::string root_;
};

namespace internal_cache {
uint64_t FileSizeOrZero(const std::string& path);
/// Creates the entry's parent directory if missing; best-effort.
void EnsureParentDir(const std::string& path);
/// The cache logs every failed store (they should be rare and actionable).
void WarnStoreFailed(const std::string& path, const Status& status);
}  // namespace internal_cache

/// Attempts a cached load. `loader` is invoked with the entry path and
/// must return a StatusOr; a missing, corrupt, or mis-versioned entry
/// counts as a miss and returns nullopt so the caller rebuilds (and
/// overwrites the entry via StoreCached). Returns nullopt without
/// recording anything when the cache is disabled.
template <typename Loader>
auto TryLoadCached(ArtifactCache& cache, std::string_view kind,
                   uint64_t key, Loader&& loader)
    -> std::optional<std::decay_t<
        decltype(std::declval<std::invoke_result_t<Loader, std::string>>()
                     .value())>> {
  if (!cache.enabled()) return std::nullopt;
  const std::string path = cache.PathFor(kind, key);
  auto loaded = loader(path);
  if (!loaded.ok()) {
    cache.RecordMiss();
    return std::nullopt;
  }
  cache.RecordHit(internal_cache::FileSizeOrZero(path));
  return std::move(loaded).value();
}

/// Writes an artifact into the cache. `saver` is invoked with the entry
/// path and must return Status. Failures are logged and swallowed — a
/// read-only or full cache directory degrades to cold runs, never to a
/// crashed pipeline. No-op when the cache is disabled.
template <typename Saver>
void StoreCached(ArtifactCache& cache, std::string_view kind, uint64_t key,
                 Saver&& saver) {
  if (!cache.enabled()) return;
  const std::string path = cache.PathFor(kind, key);
  internal_cache::EnsureParentDir(path);
  const Status status = saver(path);
  if (status.ok()) {
    cache.RecordStore();
  } else {
    internal_cache::WarnStoreFailed(path, status);
  }
}

/// Config fingerprints for cache keys. Each mixes a distinct type tag and
/// every field. Pointer members (the RA prefix tables) are mixed as a
/// presence flag only, so a key over an artifact built with prefixes must
/// name their source itself (SubstrateKey mixes the RaSource).
uint64_t FingerprintConfig(const EncoderConfig& config);
uint64_t FingerprintConfig(const EntityPredictionTrainConfig& config);
uint64_t FingerprintConfig(const EntityStoreConfig& config);
uint64_t FingerprintConfig(const DatasetConfig& config);

/// Order-sensitive combination of sub-fingerprints into one cache key.
uint64_t CombineFingerprints(std::initializer_list<uint64_t> parts);

}  // namespace ultrawiki

#endif  // ULTRAWIKI_IO_ARTIFACT_CACHE_H_
