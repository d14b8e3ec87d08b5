#ifndef ULTRAWIKI_EXPAND_PIPELINE_H_
#define ULTRAWIKI_EXPAND_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "ann/ivf_index.h"
#include "baselines/case.h"
#include "baselines/cgexpan.h"
#include "baselines/gpt4_baseline.h"
#include "baselines/probexpan.h"
#include "baselines/setexpan.h"
#include "common/status.h"
#include "dataset/dataset.h"
#include "embedding/contrastive.h"
#include "embedding/encoder.h"
#include "embedding/entity_store.h"
#include "embedding/trainer.h"
#include "expand/contrastive_miner.h"
#include "expand/genexpan.h"
#include "expand/interaction.h"
#include "expand/retexpan.h"
#include "expand/retrieval_augmentation.h"
#include "llm_oracle/oracle.h"
#include "lm/hybrid_lm.h"
#include "lm/prefix_trie.h"
#include "lm/similarity.h"

namespace ultrawiki {

/// End-to-end configuration: corpus generation, dataset construction,
/// encoder/LM training, oracle noise. `Bench()` is the default profile
/// every benchmark binary uses; `Tiny()` keeps test suites fast.
struct PipelineConfig {
  GeneratorConfig generator;
  DatasetConfig dataset;
  EncoderConfig encoder;
  /// Entity-prediction training of the main encoder (RetExpan et al.).
  EntityPredictionTrainConfig encoder_train;
  /// Short training for the "pretrained but not task-tuned" encoder the
  /// pre-LLM baselines (CaSE, CGExpan) rank with.
  EntityPredictionTrainConfig weak_encoder_train;
  HybridLmConfig lm;
  /// Fraction of the corpus the LM sees. 1.0 = further-pretrained on the
  /// full corpus; the "- Further pretrain" ablation uses a small fraction
  /// (LLaMA's residual world knowledge without corpus pretraining).
  double lm_pretrain_fraction = 1.0;
  OracleConfig oracle;
  EntityStoreConfig store;
  /// Top-k kept per sparse distribution row (ProbExpan representation).
  int distribution_top_k = 48;
  ContrastiveTrainConfig contrast;
  MinerConfig miner;
  /// IVF first stage over the main store (ann_index()). Off by default in
  /// expanders — MakeRetExpan only attaches it under UW_ANN_ENABLE — but
  /// the index itself can always be built (and is snapshot-cached keyed on
  /// the store provenance plus this config).
  IvfConfig ann;

  static PipelineConfig Bench();
  static PipelineConfig Tiny();
};

/// The trained substrates a Pipeline keeps in the artifact cache (the
/// world and the mined index key on their own configs).
enum class Substrate {
  kEncoder,
  kStore,
  kWeakStore,
  kStaticStore,
  kContrastStore,
  kRaStore,
  kDistributions,
};

/// Artifact-cache key of `substrate` for a pipeline built from `config`
/// over a world of fingerprint `world_fingerprint`: content-addressed on
/// every config that determines the artifact's bytes, under a type tag
/// distinct per substrate. `source` only keys kRaStore. A world of
/// unknown provenance (fingerprint 0) gives 0 — nothing is cached.
uint64_t SubstrateKey(const PipelineConfig& config,
                      uint64_t world_fingerprint, Substrate substrate,
                      RaSource source = RaSource::kIntroduction);

/// One shard of a deterministic candidate partition: global candidate
/// position p belongs to shard p % count. Position-based (not id-based)
/// so the partition is stable under any id numbering and every shard's
/// slice preserves the global tie-break order.
struct ShardSpec {
  int index = 0;
  int count = 1;

  bool valid() const { return count >= 1 && index >= 0 && index < count; }
};

/// The global candidate positions owned by `spec` (ascending).
std::vector<size_t> ShardCandidatePositions(size_t candidate_count,
                                            const ShardSpec& spec);

/// Owns the generated world, the constructed dataset, and every trained
/// substrate, and hands out expander instances wired to them. Every
/// trained substrate, eager or lazy, loads from the artifact cache under
/// its SubstrateKey when present and is stored there when built;
/// everything is deterministic in the configured seeds.
class Pipeline {
 public:
  static Pipeline Build(const PipelineConfig& config);

  Pipeline(Pipeline&&) = default;
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  const PipelineConfig& config() const { return config_; }
  const GeneratedWorld& world() const { return world_; }
  const UltraWikiDataset& dataset() const { return dataset_; }
  const std::vector<EntityId>& candidates() const {
    return dataset_.candidates;
  }
  const LlmOracle& oracle() const { return *oracle_; }
  const ContextEncoder& encoder() const { return *encoder_; }
  const EntityStore& store() const { return *store_; }
  const EntityStore& weak_store();
  /// Even weaker pre-neural store (word2vec-era distributed
  /// representations) used by CaSE's distributed channel.
  const EntityStore& static_store();
  const HybridLm& lm() const { return *lm_; }
  const PrefixTrie& trie() const { return *trie_; }
  const LmEntitySimilarity& similarity() const { return *similarity_; }

  // --- Lazily built strategy substrates. ---

  /// Store from the contrastively tuned encoder (+Contrast), mined with
  /// the default miner/training configs.
  const EntityStore& contrast_store();

  /// Store from an encoder retrained with the given augmentation prefixes
  /// (+RA). One per source.
  const EntityStore& ra_store(RaSource source);

  /// Sparse distribution representations (ProbExpan).
  const std::vector<SparseVec>& distributions();

  /// IVF-Flat first stage over the main store (config().ann), built
  /// lazily and cached in the artifact cache keyed on the store's
  /// provenance + the ANN config. MakeRetExpan attaches it when
  /// UW_ANN_ENABLE is set; callers can also attach it explicitly via
  /// RetExpan::SetAnnIndex.
  const IvfIndex& ann_index();

  /// Shard-scoped EntityStore for the serving cluster: rows for the
  /// shard's candidate slice plus every seed entity referenced by any
  /// dataset query (seeds are replicated to every shard so each computes
  /// the exact same seed centroid the full store folds). Rows are copied
  /// bit-for-bit and refinalized with the Restore() kernels, so shard
  /// scores equal full-store scores exactly. Cached in the artifact cache
  /// under ShardStoreKey (a kEntityStore snapshot), skipped when the
  /// store's provenance is unknown.
  std::unique_ptr<EntityStore> BuildShardStore(const ShardSpec& spec);

  /// Cache key of a shard store (0 = not cacheable).
  uint64_t ShardStoreKey(const ShardSpec& spec) const;

  /// Provenance fingerprint of the main store (0 = unknown; derived
  /// artifacts are then not cached). The cluster's shard manifest records
  /// it so router and shards can cross-check they serve one generation.
  uint64_t store_key() const { return store_key_; }

  // --- Custom (uncached) builds for ablations and sweeps. ---

  /// Contrastively tunes a clone of the main encoder with explicit
  /// configs and returns its store (caller owns).
  std::unique_ptr<EntityStore> BuildContrastStore(
      const ContrastiveTrainConfig& train, const MinerConfig& miner);

  /// Trains a fresh encoder with explicit entity-prediction config (e.g.
  /// a different label smoothing η) and returns its store (caller owns).
  std::unique_ptr<EntityStore> BuildEncoderStore(
      const EntityPredictionTrainConfig& train);

  /// Trains a fresh LM variant (Fig. 8 scaling) and returns it.
  std::unique_ptr<HybridLm> BuildLmVariant(const HybridLmConfig& config,
                                           double pretrain_fraction) const;

  // --- Expander factories (returned objects reference this pipeline and
  // must not outlive it). ---
  std::unique_ptr<RetExpan> MakeRetExpan(RetExpanConfig config = {});
  std::unique_ptr<RetExpan> MakeRetExpanContrast(RetExpanConfig config = {});
  std::unique_ptr<RetExpan> MakeRetExpanRa(
      RaSource source = RaSource::kIntroduction, RetExpanConfig config = {});
  std::unique_ptr<GenExpan> MakeGenExpan(GenExpanConfig config = {});
  std::unique_ptr<ProbExpan> MakeProbExpan(ProbExpanConfig config = {});
  std::unique_ptr<SetExpan> MakeSetExpan(SetExpanConfig config = {});
  std::unique_ptr<CaSE> MakeCaSE(CaseConfig config = {});
  std::unique_ptr<CgExpan> MakeCgExpan(CgExpanConfig config = {});
  std::unique_ptr<Gpt4Baseline> MakeGpt4Baseline();
  std::unique_ptr<InteractionExpander> MakeInteraction(
      InteractionOrder order, InteractionConfig config = {});

 private:
  Pipeline(const PipelineConfig& config, GeneratedWorld world);

  void TrainLmOn(HybridLm& lm, double fraction) const;
  std::unordered_set<TokenId> StopTokens() const;

  /// A fresh encoder (SIF token weights) trained by entity prediction.
  ContextEncoder TrainEncoder(const EncoderConfig& encoder,
                              const EntityPredictionTrainConfig& train) const;
  /// The candidate store of a freshly trained encoder.
  EntityStore TrainStore(const EncoderConfig& encoder,
                         const EntityPredictionTrainConfig& train,
                         const EntityStoreConfig& store) const;
  /// Loads or trains the weak, static or RA store (`source` keys RA).
  std::unique_ptr<EntityStore> RetrainedStore(
      Substrate substrate, RaSource source = RaSource::kIntroduction);

  PipelineConfig config_;
  GeneratedWorld world_;
  UltraWikiDataset dataset_;
  std::unique_ptr<LlmOracle> oracle_;
  std::unique_ptr<ContextEncoder> encoder_;
  std::unique_ptr<EntityStore> store_;
  std::unique_ptr<EntityStore> weak_store_;
  std::unique_ptr<EntityStore> static_store_;
  std::unique_ptr<HybridLm> lm_;
  std::unique_ptr<PrefixTrie> trie_;
  std::unique_ptr<LmEntitySimilarity> similarity_;
  std::unique_ptr<EntityStore> contrast_store_;
  std::unique_ptr<EntityStore> ra_stores_[4];
  std::unique_ptr<std::vector<SparseVec>> distributions_;
  std::unique_ptr<IvfIndex> ann_index_;
  /// SubstrateKey of the main store (0 = unknown provenance, derived
  /// artifacts are then not cached).
  uint64_t store_key_ = 0;
};

}  // namespace ultrawiki

#endif  // ULTRAWIKI_EXPAND_PIPELINE_H_
