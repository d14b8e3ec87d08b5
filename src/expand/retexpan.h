#ifndef ULTRAWIKI_EXPAND_RETEXPAN_H_
#define ULTRAWIKI_EXPAND_RETEXPAN_H_

#include <string>
#include <vector>

#include "ann/ivf_index.h"
#include "embedding/entity_store.h"
#include "expand/expander.h"
#include "math/topk.h"

namespace ultrawiki {

/// RetExpan hyper-parameters.
struct RetExpanConfig {
  /// |L0|: size of the initial expansion list (recall stage). Negative
  /// seeds are deliberately ignored here so entities of the fine-grained
  /// class are not lost (paper §5.1.1).
  int initial_list_size = 200;
  /// Segment length l of the segmented re-ranking.
  int rerank_segment_length = 20;
  /// Disable to obtain the "- Neg Rerank" ablation of Table 5.
  bool use_negative_rerank = true;
  /// IVF lists probed by the ANN first stage when an index is attached
  /// (SetAnnIndex). 0 = the index's configured default. The recall knob:
  /// nprobe == nlist reproduces the exact full scan bit for bit.
  /// Pipeline::MakeRetExpan resolves UW_ANN_NPROBE here.
  int ann_nprobe = 0;
  /// The ANN first stage only engages when the candidate vocabulary is at
  /// least this large; smaller vocabularies take the exact scan (its cost
  /// is already trivial, and the IVF adds constant overhead). Tests set 0
  /// to force the ANN path at tiny scale.
  size_t ann_min_candidates = 4096;
};

/// RetExpan's two plan steps, shared by the in-process expander and the
/// sharded serving path (ExpansionService::ScatterRetrieve on each shard,
/// ClusterRouter::ScatterExpand on the router), so every executor ranks
/// with the same arithmetic.

/// Exact recall over the candidate positions `first, first + stride, ...`
/// of `candidates`: skips the query's seeds, scores the rest by
/// positive-seed centroid similarity (EntityStore::SeedCentroidScores,
/// paper Eq. 4), and keeps the best `size` by RanksBefore. Indices are
/// *global* positions in `candidates`, so the per-shard tops of a
/// (shard, shard_count) partition merge into exactly the (0, 1) result.
std::vector<ScoredIndex> StridedRecall(const EntityStore& store,
                                       const std::vector<EntityId>& candidates,
                                       const Query& query, size_t first,
                                       size_t stride, size_t size);

/// Negative-seed segmented rerank of `list` (paper §5.1.1). The key is
/// the clamped margin max(0, neg[i] - pos[i]) of the entity's negative-
/// over positive-seed centroid similarity: the raw sco^neg is dominated
/// by the shared fine-grained class, so the margin is what isolates
/// negative-aligned entities, and the clamp keeps entities without
/// negative evidence in their original order (the segment sort is
/// stable) — a pure demotion, never a reshuffle of the positives.
std::vector<EntityId> MarginRerank(const std::vector<EntityId>& list,
                                   const std::vector<float>& pos,
                                   const std::vector<float>& neg,
                                   int segment_length);

/// |L0| for a top-`k` request: max(k, config.initial_list_size).
size_t InitialListSize(const RetExpanConfig& config, size_t k);

/// Whether `query` takes the negative-seed rerank under `config`.
bool NeedsNegativeRerank(const RetExpanConfig& config, const Query& query);

/// The retrieval-based framework (paper §5.1): entity representation →
/// entity expansion by mean cosine similarity to the positive seeds
/// (Eq. 4) → segmented re-ranking by negative-seed similarity. The entity
/// representations come from an EntityStore built over a trained context
/// encoder; swapping in a store built from a contrastively-tuned or
/// retrieval-augmented encoder yields the +Contrast / +RA variants without
/// changing this class.
class RetExpan : public Expander {
 public:
  /// `store` and `candidates` must outlive the expander.
  RetExpan(const EntityStore* store,
           const std::vector<EntityId>* candidates,
           RetExpanConfig config = {}, std::string name = "RetExpan");

  std::vector<EntityId> Expand(const Query& query, size_t k) override;
  std::string name() const override { return name_; }

  /// The recall stage only: top-`size` candidates by positive-seed
  /// similarity, seeds excluded (exposed for the contrastive-data miner
  /// and the framework-interaction experiments).
  std::vector<EntityId> InitialExpansion(const Query& query,
                                         size_t size) const;

  /// Attaches an ANN first stage (nullptr detaches). `ann` must be built
  /// over the same EntityStore this expander ranks with and must outlive
  /// the expander. When attached — and the candidate vocabulary clears
  /// `config.ann_min_candidates` — InitialExpansion retrieves an IVF
  /// candidate superset and reranks it with the exact centroid kernel;
  /// candidates absent from the store keep their exact score of 0, so at
  /// nprobe == nlist the ranking is bit-identical to the full scan.
  void SetAnnIndex(const IvfIndex* ann);

  const RetExpanConfig& config() const { return config_; }

 private:
  const EntityStore* store_;
  const std::vector<EntityId>* candidates_;
  RetExpanConfig config_;
  std::string name_;
  const IvfIndex* ann_ = nullptr;
  /// Position of each EntityId in `candidates_` (-1 = not a candidate);
  /// built by SetAnnIndex so the ANN path keeps the full scan's
  /// position-based tie-break. Indexed by id.
  std::vector<int64_t> position_of_;
  /// Candidate positions whose entity is absent from the store. The full
  /// scan scores them exactly 0; the ANN path pushes that same 0 so the
  /// tail of a ranking that reaches zero-scored entities stays identical.
  std::vector<size_t> absent_positions_;
};

}  // namespace ultrawiki

#endif  // ULTRAWIKI_EXPAND_RETEXPAN_H_
