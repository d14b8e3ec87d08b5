#include "expand/retexpan.h"

#include <algorithm>

#include "common/logging.h"
#include "expand/rerank.h"
#include "math/topk.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ultrawiki {

std::vector<ScoredIndex> StridedRecall(const EntityStore& store,
                                       const std::vector<EntityId>& candidates,
                                       const Query& query, size_t first,
                                       size_t stride, size_t size) {
  // Batched recall: one centroid fold plus one blocked dot per candidate
  // instead of |seeds| per-pair cosines with recomputed norms, streamed
  // into a bounded top-k heap instead of materialize-then-partial-sort.
  const std::vector<EntityId> seeds = SortedSeedsOf(query);
  std::vector<size_t> positions;
  std::vector<EntityId> non_seed;
  positions.reserve(candidates.size() / stride + 1);
  non_seed.reserve(positions.capacity());
  for (size_t p = first; p < candidates.size(); p += stride) {
    const EntityId id = candidates[p];
    if (std::binary_search(seeds.begin(), seeds.end(), id)) continue;
    positions.push_back(p);
    non_seed.push_back(id);
  }
  const std::vector<float> scores =
      store.SeedCentroidScores(query.pos_seeds, non_seed);
  obs::GetCounter("retexpan.candidates_scored")
      .Increment(static_cast<int64_t>(non_seed.size()));
  TopKStream stream(size);
  for (size_t i = 0; i < positions.size(); ++i) {
    stream.Push(scores[i], positions[i]);
  }
  return stream.TakeSortedDescending();
}

std::vector<EntityId> MarginRerank(const std::vector<EntityId>& list,
                                   const std::vector<float>& pos,
                                   const std::vector<float>& neg,
                                   int segment_length) {
  UW_CHECK_EQ(pos.size(), list.size());
  UW_CHECK_EQ(neg.size(), list.size());
  std::vector<double> margins(list.size(), 0.0);
  for (size_t i = 0; i < list.size(); ++i) {
    margins[i] = std::max(
        0.0, static_cast<double>(neg[i]) - static_cast<double>(pos[i]));
  }
  return SegmentedRerankByPosition(list, margins, segment_length);
}

size_t InitialListSize(const RetExpanConfig& config, size_t k) {
  return std::max<size_t>(k, static_cast<size_t>(config.initial_list_size));
}

bool NeedsNegativeRerank(const RetExpanConfig& config, const Query& query) {
  return config.use_negative_rerank && !query.neg_seeds.empty();
}

RetExpan::RetExpan(const EntityStore* store,
                   const std::vector<EntityId>* candidates,
                   RetExpanConfig config, std::string name)
    : store_(store),
      candidates_(candidates),
      config_(config),
      name_(std::move(name)) {
  UW_CHECK_NE(store, nullptr);
  UW_CHECK_NE(candidates, nullptr);
}

void RetExpan::SetAnnIndex(const IvfIndex* ann) {
  ann_ = ann;
  position_of_.clear();
  absent_positions_.clear();
  if (ann == nullptr) return;
  EntityId max_id = -1;
  for (const EntityId id : *candidates_) max_id = std::max(max_id, id);
  position_of_.assign(static_cast<size_t>(max_id) + 1, -1);
  for (size_t i = 0; i < candidates_->size(); ++i) {
    const EntityId id = (*candidates_)[i];
    UW_CHECK_GE(id, 0);
    UW_CHECK_LT(position_of_[static_cast<size_t>(id)], 0)
        << "duplicate candidate id " << id
        << " breaks the ANN-vs-full-scan position tie-break";
    position_of_[static_cast<size_t>(id)] = static_cast<int64_t>(i);
    if (!store_->Has(id)) absent_positions_.push_back(i);
  }
}

std::vector<EntityId> RetExpan::InitialExpansion(const Query& query,
                                                 size_t size) const {
  const bool use_ann =
      ann_ != nullptr && candidates_->size() >= config_.ann_min_candidates;
  if (ann_ != nullptr && !use_ann) {
    obs::GetCounter("ann.fallback_exact").Increment();
  }
  std::vector<ScoredIndex> scored;
  if (use_ann) {
    // ANN recall: probe the IVF lists nearest the seed centroid, then
    // rerank the retrieved superset with the *exact* centroid kernel —
    // the very DotBlocked expression the full scan uses — so every
    // surviving candidate carries its full-scan score, and the only
    // approximation is which candidates were retrieved at all.
    UW_SPAN("retexpan.initial_expansion_ann");
    const std::vector<EntityId> seeds = SortedSeedsOf(query);
    const Vec centroid = store_->SeedCentroidOf(query.pos_seeds);
    const int nprobe =
        config_.ann_nprobe > 0 ? config_.ann_nprobe : ann_->config().nprobe;
    // Seeds get filtered out below, so ask the first stage for enough
    // candidates that the rerank depth never starves.
    const std::vector<EntityId> retrieved =
        ann_->Candidates(centroid, nprobe, size + seeds.size());
    std::vector<size_t> positions;
    std::vector<EntityId> kept;
    positions.reserve(retrieved.size());
    kept.reserve(retrieved.size());
    for (const EntityId id : retrieved) {
      if (static_cast<size_t>(id) >= position_of_.size()) continue;
      const int64_t pos = position_of_[static_cast<size_t>(id)];
      if (pos < 0) continue;  // in the store but not a candidate
      if (std::binary_search(seeds.begin(), seeds.end(), id)) continue;
      positions.push_back(static_cast<size_t>(pos));
      kept.push_back(id);
    }
    const std::vector<float> scores = store_->CentroidScores(centroid, kept);
    obs::GetCounter("retexpan.candidates_scored")
        .Increment(static_cast<int64_t>(kept.size()));
    TopKStream stream(size);
    for (size_t i = 0; i < positions.size(); ++i) {
      stream.Push(scores[i], positions[i]);
    }
    // Candidates absent from the store score exactly 0 in the full scan
    // (zero unit row); push that same 0 so a ranking whose tail reaches
    // them is unchanged.
    for (const size_t pos : absent_positions_) {
      const EntityId id = (*candidates_)[pos];
      if (std::binary_search(seeds.begin(), seeds.end(), id)) continue;
      stream.Push(0.0f, pos);
    }
    scored = stream.TakeSortedDescending();
  } else {
    UW_SPAN("retexpan.initial_expansion");
    scored = StridedRecall(*store_, *candidates_, query, 0, 1, size);
  }
  std::vector<EntityId> initial;
  initial.reserve(scored.size());
  for (const ScoredIndex& s : scored) {
    initial.push_back((*candidates_)[s.index]);
  }
  return initial;
}

std::vector<EntityId> RetExpan::Expand(const Query& query, size_t k) {
  UW_SPAN("retexpan.expand");
  obs::GetCounter("retexpan.queries").Increment();
  std::vector<EntityId> list =
      InitialExpansion(query, InitialListSize(config_, k));
  if (NeedsNegativeRerank(config_, query)) {
    UW_SPAN("retexpan.rerank");
    obs::GetCounter("retexpan.reranked_lists").Increment();
    // Both sides' seed similarities come from one batched centroid pass
    // over the list instead of per-entity per-seed cosines.
    list = MarginRerank(list,
                        store_->SeedCentroidScores(query.pos_seeds, list),
                        store_->SeedCentroidScores(query.neg_seeds, list),
                        config_.rerank_segment_length);
  }
  if (list.size() > k) list.resize(k);
  return list;
}

}  // namespace ultrawiki
