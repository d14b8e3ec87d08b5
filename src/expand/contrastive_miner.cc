#include "expand/contrastive_miner.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ultrawiki {

uint64_t FingerprintConfig(const MinerConfig& config) {
  Fnv1a hash;
  hash.Mix("MinerConfig");
  hash.Mix(config.seed);
  hash.Mix(config.top_t);
  hash.Mix(config.l_size);
  hash.Mix(config.other_class_samples);
  return hash.digest();
}

ContrastiveData MineContrastiveData(const GeneratedWorld& world,
                                    const UltraWikiDataset& dataset,
                                    const RetExpan& base_expander,
                                    const LlmOracle& oracle,
                                    const MinerConfig& config) {
  UW_SPAN("mine_contrastive_data");
  ContrastiveData data;
  Rng rng(config.seed);

  // Pool of entities grouped by fine class, for other-class sampling.
  std::vector<std::vector<EntityId>> by_class(world.schema.size());
  for (EntityId id : dataset.candidates) {
    const ClassId class_id = world.corpus.entity(id).class_id;
    if (class_id != kBackgroundClassId) {
      by_class[static_cast<size_t>(class_id)].push_back(id);
    }
  }

  auto name_tokens = [&world](EntityId id, std::vector<TokenId>* out) {
    for (const std::string& word : world.corpus.entity(id).name_tokens) {
      const TokenId token = world.corpus.tokens().Lookup(word);
      if (token != kInvalidTokenId) out->push_back(token);
    }
  };

  for (const Query& query : dataset.queries) {
    ContrastiveGroup group;
    const std::vector<EntityId> initial = base_expander.InitialExpansion(
        query, static_cast<size_t>(config.top_t));

    // Oracle classification of the top-T entities (Table-13 prompt),
    // once against the positive seeds and once against the negative ones.
    for (EntityId id : initial) {
      if (static_cast<int>(group.l_pos.size()) < config.l_size &&
          oracle.JudgeConsistent(query.pos_seeds, id)) {
        group.l_pos.push_back(id);
      }
      if (static_cast<int>(group.l_neg.size()) < config.l_size &&
          oracle.JudgeConsistent(query.neg_seeds, id)) {
        group.l_neg.push_back(id);
      }
    }
    // Merge the seeds themselves (they are trusted members).
    group.l_pos.insert(group.l_pos.end(), query.pos_seeds.begin(),
                       query.pos_seeds.end());
    group.l_neg.insert(group.l_neg.end(), query.neg_seeds.begin(),
                       query.neg_seeds.end());
    // An entity judged consistent with both sides would make the pair
    // construction contradictory; drop it from the positive side.
    std::vector<EntityId> sorted_neg = group.l_neg;
    std::sort(sorted_neg.begin(), sorted_neg.end());
    group.l_pos.erase(
        std::remove_if(group.l_pos.begin(), group.l_pos.end(),
                       [&sorted_neg](EntityId id) {
                         return std::binary_search(sorted_neg.begin(),
                                                   sorted_neg.end(), id);
                       }),
        group.l_pos.end());

    // Normal negatives from other fine-grained classes (the L0-bar term
    // of Eq. 6 that prevents fine-grained semantic collapse).
    const ClassId query_class = dataset.ClassOf(query).fine_class;
    for (int s = 0; s < config.other_class_samples; ++s) {
      ClassId other = static_cast<ClassId>(
          rng.UniformUint64(world.schema.size()));
      if (other == query_class) {
        other = static_cast<ClassId>((other + 1) % world.schema.size());
      }
      const std::vector<EntityId>& pool =
          by_class[static_cast<size_t>(other)];
      if (pool.empty()) continue;
      group.other_class.push_back(pool[rng.UniformUint64(pool.size())]);
    }

    // Seed conditioning: positive then negative seed names, appended to
    // every sample of this group during training.
    for (EntityId id : query.pos_seeds) name_tokens(id, &group.conditioning);
    for (EntityId id : query.neg_seeds) name_tokens(id, &group.conditioning);

    obs::GetCounter("miner.pos_pairs_mined")
        .Increment(static_cast<int64_t>(group.l_pos.size()));
    obs::GetCounter("miner.neg_pairs_mined")
        .Increment(static_cast<int64_t>(group.l_neg.size()));
    data.groups.push_back(std::move(group));
  }
  obs::GetCounter("miner.groups_mined")
      .Increment(static_cast<int64_t>(data.groups.size()));
  return data;
}

}  // namespace ultrawiki
