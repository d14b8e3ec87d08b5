#include "llm_oracle/oracle.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "math/topk.h"

namespace ultrawiki {

uint64_t FingerprintConfig(const OracleConfig& config) {
  Fnv1a hash;
  hash.Mix("OracleConfig");
  hash.Mix(config.seed);
  hash.Mix(config.base_error_rate);
  hash.Mix(config.long_tail_error_rate);
  hash.Mix(config.hallucination_rate);
  hash.Mix(config.cot_class_name_error);
  hash.Mix(config.cot_pos_attr_error);
  hash.Mix(config.cot_neg_attr_error);
  return hash.digest();
}

LlmOracle::LlmOracle(const GeneratedWorld* world, OracleConfig config)
    : world_(world), config_(config) {
  UW_CHECK_NE(world, nullptr);
}

Rng LlmOracle::CallRng(std::span<const EntityId> a, EntityId b,
                       uint64_t salt) const {
  uint64_t hash = config_.seed ^ (salt * 0x9E3779B97F4A7C15ULL);
  auto mix = [&hash](uint64_t v) {
    hash ^= v + 0x9E3779B97F4A7C15ULL + (hash << 6) + (hash >> 2);
  };
  for (EntityId id : a) mix(static_cast<uint64_t>(static_cast<uint32_t>(id)));
  mix(static_cast<uint64_t>(static_cast<uint32_t>(b)));
  return Rng(hash);
}

double LlmOracle::ErrorRateFor(EntityId candidate) const {
  if (candidate < 0 ||
      static_cast<size_t>(candidate) >= world_->corpus.entity_count()) {
    return 0.5;
  }
  const Entity& entity = world_->corpus.entity(candidate);
  return entity.is_long_tail ? config_.long_tail_error_rate
                             : config_.base_error_rate;
}

std::vector<std::pair<int, int>> LlmOracle::TrueSharedAttributes(
    std::span<const EntityId> seeds) const {
  std::vector<std::pair<int, int>> shared;
  if (seeds.empty()) return shared;
  const Entity& first = world_->corpus.entity(seeds[0]);
  if (first.class_id == kBackgroundClassId) return shared;
  for (EntityId id : seeds) {
    if (world_->corpus.entity(id).class_id != first.class_id) return shared;
  }
  for (size_t a = 0; a < first.attribute_values.size(); ++a) {
    bool all_same = true;
    for (EntityId id : seeds) {
      if (world_->corpus.entity(id).attribute_values[a] !=
          first.attribute_values[a]) {
        all_same = false;
        break;
      }
    }
    if (all_same) {
      shared.emplace_back(static_cast<int>(a), first.attribute_values[a]);
    }
  }
  return shared;
}

bool LlmOracle::JudgeConsistent(std::span<const EntityId> seeds,
                                EntityId candidate) const {
  Rng rng = CallRng(seeds, candidate, /*salt=*/1);
  if (candidate < 0 ||
      static_cast<size_t>(candidate) >= world_->corpus.entity_count()) {
    return rng.Bernoulli(0.5);
  }
  const std::vector<std::pair<int, int>> shared =
      TrueSharedAttributes(seeds);
  const Entity& entity = world_->corpus.entity(candidate);
  bool truth = !seeds.empty() &&
               entity.class_id ==
                   world_->corpus.entity(seeds[0]).class_id;
  if (truth) {
    for (const auto& [attr, value] : shared) {
      if (entity.attribute_values[static_cast<size_t>(attr)] != value) {
        truth = false;
        break;
      }
    }
  }
  if (rng.Bernoulli(ErrorRateFor(candidate))) return !truth;
  return truth;
}

ClassId LlmOracle::InferClassName(std::span<const EntityId> seeds) const {
  Rng rng = CallRng(seeds, kInvalidEntityId, /*salt=*/2);
  ClassId majority = kBackgroundClassId;
  if (!seeds.empty()) {
    majority = world_->corpus.entity(seeds[0]).class_id;
  }
  if (majority == kBackgroundClassId) {
    return static_cast<ClassId>(rng.UniformUint64(world_->schema.size()));
  }
  if (rng.Bernoulli(config_.cot_class_name_error)) {
    const ClassId wrong = static_cast<ClassId>(
        rng.UniformUint64(world_->schema.size() - 1));
    return wrong >= majority ? wrong + 1 : wrong;
  }
  return majority;
}

std::vector<std::pair<int, int>> LlmOracle::InferSharedAttributes(
    std::span<const EntityId> seeds, bool negative_side) const {
  Rng rng = CallRng(seeds, kInvalidEntityId,
                    /*salt=*/negative_side ? 4 : 3);
  const double error_rate = negative_side ? config_.cot_neg_attr_error
                                          : config_.cot_pos_attr_error;
  std::vector<std::pair<int, int>> inferred;
  const std::vector<std::pair<int, int>> shared =
      TrueSharedAttributes(seeds);
  if (shared.empty()) return inferred;
  const ClassId class_id = world_->corpus.entity(seeds[0]).class_id;
  const FineClassSpec& spec =
      world_->schema[static_cast<size_t>(class_id)];
  for (const auto& [attr, value] : shared) {
    if (!rng.Bernoulli(error_rate)) {
      inferred.emplace_back(attr, value);
      continue;
    }
    // Failed reasoning: half the time the attribute is silently missed,
    // half the time a wrong value is asserted (the damaging case).
    if (rng.Bernoulli(0.5)) continue;
    const int value_count =
        static_cast<int>(spec.attributes[static_cast<size_t>(attr)]
                             .values.size());
    if (value_count < 2) continue;
    int wrong = rng.UniformInt(0, value_count - 2);
    if (wrong >= value) ++wrong;
    inferred.emplace_back(attr, wrong);
  }
  return inferred;
}

std::vector<EntityId> LlmOracle::ExpandGenerative(
    const Query& query, const UltraWikiDataset& dataset, size_t k) const {
  // Seed sets as lookup tables; seeds are never re-expanded.
  std::vector<EntityId> all_seeds = query.pos_seeds;
  all_seeds.insert(all_seeds.end(), query.neg_seeds.begin(),
                   query.neg_seeds.end());
  std::sort(all_seeds.begin(), all_seeds.end());

  const std::vector<std::pair<int, int>> pos_shared =
      TrueSharedAttributes(query.pos_seeds);
  const std::vector<std::pair<int, int>> neg_shared =
      TrueSharedAttributes(query.neg_seeds);
  const ClassId class_id =
      query.pos_seeds.empty()
          ? kBackgroundClassId
          : world_->corpus.entity(query.pos_seeds[0]).class_id;

  std::vector<ScoredIndex> scored;
  scored.reserve(dataset.candidates.size());
  for (size_t i = 0; i < dataset.candidates.size(); ++i) {
    const EntityId id = dataset.candidates[i];
    if (std::binary_search(all_seeds.begin(), all_seeds.end(), id)) continue;
    Rng rng = CallRng(query.pos_seeds, id, /*salt=*/5);
    const Entity& entity = world_->corpus.entity(id);
    float score = static_cast<float>(rng.UniformDouble()) * 0.25f;
    // Long-tail entities: GPT-4 often has no usable knowledge and the
    // judgment degenerates to noise.
    const bool knowledge_gap =
        entity.is_long_tail &&
        rng.Bernoulli(config_.long_tail_error_rate);
    if (!knowledge_gap) {
      const bool misjudge = rng.Bernoulli(ErrorRateFor(id));
      bool class_ok = entity.class_id == class_id &&
                      class_id != kBackgroundClassId;
      bool pos_ok = class_ok;
      if (class_ok) {
        for (const auto& [attr, value] : pos_shared) {
          if (entity.attribute_values[static_cast<size_t>(attr)] != value) {
            pos_ok = false;
            break;
          }
        }
      }
      bool neg_hit = class_ok && !neg_shared.empty();
      if (neg_hit) {
        for (const auto& [attr, value] : neg_shared) {
          if (entity.attribute_values[static_cast<size_t>(attr)] != value) {
            neg_hit = false;
            break;
          }
        }
      }
      if (misjudge) {
        pos_ok = !pos_ok;
      }
      // Recognizing that an entity carries the *negative* attributes is
      // harder than matching the positive ones (the prompt's negative
      // constraint is frequently ignored), so negative filtering is
      // noisier than positive matching.
      if (neg_hit && rng.Bernoulli(0.55 + ErrorRateFor(id))) {
        neg_hit = false;
      }
      if (class_ok) score += 0.5f;
      if (pos_ok) score += 1.0f;
      if (neg_hit) score -= 0.35f;
    }
    scored.push_back(ScoredIndex{score, i});
  }
  SortByScoreDescending(scored);

  // Assemble the ranked list, interleaving hallucinated entities: GPT-4
  // freely invents surface forms outside the candidate vocabulary.
  std::vector<EntityId> ranking;
  Rng rng = CallRng(query.pos_seeds, kInvalidEntityId, /*salt=*/6);
  size_t next = 0;
  while (ranking.size() < k &&
         (next < scored.size() ||
          rng.Bernoulli(config_.hallucination_rate))) {
    if (rng.Bernoulli(config_.hallucination_rate)) {
      ranking.push_back(kHallucinatedEntityId);
      continue;
    }
    if (next >= scored.size()) break;
    ranking.push_back(dataset.candidates[scored[next].index]);
    ++next;
  }
  return ranking;
}

}  // namespace ultrawiki
