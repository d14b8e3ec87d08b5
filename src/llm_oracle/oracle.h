#ifndef ULTRAWIKI_LLM_ORACLE_ORACLE_H_
#define ULTRAWIKI_LLM_ORACLE_ORACLE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "corpus/generator.h"
#include "dataset/dataset.h"

namespace ultrawiki {

/// Noise profile of the simulated large language model. The oracle holds
/// the ground-truth attribute table (its "web-scale knowledge") but errs:
/// uniformly at `base_error_rate`, much more on long-tail entities, and —
/// in generative mode — by hallucinating non-existent entities. These are
/// exactly the GPT-4 failure modes the paper reports (§6.2 (6)).
struct OracleConfig {
  uint64_t seed = 13;
  /// Per-judgment error probability for well-known entities.
  double base_error_rate = 0.10;
  /// Error probability when the judged entity is long-tail.
  double long_tail_error_rate = 0.40;
  /// Probability of emitting a hallucinated (non-candidate) entity at each
  /// rank slot of the generative baseline.
  double hallucination_rate = 0.10;
  /// Chain-of-thought inference error rates (LLaMA-grade reasoning):
  /// class-name inference is reliable, positive-attribute inference decent,
  /// negative-attribute inference poor (paper §6.4.3 (3)).
  double cot_class_name_error = 0.10;
  double cot_pos_attr_error = 0.20;
  double cot_neg_attr_error = 0.55;
};

/// Deterministic fingerprint of every noise knob (artifact-cache key part).
uint64_t FingerprintConfig(const OracleConfig& config);

/// Sentinel returned in generative rankings for hallucinated entities;
/// never matches any target set.
inline constexpr EntityId kHallucinatedEntityId = -2;

/// The GPT-4 / LLaMA-reasoning stand-in. All judgments are deterministic
/// functions of (config seed, the queried ids), independent of call order,
/// so every experiment is reproducible.
class LlmOracle {
 public:
  /// `world` must outlive the oracle.
  LlmOracle(const GeneratedWorld* world, OracleConfig config = {});

  /// Attribute-consistency classification (the paper's Table-13 prompt):
  /// does `candidate` share the attribute values common to `seeds`?
  /// Ground truth with noise; long-tail candidates are judged near-random.
  bool JudgeConsistent(std::span<const EntityId> seeds,
                       EntityId candidate) const;

  /// Infers the fine-grained class of `seeds` (chain-of-thought step 1);
  /// wrong with probability cot_class_name_error.
  ClassId InferClassName(std::span<const EntityId> seeds) const;

  /// Infers the (attr, value) constraints shared by `seeds`
  /// (chain-of-thought steps 2–3). `negative_side` selects the much
  /// noisier negative-attribute reasoning. Returned pairs may be wrong or
  /// missing.
  std::vector<std::pair<int, int>> InferSharedAttributes(
      std::span<const EntityId> seeds, bool negative_side) const;

  /// The zero-shot generative GPT-4 baseline: rank `k` entities for the
  /// query given both positive and negative seeds. The list may contain
  /// kHallucinatedEntityId entries (fake entity names) and degrades on
  /// long-tail classes.
  std::vector<EntityId> ExpandGenerative(
      const Query& query, const UltraWikiDataset& dataset, size_t k) const;

  /// True shared (attr, value) pairs of `seeds` — exposed for the
  /// ground-truth chain-of-thought variants (Table 9 "GT") and the
  /// ground-truth retrieval augmentation (Table 8 "GT Attributes").
  std::vector<std::pair<int, int>> TrueSharedAttributes(
      std::span<const EntityId> seeds) const;

  const OracleConfig& config() const { return config_; }

 private:
  /// Deterministic per-call randomness: a generator derived from the
  /// oracle seed and the queried ids.
  Rng CallRng(std::span<const EntityId> a, EntityId b, uint64_t salt) const;

  double ErrorRateFor(EntityId candidate) const;

  const GeneratedWorld* world_;
  OracleConfig config_;
};

}  // namespace ultrawiki

#endif  // ULTRAWIKI_LLM_ORACLE_ORACLE_H_
