#ifndef ULTRAWIKI_EXPAND_CONTRASTIVE_MINER_H_
#define ULTRAWIKI_EXPAND_CONTRASTIVE_MINER_H_

#include "embedding/contrastive.h"
#include "expand/retexpan.h"
#include "llm_oracle/oracle.h"

namespace ultrawiki {

/// Mining configuration (paper §5.1.2, "Ultra-fine-grained Training
/// Data"). |L_pos| = |L_neg| = 10 in the paper; the noise analysis of
/// Fig. 7c varies them.
struct MinerConfig {
  uint64_t seed = 17;
  /// Top-T entities of L0 submitted to the oracle per side.
  int top_t = 30;
  /// Cap on mined entities per side (before seeds are merged in).
  int l_size = 10;
  /// Normal negatives sampled from other fine-grained classes (L0-bar).
  int other_class_samples = 12;
};

/// Deterministic fingerprint of every mining knob (artifact-cache key
/// part).
uint64_t FingerprintConfig(const MinerConfig& config);

/// For every query: runs the base RetExpan recall stage, asks the LLM
/// oracle which of the top-T entities are attribute-consistent with the
/// positive (negative) seeds — the Table-13 prompt — and assembles the
/// contrastive groups (L_pos, L_neg merged with the seeds, plus an
/// other-class sample and the seed-name conditioning tokens).
ContrastiveData MineContrastiveData(const GeneratedWorld& world,
                                    const UltraWikiDataset& dataset,
                                    const RetExpan& base_expander,
                                    const LlmOracle& oracle,
                                    const MinerConfig& config = {});

}  // namespace ultrawiki

#endif  // ULTRAWIKI_EXPAND_CONTRASTIVE_MINER_H_
