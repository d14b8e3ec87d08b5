#ifndef ULTRAWIKI_EMBEDDING_CONTRASTIVE_H_
#define ULTRAWIKI_EMBEDDING_CONTRASTIVE_H_

#include <cstdint>
#include <vector>

#include "corpus/corpus.h"
#include "embedding/encoder.h"
#include "embedding/trainer.h"

namespace ultrawiki {

/// One mined training group for ultra-fine-grained contrastive learning
/// (paper §5.1.2): L_pos / L_neg come from the oracle's classification of
/// the initial expansion L_0; `other_class` is a sample of L_0-bar
/// (entities from other fine-grained classes); `conditioning` holds the
/// query's positive and negative seed-name tokens, appended to every
/// training sample to implicitly specify the ultra-fine-grained semantics.
struct ContrastiveGroup {
  std::vector<EntityId> l_pos;
  std::vector<EntityId> l_neg;
  std::vector<EntityId> other_class;
  std::vector<TokenId> conditioning;
};

/// The full mined dataset (one group per query).
struct ContrastiveData {
  std::vector<ContrastiveGroup> groups;
};

/// InfoNCE training hyper-parameters with the three data-ablation toggles
/// of paper Table 7.
struct ContrastiveTrainConfig {
  uint64_t seed = 9;
  int epochs = 2;
  /// Anchors sampled per group per epoch.
  int anchors_per_group = 12;
  int hard_negatives_per_anchor = 4;
  int normal_negatives_per_anchor = 4;
  float temperature = 0.12f;
  float learning_rate = 0.04f;
  /// Table 7 toggles: hard negatives are (L_pos, L_neg) pairs; normal
  /// negatives are (L_pos ∪ L_neg, other-class) pairs; positives are
  /// same-side pairs — when disabled, the anchor pairs with another
  /// sentence of the same entity instead.
  bool use_hard_negatives = true;
  bool use_normal_negatives = true;
  bool use_positives = true;
};

/// Deterministic fingerprint of every training knob (artifact-cache key
/// part).
uint64_t FingerprintConfig(const ContrastiveTrainConfig& config);

/// Runs ultra-fine-grained contrastive training of `encoder` over the
/// mined `data`. The InfoNCE loss operates in the projected hypersphere
/// space; gradients flow through the shared encoder body, refining the
/// hidden-state geometry RetExpan ranks with.
TrainStats TrainContrastive(const Corpus& corpus, ContextEncoder& encoder,
                            const ContrastiveData& data,
                            const ContrastiveTrainConfig& config);

}  // namespace ultrawiki

#endif  // ULTRAWIKI_EMBEDDING_CONTRASTIVE_H_
