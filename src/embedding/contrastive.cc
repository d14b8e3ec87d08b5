#include "embedding/contrastive.h"

#include <cmath>

#include "common/hash.h"
#include "common/logging.h"
#include "embedding/entity_store.h"
#include "math/softmax.h"
#include "math/vec.h"

namespace ultrawiki {

uint64_t FingerprintConfig(const ContrastiveTrainConfig& config) {
  Fnv1a hash;
  hash.Mix("ContrastiveTrainConfig");
  hash.Mix(config.seed);
  hash.Mix(config.epochs);
  hash.Mix(config.anchors_per_group);
  hash.Mix(config.hard_negatives_per_anchor);
  hash.Mix(config.normal_negatives_per_anchor);
  hash.Mix(config.temperature);
  hash.Mix(config.learning_rate);
  hash.Mix(config.use_hard_negatives);
  hash.Mix(config.use_normal_negatives);
  hash.Mix(config.use_positives);
  return hash.digest();
}

namespace {

/// Cached forward pass of one contrastive sample.
struct SampleCache {
  std::vector<TokenId> context;
  Vec mean;
  Vec hidden;
  Vec u;       // unnormalized projection
  float norm = 0.0f;
  Vec z;       // normalized projection
  bool valid = false;
};

/// Picks a random sentence of `id`; returns nullptr when the entity has no
/// sentences (then the sample is skipped).
const Sentence* RandomSentence(const Corpus& corpus, EntityId id, Rng& rng) {
  const std::vector<int>& ids = corpus.SentencesOf(id);
  if (ids.empty()) return nullptr;
  return &corpus.sentence(
      static_cast<size_t>(ids[rng.UniformUint64(ids.size())]));
}

class ContrastiveRunner {
 public:
  ContrastiveRunner(const Corpus& corpus, ContextEncoder& encoder,
                    const ContrastiveTrainConfig& config)
      : corpus_(corpus), encoder_(encoder), config_(config) {}

  SampleCache Encode(EntityId id, const std::vector<TokenId>& conditioning,
                     Rng& rng) {
    SampleCache cache;
    const Sentence* sentence = RandomSentence(corpus_, id, rng);
    if (sentence == nullptr) return cache;
    cache.context = MaskedContext(*sentence, nullptr);
    // Seed conditioning specifies the ultra-fine-grained semantics the
    // pair is judged under (avoids positive/negative conflicts for the
    // same entity pair across queries).
    cache.context.insert(cache.context.end(), conditioning.begin(),
                         conditioning.end());
    if (cache.context.empty()) return cache;
    cache.mean = encoder_.ContextMean(cache.context);
    cache.hidden = encoder_.HiddenFromMean(cache.mean);
    cache.u.assign(static_cast<size_t>(encoder_.config().projection_dim),
                   0.0f);
    encoder_.projection().MatVec(cache.hidden, cache.u);
    for (size_t i = 0; i < cache.u.size(); ++i) {
      cache.u[i] += encoder_.projection_bias()[i];
    }
    cache.norm = Norm(cache.u);
    if (cache.norm <= 1e-8f) return cache;
    cache.z = cache.u;
    Scale(1.0f / cache.norm, cache.z);
    cache.valid = true;
    return cache;
  }

  /// Backpropagates dL/dz into the encoder parameters with SGD step `lr`.
  void Backprop(const SampleCache& cache, const Vec& grad_z, float lr) {
    const size_t proj_dim = cache.z.size();
    const size_t hidden_dim = cache.hidden.size();
    // Through the L2 normalization.
    Vec grad_u(proj_dim, 0.0f);
    const float dot = Dot(grad_z, cache.z);
    for (size_t i = 0; i < proj_dim; ++i) {
      grad_u[i] = (grad_z[i] - dot * cache.z[i]) / cache.norm;
    }
    // grad wrt hidden before the projection matrix is updated.
    Vec grad_hidden(hidden_dim, 0.0f);
    encoder_.projection().MatTVec(grad_u, grad_hidden);
    // Update projection head.
    for (size_t r = 0; r < proj_dim; ++r) {
      auto row = encoder_.projection().Row(r);
      Axpy(-lr * grad_u[r], cache.hidden, row);
      encoder_.projection_bias()[r] -= lr * grad_u[r];
    }
    // Through tanh into the shared body.
    Vec grad_pre(hidden_dim, 0.0f);
    for (size_t i = 0; i < hidden_dim; ++i) {
      grad_pre[i] =
          grad_hidden[i] * (1.0f - cache.hidden[i] * cache.hidden[i]);
    }
    Vec grad_mean(cache.mean.size(), 0.0f);
    encoder_.w1().MatTVec(grad_pre, grad_mean);
    for (size_t r = 0; r < hidden_dim; ++r) {
      auto row = encoder_.w1().Row(r);
      Axpy(-lr * grad_pre[r], cache.mean, row);
      encoder_.b1()[r] -= lr * grad_pre[r];
    }
    float total_weight = 0.0f;
    for (TokenId token : cache.context) {
      if (token >= 0 &&
          static_cast<size_t>(token) < encoder_.token_vocab_size()) {
        total_weight += encoder_.TokenWeight(token);
      }
    }
    if (total_weight <= 0.0f) return;
    for (TokenId token : cache.context) {
      if (token < 0 ||
          static_cast<size_t>(token) >= encoder_.token_vocab_size()) {
        continue;
      }
      const float w = encoder_.TokenWeight(token);
      if (w <= 0.0f) continue;
      Axpy(-lr * w / total_weight, grad_mean,
           encoder_.token_embeddings().Row(static_cast<size_t>(token)));
    }
  }

 private:
  const Corpus& corpus_;
  ContextEncoder& encoder_;
  const ContrastiveTrainConfig& config_;
};

}  // namespace

TrainStats TrainContrastive(const Corpus& corpus, ContextEncoder& encoder,
                            const ContrastiveData& data,
                            const ContrastiveTrainConfig& config) {
  UW_CHECK_GT(config.temperature, 0.0f);
  TrainStats stats;
  stats.epochs = config.epochs;
  if (data.groups.empty() ||
      (!config.use_hard_negatives && !config.use_normal_negatives)) {
    return stats;  // InfoNCE needs at least one negative source.
  }
  Rng rng(config.seed);
  ContrastiveRunner runner(corpus, encoder, config);
  double loss_sum = 0.0;
  int64_t loss_count = 0;

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    for (const ContrastiveGroup& group : data.groups) {
      if (group.l_pos.empty() && group.l_neg.empty()) continue;
      for (int a = 0; a < config.anchors_per_group; ++a) {
        // Alternate anchor side so both L_pos and L_neg shape the space.
        const bool anchor_positive_side =
            group.l_neg.empty() || (!group.l_pos.empty() && a % 2 == 0);
        const std::vector<EntityId>& same_side =
            anchor_positive_side ? group.l_pos : group.l_neg;
        const std::vector<EntityId>& other_side =
            anchor_positive_side ? group.l_neg : group.l_pos;
        if (same_side.empty()) continue;
        const EntityId anchor_id =
            same_side[rng.UniformUint64(same_side.size())];

        // Positive partner.
        EntityId positive_id = anchor_id;
        if (config.use_positives && same_side.size() > 1) {
          do {
            positive_id = same_side[rng.UniformUint64(same_side.size())];
          } while (positive_id == anchor_id && same_side.size() > 1 &&
                   rng.Bernoulli(0.75));
        }

        // Negatives.
        std::vector<EntityId> negative_ids;
        if (config.use_hard_negatives && !other_side.empty()) {
          for (int n = 0; n < config.hard_negatives_per_anchor; ++n) {
            negative_ids.push_back(
                other_side[rng.UniformUint64(other_side.size())]);
          }
        }
        if (config.use_normal_negatives && !group.other_class.empty()) {
          for (int n = 0; n < config.normal_negatives_per_anchor; ++n) {
            negative_ids.push_back(
                group.other_class[rng.UniformUint64(
                    group.other_class.size())]);
          }
        }
        if (negative_ids.empty()) continue;

        // Forward all samples.
        SampleCache anchor =
            runner.Encode(anchor_id, group.conditioning, rng);
        SampleCache positive =
            runner.Encode(positive_id, group.conditioning, rng);
        if (!anchor.valid || !positive.valid) continue;
        std::vector<SampleCache> negatives;
        negatives.reserve(negative_ids.size());
        for (EntityId id : negative_ids) {
          SampleCache cache = runner.Encode(id, group.conditioning, rng);
          if (cache.valid) negatives.push_back(std::move(cache));
        }
        if (negatives.empty()) continue;

        // InfoNCE. Slot 0 is the positive.
        const float tau = config.temperature;
        Vec logits(negatives.size() + 1, 0.0f);
        logits[0] = Dot(anchor.z, positive.z) / tau;
        for (size_t n = 0; n < negatives.size(); ++n) {
          logits[n + 1] = Dot(anchor.z, negatives[n].z) / tau;
        }
        Vec probs = logits;
        SoftmaxInPlace(probs);
        loss_sum += -std::log(std::max(1e-9, static_cast<double>(probs[0])));
        ++loss_count;

        // Gradients wrt the projected vectors.
        Vec grad_anchor(anchor.z.size(), 0.0f);
        const float dpos = (probs[0] - 1.0f) / tau;
        Axpy(dpos, positive.z, grad_anchor);
        Vec grad_positive(anchor.z.size(), 0.0f);
        Axpy(dpos, anchor.z, grad_positive);
        std::vector<Vec> grad_negatives(negatives.size());
        for (size_t n = 0; n < negatives.size(); ++n) {
          const float dneg = probs[n + 1] / tau;
          Axpy(dneg, negatives[n].z, grad_anchor);
          grad_negatives[n].assign(anchor.z.size(), 0.0f);
          Axpy(dneg, anchor.z, grad_negatives[n]);
        }

        const float lr = config.learning_rate;
        runner.Backprop(anchor, grad_anchor, lr);
        runner.Backprop(positive, grad_positive, lr);
        for (size_t n = 0; n < negatives.size(); ++n) {
          runner.Backprop(negatives[n], grad_negatives[n], lr);
        }
        ++stats.steps;
      }
    }
  }
  stats.final_loss =
      loss_count > 0 ? loss_sum / static_cast<double>(loss_count) : 0.0;
  return stats;
}

}  // namespace ultrawiki
