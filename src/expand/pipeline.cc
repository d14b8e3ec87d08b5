#include "expand/pipeline.h"

#include <utility>

#include "common/env.h"
#include "common/logging.h"
#include "io/artifact_cache.h"
#include "io/model_io.h"
#include "io/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ultrawiki {

PipelineConfig PipelineConfig::Bench() {
  PipelineConfig config;
  config.generator.seed = 1;
  config.generator.scale = 0.35;
  config.dataset.seed = 7;
  config.encoder_train.epochs = 10;
  config.weak_encoder_train.epochs = 4;
  config.weak_encoder_train.learning_rate = 0.04f;
  config.weak_encoder_train.seed = 55;
  return config;
}

PipelineConfig PipelineConfig::Tiny() {
  PipelineConfig config;
  config.generator.seed = 1;
  config.generator.scale = 0.12;
  config.generator.min_entities_per_class = 30;
  config.generator.background_entity_count = 120;
  config.generator.sentences_per_entity = 10;
  config.dataset.ultra_class_scale = 0.12;
  config.encoder_train.epochs = 2;
  config.weak_encoder_train.epochs = 4;
  config.weak_encoder_train.seed = 55;
  config.contrast.epochs = 1;
  return config;
}

Pipeline::Pipeline(const PipelineConfig& config, GeneratedWorld world)
    : config_(config), world_(std::move(world)) {}

Pipeline Pipeline::Build(const PipelineConfig& config) {
  UW_SPAN("pipeline.build");
  ArtifactCache& cache = ArtifactCache::Global();

  // World: loaded from the snapshot cache when a previous run generated it
  // from an identical GeneratorConfig, else generated and cached.
  const uint64_t world_key = FingerprintConfig(config.generator);
  Pipeline pipeline = [&config, &cache, world_key] {
    {
      UW_SPAN("cache.load_world");
      auto cached = TryLoadCached(cache, "world", world_key,
                                  [](const std::string& path) {
                                    return LoadWorldSnapshot(path);
                                  });
      if (cached.has_value()) {
        return Pipeline(config, std::move(*cached));
      }
    }
    UW_SPAN("generate_world");
    GeneratedWorld world = GenerateWorld(config.generator);
    StoreCached(cache, "world", world_key,
                [&world](const std::string& path) {
                  return SaveWorldSnapshot(world, path);
                });
    return Pipeline(config, std::move(world));
  }();
  {
    UW_SPAN("build_dataset");
    auto built = BuildDataset(pipeline.world_, config.dataset);
    UW_CHECK(built.ok()) << built.status();
    pipeline.dataset_ = std::move(built).value();
  }

  pipeline.oracle_ =
      std::make_unique<LlmOracle>(&pipeline.world_, config.oracle);

  // Main encoder: entity-prediction training over the full corpus, cached
  // keyed on the world's provenance plus every training knob. A world of
  // unknown provenance (fingerprint 0, e.g. loaded from TSV) disables
  // derived-artifact caching — there is nothing sound to key on.
  const Corpus& corpus = pipeline.world_.corpus;
  const bool derivable = pipeline.world_.fingerprint != 0;
  const uint64_t encoder_key =
      derivable ? CombineFingerprints(
                      {pipeline.world_.fingerprint,
                       FingerprintConfig(config.encoder),
                       FingerprintConfig(config.encoder_train)})
                : 0;
  if (derivable) {
    UW_SPAN("cache.load_encoder");
    auto cached = TryLoadCached(cache, "encoder", encoder_key,
                                [](const std::string& path) {
                                  return LoadEncoder(path);
                                });
    if (cached.has_value()) {
      pipeline.encoder_ =
          std::make_unique<ContextEncoder>(std::move(*cached));
    }
  }
  if (pipeline.encoder_ == nullptr) {
    pipeline.encoder_ = std::make_unique<ContextEncoder>(
        corpus.tokens().size(), corpus.entity_count(), config.encoder);
    pipeline.encoder_->SetTokenWeights(
        ComputeSifTokenWeights(corpus.tokens()));
    {
      UW_SPAN("train_encoder");
      TrainEntityPrediction(corpus, *pipeline.encoder_,
                            config.encoder_train);
    }
    if (derivable) {
      StoreCached(cache, "encoder", encoder_key,
                  [&pipeline](const std::string& path) {
                    return SaveEncoder(*pipeline.encoder_, path);
                  });
    }
  }

  // Entity store: cached keyed on the encoder key plus the store and
  // dataset configs (the build set is the dataset's candidate vocabulary).
  const uint64_t store_key =
      derivable ? CombineFingerprints({encoder_key,
                                       FingerprintConfig(config.store),
                                       FingerprintConfig(config.dataset)})
                : 0;
  pipeline.store_key_ = store_key;
  if (derivable) {
    UW_SPAN("cache.load_store");
    auto cached = TryLoadCached(cache, "store", store_key,
                                [](const std::string& path) {
                                  return LoadEntityStoreSnapshot(path);
                                });
    if (cached.has_value()) {
      pipeline.store_ =
          std::make_unique<EntityStore>(std::move(*cached));
    }
  }
  if (pipeline.store_ == nullptr) {
    UW_SPAN("entity_store");
    pipeline.store_ = std::make_unique<EntityStore>(EntityStore::Build(
        corpus, *pipeline.encoder_, pipeline.dataset_.candidates,
        config.store));
    if (derivable) {
      StoreCached(cache, "store", store_key,
                  [&pipeline](const std::string& path) {
                    return SaveEntityStoreSnapshot(*pipeline.store_, path);
                  });
    }
  }

  // Language model: "further pretraining" on the corpus.
  {
    UW_SPAN("lm_pretrain");
    pipeline.lm_ =
        std::make_unique<HybridLm>(corpus.tokens().size(), config.lm);
    pipeline.lm_->SetStopTokens(pipeline.StopTokens());
    pipeline.TrainLmOn(*pipeline.lm_, config.lm_pretrain_fraction);
  }

  // Prefix trie over candidate surface forms.
  {
    UW_SPAN("build_trie");
    pipeline.trie_ = std::make_unique<PrefixTrie>();
    for (EntityId id : pipeline.dataset_.candidates) {
      std::vector<TokenId> name;
      for (const std::string& word : corpus.entity(id).name_tokens) {
        const TokenId token = corpus.tokens().Lookup(word);
        if (token != kInvalidTokenId) name.push_back(token);
      }
      if (name.empty()) {
        UW_LOG_EVERY_N(Warning, 100)
            << "candidate entity " << id
            << " has no in-vocabulary name tokens; skipping trie insert";
        continue;
      }
      pipeline.trie_->Insert(name, id);
    }
  }
  pipeline.similarity_ =
      std::make_unique<LmEntitySimilarity>(corpus, *pipeline.lm_);
  obs::GetGauge("pipeline.candidates").Set(
      static_cast<int64_t>(pipeline.dataset_.candidates.size()));
  obs::GetGauge("pipeline.corpus_sentences")
      .Set(static_cast<int64_t>(corpus.sentence_count()));
  return pipeline;
}

void Pipeline::TrainLmOn(HybridLm& lm, double fraction) const {
  UW_CHECK_GT(fraction, 0.0);
  const Corpus& corpus = world_.corpus;
  // Deterministic subsampling by index stride keeps the retained subset
  // stable across runs.
  auto keep = [fraction](size_t index) {
    if (fraction >= 1.0) return true;
    const double position =
        static_cast<double>(index % 1000) / 1000.0;
    return position < fraction;
  };
  for (size_t s = 0; s < corpus.sentence_count(); ++s) {
    if (!keep(s)) continue;
    lm.AddSentence(corpus.sentence(s).tokens);
  }
  const auto& auxiliary = corpus.auxiliary_sentences();
  for (size_t s = 0; s < auxiliary.size(); ++s) {
    if (!keep(s)) continue;
    lm.AddSentence(auxiliary[s]);
  }
  lm.Finalize();
}

std::unordered_set<TokenId> Pipeline::StopTokens() const {
  std::unordered_set<TokenId> stops;
  for (const char* word :
       {"the", "is", "are", "a", "with", "and", "similar", "to", "page",
        ",", "."}) {
    const TokenId token = world_.corpus.tokens().Lookup(word);
    if (token != kInvalidTokenId) stops.insert(token);
  }
  return stops;
}

const EntityStore& Pipeline::weak_store() {
  if (weak_store_ == nullptr) {
    UW_SPAN("pipeline.weak_store");
    const Corpus& corpus = world_.corpus;
    EncoderConfig weak_config = config_.encoder;
    weak_config.seed = config_.encoder.seed ^ 0x5151;
    weak_encoder_ = std::make_unique<ContextEncoder>(
        corpus.tokens().size(), corpus.entity_count(), weak_config);
    weak_encoder_->SetTokenWeights(ComputeSifTokenWeights(corpus.tokens()));
    TrainEntityPrediction(corpus, *weak_encoder_,
                          config_.weak_encoder_train);
    weak_store_ = std::make_unique<EntityStore>(EntityStore::Build(
        corpus, *weak_encoder_, dataset_.candidates, config_.store));
  }
  return *weak_store_;
}

const EntityStore& Pipeline::static_store() {
  if (static_store_ == nullptr) {
    UW_SPAN("pipeline.static_store");
    const Corpus& corpus = world_.corpus;
    EncoderConfig static_config = config_.encoder;
    static_config.seed = config_.encoder.seed ^ 0x9292;
    static_encoder_ = std::make_unique<ContextEncoder>(
        corpus.tokens().size(), corpus.entity_count(), static_config);
    static_encoder_->SetTokenWeights(
        ComputeSifTokenWeights(corpus.tokens()));
    EntityPredictionTrainConfig train = config_.weak_encoder_train;
    train.epochs = 1;
    train.learning_rate = 0.03f;
    train.seed = config_.weak_encoder_train.seed ^ 0x11;
    TrainEntityPrediction(corpus, *static_encoder_, train);
    static_store_ = std::make_unique<EntityStore>(EntityStore::Build(
        corpus, *static_encoder_, dataset_.candidates, config_.store));
  }
  return *static_store_;
}

const EntityStore& Pipeline::contrast_store() {
  if (contrast_store_ == nullptr) {
    UW_SPAN("pipeline.contrast_store");
    contrast_store_ = BuildContrastStore(config_.contrast, config_.miner);
  }
  return *contrast_store_;
}

std::unique_ptr<EntityStore> Pipeline::BuildContrastStore(
    const ContrastiveTrainConfig& train, const MinerConfig& miner) {
  // Mine training data with the base RetExpan recall stage + oracle.
  RetExpan base(store_.get(), &dataset_.candidates);
  const ContrastiveData data =
      MineContrastiveData(world_, dataset_, base, *oracle_, miner);
  // Tune a clone of the main encoder; alternate with entity prediction to
  // preserve the underlying semantics (paper appendix B).
  auto tuned = std::make_unique<ContextEncoder>(encoder_->Clone());
  for (int epoch = 0; epoch < train.epochs; ++epoch) {
    ContrastiveTrainConfig one_epoch = train;
    one_epoch.epochs = 1;
    one_epoch.seed = train.seed + static_cast<uint64_t>(epoch);
    TrainContrastive(world_.corpus, *tuned, data, one_epoch);
    EntityPredictionTrainConfig refresh = config_.encoder_train;
    refresh.epochs = 1;
    refresh.seed = config_.encoder_train.seed + 101 +
                   static_cast<uint64_t>(epoch);
    refresh.learning_rate = config_.encoder_train.min_learning_rate;
    TrainEntityPrediction(world_.corpus, *tuned, refresh);
  }
  return std::make_unique<EntityStore>(EntityStore::Build(
      world_.corpus, *tuned, dataset_.candidates, config_.store));
}

const EntityStore& Pipeline::ra_store(RaSource source) {
  const size_t index = static_cast<size_t>(source);
  UW_CHECK_LT(index, 4u);
  if (ra_stores_[index] == nullptr) {
    UW_SPAN("pipeline.ra_store");
    // Retrain a fresh encoder with the augmentation prefixes applied to
    // every training sentence, then extract representations with the same
    // prefixes (paper §5.1.3: "during both training and inference").
    const auto prefixes = std::make_shared<
        std::vector<std::vector<TokenId>>>(
        BuildEntityPrefixes(world_, source));
    const Corpus& corpus = world_.corpus;
    EncoderConfig ra_config = config_.encoder;
    ra_config.seed = config_.encoder.seed ^ (0x77AA + index);
    ContextEncoder encoder(corpus.tokens().size(), corpus.entity_count(),
                           ra_config);
    encoder.SetTokenWeights(ComputeSifTokenWeights(corpus.tokens()));
    EntityPredictionTrainConfig train = config_.encoder_train;
    train.entity_prefixes = prefixes.get();
    TrainEntityPrediction(corpus, encoder, train);
    EntityStoreConfig store_config = config_.store;
    store_config.entity_prefixes = prefixes.get();
    ra_stores_[index] = std::make_unique<EntityStore>(EntityStore::Build(
        corpus, encoder, dataset_.candidates, store_config));
  }
  return *ra_stores_[index];
}

const std::vector<SparseVec>& Pipeline::distributions() {
  if (distributions_ == nullptr) {
    UW_SPAN("pipeline.distributions");
    EntityStoreConfig config = config_.store;
    config.max_sentences_per_entity =
        std::min(config.max_sentences_per_entity, 3);
    config.distribution_temperature = 6.0f;
    distributions_ = std::make_unique<std::vector<SparseVec>>(
        BuildSparseDistributions(world_.corpus, *encoder_,
                                 dataset_.candidates, config,
                                 config_.distribution_top_k));
  }
  return *distributions_;
}

const IvfIndex& Pipeline::ann_index() {
  if (ann_index_ == nullptr) {
    UW_SPAN("pipeline.ann_index");
    // Keyed on the store's provenance plus the ANN config: a different
    // store, generator, encoder, or IVF knob is a different index.
    const uint64_t ann_key =
        store_key_ != 0
            ? CombineFingerprints({store_key_,
                                   FingerprintConfig(config_.ann)})
            : 0;
    ArtifactCache& cache = ArtifactCache::Global();
    if (ann_key != 0) {
      UW_SPAN("cache.load_ann");
      auto cached = TryLoadCached(
          cache, "ann", ann_key, [this](const std::string& path) {
            return LoadAnnIndexSnapshot(path, config_.ann);
          });
      if (cached.has_value()) {
        ann_index_ = std::make_unique<IvfIndex>(std::move(*cached));
        return *ann_index_;
      }
    }
    ann_index_ = std::make_unique<IvfIndex>(
        IvfIndex::Build(*store_, config_.ann));
    if (ann_key != 0) {
      StoreCached(cache, "ann", ann_key,
                  [this](const std::string& path) {
                    return SaveAnnIndexSnapshot(*ann_index_, path);
                  });
    }
  }
  return *ann_index_;
}

std::vector<size_t> ShardCandidatePositions(size_t candidate_count,
                                            const ShardSpec& spec) {
  UW_CHECK(spec.valid()) << "bad shard spec " << spec.index << "/"
                         << spec.count;
  std::vector<size_t> positions;
  positions.reserve(candidate_count / static_cast<size_t>(spec.count) + 1);
  for (size_t p = static_cast<size_t>(spec.index); p < candidate_count;
       p += static_cast<size_t>(spec.count)) {
    positions.push_back(p);
  }
  return positions;
}

uint64_t Pipeline::ShardStoreKey(const ShardSpec& spec) const {
  if (store_key_ == 0) return 0;
  // Distinct type tag so a shard store never collides with the full
  // store or another derived artifact under the same provenance.
  return CombineFingerprints({store_key_, 0x5348415244ull /* "SHARD" */,
                              static_cast<uint64_t>(spec.count),
                              static_cast<uint64_t>(spec.index)});
}

std::unique_ptr<EntityStore> Pipeline::BuildShardStore(
    const ShardSpec& spec) {
  UW_CHECK(spec.valid()) << "bad shard spec " << spec.index << "/"
                         << spec.count;
  UW_SPAN("pipeline.build_shard_store");
  ArtifactCache& cache = ArtifactCache::Global();
  const uint64_t key = ShardStoreKey(spec);
  if (key != 0) {
    auto cached = TryLoadCached(cache, "shard_store", key,
                                [](const std::string& path) {
                                  return LoadEntityStoreSnapshot(path);
                                });
    if (cached.has_value()) {
      return std::make_unique<EntityStore>(std::move(*cached));
    }
  }
  // Rows for the shard's candidate slice plus every seed entity of every
  // dataset query. Seed replication keeps SeedCentroidOf bit-exact on
  // every shard: the centroid folds the same unit rows in the same
  // argument order as the full store.
  std::vector<Vec> hidden(store_->slot_count());
  int64_t rows = 0;
  const auto keep = [&](EntityId id) {
    if (id < 0 || static_cast<size_t>(id) >= hidden.size()) return;
    if (!store_->Has(id) || !hidden[static_cast<size_t>(id)].empty()) return;
    const std::span<const float> row = store_->HiddenOf(id);
    hidden[static_cast<size_t>(id)].assign(row.begin(), row.end());
    ++rows;
  };
  for (const size_t position :
       ShardCandidatePositions(dataset_.candidates.size(), spec)) {
    keep(dataset_.candidates[position]);
  }
  for (const Query& query : dataset_.queries) {
    for (const EntityId id : query.pos_seeds) keep(id);
    for (const EntityId id : query.neg_seeds) keep(id);
  }
  obs::GetCounter("pipeline.shard_store_builds").Increment();
  obs::GetGauge("pipeline.shard_store_rows").Set(rows);
  auto shard_store = std::make_unique<EntityStore>(
      EntityStore::Restore(store_->dim(), std::move(hidden)));
  if (key != 0) {
    StoreCached(cache, "shard_store", key,
                [&shard_store](const std::string& path) {
                  return SaveEntityStoreSnapshot(*shard_store, path);
                });
  }
  return shard_store;
}

std::unique_ptr<EntityStore> Pipeline::BuildEncoderStore(
    const EntityPredictionTrainConfig& train) {
  const Corpus& corpus = world_.corpus;
  ContextEncoder encoder(corpus.tokens().size(), corpus.entity_count(),
                         config_.encoder);
  encoder.SetTokenWeights(ComputeSifTokenWeights(corpus.tokens()));
  TrainEntityPrediction(corpus, encoder, train);
  return std::make_unique<EntityStore>(EntityStore::Build(
      corpus, encoder, dataset_.candidates, config_.store));
}

std::unique_ptr<HybridLm> Pipeline::BuildLmVariant(
    const HybridLmConfig& config, double pretrain_fraction) const {
  auto lm = std::make_unique<HybridLm>(world_.corpus.tokens().size(),
                                       config);
  lm->SetStopTokens(StopTokens());
  TrainLmOn(*lm, pretrain_fraction);
  return lm;
}

std::unique_ptr<RetExpan> Pipeline::MakeRetExpan(RetExpanConfig config) {
  // Recall knobs: UW_ANN_ENABLE attaches the IVF first stage to the main
  // store's expander; UW_ANN_NPROBE widens/narrows its probe (explicit
  // config wins, matching the GenExpan budget knobs). The contrast/RA
  // variants rank with different stores, so they never get this index.
  const bool ann = AnnEnabledFromEnv();
  if (ann && config.ann_nprobe <= 0) {
    // 0 (unset or invalid) keeps the index's configured default.
    config.ann_nprobe = EnvInt("UW_ANN_NPROBE", 0, 1);
  }
  auto expander = std::make_unique<RetExpan>(
      store_.get(), &dataset_.candidates, config);
  if (ann) expander->SetAnnIndex(&ann_index());
  return expander;
}

std::unique_ptr<RetExpan> Pipeline::MakeRetExpanContrast(
    RetExpanConfig config) {
  return std::make_unique<RetExpan>(&contrast_store(),
                                    &dataset_.candidates, config,
                                    "RetExpan+Contrast");
}

std::unique_ptr<RetExpan> Pipeline::MakeRetExpanRa(RaSource source,
                                                   RetExpanConfig config) {
  return std::make_unique<RetExpan>(
      &ra_store(source), &dataset_.candidates, config,
      std::string("RetExpan+RA(") + RaSourceName(source) + ")");
}

std::unique_ptr<GenExpan> Pipeline::MakeGenExpan(GenExpanConfig config) {
  // Standing anytime budgets; explicit config values win over the env.
  if (config.time_budget_ms <= 0) {
    config.time_budget_ms = EnvInt("UW_GENEXPAN_TIME_BUDGET_MS", 0, 1);
  }
  if (config.max_expansions <= 0) {
    config.max_expansions = EnvInt("UW_GENEXPAN_MAX_EXPANSIONS", 0, 1);
  }
  std::string name = "GenExpan";
  if (config.cot != CotMode::kNone) {
    name += std::string("+CoT(") + CotModeName(config.cot) + ")";
  }
  if (config.retrieval_augmentation) {
    name += std::string("+RA(") + RaSourceName(config.ra_source) + ")";
  }
  if (!config.use_prefix_constraint) name += "-PrefixConstraint";
  return std::make_unique<GenExpan>(&world_, lm_.get(), trie_.get(),
                                    similarity_.get(), oracle_.get(),
                                    config, std::move(name));
}

std::unique_ptr<ProbExpan> Pipeline::MakeProbExpan(ProbExpanConfig config) {
  return std::make_unique<ProbExpan>(&distributions(),
                                     &dataset_.candidates, config);
}

std::unique_ptr<SetExpan> Pipeline::MakeSetExpan(SetExpanConfig config) {
  return std::make_unique<SetExpan>(&world_.corpus, &dataset_.candidates,
                                    config);
}

std::unique_ptr<CaSE> Pipeline::MakeCaSE(CaseConfig config) {
  return std::make_unique<CaSE>(&world_.corpus, &static_store(),
                                &dataset_.candidates, config);
}

std::unique_ptr<CgExpan> Pipeline::MakeCgExpan(CgExpanConfig config) {
  return std::make_unique<CgExpan>(&world_, &weak_store(),
                                   &lm_->association(),
                                   &dataset_.candidates, config);
}

std::unique_ptr<Gpt4Baseline> Pipeline::MakeGpt4Baseline() {
  return std::make_unique<Gpt4Baseline>(oracle_.get(), &dataset_);
}

std::unique_ptr<InteractionExpander> Pipeline::MakeInteraction(
    InteractionOrder order, InteractionConfig config) {
  return std::make_unique<InteractionExpander>(
      order, &world_, store_.get(), &dataset_.candidates, lm_.get(),
      similarity_.get(), oracle_.get(), config);
}

}  // namespace ultrawiki
