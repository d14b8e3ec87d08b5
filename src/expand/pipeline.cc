#include "expand/pipeline.h"

#include <string_view>
#include <type_traits>
#include <utility>

#include "common/env.h"
#include "common/hash.h"
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

namespace {

uint64_t Tag(std::string_view name) {
  Fnv1a hash;
  hash.Mix(name);
  return hash.digest();
}

/// Artifact-cache kind of a substrate; also its key tag.
const char* SubstrateName(Substrate substrate) {
  switch (substrate) {
    case Substrate::kEncoder: return "encoder";
    case Substrate::kStore: return "store";
    case Substrate::kWeakStore: return "weak_store";
    case Substrate::kStaticStore: return "static_store";
    case Substrate::kContrastStore: return "contrast_store";
    case Substrate::kRaStore: return "ra_store";
    case Substrate::kDistributions: return "distributions";
  }
  return "unknown";
}

/// Encoder and entity-prediction configs of a store retrained from
/// scratch (weak, static, RA): pure functions of the pipeline config.
struct Retraining {
  EncoderConfig encoder;
  EntityPredictionTrainConfig train;
};

Retraining RetrainingFor(const PipelineConfig& config, Substrate substrate,
                         RaSource source) {
  Retraining recipe{config.encoder, config.encoder_train};
  switch (substrate) {
    case Substrate::kWeakStore:
      recipe.encoder.seed ^= 0x5151;
      recipe.train = config.weak_encoder_train;
      break;
    case Substrate::kStaticStore:
      recipe.encoder.seed ^= 0x9292;
      recipe.train = config.weak_encoder_train;
      recipe.train.epochs = 1;
      recipe.train.learning_rate = 0.03f;
      recipe.train.seed = config.weak_encoder_train.seed ^ 0x11;
      break;
    case Substrate::kRaStore:
      recipe.encoder.seed ^= 0x77AA + static_cast<uint64_t>(source);
      break;
    default:
      UW_CHECK(false) << SubstrateName(substrate) << " is not retrained";
  }
  return recipe;
}

/// Loads artifact `kind` under `key` from the artifact cache, or builds
/// it and stores it. Key 0 (unknown provenance) bypasses the cache.
template <typename Load, typename Build, typename Save>
std::invoke_result_t<Build> LoadOrBuild(std::string_view kind, uint64_t key,
                                        Load&& load, Build&& build,
                                        Save&& save) {
  ArtifactCache& cache = ArtifactCache::Global();
  if (key != 0) {
    std::string span = "cache.load_";
    span += kind;
    obs::Span load_span(span.c_str());
    auto cached = TryLoadCached(cache, kind, key, load);
    if (cached.has_value()) return std::move(*cached);
  }
  std::invoke_result_t<Build> built = build();
  if (key != 0) {
    StoreCached(cache, kind, key, [&](const std::string& path) {
      return save(built, path);
    });
  }
  return built;
}

}  // namespace

uint64_t SubstrateKey(const PipelineConfig& config,
                      uint64_t world_fingerprint, Substrate substrate,
                      RaSource source) {
  if (world_fingerprint == 0) return 0;
  const uint64_t encoder_key = CombineFingerprints(
      {world_fingerprint, FingerprintConfig(config.encoder),
       FingerprintConfig(config.encoder_train)});
  // The store's build set is the dataset's candidate vocabulary.
  const uint64_t store_key =
      CombineFingerprints({encoder_key, FingerprintConfig(config.store),
                           FingerprintConfig(config.dataset)});
  const uint64_t tag = Tag(SubstrateName(substrate));
  switch (substrate) {
    case Substrate::kEncoder:
      return encoder_key;
    case Substrate::kStore:
      return store_key;
    case Substrate::kWeakStore:
    case Substrate::kStaticStore:
    case Substrate::kRaStore: {
      const Retraining recipe = RetrainingFor(config, substrate, source);
      return CombineFingerprints(
          {world_fingerprint, tag, FingerprintConfig(recipe.encoder),
           FingerprintConfig(recipe.train), FingerprintConfig(config.store),
           FingerprintConfig(config.dataset),
           substrate == Substrate::kRaStore ? static_cast<uint64_t>(source)
                                            : 0});
    }
    case Substrate::kContrastStore:
      // Tunes a clone of the main encoder, refreshed with encoder_train.
      return CombineFingerprints(
          {store_key, tag, FingerprintConfig(config.contrast),
           FingerprintConfig(config.miner), FingerprintConfig(config.oracle),
           FingerprintConfig(config.encoder_train)});
    case Substrate::kDistributions:
      return CombineFingerprints(
          {store_key, tag,
           static_cast<uint64_t>(config.distribution_top_k)});
  }
  return 0;
}

Pipeline::Pipeline(const PipelineConfig& config, GeneratedWorld world)
    : config_(config), world_(std::move(world)) {}

Pipeline Pipeline::Build(const PipelineConfig& config) {
  UW_SPAN("pipeline.build");
  // World: loaded from the snapshot cache when a previous run generated it
  // from an identical GeneratorConfig, else generated and cached.
  Pipeline pipeline(
      config, LoadOrBuild(
                  "world", FingerprintConfig(config.generator),
                  LoadWorldSnapshot,
                  [&config] {
                    UW_SPAN("generate_world");
                    return GenerateWorld(config.generator);
                  },
                  SaveWorldSnapshot));
  {
    UW_SPAN("build_dataset");
    auto built = BuildDataset(pipeline.world_, config.dataset);
    UW_CHECK(built.ok()) << built.status();
    pipeline.dataset_ = std::move(built).value();
  }

  pipeline.oracle_ =
      std::make_unique<LlmOracle>(&pipeline.world_, config.oracle);

  // Main encoder (entity-prediction training over the full corpus) and
  // its store. A world of unknown provenance (fingerprint 0, e.g. loaded
  // from TSV) has SubstrateKey 0 and is never cached.
  const uint64_t world_fingerprint = pipeline.world_.fingerprint;
  pipeline.encoder_ = std::make_unique<ContextEncoder>(LoadOrBuild(
      "encoder", SubstrateKey(config, world_fingerprint, Substrate::kEncoder),
      LoadEncoder,
      [&pipeline, &config] {
        UW_SPAN("train_encoder");
        return pipeline.TrainEncoder(config.encoder, config.encoder_train);
      },
      SaveEncoder));
  pipeline.store_key_ =
      SubstrateKey(config, world_fingerprint, Substrate::kStore);
  pipeline.store_ = std::make_unique<EntityStore>(LoadOrBuild(
      "store", pipeline.store_key_, LoadEntityStoreSnapshot,
      [&pipeline, &config] {
        UW_SPAN("entity_store");
        return EntityStore::Build(pipeline.world_.corpus, *pipeline.encoder_,
                                  pipeline.dataset_.candidates, config.store);
      },
      SaveEntityStoreSnapshot));

  const Corpus& corpus = pipeline.world_.corpus;
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

ContextEncoder Pipeline::TrainEncoder(
    const EncoderConfig& encoder,
    const EntityPredictionTrainConfig& train) const {
  const Corpus& corpus = world_.corpus;
  ContextEncoder trained(corpus.tokens().size(), corpus.entity_count(),
                         encoder);
  trained.SetTokenWeights(ComputeSifTokenWeights(corpus.tokens()));
  TrainEntityPrediction(corpus, trained, train);
  return trained;
}

EntityStore Pipeline::TrainStore(const EncoderConfig& encoder,
                                 const EntityPredictionTrainConfig& train,
                                 const EntityStoreConfig& store) const {
  return EntityStore::Build(world_.corpus, TrainEncoder(encoder, train),
                            dataset_.candidates, store);
}

std::unique_ptr<EntityStore> Pipeline::RetrainedStore(Substrate substrate,
                                                      RaSource source) {
  const Retraining recipe = RetrainingFor(config_, substrate, source);
  return std::make_unique<EntityStore>(LoadOrBuild(
      SubstrateName(substrate),
      SubstrateKey(config_, world_.fingerprint, substrate, source),
      LoadEntityStoreSnapshot,
      [&] {
        std::vector<std::vector<TokenId>> prefixes;
        EntityPredictionTrainConfig train = recipe.train;
        EntityStoreConfig store = config_.store;
        if (substrate == Substrate::kRaStore) {
          // The augmentation prefixes apply to every training sentence and
          // to extraction (paper §5.1.3: "during both training and
          // inference").
          prefixes = BuildEntityPrefixes(world_, source);
          train.entity_prefixes = &prefixes;
          store.entity_prefixes = &prefixes;
        }
        return TrainStore(recipe.encoder, train, store);
      },
      SaveEntityStoreSnapshot));
}

const EntityStore& Pipeline::weak_store() {
  if (weak_store_ == nullptr) {
    UW_SPAN("pipeline.weak_store");
    weak_store_ = RetrainedStore(Substrate::kWeakStore);
  }
  return *weak_store_;
}

const EntityStore& Pipeline::static_store() {
  if (static_store_ == nullptr) {
    UW_SPAN("pipeline.static_store");
    static_store_ = RetrainedStore(Substrate::kStaticStore);
  }
  return *static_store_;
}

const EntityStore& Pipeline::contrast_store() {
  if (contrast_store_ == nullptr) {
    UW_SPAN("pipeline.contrast_store");
    contrast_store_ = std::make_unique<EntityStore>(LoadOrBuild(
        "contrast_store",
        SubstrateKey(config_, world_.fingerprint, Substrate::kContrastStore),
        LoadEntityStoreSnapshot,
        [this] {
          return std::move(
              *BuildContrastStore(config_.contrast, config_.miner));
        },
        SaveEntityStoreSnapshot));
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
    ra_stores_[index] = RetrainedStore(Substrate::kRaStore, source);
  }
  return *ra_stores_[index];
}

const std::vector<SparseVec>& Pipeline::distributions() {
  if (distributions_ == nullptr) {
    UW_SPAN("pipeline.distributions");
    distributions_ = std::make_unique<std::vector<SparseVec>>(LoadOrBuild(
        "distributions",
        SubstrateKey(config_, world_.fingerprint, Substrate::kDistributions),
        LoadSparseDistributionsSnapshot,
        [this] {
          EntityStoreConfig config = config_.store;
          config.max_sentences_per_entity =
              std::min(config.max_sentences_per_entity, 3);
          config.distribution_temperature = 6.0f;
          return BuildSparseDistributions(world_.corpus, *encoder_,
                                          dataset_.candidates, config,
                                          config_.distribution_top_k);
        },
        SaveSparseDistributionsSnapshot));
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
    ann_index_ = std::make_unique<IvfIndex>(LoadOrBuild(
        "ann", ann_key,
        [this](const std::string& path) {
          return LoadAnnIndexSnapshot(path, config_.ann);
        },
        [this] { return IvfIndex::Build(*store_, config_.ann); },
        SaveAnnIndexSnapshot));
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
  return std::make_unique<EntityStore>(LoadOrBuild(
      "shard_store", ShardStoreKey(spec), LoadEntityStoreSnapshot,
      [this, &spec] {
        // Rows for the shard's candidate slice plus every seed entity of
        // every dataset query. Seed replication keeps SeedCentroidOf
        // bit-exact on every shard: the centroid folds the same unit rows
        // in the same argument order as the full store.
        std::vector<Vec> hidden(store_->slot_count());
        int64_t rows = 0;
        const auto keep = [&](EntityId id) {
          if (id < 0 || static_cast<size_t>(id) >= hidden.size()) return;
          if (!store_->Has(id) || !hidden[static_cast<size_t>(id)].empty()) {
            return;
          }
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
        return EntityStore::Restore(store_->dim(), std::move(hidden));
      },
      SaveEntityStoreSnapshot));
}

std::unique_ptr<EntityStore> Pipeline::BuildEncoderStore(
    const EntityPredictionTrainConfig& train) {
  return std::make_unique<EntityStore>(
      TrainStore(config_.encoder, train, config_.store));
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
