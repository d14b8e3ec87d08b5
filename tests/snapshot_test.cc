#include "io/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "embedding/trainer.h"
#include "expand/pipeline.h"
#include "index/bm25.h"
#include "io/artifact_cache.h"
#include "io/model_io.h"
#include "obs/metrics.h"

namespace ultrawiki {
namespace {

GeneratorConfig TinyConfig() {
  GeneratorConfig config;
  config.seed = 91;
  config.scale = 0.05;
  config.min_entities_per_class = 20;
  config.background_entity_count = 30;
  config.sentences_per_entity = 6;
  config.list_sentences_per_value = 2;
  config.similarity_sentences_per_entity = 1.0;
  return config;
}

std::string ReadFileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::filesystem::path& path,
                    const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Same dim, same slots, and bit-identical hidden rows and norms.
void ExpectStoresBitIdentical(const EntityStore& got, const EntityStore& want,
                              const char* what) {
  EXPECT_EQ(got.dim(), want.dim()) << what;
  ASSERT_EQ(got.slot_count(), want.slot_count()) << what;
  for (EntityId id = 0; id < static_cast<EntityId>(want.slot_count());
       ++id) {
    ASSERT_EQ(got.Has(id), want.Has(id)) << what << " slot " << id;
    const auto want_row = want.HiddenOf(id);
    const auto got_row = got.HiddenOf(id);
    ASSERT_EQ(got_row.size(), want_row.size()) << what << " slot " << id;
    EXPECT_TRUE(std::equal(got_row.begin(), got_row.end(), want_row.begin()))
        << what << " slot " << id;
    EXPECT_EQ(got.NormOf(id), want.NormOf(id)) << what << " slot " << id;
  }
}

// Same rows, bit-identical sparse entries and norms.
void ExpectDistributionsBitIdentical(const std::vector<SparseVec>& got,
                                     const std::vector<SparseVec>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t row = 0; row < want.size(); ++row) {
    ASSERT_EQ(got[row].entries.size(), want[row].entries.size()) << row;
    for (size_t i = 0; i < want[row].entries.size(); ++i) {
      EXPECT_EQ(got[row].entries[i].first, want[row].entries[i].first)
          << row;
      EXPECT_EQ(std::bit_cast<uint32_t>(got[row].entries[i].second),
                std::bit_cast<uint32_t>(want[row].entries[i].second))
          << row;
    }
    EXPECT_EQ(std::bit_cast<uint32_t>(got[row].norm),
              std::bit_cast<uint32_t>(want[row].norm))
        << row;
  }
}

// Every test in `mutations` changes one field of `base`; each must move
// the fingerprint.
template <typename Config>
void ExpectEveryFieldMovesFingerprint(
    const Config& base,
    const std::vector<std::function<void(Config&)>>& mutations) {
  for (size_t i = 0; i < mutations.size(); ++i) {
    Config changed = base;
    mutations[i](changed);
    EXPECT_NE(FingerprintConfig(changed), FingerprintConfig(base))
        << "field " << i;
  }
}

class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new GeneratedWorld(GenerateWorld(TinyConfig()));
    dir_ = std::filesystem::temp_directory_path() / "ultrawiki_snapshot_test";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(dir_);
    delete world_;
    world_ = nullptr;
  }

  static GeneratedWorld* world_;
  static std::filesystem::path dir_;
};

GeneratedWorld* SnapshotTest::world_ = nullptr;
std::filesystem::path SnapshotTest::dir_;

TEST_F(SnapshotTest, CorpusRoundTrip) {
  const auto path = dir_ / "corpus.uws";
  ASSERT_TRUE(SaveCorpusSnapshot(world_->corpus, path.string()).ok());
  auto loaded = LoadCorpusSnapshot(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const Corpus& corpus = *loaded;

  ASSERT_EQ(corpus.tokens().size(), world_->corpus.tokens().size());
  for (TokenId t = 0; t < static_cast<TokenId>(corpus.tokens().size());
       ++t) {
    EXPECT_EQ(corpus.tokens().TokenOf(t), world_->corpus.tokens().TokenOf(t));
    EXPECT_EQ(corpus.tokens().CountOf(t), world_->corpus.tokens().CountOf(t));
  }
  ASSERT_EQ(corpus.entity_count(), world_->corpus.entity_count());
  for (EntityId id = 0;
       id < static_cast<EntityId>(corpus.entity_count()); ++id) {
    EXPECT_EQ(corpus.entity(id).name, world_->corpus.entity(id).name);
    EXPECT_EQ(corpus.entity(id).name_tokens,
              world_->corpus.entity(id).name_tokens);
    EXPECT_EQ(corpus.entity(id).class_id,
              world_->corpus.entity(id).class_id);
    EXPECT_EQ(corpus.entity(id).is_long_tail,
              world_->corpus.entity(id).is_long_tail);
    EXPECT_EQ(corpus.entity(id).attribute_values,
              world_->corpus.entity(id).attribute_values);
  }
  ASSERT_EQ(corpus.sentence_count(), world_->corpus.sentence_count());
  for (size_t s = 0; s < corpus.sentence_count(); ++s) {
    EXPECT_EQ(corpus.sentence(s).entity, world_->corpus.sentence(s).entity);
    EXPECT_EQ(corpus.sentence(s).tokens, world_->corpus.sentence(s).tokens);
    EXPECT_EQ(corpus.sentence(s).mention_begin,
              world_->corpus.sentence(s).mention_begin);
    EXPECT_EQ(corpus.sentence(s).mention_len,
              world_->corpus.sentence(s).mention_len);
  }
  EXPECT_EQ(corpus.auxiliary_sentences(),
            world_->corpus.auxiliary_sentences());
  // The per-entity sentence index is rebuilt.
  EXPECT_EQ(corpus.SentencesOf(0), world_->corpus.SentencesOf(0));
}

TEST_F(SnapshotTest, WorldRoundTrip) {
  const auto path = dir_ / "world.uws";
  ASSERT_TRUE(SaveWorldSnapshot(*world_, path.string()).ok());
  auto loaded = LoadWorldSnapshot(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const GeneratedWorld& world = *loaded;

  EXPECT_EQ(world.fingerprint, world_->fingerprint);
  EXPECT_NE(world.fingerprint, 0u);
  ASSERT_EQ(world.schema.size(), world_->schema.size());
  for (size_t c = 0; c < world.schema.size(); ++c) {
    EXPECT_EQ(world.schema[c].name, world_->schema[c].name);
    EXPECT_EQ(world.schema[c].singular_noun,
              world_->schema[c].singular_noun);
    EXPECT_EQ(world.schema[c].topic_tokens, world_->schema[c].topic_tokens);
    ASSERT_EQ(world.schema[c].attributes.size(),
              world_->schema[c].attributes.size());
    for (size_t a = 0; a < world.schema[c].attributes.size(); ++a) {
      EXPECT_EQ(world.schema[c].attributes[a].name,
                world_->schema[c].attributes[a].name);
      EXPECT_EQ(world.schema[c].attributes[a].values,
                world_->schema[c].attributes[a].values);
      EXPECT_EQ(world.schema[c].attributes[a].clue_tokens,
                world_->schema[c].attributes[a].clue_tokens);
      EXPECT_EQ(world.schema[c].attributes[a].clue_variants,
                world_->schema[c].attributes[a].clue_variants);
    }
  }
  EXPECT_EQ(world.background_entities, world_->background_entities);
  ASSERT_EQ(world.kb.size(), world_->kb.size());
  for (EntityId id = 0; id < static_cast<EntityId>(world.kb.size()); ++id) {
    EXPECT_EQ(world.kb.IntroductionOf(id), world_->kb.IntroductionOf(id));
    EXPECT_EQ(world.kb.WikidataAttributesOf(id),
              world_->kb.WikidataAttributesOf(id));
  }
  EXPECT_EQ(world.entities_by_value, world_->entities_by_value);
  EXPECT_EQ(world.corpus.sentence_count(), world_->corpus.sentence_count());
}

TEST_F(SnapshotTest, WorldSnapshotBytesAreDeterministic) {
  const auto a = dir_ / "world_a.uws";
  const auto b = dir_ / "world_b.uws";
  ASSERT_TRUE(SaveWorldSnapshot(*world_, a.string()).ok());
  ASSERT_TRUE(SaveWorldSnapshot(*world_, b.string()).ok());
  EXPECT_EQ(ReadFileBytes(a), ReadFileBytes(b));
}

/// A small corpus whose term-5 list spans multiple compressed blocks.
InvertedIndex BuildIndexForSnapshotTests() {
  InvertedIndex index;
  index.AddDocument({1, 2, 2, 3});
  index.AddDocument({2, 3, 3, 3, 7});
  index.AddDocument({});
  index.AddDocument({7, 1});
  for (int d = 0; d < 300; ++d) {
    index.AddDocument({5, 5, 3});
  }
  return index;
}

TEST_F(SnapshotTest, IndexRoundTrip) {
  InvertedIndex index = BuildIndexForSnapshotTests();
  index.Freeze();

  const auto path = dir_ / "index.uws";
  ASSERT_TRUE(SaveIndexSnapshot(index, path.string()).ok());
  auto loaded = LoadIndexSnapshot(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(loaded->is_frozen());

  ASSERT_EQ(loaded->document_count(), index.document_count());
  for (DocId d = 0; d < static_cast<DocId>(index.document_count()); ++d) {
    EXPECT_EQ(loaded->DocumentLength(d), index.DocumentLength(d));
  }
  EXPECT_DOUBLE_EQ(loaded->AverageDocumentLength(),
                   index.AverageDocumentLength());
  EXPECT_EQ(loaded->compressed_payload(), index.compressed_payload());
  for (const TokenId term : {1, 2, 3, 5, 7, 99}) {
    EXPECT_EQ(loaded->DocumentFrequency(term), index.DocumentFrequency(term));
    EXPECT_EQ(loaded->DecodedPostings(term), index.DecodedPostings(term));
  }

  // The restored index must search bit-identically to the saved one.
  Bm25Scorer saved_scorer(&index);
  Bm25Scorer loaded_scorer(&*loaded);
  for (const std::vector<TokenId>& query :
       {std::vector<TokenId>{2, 3}, std::vector<TokenId>{5},
        std::vector<TokenId>{1, 5, 7}}) {
    ASSERT_EQ(loaded_scorer.Search(query, 10), saved_scorer.Search(query, 10));
    ASSERT_EQ(loaded_scorer.ScoreAll(query), saved_scorer.ScoreAll(query));
  }

  // Unfrozen indexes cannot be saved: the snapshot is the frozen form.
  InvertedIndex unfrozen;
  unfrozen.AddDocument({1});
  const auto status =
      SaveIndexSnapshot(unfrozen, (dir_ / "unfrozen.uws").string());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotTest, IndexRejectsUntaggedLegacyRawFormat) {
  // Hand-write the retired pre-compression payload (doc lengths +
  // explicit (doc, tf) posting pairs), exactly what old artifact caches
  // contain. It carries no version tag, so the load fails closed and the
  // artifact cache treats the entry as a miss.
  InvertedIndex reference = BuildIndexForSnapshotTests();
  SnapshotWriter writer;
  writer.PutU64(reference.document_count());
  for (DocId d = 0; d < static_cast<DocId>(reference.document_count()); ++d) {
    writer.PutI32(reference.DocumentLength(d));
  }
  const std::vector<TokenId> terms = {1, 2, 3, 5, 7};
  writer.PutU64(terms.size());
  for (const TokenId term : terms) {
    const std::vector<Posting>& postings = reference.PostingsOf(term);
    ASSERT_FALSE(postings.empty());
    writer.PutI32(term);
    writer.PutU64(postings.size());
    for (const Posting& posting : postings) {
      writer.PutI32(posting.doc);
      writer.PutI32(posting.term_frequency);
    }
  }
  const auto path = dir_ / "legacy_index.uws";
  ASSERT_TRUE(
      WriteSnapshotFile(path.string(), SnapshotKind::kInvertedIndex, writer)
          .ok());

  auto loaded = LoadIndexSnapshot(path.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
  EXPECT_NE(loaded.status().message().find("untagged index payload"),
            std::string::npos)
      << loaded.status();
}

TEST_F(SnapshotTest, IndexRejectsUnknownPayloadVersion) {
  // A tagged payload with a version this build does not understand must
  // fail closed.
  SnapshotWriter writer;
  writer.PutU64(kIndexPayloadTagBase | (kIndexPayloadVersion + 1));
  writer.PutU64(0);  // arbitrary trailing bytes; the tag alone must reject
  const auto path = dir_ / "future_index.uws";
  ASSERT_TRUE(
      WriteSnapshotFile(path.string(), SnapshotKind::kInvertedIndex, writer)
          .ok());
  auto loaded = LoadIndexSnapshot(path.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
  EXPECT_NE(loaded.status().message().find("unsupported index payload"),
            std::string::npos);
}

TEST_F(SnapshotTest, EntityStoreRoundTrip) {
  ContextEncoder encoder(world_->corpus.tokens().size(),
                         world_->corpus.entity_count(), EncoderConfig{});
  encoder.SetTokenWeights(ComputeSifTokenWeights(world_->corpus.tokens()));
  const std::vector<EntityId> entities = {0, 1, 2, 5, 8};
  const EntityStore store =
      EntityStore::Build(world_->corpus, encoder, entities, {});

  const auto path = dir_ / "store.uws";
  ASSERT_TRUE(SaveEntityStoreSnapshot(store, path.string()).ok());
  auto loaded = LoadEntityStoreSnapshot(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ(loaded->dim(), store.dim());
  ASSERT_EQ(loaded->slot_count(), store.slot_count());
  for (EntityId id = 0; id < static_cast<EntityId>(store.slot_count());
       ++id) {
    EXPECT_EQ(loaded->Has(id), store.Has(id));
    // Bit-exact float round trip of rows and the rebuilt norm cache.
    const auto want = store.HiddenOf(id);
    const auto got = loaded->HiddenOf(id);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
    EXPECT_EQ(loaded->NormOf(id), store.NormOf(id));
  }
  // A restored store must score bit-identically to the freshly built one:
  // the norm cache and unit rows are rebuilt with the same deterministic
  // kernels, per-pair and batched alike.
  for (EntityId a = 0; a < static_cast<EntityId>(store.slot_count()); ++a) {
    for (EntityId b = a; b < static_cast<EntityId>(store.slot_count());
         ++b) {
      EXPECT_EQ(loaded->Similarity(a, b), store.Similarity(a, b));
    }
  }
  std::vector<EntityId> all(store.slot_count());
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<EntityId>(i);
  }
  const std::vector<EntityId> seeds = {0, 1, 2};
  const std::vector<float> fresh = store.SeedCentroidScores(seeds, all);
  const std::vector<float> restored = loaded->SeedCentroidScores(seeds, all);
  ASSERT_EQ(fresh.size(), restored.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(fresh[i], restored[i]) << "candidate slot " << i;
  }
}

TEST_F(SnapshotTest, EncoderRejectsTrailingGarbage) {
  ContextEncoder encoder(50, 20, EncoderConfig{});
  const auto path = dir_ / "encoder_trailing.uws";
  ASSERT_TRUE(SaveEncoder(encoder, path.string()).ok());
  std::string bytes = ReadFileBytes(path);
  bytes += "extra";
  WriteFileBytes(path, bytes);
  auto loaded = LoadEncoder(path.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
}

TEST_F(SnapshotTest, CorruptionMatrix) {
  const auto good_path = dir_ / "world_good.uws";
  ASSERT_TRUE(SaveWorldSnapshot(*world_, good_path.string()).ok());
  const std::string good = ReadFileBytes(good_path);
  ASSERT_GT(good.size(), 64u);
  const auto bad_path = dir_ / "world_bad.uws";

  struct Case {
    const char* name;
    std::string bytes;
  };
  std::string truncated_header = good.substr(0, 10);
  std::string truncated_payload = good.substr(0, good.size() / 2);
  std::string flipped = good;
  flipped[good.size() / 2] = static_cast<char>(flipped[good.size() / 2] ^ 0x40);
  std::string bad_magic = good;
  bad_magic[0] = 'X';
  std::string bad_version = good;
  bad_version[4] = static_cast<char>(bad_version[4] ^ 0x7F);
  std::string trailing = good + "garbage";
  const Case cases[] = {
      {"truncated header", truncated_header},
      {"truncated payload", truncated_payload},
      {"flipped byte", flipped},
      {"bad magic", bad_magic},
      {"bad version", bad_version},
      {"trailing garbage", trailing},
      {"empty file", std::string()},
  };
  for (const Case& c : cases) {
    WriteFileBytes(bad_path, c.bytes);
    auto loaded = LoadWorldSnapshot(bad_path.string());
    EXPECT_FALSE(loaded.ok()) << c.name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInternal) << c.name;
  }

  // A valid file of one artifact kind never parses as another.
  auto as_index = LoadIndexSnapshot(good_path.string());
  ASSERT_FALSE(as_index.ok());
  EXPECT_NE(as_index.status().message().find("different artifact kind"),
            std::string::npos);

  // Missing files report NotFound, distinct from corruption.
  auto missing = LoadWorldSnapshot((dir_ / "nope.uws").string());
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotTest, EncoderRejectsImplausibleDims) {
  // Craft validly framed (magic/version/CRC all correct) encoder payloads
  // whose header fields cannot be backed by the payload; the loader must
  // fail closed without allocating from them.
  struct Case {
    const char* name;
    int32_t token_dim;
    int32_t hidden_dim;
    uint64_t token_vocab;
    uint64_t entity_vocab;
  };
  const Case cases[] = {
      {"zero token_dim", 0, 8, 10, 10},
      {"negative hidden_dim", 8, -3, 10, 10},
      {"huge token_dim", 1 << 21, 8, 10, 10},
      {"zero vocab", 8, 8, 0, 10},
      {"vocab beyond payload", 8, 8, 1ull << 40, 10},
      {"entity vocab beyond payload", 8, 8, 10, 1ull << 50},
  };
  const auto path = dir_ / "bogus_encoder.uws";
  for (const Case& c : cases) {
    SnapshotWriter writer;
    writer.PutU64(3);  // seed
    writer.PutI32(c.token_dim);
    writer.PutI32(c.hidden_dim);
    writer.PutI32(4);  // projection_dim
    writer.PutF32(0.5f);
    writer.PutU64(c.token_vocab);
    writer.PutU64(c.entity_vocab);
    writer.PutU32(0);  // no token weights
    // A little real float data so the file is not trivially empty.
    const std::vector<float> filler(64, 1.0f);
    writer.PutFloats(filler);
    ASSERT_TRUE(
        WriteSnapshotFile(path.string(), SnapshotKind::kEncoder, writer)
            .ok());
    auto loaded = LoadEncoder(path.string());
    EXPECT_FALSE(loaded.ok()) << c.name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInternal) << c.name;
  }
}

TEST_F(SnapshotTest, EntityStoreRejectsImplausibleDim) {
  const auto path = dir_ / "bogus_store.uws";
  for (const uint64_t dim : {uint64_t{0}, uint64_t{1} << 40}) {
    SnapshotWriter writer;
    writer.PutU64(dim);
    writer.PutU64(1);  // one slot
    writer.PutU32(0);  // absent
    ASSERT_TRUE(
        WriteSnapshotFile(path.string(), SnapshotKind::kEntityStore, writer)
            .ok());
    auto loaded = LoadEntityStoreSnapshot(path.string());
    EXPECT_FALSE(loaded.ok()) << dim;
  }
}

std::vector<SparseVec> SampleDistributions() {
  std::vector<SparseVec> rows(4);
  rows[0].entries = {{0, 0.25f}, {3, -1.5f}, {17, 1e-30f}};
  rows[0].norm = 1.5207f;
  // rows[1] stays empty: an entity outside the candidate set.
  rows[2].entries = {{5, 0.125f}};
  rows[2].norm = 0.125f;
  rows[3].entries = {{1, 3.0f}, {2, 4.0f}};
  rows[3].norm = 5.0f;
  return rows;
}

TEST_F(SnapshotTest, SparseDistributionsRoundTrip) {
  const std::vector<SparseVec> rows = SampleDistributions();
  const auto path = dir_ / "distributions.uws";
  ASSERT_TRUE(SaveSparseDistributionsSnapshot(rows, path.string()).ok());
  auto loaded = LoadSparseDistributionsSnapshot(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectDistributionsBitIdentical(*loaded, rows);

  auto none = LoadSparseDistributionsSnapshot(
      (dir_ / "no_distributions.uws").string());
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotTest, SparseDistributionsRejectPrefixesAndTrailingByte) {
  const auto good_path = dir_ / "distributions_good.uws";
  ASSERT_TRUE(SaveSparseDistributionsSnapshot(SampleDistributions(),
                                              good_path.string())
                  .ok());
  const std::string good = ReadFileBytes(good_path);
  const auto bad_path = dir_ / "distributions_bad.uws";
  for (size_t size = 0; size < good.size(); ++size) {
    WriteFileBytes(bad_path, good.substr(0, size));
    auto loaded = LoadSparseDistributionsSnapshot(bad_path.string());
    EXPECT_FALSE(loaded.ok()) << "prefix of " << size << " bytes";
  }
  WriteFileBytes(bad_path, good + '\0');
  auto trailing = LoadSparseDistributionsSnapshot(bad_path.string());
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().code(), StatusCode::kInternal);
}

TEST_F(SnapshotTest, SparseDistributionsRejectCorruptPayloads) {
  // Validly framed payloads (magic, version, CRC all correct) whose
  // contents break the codec's invariants.
  struct Case {
    const char* name;
    std::function<void(SnapshotWriter&)> write;
  };
  const auto entry = [](SnapshotWriter& out, int32_t index, float value) {
    out.PutI32(index);
    out.PutF32(value);
  };
  const Case cases[] = {
      {"unsorted indices",
       [&](SnapshotWriter& out) {
         out.PutU64(1);
         out.PutU64(2);
         entry(out, 5, 1.0f);
         entry(out, 3, 1.0f);
         out.PutF32(1.0f);
       }},
      {"duplicate indices",
       [&](SnapshotWriter& out) {
         out.PutU64(1);
         out.PutU64(2);
         entry(out, 3, 1.0f);
         entry(out, 3, 2.0f);
         out.PutF32(1.0f);
       }},
      {"negative index",
       [&](SnapshotWriter& out) {
         out.PutU64(1);
         out.PutU64(1);
         entry(out, -1, 1.0f);
         out.PutF32(1.0f);
       }},
      {"oversized row count",
       [&](SnapshotWriter& out) {
         out.PutU64(uint64_t{1} << 60);
         out.PutU64(0);
         out.PutF32(0.0f);
       }},
      {"oversized entry count",
       [&](SnapshotWriter& out) {
         out.PutU64(1);
         out.PutU64(uint64_t{1} << 61);
         entry(out, 0, 1.0f);
         out.PutF32(1.0f);
       }},
      {"trailing payload bytes",
       [&](SnapshotWriter& out) {
         out.PutU64(1);
         out.PutU64(0);
         out.PutF32(0.0f);
         out.PutU32(7);
       }},
  };
  const auto path = dir_ / "bogus_distributions.uws";
  for (const Case& c : cases) {
    SnapshotWriter writer;
    c.write(writer);
    ASSERT_TRUE(WriteSnapshotFile(path.string(),
                                  SnapshotKind::kSparseDistributions, writer)
                    .ok());
    auto loaded = LoadSparseDistributionsSnapshot(path.string());
    EXPECT_FALSE(loaded.ok()) << c.name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInternal) << c.name;
  }
}

TEST_F(SnapshotTest, IndexRejectsUnsortedTerms) {
  // Terms must be strictly ascending; a descending pair is rejected.
  SnapshotWriter writer;
  writer.PutU64(2);  // doc lengths
  writer.PutI32(3);
  writer.PutI32(2);
  writer.PutU64(2);  // two terms, out of order
  writer.PutI32(7);
  writer.PutU64(1);
  writer.PutI32(0);
  writer.PutI32(1);
  writer.PutI32(4);
  writer.PutU64(1);
  writer.PutI32(0);
  writer.PutI32(1);
  const auto path = dir_ / "bogus_index.uws";
  ASSERT_TRUE(
      WriteSnapshotFile(path.string(), SnapshotKind::kInvertedIndex, writer)
          .ok());
  auto loaded = LoadIndexSnapshot(path.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
}

TEST_F(SnapshotTest, ArtifactCacheMissStoreHit) {
  const auto cache_dir = dir_ / "cache";
  ArtifactCache::OverrideGlobalForTest(cache_dir.string());
  ArtifactCache& cache = ArtifactCache::Global();
  obs::ResetMetricsForTest();

  const uint64_t key = FingerprintConfig(TinyConfig());
  auto load = [](const std::string& path) { return LoadWorldSnapshot(path); };

  auto cold = TryLoadCached(cache, "world", key, load);
  EXPECT_FALSE(cold.has_value());
  EXPECT_EQ(obs::GetCounter("cache.miss").Value(), 1);
  EXPECT_EQ(obs::GetCounter("cache.hit").Value(), 0);

  StoreCached(cache, "world", key, [&](const std::string& path) {
    return SaveWorldSnapshot(*world_, path);
  });
  EXPECT_EQ(obs::GetCounter("cache.store").Value(), 1);

  auto warm = TryLoadCached(cache, "world", key, load);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->fingerprint, world_->fingerprint);
  EXPECT_EQ(obs::GetCounter("cache.hit").Value(), 1);
  EXPECT_GT(obs::GetCounter("cache.bytes_read").Value(), 0);

  // A different key misses — the cache is content-addressed.
  auto other = TryLoadCached(cache, "world", key ^ 1, load);
  EXPECT_FALSE(other.has_value());

  // A corrupt entry degrades to a miss, never to an error.
  const std::string entry = cache.PathFor("world", key);
  std::string bytes = ReadFileBytes(entry);
  bytes[bytes.size() / 2] =
      static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  WriteFileBytes(entry, bytes);
  auto corrupt = TryLoadCached(cache, "world", key, load);
  EXPECT_FALSE(corrupt.has_value());

  ArtifactCache::OverrideGlobalForTest("");
  EXPECT_FALSE(cache.enabled());
}

TEST_F(SnapshotTest, DisabledCacheRecordsNothing) {
  ArtifactCache::OverrideGlobalForTest("");
  ArtifactCache& cache = ArtifactCache::Global();
  obs::ResetMetricsForTest();
  auto result = TryLoadCached(cache, "world", 1, [](const std::string&) {
    return StatusOr<int>(Status::NotFound("unused"));
  });
  EXPECT_FALSE(result.has_value());
  bool stored = false;
  StoreCached(cache, "world", 1, [&](const std::string&) {
    stored = true;
    return Status::Ok();
  });
  EXPECT_FALSE(stored);
  EXPECT_EQ(obs::GetCounter("cache.miss").Value(), 0);
  EXPECT_EQ(obs::GetCounter("cache.store").Value(), 0);
}

TEST_F(SnapshotTest, ConfigFingerprintsAreSensitive) {
  GeneratorConfig base = TinyConfig();
  GeneratorConfig reseeded = base;
  reseeded.seed += 1;
  GeneratorConfig rescaled = base;
  rescaled.scale += 0.01;
  EXPECT_EQ(FingerprintConfig(base), FingerprintConfig(TinyConfig()));
  EXPECT_NE(FingerprintConfig(base), FingerprintConfig(reseeded));
  EXPECT_NE(FingerprintConfig(base), FingerprintConfig(rescaled));

  EncoderConfig enc_a;
  EncoderConfig enc_b;
  enc_b.hidden_dim += 8;
  EXPECT_NE(FingerprintConfig(enc_a), FingerprintConfig(enc_b));

  DatasetConfig ds_a;
  DatasetConfig ds_b;
  ds_b.annotation.seed += 1;
  EXPECT_NE(FingerprintConfig(ds_a), FingerprintConfig(ds_b));

  EXPECT_NE(CombineFingerprints({1, 2}), CombineFingerprints({2, 1}));

  ExpectEveryFieldMovesFingerprint<ContrastiveTrainConfig>(
      {}, {
              [](auto& c) { c.seed += 1; },
              [](auto& c) { c.epochs += 1; },
              [](auto& c) { c.anchors_per_group += 1; },
              [](auto& c) { c.hard_negatives_per_anchor += 1; },
              [](auto& c) { c.normal_negatives_per_anchor += 1; },
              [](auto& c) { c.temperature *= 2.0f; },
              [](auto& c) { c.learning_rate *= 2.0f; },
              [](auto& c) { c.use_hard_negatives = !c.use_hard_negatives; },
              [](auto& c) {
                c.use_normal_negatives = !c.use_normal_negatives;
              },
              [](auto& c) { c.use_positives = !c.use_positives; },
          });
  ExpectEveryFieldMovesFingerprint<MinerConfig>(
      {}, {
              [](auto& c) { c.seed += 1; },
              [](auto& c) { c.top_t += 1; },
              [](auto& c) { c.l_size += 1; },
              [](auto& c) { c.other_class_samples += 1; },
          });
  ExpectEveryFieldMovesFingerprint<OracleConfig>(
      {}, {
              [](auto& c) { c.seed += 1; },
              [](auto& c) { c.base_error_rate += 0.01; },
              [](auto& c) { c.long_tail_error_rate += 0.01; },
              [](auto& c) { c.hallucination_rate += 0.01; },
              [](auto& c) { c.cot_class_name_error += 0.01; },
              [](auto& c) { c.cot_pos_attr_error += 0.01; },
              [](auto& c) { c.cot_neg_attr_error += 0.01; },
          });
}

TEST_F(SnapshotTest, SubstrateKeysFollowTheirInputs) {
  const PipelineConfig base = PipelineConfig::Tiny();
  constexpr uint64_t kWorld = 0x1234;
  constexpr Substrate kAll[] = {
      Substrate::kEncoder,       Substrate::kStore,
      Substrate::kWeakStore,     Substrate::kStaticStore,
      Substrate::kContrastStore, Substrate::kRaStore,
      Substrate::kDistributions,
  };
  const auto key = [&](const PipelineConfig& config, Substrate substrate,
                       RaSource source = RaSource::kIntroduction) {
    return SubstrateKey(config, kWorld, substrate, source);
  };

  // Distinct type tags: no two substrates (or RA sources) share a key.
  std::vector<uint64_t> keys;
  for (const Substrate substrate : kAll) keys.push_back(key(base, substrate));
  for (const RaSource source :
       {RaSource::kNone, RaSource::kWikidataAttributes,
        RaSource::kGroundTruthAttributes}) {
    keys.push_back(key(base, Substrate::kRaStore, source));
  }
  std::vector<uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());

  // A world of unknown provenance caches nothing.
  for (const Substrate substrate : kAll) {
    EXPECT_EQ(SubstrateKey(base, 0, substrate), 0u);
    EXPECT_NE(key(base, substrate), 0u);
    EXPECT_NE(SubstrateKey(base, kWorld + 1, substrate), key(base, substrate));
  }

  // One field of one input config changed: every substrate built from it
  // must move, and the substrates that never read it must not.
  struct Change {
    const char* name;
    std::function<void(PipelineConfig&)> apply;
    std::vector<Substrate> moves;
  };
  const std::vector<Change> changes = {
      {"encoder seed", [](auto& c) { c.encoder.seed += 1; },
       {Substrate::kEncoder, Substrate::kStore, Substrate::kWeakStore,
        Substrate::kStaticStore, Substrate::kContrastStore,
        Substrate::kRaStore, Substrate::kDistributions}},
      {"encoder_train", [](auto& c) { c.encoder_train.epochs += 1; },
       {Substrate::kEncoder, Substrate::kStore, Substrate::kContrastStore,
        Substrate::kRaStore, Substrate::kDistributions}},
      {"weak_encoder_train seed",
       [](auto& c) { c.weak_encoder_train.seed += 1; },
       {Substrate::kWeakStore, Substrate::kStaticStore}},
      {"weak_encoder_train epochs",
       [](auto& c) { c.weak_encoder_train.epochs += 1; },
       {Substrate::kWeakStore}},
      {"store", [](auto& c) { c.store.max_sentences_per_entity += 1; },
       {Substrate::kStore, Substrate::kWeakStore, Substrate::kStaticStore,
        Substrate::kContrastStore, Substrate::kRaStore,
        Substrate::kDistributions}},
      {"dataset", [](auto& c) { c.dataset.seed += 1; },
       {Substrate::kStore, Substrate::kWeakStore, Substrate::kStaticStore,
        Substrate::kContrastStore, Substrate::kRaStore,
        Substrate::kDistributions}},
      {"contrast", [](auto& c) { c.contrast.temperature *= 2.0f; },
       {Substrate::kContrastStore}},
      {"miner", [](auto& c) { c.miner.top_t += 1; },
       {Substrate::kContrastStore}},
      {"oracle", [](auto& c) { c.oracle.base_error_rate += 0.01; },
       {Substrate::kContrastStore}},
      {"distribution_top_k", [](auto& c) { c.distribution_top_k += 1; },
       {Substrate::kDistributions}},
  };
  for (const Change& change : changes) {
    PipelineConfig changed = base;
    change.apply(changed);
    for (const Substrate substrate : kAll) {
      const bool moves = std::find(change.moves.begin(), change.moves.end(),
                                   substrate) != change.moves.end();
      EXPECT_EQ(key(changed, substrate) != key(base, substrate), moves)
          << change.name << " / substrate "
          << static_cast<int>(substrate);
    }
  }
}

// End-to-end: a warm pipeline loads every cached artifact, the lazily
// built ones included, retrains nothing, and produces representations
// bit-identical to the cold pipeline's.
TEST_F(SnapshotTest, PipelineWarmBuildMatchesCold) {
  PipelineConfig config = PipelineConfig::Tiny();
  config.generator = TinyConfig();
  config.dataset.ultra_class_scale = 0.1;
  config.encoder_train.epochs = 1;

  const auto cache_dir = dir_ / "pipeline_cache";
  ArtifactCache::OverrideGlobalForTest(cache_dir.string());
  obs::ResetMetricsForTest();

  // Builds the pipeline and every lazily built substrate Table 2 reads.
  const auto build_all = [&config] {
    Pipeline pipeline = Pipeline::Build(config);
    pipeline.weak_store();
    pipeline.static_store();
    pipeline.contrast_store();
    pipeline.ra_store(RaSource::kIntroduction);
    pipeline.distributions();
    return pipeline;
  };

  Pipeline cold = build_all();
  EXPECT_EQ(obs::GetCounter("cache.hit").Value(), 0);
  // World, mined index, encoder, store, and the five lazy substrates.
  EXPECT_EQ(obs::GetCounter("cache.store").Value(), 9);
  EXPECT_GT(obs::GetCounter("trainer.steps").Value(), 0);

  obs::ResetMetricsForTest();
  Pipeline warm = build_all();
  EXPECT_EQ(obs::GetCounter("cache.hit").Value(), 9);
  EXPECT_EQ(obs::GetCounter("cache.miss").Value(), 0);
  EXPECT_EQ(obs::GetCounter("cache.store").Value(), 0);
  EXPECT_EQ(obs::GetCounter("trainer.steps").Value(), 0);

  EXPECT_EQ(warm.world().fingerprint, cold.world().fingerprint);
  EXPECT_EQ(warm.candidates(), cold.candidates());
  ExpectStoresBitIdentical(warm.store(), cold.store(), "store");
  ExpectStoresBitIdentical(warm.weak_store(), cold.weak_store(), "weak");
  ExpectStoresBitIdentical(warm.static_store(), cold.static_store(),
                           "static");
  ExpectStoresBitIdentical(warm.contrast_store(), cold.contrast_store(),
                           "contrast");
  ExpectStoresBitIdentical(warm.ra_store(RaSource::kIntroduction),
                           cold.ra_store(RaSource::kIntroduction), "ra");
  ExpectDistributionsBitIdentical(warm.distributions(), cold.distributions());
  ArtifactCache::OverrideGlobalForTest("");
}

}  // namespace
}  // namespace ultrawiki
