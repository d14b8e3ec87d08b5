#include "index/inverted_index.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ultrawiki {

DocId InvertedIndex::AddDocument(const std::vector<TokenId>& tokens) {
  UW_CHECK(!frozen_) << "AddDocument on a frozen index";
  const DocId doc = static_cast<DocId>(doc_lengths_.size());
  if (tokens.empty()) {
    UW_LOG_EVERY_N(Warning, 100)
        << "indexing empty document " << doc
        << "; it can never match a query";
  }
  // Aggregate term frequencies first so each term gets one posting.
  std::map<TokenId, int32_t> frequencies;
  for (TokenId token : tokens) ++frequencies[token];
  for (const auto& [term, tf] : frequencies) {
    postings_[term].push_back(Posting{doc, tf});
  }
  obs::GetCounter("index.documents_added").Increment();
  obs::GetCounter("index.postings_created")
      .Increment(static_cast<int64_t>(frequencies.size()));
  total_postings_ += static_cast<int64_t>(frequencies.size());
  doc_lengths_.push_back(static_cast<int32_t>(tokens.size()));
  total_length_ += static_cast<int64_t>(tokens.size());
  return doc;
}

void InvertedIndex::Freeze() {
  if (frozen_) return;
  UW_SPAN("index.freeze");
  std::vector<TokenId> order;
  order.reserve(postings_.size());
  for (const auto& [term, postings] : postings_) order.push_back(term);
  std::sort(order.begin(), order.end());

  terms_.clear();
  blocks_.clear();
  payload_.clear();
  terms_.reserve(order.size());
  for (const TokenId term : order) {
    const std::vector<Posting>& postings = postings_.at(term);
    CompressedTermList list;
    list.term = term;
    list.doc_frequency = static_cast<int64_t>(postings.size());
    list.block_begin = static_cast<uint32_t>(blocks_.size());
    std::array<int32_t, kPostingBlockSize> docs;
    std::array<int32_t, kPostingBlockSize> tfs;
    int32_t previous_doc = -1;
    for (size_t begin = 0; begin < postings.size();
         begin += kPostingBlockSize) {
      const size_t count =
          std::min(kPostingBlockSize, postings.size() - begin);
      PostingBlockMeta meta;
      meta.count = static_cast<uint32_t>(count);
      meta.offset = payload_.size();
      meta.max_tf = 0;
      meta.min_dl = INT32_MAX;
      for (size_t i = 0; i < count; ++i) {
        const Posting& posting = postings[begin + i];
        docs[i] = posting.doc;
        tfs[i] = posting.term_frequency;
        meta.max_tf = std::max(meta.max_tf, posting.term_frequency);
        meta.min_dl = std::min(meta.min_dl, DocumentLength(posting.doc));
      }
      meta.last_doc = docs[count - 1];
      meta.length = static_cast<uint32_t>(EncodePostingBlock(
          std::span<const int32_t>(docs.data(), count),
          std::span<const int32_t>(tfs.data(), count), previous_doc,
          &payload_));
      previous_doc = meta.last_doc;
      blocks_.push_back(meta);
    }
    list.block_end = static_cast<uint32_t>(blocks_.size());
    terms_.push_back(list);
  }
  postings_.clear();
  frozen_ = true;
  obs::GetCounter("index.frozen").Increment();
  obs::GetCounter("index.bytes_compressed")
      .Increment(static_cast<int64_t>(payload_.size()));
  obs::GetCounter("index.bytes_raw")
      .Increment(static_cast<int64_t>(raw_posting_bytes()));
}

bool InvertedIndex::RestoreCompressed(std::vector<int32_t> doc_lengths,
                                      std::vector<CompressedTermList> terms,
                                      std::vector<PostingBlockMeta> blocks,
                                      std::string payload,
                                      InvertedIndex* out) {
  UW_SPAN("index.restore_compressed");
  const auto doc_count = static_cast<int64_t>(doc_lengths.size());
  // Structural pass: ascending terms, contiguous block tiling of both the
  // block array and the payload bytes.
  TokenId previous_term = -1;
  uint32_t next_block = 0;
  uint64_t next_offset = 0;
  int64_t total_postings = 0;
  for (const CompressedTermList& list : terms) {
    if (list.term < 0 || list.term <= previous_term) return false;
    previous_term = list.term;
    if (list.block_begin != next_block || list.block_end <= list.block_begin ||
        list.block_end > blocks.size()) {
      return false;
    }
    next_block = list.block_end;
    int64_t postings_in_list = 0;
    for (uint32_t b = list.block_begin; b < list.block_end; ++b) {
      const PostingBlockMeta& meta = blocks[b];
      if (meta.offset != next_offset || meta.length == 0 || meta.count == 0 ||
          meta.count > kPostingBlockSize ||
          meta.offset + meta.length > payload.size()) {
        return false;
      }
      next_offset = meta.offset + meta.length;
      postings_in_list += meta.count;
    }
    if (postings_in_list != list.doc_frequency) return false;
    total_postings += postings_in_list;
  }
  if (next_block != blocks.size() || next_offset != payload.size()) {
    return false;
  }

  // Deep pass: decode every block and verify its metadata against the
  // decoded postings (a wrong max_tf/min_dl would silently corrupt the
  // pruning bound, so it is treated as corruption, not trusted).
  std::array<int32_t, kPostingBlockSize> docs;
  std::array<int32_t, kPostingBlockSize> tfs;
  const auto* bytes = reinterpret_cast<const uint8_t*>(payload.data());
  for (const CompressedTermList& list : terms) {
    int32_t previous_doc = -1;
    for (uint32_t b = list.block_begin; b < list.block_end; ++b) {
      const PostingBlockMeta& meta = blocks[b];
      if (!DecodePostingBlock(bytes + meta.offset, meta.length, meta.count,
                              previous_doc, docs.data(), tfs.data())) {
        return false;
      }
      int32_t max_tf = 0;
      int32_t min_dl = INT32_MAX;
      for (uint32_t i = 0; i < meta.count; ++i) {
        if (static_cast<int64_t>(docs[i]) >= doc_count) return false;
        max_tf = std::max(max_tf, tfs[i]);
        min_dl = std::min(min_dl, doc_lengths[static_cast<size_t>(docs[i])]);
      }
      if (meta.last_doc != docs[meta.count - 1] || meta.max_tf != max_tf ||
          meta.min_dl != min_dl) {
        return false;
      }
      previous_doc = meta.last_doc;
    }
  }

  InvertedIndex index;
  index.doc_lengths_ = std::move(doc_lengths);
  index.total_length_ = 0;
  for (const int32_t length : index.doc_lengths_) {
    if (length < 0) return false;
    index.total_length_ += static_cast<int64_t>(length);
  }
  index.total_postings_ = total_postings;
  index.terms_ = std::move(terms);
  index.blocks_ = std::move(blocks);
  index.payload_ = std::move(payload);
  index.frozen_ = true;
  *out = std::move(index);
  return true;
}

int32_t InvertedIndex::DocumentLength(DocId doc) const {
  UW_CHECK_GE(doc, 0);
  UW_CHECK_LT(static_cast<size_t>(doc), doc_lengths_.size());
  return doc_lengths_[static_cast<size_t>(doc)];
}

double InvertedIndex::AverageDocumentLength() const {
  if (doc_lengths_.empty()) return 0.0;
  return static_cast<double>(total_length_) /
         static_cast<double>(doc_lengths_.size());
}

const CompressedTermList* InvertedIndex::FindTerm(TokenId term) const {
  UW_CHECK(frozen_);
  const auto it = std::lower_bound(
      terms_.begin(), terms_.end(), term,
      [](const CompressedTermList& list, TokenId t) { return list.term < t; });
  if (it == terms_.end() || it->term != term) return nullptr;
  return &*it;
}

int32_t InvertedIndex::DocumentFrequency(TokenId term) const {
  if (frozen_) {
    const CompressedTermList* list = FindTerm(term);
    return list == nullptr ? 0 : static_cast<int32_t>(list->doc_frequency);
  }
  auto it = postings_.find(term);
  if (it == postings_.end()) return 0;
  return static_cast<int32_t>(it->second.size());
}

const std::vector<Posting>& InvertedIndex::PostingsOf(TokenId term) const {
  UW_CHECK(!frozen_) << "PostingsOf on a frozen index; use DecodedPostings "
                        "or OpenCursor";
  static const std::vector<Posting>* empty = new std::vector<Posting>();
  auto it = postings_.find(term);
  if (it == postings_.end()) return *empty;
  return it->second;
}

std::vector<Posting> InvertedIndex::DecodedPostings(TokenId term) const {
  if (!frozen_) return PostingsOf(term);
  std::vector<Posting> result;
  PostingCursor cursor = OpenCursor(term);
  result.reserve(static_cast<size_t>(cursor.doc_frequency()));
  for (; !cursor.at_end(); cursor.Next()) {
    result.push_back(Posting{cursor.doc(), cursor.term_frequency()});
  }
  return result;
}

PostingCursor InvertedIndex::OpenCursor(TokenId term) const {
  const CompressedTermList* list = FindTerm(term);
  if (list == nullptr) return PostingCursor();
  return PostingCursor(this, *list);
}

const std::vector<CompressedTermList>& InvertedIndex::frozen_terms() const {
  UW_CHECK(frozen_);
  return terms_;
}

const std::vector<PostingBlockMeta>& InvertedIndex::frozen_blocks() const {
  UW_CHECK(frozen_);
  return blocks_;
}

const std::string& InvertedIndex::compressed_payload() const {
  UW_CHECK(frozen_);
  return payload_;
}

uint64_t InvertedIndex::raw_posting_bytes() const {
  return static_cast<uint64_t>(total_postings_) * sizeof(Posting);
}

// ------------------------------------------------------- PostingCursor.

PostingCursor::PostingCursor(const InvertedIndex* index,
                             const CompressedTermList& list)
    : index_(index), list_(list), block_(list.block_begin), at_end_(false) {
  DecodeCurrentBlock();
}

std::span<const PostingBlockMeta> PostingCursor::blocks() const {
  UW_CHECK_NE(index_, nullptr);
  return std::span<const PostingBlockMeta>(
      index_->blocks_.data() + list_.block_begin,
      list_.block_end - list_.block_begin);
}

const PostingBlockMeta& PostingCursor::current_block() const {
  UW_CHECK(!at_end_);
  return index_->blocks_[block_];
}

void PostingCursor::DecodeCurrentBlock() {
  const PostingBlockMeta& meta = index_->blocks_[block_];
  const auto* bytes =
      reinterpret_cast<const uint8_t*>(index_->payload_.data()) + meta.offset;
  const int32_t previous_doc =
      block_ == list_.block_begin
          ? -1
          : index_->blocks_[block_ - 1].last_doc;
  // Payload integrity was established when the index was frozen or
  // restored (RestoreCompressed decodes and validates every block), so a
  // decode failure here is a programming error, not an input error.
  UW_CHECK(DecodePostingBlock(bytes, meta.length, meta.count, previous_doc,
                              decoded_docs_.data(), decoded_tfs_.data()))
      << "frozen posting block failed to decode";
  count_ = meta.count;
  pos_ = 0;
  block_decoded_ = true;
  ++blocks_decoded_;
}

void PostingCursor::Next() {
  UW_CHECK(!at_end_);
  if (++pos_ < count_) return;
  if (++block_ >= list_.block_end) {
    at_end_ = true;
    return;
  }
  DecodeCurrentBlock();
}

bool PostingCursor::SkipBlocksTo(DocId target) {
  if (at_end_) return false;
  while (index_->blocks_[block_].last_doc < target) {
    if (!block_decoded_) ++blocks_skipped_;
    if (++block_ >= list_.block_end) {
      at_end_ = true;
      return false;
    }
    block_decoded_ = false;
  }
  return true;
}

bool PostingCursor::SeekTo(DocId target) {
  if (!SkipBlocksTo(target)) return false;
  if (!block_decoded_) {
    DecodeCurrentBlock();
  }
  while (decoded_docs_[pos_] < target) {
    if (++pos_ >= count_) {
      // last_doc >= target guarantees the match is inside this block.
      UW_CHECK(false) << "posting block metadata inconsistent with payload";
    }
  }
  return true;
}

}  // namespace ultrawiki
