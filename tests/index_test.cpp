#include <gtest/gtest.h>

#include <filesystem>

#include "index/inverted_index.hpp"
#include "support/errors.hpp"
#include "temp_path.hpp"
#include "text/synth.hpp"

namespace vc {
namespace {

Corpus tiny_corpus() {
  Corpus c("tiny");
  c.add("d0", "the cat sat on the mat");
  c.add("d1", "the dog chased the cat");
  c.add("d2", "cats and dogs are friends");
  return c;
}

TEST(InvertedIndex, BuildBasics) {
  InvertedIndex idx = InvertedIndex::build(tiny_corpus());
  EXPECT_EQ(idx.doc_count(), 3u);
  const PostingList* cat = idx.find("cat");
  ASSERT_NE(cat, nullptr);
  EXPECT_EQ(cat->size(), 3u);  // "cats" stems to "cat"
  EXPECT_EQ((*cat)[0].doc_id, 0u);
  EXPECT_EQ((*cat)[1].doc_id, 1u);
  EXPECT_EQ((*cat)[2].doc_id, 2u);
  EXPECT_FALSE(idx.contains("the"));  // stopword
  EXPECT_FALSE(idx.contains("zebra"));
}

TEST(InvertedIndex, TermFrequencies) {
  Corpus c("tf");
  c.add("d0", "apple apple apple banana");
  InvertedIndex idx = InvertedIndex::build(c);
  const PostingList* apple = idx.find("appl");
  ASSERT_NE(apple, nullptr);
  EXPECT_EQ((*apple)[0].tf, 3u);
  EXPECT_EQ((*idx.find("banana"))[0].tf, 1u);
}

TEST(InvertedIndex, PostingsSortedByDoc) {
  Corpus corpus = generate_corpus(SynthSpec{.num_docs = 50, .vocab_size = 300, .seed = 3});
  InvertedIndex idx = InvertedIndex::build(corpus);
  EXPECT_GT(idx.term_count(), 50u);
  for (const auto& [term, list] : idx.terms()) {
    for (std::size_t i = 1; i < list.size(); ++i) {
      EXPECT_LT(list[i - 1].doc_id, list[i].doc_id) << term;
    }
  }
}

TEST(InvertedIndex, RecordCountMatchesSum) {
  InvertedIndex idx = InvertedIndex::build(tiny_corpus());
  std::uint64_t total = 0;
  for (const auto& [term, list] : idx.terms()) total += list.size();
  EXPECT_EQ(idx.record_count(), total);
  EXPECT_GT(idx.avg_document_frequency(), 0.0);
}

TEST(InvertedIndex, DictionarySorted) {
  InvertedIndex idx = InvertedIndex::build(tiny_corpus());
  auto dict = idx.dictionary();
  EXPECT_TRUE(std::is_sorted(dict.begin(), dict.end()));
  EXPECT_EQ(dict.size(), idx.term_count());
}

TEST(InvertedIndex, AddDocumentIncremental) {
  InvertedIndex idx = InvertedIndex::build(tiny_corpus());
  auto touched = idx.add_document(3, "a new cat arrived");
  EXPECT_EQ(idx.doc_count(), 4u);
  EXPECT_EQ(idx.find("cat")->back().doc_id, 3u);
  EXPECT_FALSE(touched.empty());
  // Out-of-order docIDs rejected.
  EXPECT_THROW(idx.add_document(2, "cat again"), UsageError);
}

TEST(InvertedIndex, ElementEncodings) {
  Posting p{.doc_id = 5, .tf = 9};
  EXPECT_EQ(InvertedIndex::encode_tuple(p), (5ULL << 32) | 9ULL);
  EXPECT_EQ(InvertedIndex::encode_doc(5), 5ULL);
  PostingList list = {{1, 2}, {4, 1}, {9, 7}};
  EXPECT_EQ(InvertedIndex::doc_set(list), (U64Set{1, 4, 9}));
  U64Set tuples = InvertedIndex::tuple_set(list);
  EXPECT_TRUE(is_sorted_unique(tuples));
}

TEST(InvertedIndex, FilterByDocs) {
  PostingList list = {{1, 2}, {4, 1}, {9, 7}, {12, 3}};
  U64Set docs = {4, 12};
  PostingList out = InvertedIndex::filter_by_docs(list, docs);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].doc_id, 4u);
  EXPECT_EQ(out[1].doc_id, 12u);
}

TEST(InvertedIndex, SaveLoadRoundtrip) {
  auto path = testing_paths::unique_temp_path("vc_index_test.bin");
  Corpus corpus = generate_corpus(SynthSpec{.num_docs = 30, .vocab_size = 200, .seed = 4});
  InvertedIndex idx = InvertedIndex::build(corpus);
  idx.save(path.string());
  InvertedIndex loaded = InvertedIndex::load(path.string());
  EXPECT_EQ(loaded, idx);
  std::filesystem::remove(path);
  EXPECT_THROW(InvertedIndex::load("/nonexistent/x.bin"), UsageError);
}

TEST(InvertedIndex, SyntheticProfileShape) {
  // The synthetic Enron profile should produce skewed posting lists: the
  // most frequent term appears in far more documents than the median term.
  Corpus corpus = generate_corpus(enron_profile(300, 11));
  InvertedIndex idx = InvertedIndex::build(corpus);
  std::vector<std::size_t> sizes;
  for (const auto& [t, l] : idx.terms()) sizes.push_back(l.size());
  std::sort(sizes.begin(), sizes.end());
  EXPECT_GT(sizes.back(), 10 * sizes[sizes.size() / 2]);
}

}  // namespace
}  // namespace vc
