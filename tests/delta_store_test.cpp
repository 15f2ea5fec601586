// Log-structured delta epochs: publish_delta ships O(touched) bytes, the
// store resolves base+delta chains into overlay snapshots, and compaction
// folds chains back into full snapshots — all without changing a single
// proof byte.
//
// The load-bearing property is the same as store_test's, one level up: a
// response proved from a resolved delta chain (before or after compaction,
// in any scheme) must encode byte-for-byte identically to one proved from
// the builder's in-memory snapshot of the same epoch.  That is what makes
// the delta path invisible to verifiers.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "obs/metrics.hpp"
#include "store/codec_detail.hpp"
#include "store/delta_codec.hpp"
#include "store/epoch_store.hpp"
#include "test_fixtures.hpp"
#include "text/stemmer.hpp"
#include "text/synth.hpp"
#include "text/tokenizer.hpp"
#include "vindex/witness_tier.hpp"

namespace vc {
namespace {

namespace fs = std::filesystem;

Bytes encode_response(const SearchResponse& resp) {
  ByteWriter w;
  resp.write(w);
  return std::move(w).take();
}

void flip_byte(const fs::path& file, std::size_t offset) {
  std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x01);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

class DeltaStoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthSpec spec{.name = "ds", .num_docs = 50, .min_doc_words = 25,
                   .max_doc_words = 55, .vocab_size = 220, .zipf_s = 0.9, .seed = 91};
    bed_ = new testbed::TestBed(spec, testbed::small_config(256, "delta-store"),
                                /*key_seed=*/701, /*threads=*/2);
  }
  static void TearDownTestSuite() {
    delete bed_;
    bed_ = nullptr;
  }

  // Each test gets a fresh store seeded with the builder's current state as
  // its full base epoch (the shared builder mutates monotonically across
  // tests; docIDs are never reused).
  fs::path fresh_root(const std::string& tag) {
    fs::path root = fs::path(::testing::TempDir()) / ("vc_delta_" + tag);
    fs::remove_all(root);
    return root;
  }
  static std::uint64_t publish_base(store::EpochStore& store) {
    SnapshotPtr snap = bed_->vidx.snapshot();
    store.publish(*snap, /*shard_count=*/2);
    bed_->vidx.note_full_publish();
    return snap->epoch();
  }

  // One committed mutation: a document over existing frequent terms plus
  // optional fresh terms, with a strictly increasing docID.
  static void add_doc(const std::string& extra_words = "") {
    auto words = bed_->frequent_terms(4);
    std::vector<Document> docs = {Document{
        next_doc_id_++, "delta-doc",
        words[0] + " " + words[1] + " " + words[2] + " " + extra_words}};
    bed_->vidx.add_documents(docs, bed_->owner_ctx, bed_->owner_key);
  }

  // Proves the same queries against both snapshots in all four schemes and
  // requires byte-identical canonical encodings (plus verifier acceptance).
  static void expect_proofs_identical(const SnapshotPtr& expect, const SnapshotPtr& got) {
    ASSERT_NE(got, nullptr);
    ASSERT_EQ(got->epoch(), expect->epoch());
    ASSERT_EQ(got->term_count(), expect->term_count());
    ASSERT_EQ(got->max_posting_count(), expect->max_posting_count());
    SearchEngine want(expect, bed_->pub_ctx, bed_->cloud_key, &bed_->pool);
    SearchEngine have(got, bed_->pub_ctx, bed_->cloud_key, &bed_->pool);
    ResultVerifier verifier = bed_->owner_verifier();
    auto words = bed_->frequent_terms(3);
    for (SchemeKind scheme : {SchemeKind::kHybrid, SchemeKind::kAccumulator,
                              SchemeKind::kBloom, SchemeKind::kIntervalAccumulator}) {
      Query q{.id = query_id_++, .keywords = {words[0], words[1]}};
      SearchResponse from_want = want.search(q, scheme);
      SearchResponse from_have = have.search(q, scheme);
      EXPECT_NO_THROW(verifier.verify(from_have)) << scheme_name(scheme);
      EXPECT_EQ(encode_response(from_want), encode_response(from_have))
          << scheme_name(scheme);
    }
    // Unknown keyword: the chain's dictionary (possibly shipped by a delta)
    // must produce the identical gap proof.
    Query unknown{.id = query_id_++, .keywords = {"zzzunindexedzzz"}};
    SearchResponse from_want = want.search(unknown, SchemeKind::kHybrid);
    SearchResponse from_have = have.search(unknown, SchemeKind::kHybrid);
    EXPECT_NO_THROW(verifier.verify(from_have));
    EXPECT_EQ(encode_response(from_want), encode_response(from_have));
  }

  // A stacked open must be the epoch a fresh resolve returns: same terms,
  // entry bytes, posting bound, dictionary, prime lookups and surviving
  // witness-tier terms.
  static void expect_same_epoch(const store::OpenedEpoch& want,
                                const store::OpenedEpoch& got) {
    ASSERT_EQ(got.snapshot->epoch(), want.snapshot->epoch());
    EXPECT_EQ(got.chain_length, want.chain_length);
    EXPECT_EQ(got.base_epoch, want.base_epoch);
    EXPECT_EQ(got.snapshot->max_posting_count(), want.snapshot->max_posting_count());
    ASSERT_EQ(got.snapshot->term_count(), want.snapshot->term_count());
    auto it = got.snapshot->entries().begin();
    for (const auto& [term, unused] : want.snapshot->entries()) {
      ASSERT_EQ(it->first, term);
      ++it;
      ByteWriter a, b;
      store::detail::write_entry(a, *want.snapshot->find(term));
      store::detail::write_entry(b, *got.snapshot->find(term));
      EXPECT_EQ(a.data(), b.data()) << term;
    }
    EXPECT_EQ(got.snapshot->dictionary(), want.snapshot->dictionary());
    EXPECT_EQ(got.snapshot->dict_attestation(), want.snapshot->dict_attestation());
    for (auto cache : {&IndexSnapshot::tuple_primes, &IndexSnapshot::doc_primes}) {
      const PrimeBacking& have = *((*got.snapshot).*cache)().backing();
      std::size_t seen = 0;
      ((*want.snapshot).*cache)().backing()->for_each(
          [&](std::uint64_t element, const Bigint& rep) {
            Bigint out;
            EXPECT_TRUE(have.lookup(element, out)) << element;
            EXPECT_EQ(out, rep) << element;
            ++seen;
          });
      EXPECT_GT(seen, 0u);
    }
    ASSERT_EQ(got.tier == nullptr, want.tier == nullptr);
    if (want.tier != nullptr) EXPECT_EQ(got.tier->terms(), want.tier->terms());
  }

  static std::uint64_t delta_opens() {
    return obs::MetricsRegistry::global().counter("vc_store_delta_opens_total").value();
  }

  static testbed::TestBed* bed_;
  static std::uint32_t next_doc_id_;
  static std::uint64_t query_id_;
};

testbed::TestBed* DeltaStoreTest::bed_ = nullptr;
std::uint32_t DeltaStoreTest::next_doc_id_ = 1000;
std::uint64_t DeltaStoreTest::query_id_ = 1;

TEST_F(DeltaStoreTest, PublishDeltaDrainsDirtyState) {
  fs::path root = fresh_root("drain");
  store::EpochStore store(root);

  // Before any full publish there is no chain base — nothing to ship.
  EXPECT_EQ(bed_->vidx.publish_delta(), std::nullopt);
  std::uint64_t base = publish_base(store);
  EXPECT_EQ(bed_->vidx.last_published_epoch(), base);
  // Clean builder: still nothing to ship.
  EXPECT_EQ(bed_->vidx.publish_delta(), std::nullopt);
  EXPECT_EQ(bed_->vidx.dirty_term_count(), 0u);

  add_doc("freshdrainterm");
  EXPECT_GT(bed_->vidx.dirty_term_count(), 0u);
  auto delta = bed_->vidx.publish_delta();
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(delta->base_epoch, base);
  EXPECT_EQ(delta->epoch, bed_->vidx.epoch());
  EXPECT_FALSE(delta->touched.empty());
  EXPECT_TRUE(delta->dict_changed);  // a fresh term rebuilt the dictionary
  // Touched entries are the builder's own (already re-signed at this epoch).
  for (const auto& [term, entry] : delta->touched) {
    EXPECT_EQ(entry.get(), bed_->vidx.find(term)) << term;
  }
  // The drain is one-shot.
  EXPECT_EQ(bed_->vidx.dirty_term_count(), 0u);
  EXPECT_EQ(bed_->vidx.publish_delta(), std::nullopt);
  fs::remove_all(root);
}

TEST_F(DeltaStoreTest, DeltaChainProofsAreByteIdentical) {
  fs::path root = fresh_root("chain");
  store::EpochStore store(root);
  std::uint64_t base = publish_base(store);

  // Two deltas stacked on the base, the second introducing new terms.
  add_doc();
  auto d1 = bed_->vidx.publish_delta();
  ASSERT_TRUE(d1.has_value());
  store.publish_delta(*d1, /*shard_count=*/2);
  add_doc("chainfreshterm chainfreshterm2");
  auto d2 = bed_->vidx.publish_delta();
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d2->base_epoch, d1->epoch);
  store.publish_delta(*d2, /*shard_count=*/2);

  EXPECT_EQ(store.current_epoch(), d2->epoch);
  store::OpenedEpoch opened = store.open_current();
  EXPECT_EQ(opened.base_epoch, base);
  EXPECT_EQ(opened.chain_length, 2u);
  EXPECT_EQ(opened.shard_count, 2u);
  expect_proofs_identical(bed_->vidx.snapshot(), opened.snapshot);

  auto chain = store.current_chain();
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0].epoch, d2->epoch);
  EXPECT_TRUE(chain[0].is_delta);
  EXPECT_EQ(chain[1].epoch, d1->epoch);
  EXPECT_TRUE(chain[1].is_delta);
  EXPECT_EQ(chain[2].epoch, base);
  EXPECT_FALSE(chain[2].is_delta);
  EXPECT_FALSE(chain[2].compacted);
  fs::remove_all(root);
}

TEST_F(DeltaStoreTest, RemovalDeltaDropsTermsAndProofsMatch) {
  // A document whose sacrificial term exists nowhere else: removing the
  // document must remove the term from the overlaid index entirely.
  std::uint32_t victim_id = next_doc_id_++;
  std::string victim_term = normalize_term("zzremovalvictim");
  auto words = bed_->frequent_terms(2);
  std::vector<Document> docs = {
      Document{victim_id, "victim", words[0] + " zzremovalvictim"}};
  bed_->vidx.add_documents(docs, bed_->owner_ctx, bed_->owner_key);

  fs::path root = fresh_root("removal");
  store::EpochStore store(root);
  publish_base(store);
  ASSERT_NE(bed_->vidx.find(victim_term), nullptr);

  U64Set gone = {victim_id};
  bed_->vidx.remove_documents(gone, bed_->owner_ctx, bed_->owner_key);
  auto delta = bed_->vidx.publish_delta();
  ASSERT_TRUE(delta.has_value());
  EXPECT_NE(std::find(delta->removed.begin(), delta->removed.end(), victim_term),
            delta->removed.end());
  EXPECT_EQ(delta->touched.count(victim_term), 0u);
  store.publish_delta(*delta, /*shard_count=*/2);

  store::OpenedEpoch opened = store.open_current();
  EXPECT_EQ(opened.snapshot->find(victim_term), nullptr);
  expect_proofs_identical(bed_->vidx.snapshot(), opened.snapshot);

  // The vanished term now takes the unknown-keyword path; its gap proof
  // must match the builder's (the delta shipped the rebuilt dictionary).
  SearchEngine want(bed_->vidx.snapshot(), bed_->pub_ctx, bed_->cloud_key, &bed_->pool);
  SearchEngine have(opened.snapshot, bed_->pub_ctx, bed_->cloud_key, &bed_->pool);
  Query q{.id = query_id_++, .keywords = {victim_term}};
  EXPECT_EQ(encode_response(want.search(q, SchemeKind::kHybrid)),
            encode_response(have.search(q, SchemeKind::kHybrid)));
  fs::remove_all(root);
}

TEST_F(DeltaStoreTest, CompactionPreservesProofsAndShortensChain) {
  fs::path root = fresh_root("compact");
  store::EpochStore store(root);
  publish_base(store);
  add_doc();
  auto delta = bed_->vidx.publish_delta();
  ASSERT_TRUE(delta.has_value());
  store.publish_delta(*delta, /*shard_count=*/2);

  store::CompactionWorker worker(
      store, store::CompactionWorker::Options{.max_chain_length = 2});
  // Chain of 1 is below the worker's threshold — compaction must not fire.
  EXPECT_EQ(worker.run_once(), std::nullopt);
  EXPECT_EQ(worker.runs(), 0u);

  ASSERT_EQ(store.open_current().chain_length, 1u);
  auto compacted = store.compact(/*min_chain_length=*/1);
  ASSERT_TRUE(compacted.has_value());
  EXPECT_EQ(*compacted, delta->epoch);

  store::OpenedEpoch reopened = store.open_current();
  EXPECT_EQ(reopened.chain_length, 0u);
  EXPECT_EQ(reopened.base_epoch, delta->epoch);
  expect_proofs_identical(bed_->vidx.snapshot(), reopened.snapshot);

  // The head directory now holds both files; the chain terminates there.
  auto chain = store.current_chain();
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_FALSE(chain[0].is_delta);
  EXPECT_TRUE(chain[0].compacted);
  // Nothing left to fold.
  EXPECT_EQ(store.compact(1), std::nullopt);
  fs::remove_all(root);
}

TEST_F(DeltaStoreTest, NoopRepublishIsCountedAndSkipped) {
  fs::path root = fresh_root("noop");
  store::EpochStore store(root);
  SnapshotPtr snap = bed_->vidx.snapshot();
  store.publish(*snap, /*shard_count=*/2);
  bed_->vidx.note_full_publish();

  auto& noop = obs::MetricsRegistry::global().counter("vc_store_noop_publishes_total");
  std::uint64_t before = noop.value();
  auto mtime = fs::last_write_time(store.epoch_file(snap->epoch()));
  store.publish(*snap, /*shard_count=*/2);
  EXPECT_EQ(noop.value(), before + 1);
  // The epoch file was not rewritten.
  EXPECT_EQ(fs::last_write_time(store.epoch_file(snap->epoch())), mtime);
  fs::remove_all(root);
}

TEST_F(DeltaStoreTest, DanglingDeltaIsRejected) {
  fs::path root = fresh_root("dangling");
  store::EpochStore store(root);
  publish_base(store);
  add_doc();
  auto delta = bed_->vidx.publish_delta();
  ASSERT_TRUE(delta.has_value());
  // A base the store has never seen: publishing would brick CURRENT.
  IndexDelta orphan = *delta;
  orphan.base_epoch = delta->base_epoch + 500;
  orphan.epoch = orphan.base_epoch + 1;
  EXPECT_THROW(store.publish_delta(orphan, 2), store::StoreChainError);
  // The real one lands, then its base directory disappearing breaks the walk.
  store.publish_delta(*delta, /*shard_count=*/2);
  fs::remove_all(root / store::EpochStore::epoch_dir_name(delta->base_epoch));
  EXPECT_THROW((void)store.open_current(), store::StoreChainError);
  EXPECT_THROW((void)store.current_chain(), store::StoreChainError);
  fs::remove_all(root);
}

TEST_F(DeltaStoreTest, CorruptDeltaRecordIsRejected) {
  fs::path root = fresh_root("corrupt");
  store::EpochStore store(root);
  publish_base(store);
  add_doc();
  auto delta = bed_->vidx.publish_delta();
  ASSERT_TRUE(delta.has_value());
  store.publish_delta(*delta, /*shard_count=*/2);

  // A delta record is all data — any payload damage fails the open (no
  // tier-style degrade path).
  fs::path file = store.delta_file(delta->epoch);
  std::uintmax_t size = fs::file_size(file);
  flip_byte(file, static_cast<std::size_t>(size / 2));
  EXPECT_THROW((void)store.open_current(), store::StoreCorruptError);

  // And a delta can never be opened as a snapshot.
  EXPECT_THROW(
      (void)store::open_snapshot(std::make_shared<const store::MappedFile>(file)),
      store::StoreCorruptError);
  fs::remove_all(root);
}

TEST_F(DeltaStoreTest, WitnessTierDegradesPerTouchedTerm) {
  // Tier two hot terms in the base epoch, then touch exactly one of them
  // with a delta: the overlay must keep serving the untouched term from the
  // persisted tier and quietly drop the stale one.
  auto words = bed_->frequent_terms(6);
  // Surface words for queries and document text; normalized forms for the
  // index-level checks (the tier and the delta key entries by stem).
  std::string touched_q = words[4], untouched_q = words[5];
  std::string touched = normalize_term(touched_q), untouched = normalize_term(untouched_q);

  fs::path root = fresh_root("tier");
  store::EpochStore store(root);
  SnapshotPtr snap = bed_->vidx.snapshot();
  bed_->owner_ctx.set_pool(&bed_->pool);
  TierPolicy policy;
  policy.hot_terms = {touched, untouched};
  TierBuildResult tier = build_witness_tier(*snap, bed_->owner_ctx, policy);
  ASSERT_NE(tier.tier, nullptr);
  ASSERT_EQ(tier.tier->term_count(), 2u);
  snap->attach_tier(tier.tier);
  store::TierArtifacts arts{tier.tier, std::move(tier.fixed_base)};
  store.publish(*snap, /*shard_count=*/2, &arts);
  bed_->vidx.note_full_publish();

  std::vector<Document> docs = {Document{next_doc_id_++, "tier-touch", touched_q}};
  bed_->vidx.add_documents(docs, bed_->owner_ctx, bed_->owner_key);
  auto delta = bed_->vidx.publish_delta();
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->touched.count(touched), 1u);
  ASSERT_EQ(delta->touched.count(untouched), 0u);
  store.publish_delta(*delta, /*shard_count=*/2);

  store::OpenedEpoch opened = store.open_current();
  ASSERT_NE(opened.tier, nullptr);
  EXPECT_EQ(opened.tier->term_count(), 1u);
  EXPECT_EQ(opened.tier->find(touched), nullptr);
  EXPECT_NE(opened.tier->find(untouched), nullptr);
  ASSERT_NE(opened.fixed_base, nullptr);
  // Both terms still prove byte-identically — one from the surviving tier,
  // one through the compute path.
  expect_proofs_identical(bed_->vidx.snapshot(), opened.snapshot);
  SearchEngine want(bed_->vidx.snapshot(), bed_->pub_ctx, bed_->cloud_key, &bed_->pool);
  SearchEngine have(opened.snapshot, bed_->pub_ctx, bed_->cloud_key, &bed_->pool);
  for (const std::string& term : {touched_q, untouched_q}) {
    Query q{.id = query_id_++, .keywords = {term}};
    EXPECT_EQ(encode_response(want.search(q, SchemeKind::kHybrid)),
              encode_response(have.search(q, SchemeKind::kHybrid)))
        << term;
  }
  fs::remove_all(root);
}

TEST_F(DeltaStoreTest, StackedOpensMatchFreshResolves) {
  // A tiered base, then K deltas — one adding fresh terms, one removing a
  // document whose only term vanishes — each opened stacked on the epoch
  // opened before it.
  auto words = bed_->frequent_terms(8);
  std::string tiered_touched = normalize_term(words[0]);
  std::string tiered_kept = normalize_term(words[7]);
  fs::path root = fresh_root("stacked");
  store::EpochStore store(root);
  SnapshotPtr snap = bed_->vidx.snapshot();
  bed_->owner_ctx.set_pool(&bed_->pool);
  TierPolicy policy;
  policy.hot_terms = {tiered_touched, tiered_kept};
  TierBuildResult tier = build_witness_tier(*snap, bed_->owner_ctx, policy);
  ASSERT_NE(tier.tier, nullptr);
  snap->attach_tier(tier.tier);
  store::TierArtifacts arts{tier.tier, std::move(tier.fixed_base)};
  store.publish(*snap, /*shard_count=*/2, &arts);
  bed_->vidx.note_full_publish();

  store::OpenedEpoch held = store.open_current();
  ASSERT_EQ(held.chain_length, 0u);
  const std::uint32_t victim = next_doc_id_;
  constexpr int kDeltas = 4;
  for (int k = 0; k < kDeltas; ++k) {
    if (k == 2) {
      bed_->vidx.remove_documents(U64Set{victim}, bed_->owner_ctx, bed_->owner_key);
    } else {
      add_doc(k == 0 ? "zzstackvictim" : k == 1 ? "stackfreshterm" : "");
    }
    auto delta = bed_->vidx.publish_delta();
    ASSERT_TRUE(delta.has_value());
    store.publish_delta(*delta, /*shard_count=*/2);

    std::uint64_t opens0 = delta_opens();
    store::OpenedEpoch stacked = store.open_current(store::OpenOptions{}, &held);
    EXPECT_EQ(delta_opens(), opens0 + 1) << "only the new delta is opened";
    store::OpenedEpoch fresh = store.open_current();
    EXPECT_EQ(fresh.chain_length, static_cast<std::uint32_t>(k + 1));
    expect_same_epoch(fresh, stacked);
    held = std::move(stacked);
  }
  EXPECT_EQ(held.snapshot->find(normalize_term("zzstackvictim")), nullptr);
  ASSERT_NE(held.tier, nullptr);
  EXPECT_EQ(held.tier->find(tiered_touched), nullptr);
  EXPECT_NE(held.tier->find(tiered_kept), nullptr);
  expect_proofs_identical(bed_->vidx.snapshot(), held.snapshot);

  // CURRENT has not moved: the held epoch comes back as it is.
  std::uint64_t opens0 = delta_opens();
  store::OpenedEpoch same = store.open_current(store::OpenOptions{}, &held);
  EXPECT_EQ(delta_opens(), opens0);
  EXPECT_EQ(same.snapshot, held.snapshot);
  fs::remove_all(root);
}

TEST_F(DeltaStoreTest, StackedOpenFallsBackToFullResolve) {
  fs::path root = fresh_root("rebase");
  store::EpochStore store(root);
  std::uint64_t base = publish_base(store);
  add_doc();
  auto d1 = bed_->vidx.publish_delta();
  ASSERT_TRUE(d1.has_value());
  store.publish_delta(*d1, /*shard_count=*/2);
  store::OpenedEpoch held = store.open_current();
  ASSERT_EQ(held.base_epoch, base);

  // The held head is compacted: the next open re-bases onto the compacted
  // snapshot instead of stacking on the held chain.
  ASSERT_EQ(store.compact(1), d1->epoch);
  add_doc();
  auto d2 = bed_->vidx.publish_delta();
  ASSERT_TRUE(d2.has_value());
  store.publish_delta(*d2, /*shard_count=*/2);
  store::OpenedEpoch rebased = store.open_current(store::OpenOptions{}, &held);
  EXPECT_EQ(rebased.base_epoch, d1->epoch);
  EXPECT_EQ(rebased.chain_length, 1u);
  expect_same_epoch(store.open_current(), rebased);

  // An epoch held from another store (here a copy at another root) never
  // stacks: every delta of the chain is opened again.
  fs::path copy = fresh_root("rebase_copy");
  fs::copy(root, copy, fs::copy_options::recursive);
  store::EpochStore other(copy);
  add_doc();
  auto d3 = bed_->vidx.publish_delta();
  ASSERT_TRUE(d3.has_value());
  other.publish_delta(*d3, /*shard_count=*/2);
  std::uint64_t opens0 = delta_opens();
  store::OpenedEpoch foreign = other.open_current(store::OpenOptions{}, &rebased);
  EXPECT_EQ(delta_opens(), opens0 + 2);
  EXPECT_EQ(foreign.base_epoch, d1->epoch);
  EXPECT_EQ(foreign.chain_length, 2u);
  expect_same_epoch(other.open_current(), foreign);
  expect_proofs_identical(bed_->vidx.snapshot(), foreign.snapshot);

  // A pinned fingerprint the held layers do not carry is never stacked past.
  Digest wrong{};
  EXPECT_THROW((void)other.open_current(store::OpenOptions{.expected_fingerprint = &wrong},
                                        &foreign),
               store::StoreParamMismatchError);
  fs::remove_all(root);
  fs::remove_all(copy);
}

TEST_F(DeltaStoreTest, CorruptNewDeltaFailsStackedOpen) {
  fs::path root = fresh_root("stacked_corrupt");
  store::EpochStore store(root);
  publish_base(store);
  store::OpenedEpoch held = store.open_current();
  add_doc();
  auto delta = bed_->vidx.publish_delta();
  ASSERT_TRUE(delta.has_value());
  store.publish_delta(*delta, /*shard_count=*/2);
  fs::path file = store.delta_file(delta->epoch);
  flip_byte(file, static_cast<std::size_t>(fs::file_size(file) / 2));
  // The new record is fully CRC-checked on its first stacking.
  EXPECT_THROW((void)store.open_current(store::OpenOptions{}, &held),
               store::StoreCorruptError);
  // The held epoch is untouched and still serves.
  auto words = bed_->frequent_terms(1);
  EXPECT_NE(held.snapshot->find(normalize_term(words[0])), nullptr);
  fs::remove_all(root);
}

}  // namespace
}  // namespace vc
