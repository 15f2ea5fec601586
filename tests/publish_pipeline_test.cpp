// Async per-shard epoch publication pipeline (tentpole of the publish
// subsystem): a fault-injected slow shard must never delay the others'
// swaps, queries mid-pipeline pin one fully-published epoch, superseded
// epochs are dropped (newest wins, bounded staging), the warm stage keeps
// every cold-path counter flat for the warmed hot set, and the whole
// machinery survives a TSan hammer of concurrent publishes, verifying
// queries and background compaction.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "obs/metrics.hpp"
#include "protocol/cloud.hpp"
#include "store/epoch_store.hpp"
#include "support/errors.hpp"
#include "test_fixtures.hpp"
#include "text/stemmer.hpp"
#include "text/synth.hpp"
#include "vindex/witness_tier.hpp"

namespace vc {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

std::uint64_t counter_value(const char* name, const std::string& labels = "") {
  return obs::MetricsRegistry::global().counter(name, labels).value();
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

constexpr bool kSanitized =
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
    true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

// Swap-latency gate for the non-stalled shards.  The acceptance bound is
// 50 ms in optimized builds; debug/sanitizer legs run the same assertions
// with slack, still far under the 500 ms stall — so the independence claim
// (fast shards swap while the slow one sleeps) is proved on every leg.
#ifdef NDEBUG
constexpr double kSwapBoundMs = kSanitized ? 400.0 : 50.0;
#else
constexpr double kSwapBoundMs = 400.0;
#endif

constexpr std::uint64_t kStallMs = 500;

TEST(PublishPipeline, SlowShardNeverDelaysOthers) {
  SynthSpec spec{.name = "apub", .num_docs = 40, .min_doc_words = 20,
                 .max_doc_words = 45, .vocab_size = 160, .zipf_s = 0.9, .seed = 15};
  testbed::TestBed bed(spec, testbed::small_config(256, "apub"), /*key_seed=*/701,
                       /*threads=*/2);
  CloudService cloud(bed.vidx.snapshot(), bed.pub_ctx, bed.cloud_key,
                     bed.owner_key.verify_key(), /*pool=*/nullptr,
                     SchemeKind::kHybrid, /*shards=*/4);
  cloud.enable_async_publish();
  cloud.wait_published(1);  // boot restage settles before the fault goes in

  std::vector<std::string> words = bed.frequent_terms(2);
  ResultVerifier verifier = bed.owner_verifier();
  auto run_query = [&](std::uint64_t id) {
    Query q{.id = id, .keywords = words};
    SignedQuery sq{q, bed.owner_key.sign(q.encode())};
    return cloud.handle(sq);
  };

  // Shard 0's worker sleeps half a second before its swap; the other three
  // lanes must not care.  The next snapshot is built before the clock
  // starts so only pipeline latency is measured.
  std::uint64_t swaps0 = counter_value("vc_shard_publishes_total", "shard=\"0\"");
  cloud.set_publish_stall_for_test(0, kStallMs);
  bed.vidx.add_documents(
      {Document{spec.num_docs, "upd-0", words[0] + " " + words[1]}},
      bed.owner_ctx, bed.owner_key);
  SnapshotPtr next = bed.vidx.snapshot();
  ASSERT_EQ(next->epoch(), 2u);

  auto t0 = Clock::now();
  cloud.publish(next);
  EXPECT_LT(ms_since(t0), kSwapBoundMs) << "publish() must only stage and return";

  while (cloud.epoch() < 2 && ms_since(t0) < 5000.0) std::this_thread::yield();
  double swap_ms = ms_since(t0);
  ASSERT_EQ(cloud.epoch(), 2u);
  EXPECT_LT(swap_ms, kSwapBoundMs)
      << "fast shards must swap while shard 0 is still stalled";

  // Mid-stall queries pin the newest fully-built state and verify; the
  // straggler's slot still holds epoch 1 but is never consulted for
  // serving (max-epoch pinning).
  SearchResponse mid = run_query(1);
  EXPECT_EQ(mid.epoch, 2u);
  ASSERT_NO_THROW(verifier.verify(mid));

  cloud.wait_published(2);  // waits out the stalled lane
  EXPECT_GE(ms_since(t0), static_cast<double>(kStallMs))
      << "the stalled shard really slept before swapping";
  EXPECT_GE(counter_value("vc_shard_publishes_total", "shard=\"0\""), swaps0 + 1);
  SearchResponse after = run_query(2);
  EXPECT_EQ(after.epoch, 2u);
  ASSERT_NO_THROW(verifier.verify(after));
}

TEST(PublishPipeline, NewestWinsDropsSupersededEpochs) {
  SynthSpec spec{.name = "nwin", .num_docs = 30, .min_doc_words = 20,
                 .max_doc_words = 40, .vocab_size = 140, .zipf_s = 0.9, .seed = 21};
  testbed::TestBed bed(spec, testbed::small_config(256, "nwin"), /*key_seed=*/702,
                       /*threads=*/2);
  CloudService cloud(bed.vidx.snapshot(), bed.pub_ctx, bed.cloud_key,
                     bed.owner_key.verify_key(), /*pool=*/nullptr,
                     SchemeKind::kHybrid, /*shards=*/2);
  cloud.enable_async_publish();
  cloud.wait_published(1);

  std::vector<std::string> words = bed.frequent_terms(2);
  // Build three epochs up front, then stage them faster than the stalled
  // workers can drain: each depth-1 lane must skip at least one superseded
  // epoch instead of queueing it.
  std::vector<SnapshotPtr> epochs;
  for (std::uint32_t u = 0; u < 3; ++u) {
    bed.vidx.add_documents(
        {Document{spec.num_docs + u, "nw-" + std::to_string(u),
                  words[0] + " " + words[1]}},
        bed.owner_ctx, bed.owner_key);
    epochs.push_back(bed.vidx.snapshot());
  }
  for (std::size_t s = 0; s < cloud.shard_count(); ++s) {
    cloud.set_publish_stall_for_test(s, 200);
  }
  std::uint64_t dropped0 = counter_value("vc_publish_dropped_total");
  std::uint64_t staged0 = counter_value("vc_async_publishes_total");
  for (const SnapshotPtr& snap : epochs) cloud.publish(snap);
  cloud.wait_published(epochs.back()->epoch());
  for (std::size_t s = 0; s < cloud.shard_count(); ++s) {
    cloud.set_publish_stall_for_test(s, 0);
  }

  EXPECT_EQ(cloud.epoch(), epochs.back()->epoch());
  EXPECT_EQ(counter_value("vc_async_publishes_total") - staged0, 3u);
  EXPECT_GE(counter_value("vc_publish_dropped_total") - dropped0, 1u)
      << "three epochs through stalled depth-1 lanes must supersede at least one";

  ResultVerifier verifier = bed.owner_verifier();
  verifier.pin_epoch(cloud.epoch());
  Query q{.id = 99, .keywords = words};
  SignedQuery sq{q, bed.owner_key.sign(q.encode())};
  SearchResponse resp = cloud.handle(sq);
  ASSERT_NO_THROW(verifier.verify(resp));
}

// The warm stage must leave nothing for the first post-swap queries to
// materialize: entry decode, tier table decode and tier misses all stay
// flat for the warmed hot set, and the tier lookups are counted as warm
// hits.  This is the "zero cold-path materializations" acceptance gate.
TEST(PublishPipeline, WarmStageAvoidsColdPathForHotTerms) {
  constexpr std::size_t kDocs = 64;
  constexpr std::size_t kHot = 4;
  constexpr std::size_t kSel = 4;
  auto hot = [](std::size_t i) { return std::string("hotz") + char('a' + i); };
  auto sel = [](std::size_t i) { return std::string("selz") + char('a' + i); };
  // Same shape as the witness-tier suite's corpus: hot terms everywhere,
  // selector terms one per interval stride, so tiered aggregation is
  // profitable and every pair query is served from the tier.
  Corpus corpus("warm");
  for (std::size_t d = 0; d < kDocs; ++d) {
    std::string text;
    for (std::size_t i = 0; i < kHot; ++i) text += hot(i) + " ";
    if (d % (kDocs / kSel) == 0) {
      for (std::size_t i = 0; i < kHot; ++i) text += sel(i) + " ";
    }
    text += "fillerz" + std::string(1 + d / 26, static_cast<char>('a' + d % 26));
    corpus.add("d" + std::to_string(d), std::move(text));
  }
  VerifiableIndexConfig cfg = testbed::small_config(256, "vc.warm.bloom");
  auto owner_ctx = AccumulatorContext::owner(
      standard_accumulator_modulus(cfg.modulus_bits),
      standard_qr_generator(cfg.modulus_bits));
  DeterministicRng rng(41, "vc.warm.keys");
  SigningKey owner_key = generate_signing_key(rng, cfg.modulus_bits);
  SigningKey cloud_key = generate_signing_key(rng, cfg.modulus_bits);
  ThreadPool pool(2);
  owner_ctx.set_pool(&pool);
  IndexBuilder vidx = IndexBuilder::build(InvertedIndex::build(corpus), owner_ctx,
                                          owner_key, cfg, pool);
  SnapshotPtr snap = vidx.snapshot();

  TierPolicy policy;
  for (std::size_t i = 0; i < kHot; ++i) {
    policy.hot_terms.push_back(normalize_term(hot(i)));
    policy.hot_terms.push_back(normalize_term(sel(i)));
  }
  TierBuildResult built = build_witness_tier(*snap, owner_ctx, policy);
  ASSERT_NE(built.tier, nullptr);

  fs::path root = fs::path(::testing::TempDir()) /
                  ("vc_warm_pipeline." + std::to_string(::getpid()));
  fs::remove_all(root);
  store::EpochStore store(root);
  store::TierArtifacts artifacts{built.tier, built.fixed_base};
  store.publish(*snap, /*shard_count=*/2, &artifacts);

  // Reopen lazily with NO warm-on-open budget: every entry and tier table
  // starts cold — exactly the state the pipeline's warm stage is for.
  store::OpenedEpoch opened = store::EpochStore(root).open_current();
  ASSERT_NE(opened.tier, nullptr);
  auto pub_ctx = AccumulatorContext::public_side(owner_ctx.params());
  pub_ctx.set_pool(&pool);
  if (opened.fixed_base && opened.fixed_base->base == pub_ctx.g()) {
    pub_ctx.adopt_fixed_base(*opened.fixed_base);
  }
  CloudService cloud(opened.snapshot, pub_ctx, cloud_key, owner_key.verify_key(),
                     /*pool=*/nullptr, SchemeKind::kHybrid, /*shards=*/2);

  std::uint64_t warm_terms0 = counter_value("vc_warm_terms_total");
  std::uint64_t warm_bytes0 = counter_value("vc_warm_bytes_total");
  cloud.enable_async_publish(PublishConfig{.warm_budget_bytes = 1ull << 30});
  // The boot restage warms off the serving path (the slots already hold
  // this epoch, so wait_published is immediate); wait for both lanes' warm
  // stages to finish before taking the cold-path baselines.
  auto warm_t0 = Clock::now();
  while (counter_value("vc_warm_terms_total") - warm_terms0 <
             static_cast<std::uint64_t>(built.tier->term_count()) &&
         ms_since(warm_t0) < 10000.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(counter_value("vc_warm_terms_total") - warm_terms0,
            static_cast<std::uint64_t>(built.tier->term_count()))
      << "both shards together must warm the whole hot set under a big budget";
  EXPECT_GT(counter_value("vc_warm_bytes_total"), warm_bytes0);

  std::uint64_t entries0 = counter_value("vc_store_entries_materialized_total");
  std::uint64_t tiermat0 = counter_value("vc_witness_tier_materializations_total");
  std::uint64_t misses0 = counter_value("vc_witness_tier_misses");
  std::uint64_t warmhits0 = counter_value("vc_warm_hits_total");

  ResultVerifier verifier(owner_ctx, owner_key.verify_key(), cloud_key.verify_key(),
                          cfg);
  for (std::size_t i = 0; i < kHot; ++i) {
    Query q{.id = i + 1, .keywords = {hot(i), sel(i)}};
    SignedQuery sq{q, owner_key.sign(q.encode())};
    SearchResponse resp = cloud.handle(sq);
    ASSERT_NO_THROW(verifier.verify(resp)) << "pair " << i;
  }
  EXPECT_EQ(counter_value("vc_store_entries_materialized_total"), entries0)
      << "warmed entries must not decode again on the query path";
  EXPECT_EQ(counter_value("vc_witness_tier_materializations_total"), tiermat0)
      << "warmed tier tables must not decode again on the query path";
  EXPECT_EQ(counter_value("vc_witness_tier_misses"), misses0)
      << "no warmed term may fall back to the compute path";
  EXPECT_GT(counter_value("vc_warm_hits_total"), warmhits0);
  fs::remove_all(root);
}

// TSan target: concurrent async publishes (with a brief injected stall and
// lane supersession), verifying queries pinning monotonically increasing
// epochs, delta publication into the store and a background compaction
// worker all running against each other.
TEST(PublishPipeline, PublishHammerWithQueriesAndCompaction) {
  SynthSpec spec{.name = "ham", .num_docs = 30, .min_doc_words = 20,
                 .max_doc_words = 40, .vocab_size = 140, .zipf_s = 0.9, .seed = 33};
  testbed::TestBed bed(spec, testbed::small_config(256, "ham"), /*key_seed=*/703,
                       /*threads=*/2);
  fs::path root = fs::path(::testing::TempDir()) /
                  ("vc_publish_hammer." + std::to_string(::getpid()));
  fs::remove_all(root);
  store::EpochStore store(root);
  store.publish(*bed.vidx.snapshot(), /*shard_count=*/2);
  bed.vidx.note_full_publish();  // deltas chain to this base from here on

  CloudService cloud(bed.vidx.snapshot(), bed.pub_ctx, bed.cloud_key,
                     bed.owner_key.verify_key(), /*pool=*/nullptr,
                     SchemeKind::kHybrid, /*shards=*/4);
  cloud.enable_async_publish();
  store::CompactionWorker compactor(
      store, store::CompactionWorker::Options{.max_chain_length = 2,
                                              .poll_interval_ms = 5});
  compactor.start();

  std::vector<std::string> words = bed.frequent_terms(2);
  ResultVerifier verifier = bed.owner_verifier();
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 5;
  constexpr std::uint32_t kUpdates = 4;

  ThreadPool pool(kThreads);
  std::vector<std::future<void>> futs;
  for (int t = 0; t < kThreads; ++t) {
    futs.push_back(pool.submit([&, t] {
      std::uint64_t last_epoch = 0;
      for (int i = 0; i < kQueriesPerThread; ++i) {
        Query q{.id = static_cast<std::uint64_t>(t * 100 + i), .keywords = words};
        SignedQuery sq{q, bed.owner_key.sign(q.encode())};
        SearchResponse resp = cloud.handle(sq);
        verifier.verify(resp);
        EXPECT_GE(resp.epoch, last_epoch);
        last_epoch = resp.epoch;
      }
    }));
  }
  // The owner keeps shipping epochs: every update goes to the store as a
  // delta (feeding the compactor) and to the serving core through the
  // async lanes, one of which briefly stalls mid-hammer.
  for (std::uint32_t u = 0; u < kUpdates; ++u) {
    if (u == 1) cloud.set_publish_stall_for_test(u % cloud.shard_count(), 10);
    bed.vidx.add_documents(
        {Document{spec.num_docs + u, "ham-" + std::to_string(u),
                  words[0] + " " + words[1] + " hammerterm"}},
        bed.owner_ctx, bed.owner_key);
    auto delta = bed.vidx.publish_delta();
    ASSERT_TRUE(delta.has_value());
    store.publish_delta(*delta, /*shard_count=*/2);
    // Alternate the two publish entry points: the in-memory snapshot, and
    // the store's CURRENT stacked on the epoch the cloud holds (racing the
    // compactor's re-bases).
    if (u % 2 == 0) {
      cloud.publish(bed.vidx.snapshot());
    } else {
      EXPECT_EQ(cloud.publish_from(store), delta->epoch);
    }
  }
  for (auto& f : futs) f.get();
  cloud.wait_published(1 + kUpdates);
  EXPECT_EQ(cloud.epoch(), 1u + kUpdates);
  compactor.stop();

  // Settled state serves and verifies at the final epoch; a replay from an
  // earlier epoch is rejected.
  verifier.pin_epoch(cloud.epoch());
  Query q{.id = 9999, .keywords = words};
  SignedQuery sq{q, bed.owner_key.sign(q.encode())};
  SearchResponse resp = cloud.handle(sq);
  ASSERT_NO_THROW(verifier.verify(resp));
  resp.epoch -= 1;
  EXPECT_THROW(verifier.verify(resp), VerifyError);
  fs::remove_all(root);
}

Bytes encode_response(const SearchResponse& resp) {
  ByteWriter w;
  resp.write(w);
  return std::move(w).take();
}

// publish_from stacks each new delta on the epoch the cloud holds.  In
// every scheme the responses must match a cloud booted fresh from the same
// store; no publish may rebuild the fixed-base table whole; each publish
// opens exactly one delta record; and a damaged delta leaves the cloud
// serving the epoch it had.
TEST(PublishFrom, StackedPublishesMatchFreshBoot) {
  // 36 documents plus 5 keep the longest posting list within one window
  // step of the fixed-base table (pick_window is 6 for 960 < bits <= 2688
  // at 64-bit representatives), so every widening is a growth.
  SynthSpec spec{.name = "pfrom", .num_docs = 36, .min_doc_words = 20,
                 .max_doc_words = 45, .vocab_size = 150, .zipf_s = 0.9, .seed = 27};
  testbed::TestBed bed(spec, testbed::small_config(256, "pfrom"), /*key_seed=*/704,
                       /*threads=*/2);
  bed.owner_ctx.set_pool(&bed.pool);
  std::vector<std::string> words = bed.frequent_terms(3);
  TierPolicy policy;
  policy.hot_terms = {normalize_term(words[0]), normalize_term(words[2])};
  TierBuildResult built = build_witness_tier(*bed.vidx.snapshot(), bed.owner_ctx, policy);
  ASSERT_NE(built.tier, nullptr);

  fs::path root = fs::path(::testing::TempDir()) /
                  ("vc_publish_from." + std::to_string(::getpid()));
  fs::remove_all(root);
  store::EpochStore store(root);
  store::TierArtifacts artifacts{built.tier, built.fixed_base};
  store.publish(*bed.vidx.snapshot(), /*shard_count=*/1, &artifacts);
  bed.vidx.note_full_publish();

  // Boots a cloud from the store as vcsearch-serve does: open CURRENT,
  // adopt the persisted fixed-base table, serve.
  auto boot = [&](SchemeKind scheme) {
    store::OpenedEpoch opened = store.open_current();
    AccumulatorContext ctx = bed.pub_ctx;
    if (opened.fixed_base != nullptr) ctx.adopt_fixed_base(*opened.fixed_base);
    return std::make_unique<CloudService>(opened.snapshot, ctx, bed.cloud_key,
                                          bed.owner_key.verify_key(), &bed.pool, scheme);
  };
  const std::vector<SchemeKind> schemes = {SchemeKind::kHybrid, SchemeKind::kAccumulator,
                                           SchemeKind::kBloom,
                                           SchemeKind::kIntervalAccumulator};
  std::vector<std::unique_ptr<CloudService>> stacked;
  for (SchemeKind scheme : schemes) stacked.push_back(boot(scheme));

  const std::string full = "kind=\"full\"";
  const std::uint64_t full0 = counter_value("vc_fixedbase_builds_total", full);
  constexpr std::uint32_t kUpdates = 5;
  for (std::uint32_t u = 0; u < kUpdates; ++u) {
    bed.vidx.add_documents(
        {Document{spec.num_docs + u, "pf-" + std::to_string(u),
                  words[0] + " " + words[1] + " pfromterm" + static_cast<char>('a' + u)}},
        bed.owner_ctx, bed.owner_key);
    auto delta = bed.vidx.publish_delta();
    ASSERT_TRUE(delta.has_value());
    store.publish_delta(*delta, /*shard_count=*/1);
    for (auto& cloud : stacked) {
      const std::uint64_t opens0 = counter_value("vc_store_delta_opens_total");
      EXPECT_EQ(cloud->publish_from(store), delta->epoch);
      // The first call resolves the one-delta chain cold; every later one
      // opens the new record alone.
      EXPECT_EQ(counter_value("vc_store_delta_opens_total"), opens0 + 1);
    }
  }
  EXPECT_EQ(counter_value("vc_fixedbase_builds_total", full), full0)
      << "publishes must grow the held fixed-base table, never rebuild it";

  ResultVerifier verifier = bed.owner_verifier();
  const std::vector<std::vector<std::string>> keywords = {
      {words[0], words[1]}, {words[2]}, {"pfromtermc", words[0]}, {"zzznotindexedzzz"}};
  std::uint64_t id = 1;
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    auto fresh = boot(schemes[i]);
    ASSERT_EQ(fresh->epoch(), stacked[i]->epoch());
    for (const auto& kws : keywords) {
      Query q{.id = id++, .keywords = kws};
      SignedQuery sq{q, bed.owner_key.sign(q.encode())};
      SearchResponse have = stacked[i]->handle(sq);
      EXPECT_NO_THROW(verifier.verify(have)) << scheme_name(schemes[i]);
      EXPECT_EQ(encode_response(have), encode_response(fresh->handle(sq)))
          << scheme_name(schemes[i]) << " " << kws[0];
    }
  }

  // A damaged new delta fails the publish; the cloud keeps its epoch.
  bed.vidx.add_documents({Document{spec.num_docs + kUpdates, "pf-bad", words[0]}},
                         bed.owner_ctx, bed.owner_key);
  auto bad = bed.vidx.publish_delta();
  ASSERT_TRUE(bad.has_value());
  store.publish_delta(*bad, /*shard_count=*/1);
  {
    const fs::path file = store.delta_file(bad->epoch);
    std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    const auto mid = static_cast<std::streamoff>(fs::file_size(file) / 2);
    char c = 0;
    f.seekg(mid);
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x01);
    f.seekp(mid);
    f.write(&c, 1);
  }
  CloudService& cloud = *stacked[0];
  const std::uint64_t served = cloud.epoch();
  EXPECT_THROW(cloud.publish_from(store), store::StoreCorruptError);
  EXPECT_EQ(cloud.epoch(), served);
  verifier.pin_epoch(served);
  Query q{.id = id++, .keywords = {words[0], words[1]}};
  SearchResponse resp = cloud.handle(SignedQuery{q, bed.owner_key.sign(q.encode())});
  EXPECT_EQ(resp.epoch, served);
  EXPECT_NO_THROW(verifier.verify(resp));
  fs::remove_all(root);
}

}  // namespace
}  // namespace vc
