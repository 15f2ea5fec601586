// Full-lifecycle integration test: build → outsource (save/load + receipt
// validation) → serve over HTTP → verified queries → incremental adds →
// deletes → verified queries again → dispute arbitration.  One scenario
// exercising every subsystem against the same index.
#include <gtest/gtest.h>

#include <filesystem>

#include "crypto/standard_params.hpp"
#include "protocol/arbiter.hpp"
#include "protocol/cloud.hpp"
#include "protocol/http.hpp"
#include "protocol/owner.hpp"
#include "support/errors.hpp"
#include "support/threadpool.hpp"
#include "temp_path.hpp"
#include "text/stemmer.hpp"
#include "text/synth.hpp"
#include "vindex/index_builder.hpp"

namespace vc {
namespace {

TEST(Lifecycle, EndToEnd) {
  // --- owner-side setup ------------------------------------------------------
  VerifiableIndexConfig cfg;
  cfg.modulus_bits = 512;
  cfg.rep_bits = 64;
  cfg.interval_size = 8;
  cfg.prime_mr_rounds = 24;
  cfg.bloom = BloomParams{.counters = 256, .hashes = 1, .domain = "life"};
  auto owner_ctx = AccumulatorContext::owner(standard_accumulator_modulus(512),
                                             standard_qr_generator(512));
  auto pub_ctx = AccumulatorContext::public_side(owner_ctx.params());
  DeterministicRng rng(1101);
  SigningKey owner_key = generate_signing_key(rng, 512);
  SigningKey cloud_key = generate_signing_key(rng, 512);
  ThreadPool pool(2);

  SynthSpec spec{.name = "life", .num_docs = 45, .min_doc_words = 20,
                 .max_doc_words = 50, .vocab_size = 220, .zipf_s = 0.9, .seed = 81};
  Corpus corpus = generate_corpus(spec);
  IndexBuilder built = IndexBuilder::build(InvertedIndex::build(corpus), owner_ctx,
                                                 owner_key, cfg, pool);

  // --- outsource: serialize, reload as the cloud, validate receipt -----------
  auto path = testing_paths::unique_temp_path("vc_lifecycle.vc").string();
  built.save(path);
  IndexBuilder vidx = IndexBuilder::load(path);
  std::filesystem::remove(path);
  ASSERT_NO_THROW(vidx.validate(owner_key.verify_key()));

  CloudService cloud(vidx.snapshot(), pub_ctx, cloud_key, owner_key.verify_key(), &pool);
  HttpFrontend frontend(cloud);
  frontend.start();
  DataOwner owner(owner_ctx, owner_key, cloud_key.verify_key(), cfg);

  std::string w5 = synth_word(spec, 5), w9 = synth_word(spec, 9);

  // --- query 1: verified multi-keyword search over HTTP ----------------------
  {
    SignedQuery q = owner.issue_query({w5, w9});
    SearchResponse resp = http_search(frontend.port(), q);
    ASSERT_NO_THROW(owner.receive_response(resp));
  }

  // --- incremental add: new doc matches the query ----------------------------
  {
    std::vector<Document> docs = {Document{45, "new", w5 + " " + w9 + " freshterm"}};
    vidx.add_documents(docs, owner_ctx, owner_key);
    cloud.publish(vidx.snapshot());  // push the new epoch to the serving core
    SignedQuery q = owner.issue_query({w5, w9});
    SearchResponse resp = http_search(frontend.port(), q);
    ASSERT_NO_THROW(owner.receive_response(resp));
    const auto& multi = std::get<MultiKeywordResponse>(resp.body);
    EXPECT_TRUE(std::binary_search(multi.result.docs.begin(), multi.result.docs.end(),
                                   std::uint64_t{45}));
  }

  // --- delete it again: result set shrinks back, proofs still verify ---------
  {
    U64Set gone = {45};
    vidx.remove_documents(gone, owner_ctx, owner_key);
    cloud.publish(vidx.snapshot());
    SignedQuery q = owner.issue_query({w5, w9});
    SearchResponse resp = http_search(frontend.port(), q);
    ASSERT_NO_THROW(owner.receive_response(resp));
    const auto& multi = std::get<MultiKeywordResponse>(resp.body);
    EXPECT_FALSE(std::binary_search(multi.result.docs.begin(), multi.result.docs.end(),
                                    std::uint64_t{45}));
    // The transient term vanished with its only document.
    SignedQuery uq = owner.issue_query({"freshterm"});
    SearchResponse uresp = http_search(frontend.port(), uq);
    ASSERT_NO_THROW(owner.receive_response(uresp));
    EXPECT_TRUE(std::holds_alternative<UnknownKeywordResponse>(uresp.body));
  }

  // --- dispute: the cloud turns dishonest, arbitration convicts it ------------
  ThirdPartyArbiter arbiter(pub_ctx, owner_key.verify_key(), cloud_key.verify_key(), cfg);
  {
    cloud.set_behavior(CloudBehavior::kDropLastResult);
    SignedQuery q = owner.issue_query({w5, w9});
    SearchResponse resp = http_search(frontend.port(), q);
    cloud.set_behavior(CloudBehavior::kHonest);
    EXPECT_THROW(owner.receive_response(resp), VerifyError);
    EXPECT_EQ(arbiter.arbitrate(owner.transcript_for(q.query.id)), Ruling::kCloudCheated);
  }
  // And the earlier honest transcripts hold up.
  EXPECT_EQ(arbiter.arbitrate(owner.transcripts().front()), Ruling::kResponseValid);

  frontend.stop();
}

}  // namespace
}  // namespace vc
