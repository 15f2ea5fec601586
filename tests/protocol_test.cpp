// Two-party protocol + third-party arbitration + HTTP frontend tests.
#include <gtest/gtest.h>

#include "data/testbed.hpp"
#include "protocol/arbiter.hpp"
#include "protocol/cloud.hpp"
#include "protocol/http.hpp"
#include "protocol/owner.hpp"
#include "support/errors.hpp"
#include "test_fixtures.hpp"
#include "text/stemmer.hpp"
#include "text/tokenizer.hpp"

namespace vc {
namespace {

TestbedOptions small_testbed_options() {
  TestbedOptions opts;
  opts.corpus = SynthSpec{.name = "proto", .num_docs = 50, .min_doc_words = 25,
                          .max_doc_words = 60, .vocab_size = 250, .zipf_s = 0.9, .seed = 31};
  opts.index.modulus_bits = 512;
  opts.index.rep_bits = 64;
  opts.index.interval_size = 8;
  opts.index.prime_mr_rounds = 24;
  opts.index.bloom = BloomParams{.counters = 512, .hashes = 1, .domain = "vc.bloom.docs"};
  opts.pool_workers = 2;
  return opts;
}

class ProtocolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bed_ = new Testbed(small_testbed_options());
    cloud_ = new CloudService(bed_->vindex().snapshot(), bed_->public_ctx(), bed_->cloud_key(),
                              bed_->owner_key().verify_key(), &bed_->pool());
    arbiter_ = new ThirdPartyArbiter(bed_->public_ctx(), bed_->owner_key().verify_key(),
                                     bed_->cloud_key().verify_key(),
                                     bed_->options().index);
  }
  static void TearDownTestSuite() {
    delete arbiter_;
    delete cloud_;
    delete bed_;
  }

  static DataOwner make_owner() {
    return DataOwner(bed_->owner_ctx(), bed_->owner_key(),
                     bed_->cloud_key().verify_key(), bed_->options().index);
  }

  static std::vector<std::string> two_terms() {
    return {synth_word(bed_->options().corpus, 0), synth_word(bed_->options().corpus, 1)};
  }

  static Testbed* bed_;
  static CloudService* cloud_;
  static ThirdPartyArbiter* arbiter_;
};

Testbed* ProtocolTest::bed_ = nullptr;
CloudService* ProtocolTest::cloud_ = nullptr;
ThirdPartyArbiter* ProtocolTest::arbiter_ = nullptr;

TEST_F(ProtocolTest, HonestExchangeVerifies) {
  DataOwner owner = make_owner();
  cloud_->set_behavior(CloudBehavior::kHonest);
  SignedQuery q = owner.issue_query(two_terms());
  SearchResponse resp = cloud_->handle(q);
  EXPECT_NO_THROW(owner.receive_response(resp));
  EXPECT_EQ(owner.transcripts().size(), 1u);
}

TEST_F(ProtocolTest, CloudRejectsUnsignedQuery) {
  DataOwner owner = make_owner();
  SignedQuery q = owner.issue_query(two_terms());
  q.owner_sig.s += Bigint(1);
  EXPECT_THROW((void)cloud_->handle(q), VerifyError);
}

TEST_F(ProtocolTest, DroppedResultCaughtAndArbitrated) {
  DataOwner owner = make_owner();
  cloud_->set_behavior(CloudBehavior::kDropLastResult);
  SignedQuery q = owner.issue_query(two_terms());
  SearchResponse resp = cloud_->handle(q);
  cloud_->set_behavior(CloudBehavior::kHonest);
  EXPECT_THROW(owner.receive_response(resp), VerifyError);
  // The owner proves the cloud's error to a third party.
  const Transcript& evidence = owner.transcript_for(q.query.id);
  EXPECT_EQ(arbiter_->arbitrate(evidence), Ruling::kCloudCheated);
  EXPECT_FALSE(arbiter_->last_reason().empty());
}

TEST_F(ProtocolTest, InflatedWeightCaughtAndArbitrated) {
  DataOwner owner = make_owner();
  cloud_->set_behavior(CloudBehavior::kInflateWeight);
  SignedQuery q = owner.issue_query(two_terms());
  SearchResponse resp = cloud_->handle(q);
  cloud_->set_behavior(CloudBehavior::kHonest);
  EXPECT_THROW(owner.receive_response(resp), VerifyError);
  EXPECT_EQ(arbiter_->arbitrate(owner.transcript_for(q.query.id)), Ruling::kCloudCheated);
}

TEST_F(ProtocolTest, FalseAccusationDismissed) {
  // The owner presents a perfectly valid transcript claiming cloud fraud;
  // the arbiter dismisses it (the cloud can't be framed, §III-F).
  DataOwner owner = make_owner();
  cloud_->set_behavior(CloudBehavior::kHonest);
  SignedQuery q = owner.issue_query(two_terms());
  SearchResponse resp = cloud_->handle(q);
  owner.receive_response(resp);
  EXPECT_EQ(arbiter_->arbitrate(owner.transcript_for(q.query.id)), Ruling::kResponseValid);
}

TEST_F(ProtocolTest, ForgedQueryRuledAgainstOwner) {
  DataOwner owner = make_owner();
  SignedQuery q = owner.issue_query(two_terms());
  SearchResponse resp = cloud_->handle(q);
  Transcript forged{q, resp};
  forged.query.query.keywords.push_back("injected");  // signature now stale
  EXPECT_EQ(arbiter_->arbitrate(forged), Ruling::kQueryForged);
}

TEST_F(ProtocolTest, MismatchedTranscriptDetected) {
  DataOwner owner = make_owner();
  SignedQuery q1 = owner.issue_query(two_terms());
  SignedQuery q2 = owner.issue_query({two_terms()[0]});
  SearchResponse resp2 = cloud_->handle(q2);
  Transcript mixed{q1, resp2};  // response answers a different query
  EXPECT_EQ(arbiter_->arbitrate(mixed), Ruling::kMismatched);
}

TEST_F(ProtocolTest, OwnerRejectsResponseToUnknownQuery) {
  DataOwner owner = make_owner();
  SignedQuery q = owner.issue_query(two_terms());
  SearchResponse resp = cloud_->handle(q);
  resp.query_id = 999;
  EXPECT_THROW(owner.receive_response(resp), VerifyError);
}

TEST_F(ProtocolTest, HttpRoundtrip) {
  cloud_->set_behavior(CloudBehavior::kHonest);
  HttpFrontend frontend(*cloud_);
  frontend.start();
  DataOwner owner = make_owner();
  SignedQuery q = owner.issue_query(two_terms());
  // The service is shared by the suite: count this request, not the total.
  const std::uint64_t served0 = cloud_->queries_served();
  SearchResponse resp = http_search(frontend.port(), q);
  EXPECT_NO_THROW(owner.receive_response(resp));
  EXPECT_EQ(http_request(frontend.port(), "GET", "/healthz", ""), "ok\n");
  std::string stats = http_request(frontend.port(), "GET", "/stats", "");
  EXPECT_NE(stats.find("\"queries_served\":" + std::to_string(served0 + 1) + ","),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"uptime_seconds\""), std::string::npos);
  std::string metrics = http_request(frontend.port(), "GET", "/metrics", "");
  EXPECT_NE(metrics.find("# TYPE vc_cloud_queries_total counter"), std::string::npos);
  EXPECT_NE(metrics.find("vc_stage_seconds_bucket"), std::string::npos);
  frontend.stop();
}

TEST_F(ProtocolTest, HttpRejectsBadRequests) {
  HttpFrontend frontend(*cloud_);
  frontend.start();
  EXPECT_THROW((void)http_request(frontend.port(), "POST", "/search", "nothex!"), Error);
  EXPECT_THROW((void)http_request(frontend.port(), "GET", "/bogus", ""), Error);
  frontend.stop();
}

TEST_F(ProtocolTest, SignedQuerySerializationRoundtrip) {
  DataOwner owner = make_owner();
  SignedQuery q = owner.issue_query({"alpha", "beta"});
  ByteWriter w;
  q.write(w);
  ByteReader r(w.data());
  EXPECT_EQ(SignedQuery::read(r), q);
}

// --- workload shape -------------------------------------------------------------

// A boolean query naming a word that normalize_term does not fix in one
// pass must be served against its once-normalized leaves.  The engine used
// to normalize the leaves a second time ("mudimicer" -> "mudimic" ->
// "mudim"), classify "mudim" as unknown and have its honest response
// rejected with "expression leaves do not match proven terms".
TEST(BooleanNormalization, NonIdempotentStemIsServedAndVerified) {
  ASSERT_EQ(normalize_term("mudimicer"), "mudimic");
  ASSERT_NE(normalize_term("mudimic"), "mudimic");  // the case this test is for

  Corpus corpus;
  corpus.add("d0", "gojuniku mudimicer harbor");
  corpus.add("d1", "mudimicer harbor lantern");
  corpus.add("d2", "gojuniku lantern");
  corpus.add("d3", "harbor lantern quiet");
  VerifiableIndexConfig cfg = testbed::small_config();
  auto owner_ctx = AccumulatorContext::owner(standard_accumulator_modulus(cfg.modulus_bits),
                                             standard_qr_generator(cfg.modulus_bits));
  auto pub_ctx = AccumulatorContext::public_side(owner_ctx.params());
  DeterministicRng rng(1701);
  SigningKey owner_key = generate_signing_key(rng, 512);
  SigningKey cloud_key = generate_signing_key(rng, 512);
  ThreadPool pool(2);
  IndexBuilder vidx =
      IndexBuilder::build(InvertedIndex::build(corpus), owner_ctx, owner_key, cfg, pool);
  ASSERT_NE(vidx.find("mudimic"), nullptr);

  for (SchemeKind scheme : {SchemeKind::kAccumulator, SchemeKind::kBloom,
                            SchemeKind::kIntervalAccumulator, SchemeKind::kHybrid}) {
    CloudService cloud(vidx.snapshot(), pub_ctx, cloud_key, owner_key.verify_key(), &pool,
                       scheme);
    DataOwner owner(owner_ctx, owner_key, cloud_key.verify_key(), cfg);
    SearchResponse resp = cloud.handle(owner.issue_expression_query("gojuniku OR mudimicer"));
    ASSERT_NO_THROW(owner.receive_response(resp)) << scheme_name(scheme);
    const auto& body = std::get<BooleanQueryResponse>(resp.body);
    EXPECT_EQ(body.terms, (std::vector<std::string>{"gojuniku", "mudimic"}));
    EXPECT_EQ(body.docs, (std::vector<std::uint64_t>{0, 1, 2}));
  }
}

TEST(Workload, PaperMixShape) {
  SynthSpec spec{.name = "w", .num_docs = 100, .vocab_size = 1000, .seed = 7};
  auto workload = paper_query_workload(spec);
  ASSERT_EQ(workload.size(), 24u);
  int singles = 0, twos = 0, threes = 0, unknowns = 0;
  for (const auto& wq : workload) {
    if (wq.keyword_count == 1) ++singles;
    if (wq.keyword_count == 2) ++twos;
    if (wq.keyword_count == 3) ++threes;
    if (wq.has_unknown) ++unknowns;
  }
  EXPECT_EQ(singles, 2);
  EXPECT_EQ(twos, 16);
  EXPECT_EQ(threes, 6);
  EXPECT_EQ(unknowns, 2);
}

TEST(Workload, MultiKeywordQueriesHaveDistinctKeywords) {
  SynthSpec spec{.name = "w2", .num_docs = 100, .vocab_size = 1000, .seed = 8};
  for (const auto& wq : paper_query_workload(spec)) {
    std::set<std::string> uniq(wq.query.keywords.begin(), wq.query.keywords.end());
    EXPECT_EQ(uniq.size(), wq.query.keywords.size());
  }
}

TEST(Workload, KnownMultiFilter) {
  SynthSpec spec{.name = "w3", .num_docs = 100, .vocab_size = 1000, .seed = 9};
  auto workload = paper_query_workload(spec);
  auto multi = known_multi_queries(workload);
  EXPECT_EQ(multi.size(), 20u);  // 15 two-keyword + 5 three-keyword known
  for (const auto& q : multi) EXPECT_GE(q.keywords.size(), 2u);
}

TEST(Workload, Deterministic) {
  SynthSpec spec{.name = "w4", .num_docs = 100, .vocab_size = 1000, .seed = 10};
  auto a = paper_query_workload(spec);
  auto b = paper_query_workload(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].query, b[i].query);
}

}  // namespace
}  // namespace vc
