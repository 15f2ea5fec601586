// Unit tests for the proof data model: canonical serialization, statement
// signing, evidence forms, and the hybrid policy estimator.
#include <gtest/gtest.h>

#include "crypto/standard_params.hpp"
#include "proof/hybrid_policy.hpp"
#include "proof/proof_types.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"

namespace vc {
namespace {

TEST(SchemeName, AllSchemesNamed) {
  EXPECT_STREQ(scheme_name(SchemeKind::kAccumulator), "Accumulator");
  EXPECT_STREQ(scheme_name(SchemeKind::kBloom), "Bloom");
  EXPECT_STREQ(scheme_name(SchemeKind::kIntervalAccumulator), "IntervalAccumulator");
  EXPECT_STREQ(scheme_name(SchemeKind::kHybrid), "Hybrid");
}

TEST(SearchResultSerialization, Roundtrip) {
  SearchResult r;
  r.keywords = {"alpha", "beta"};
  r.docs = {2, 5, 9};
  r.postings = {{{2, 1}, {5, 3}, {9, 2}}, {{2, 7}, {5, 1}, {9, 9}}};
  ByteWriter w;
  r.write(w);
  ByteReader reader(w.data());
  EXPECT_EQ(SearchResult::read(reader), r);
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(r.encoded_size(), w.size());
}

TEST(SearchResultSerialization, EmptyResult) {
  SearchResult r;
  r.keywords = {"a", "b"};
  r.postings = {{}, {}};
  ByteWriter w;
  r.write(w);
  ByteReader reader(w.data());
  EXPECT_EQ(SearchResult::read(reader), r);
}

TEST(EvidenceSerialization, FlatAndIntervalFormsTagged) {
  MembershipEvidence flat;
  flat.interval_form = false;
  flat.flat_witness = Bigint(12345);
  ByteWriter w1;
  flat.write(w1);
  ByteReader r1(w1.data());
  MembershipEvidence back1 = MembershipEvidence::read(r1);
  EXPECT_FALSE(back1.interval_form);
  EXPECT_EQ(back1.flat_witness, Bigint(12345));

  MembershipEvidence interval;
  interval.interval_form = true;
  interval.interval.parts.push_back(IntervalMembershipPart{
      .desc = IntervalDescriptor{.lo = 1, .hi = 10, .b = Bigint(7)},
      .chat = Bigint(8),
      .mid_witness = Bigint(9)});
  ByteWriter w2;
  interval.write(w2);
  ByteReader r2(w2.data());
  MembershipEvidence back2 = MembershipEvidence::read(r2);
  EXPECT_TRUE(back2.interval_form);
  ASSERT_EQ(back2.interval.parts.size(), 1u);
  EXPECT_EQ(back2.interval.parts[0].desc, interval.interval.parts[0].desc);
}

TEST(QueryProofSerialization, IntegrityVariantsRoundtrip) {
  QueryProof acc;
  acc.scheme = SchemeKind::kIntervalAccumulator;
  AccumulatorIntegrity ai;
  ai.base_keyword = 1;
  ai.check_docs = {3, 4};
  ai.check_membership.flat_witness = Bigint(5);
  NonmembershipGroup g;
  g.keyword = 0;
  g.docs = {3, 4};
  g.evidence.flat = NonmembershipWitness{Bigint(-2), Bigint(6)};
  ai.groups.push_back(std::move(g));
  acc.integrity = std::move(ai);
  ByteWriter w;
  acc.write(w);
  ByteReader r(w.data());
  QueryProof back = QueryProof::read(r);
  EXPECT_EQ(back.scheme, SchemeKind::kIntervalAccumulator);
  const auto* got = std::get_if<AccumulatorIntegrity>(&back.integrity);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->base_keyword, 1u);
  EXPECT_EQ(got->check_docs, (U64Set{3, 4}));
  ASSERT_EQ(got->groups.size(), 1u);
  EXPECT_EQ(got->groups[0].evidence.flat.a, Bigint(-2));

  QueryProof bloom;
  bloom.scheme = SchemeKind::kBloom;
  bloom.integrity = BloomIntegrity{};
  ByteWriter w2;
  bloom.write(w2);
  ByteReader r2(w2.data());
  QueryProof back2 = QueryProof::read(r2);
  EXPECT_TRUE(std::holds_alternative<BloomIntegrity>(back2.integrity));
}

TEST(Statements, TermStatementEncodeStable) {
  TermStatement s;
  s.term = "budget";
  s.tuple_acc = Bigint(11);
  s.doc_acc = Bigint(22);
  s.tuple_root = Bigint(33);
  s.doc_root = Bigint(44);
  s.posting_count = 5;
  EXPECT_EQ(s.encode(), s.encode());
  TermStatement changed = s;
  changed.posting_count = 6;
  EXPECT_NE(s.encode(), changed.encode());
  ByteWriter w;
  s.write(w);
  ByteReader r(w.data());
  EXPECT_EQ(TermStatement::read(r), s);
}

TEST(Statements, AttestationBindsStatement) {
  DeterministicRng rng(801);
  SigningKey key = generate_signing_key(rng, 512);
  TermStatement s;
  s.term = "x";
  s.tuple_acc = Bigint(1);
  s.doc_acc = Bigint(2);
  s.tuple_root = Bigint(3);
  s.doc_root = Bigint(4);
  s.posting_count = 9;
  TermAttestation att{s, key.sign(s.encode())};
  EXPECT_TRUE(att.verify(key.verify_key()));
  // Any field change invalidates the signature.
  att.stmt.posting_count = 10;
  EXPECT_FALSE(att.verify(key.verify_key()));
}

TEST(Statements, DictStatementCoversDocumentCount) {
  DeterministicRng rng(802);
  SigningKey key = generate_signing_key(rng, 512);
  DictStatement s{Bigint(5), 100, 2000};
  DictAttestation att{s, key.sign(s.encode())};
  EXPECT_TRUE(att.verify(key.verify_key()));
  att.stmt.document_count = 1;  // ranking inputs are tamper-evident
  EXPECT_FALSE(att.verify(key.verify_key()));
}

TEST(Statements, PostingsDigestSensitive) {
  PostingList a = {{1, 2}, {3, 4}};
  PostingList b = {{1, 2}, {3, 5}};
  PostingList c = {{3, 4}, {1, 2}};
  EXPECT_NE(postings_digest(a), postings_digest(b));
  EXPECT_NE(postings_digest(a), postings_digest(c));
  EXPECT_EQ(postings_digest(a), postings_digest(PostingList{{1, 2}, {3, 4}}));
}

// --- byte-identical round-trips ---------------------------------------------------
//
// The proof wire format is canonical: serialize → parse → re-serialize must
// reproduce the exact bytes (the cloud signs payload_bytes(), so any
// re-encoding drift would break signatures downstream).  One test per
// struct in proof_types.hpp, each with every optional branch populated.

template <typename T>
void ExpectByteIdenticalRoundtrip(const T& value) {
  ByteWriter w1;
  value.write(w1);
  ByteReader r(w1.data());
  T back = T::read(r);
  r.expect_done();
  ByteWriter w2;
  back.write(w2);
  EXPECT_EQ(w2.data(), w1.data());
}

MembershipEvidence flat_membership(int seed) {
  MembershipEvidence e;
  e.interval_form = false;
  e.flat_witness = Bigint(seed);
  return e;
}

MembershipEvidence interval_membership(int seed) {
  MembershipEvidence e;
  e.interval_form = true;
  e.interval.parts.push_back(IntervalMembershipPart{
      .desc = IntervalDescriptor{.lo = 1, .hi = 8, .b = Bigint(seed)},
      .chat = Bigint(seed + 1),
      .mid_witness = Bigint(seed + 2)});
  e.interval.parts.push_back(IntervalMembershipPart{
      .desc = IntervalDescriptor{.lo = 9, .hi = 16, .b = Bigint(seed + 3)},
      .chat = Bigint(seed + 4),
      .mid_witness = Bigint(seed + 5)});
  return e;
}

NonmembershipEvidence flat_nonmembership(int seed) {
  NonmembershipEvidence e;
  e.interval_form = false;
  e.flat = NonmembershipWitness{Bigint(-seed), Bigint(seed + 1)};
  return e;
}

NonmembershipEvidence interval_nonmembership(int seed) {
  NonmembershipEvidence e;
  e.interval_form = true;
  e.interval.parts.push_back(IntervalNonmembershipPart{
      .desc = IntervalDescriptor{.lo = 4, .hi = 20, .b = Bigint(seed)},
      .nmw = NonmembershipWitness{Bigint(-seed - 1), Bigint(seed + 2)},
      .mid_witness = Bigint(seed + 3)});
  return e;
}

TermAttestation sample_term_attestation(const std::string& term) {
  TermStatement s;
  s.term = term;
  s.tuple_acc = Bigint(101);
  s.doc_acc = Bigint(102);
  s.tuple_root = Bigint(103);
  s.doc_root = Bigint(104);
  s.posting_count = 3;
  s.postings_digest = postings_digest(PostingList{{2, 1}, {5, 3}, {9, 2}});
  return TermAttestation{s, Signature{Bigint(105)}};
}

SearchResult sample_result() {
  SearchResult r;
  r.keywords = {"alpha", "beta"};
  r.docs = {2, 5, 9};
  r.postings = {{{2, 1}, {5, 3}, {9, 2}}, {{2, 7}, {5, 1}, {9, 9}}};
  return r;
}

AccumulatorIntegrity sample_accumulator_integrity() {
  AccumulatorIntegrity ai;
  ai.base_keyword = 0;
  ai.check_docs = {3, 7};
  ai.check_membership = interval_membership(40);
  NonmembershipGroup flat_group;
  flat_group.keyword = 1;
  flat_group.docs = {3};
  flat_group.evidence = flat_nonmembership(50);
  ai.groups.push_back(std::move(flat_group));
  NonmembershipGroup interval_group;
  interval_group.keyword = 1;
  interval_group.docs = {7};
  interval_group.evidence = interval_nonmembership(60);
  ai.groups.push_back(std::move(interval_group));
  return ai;
}

BloomIntegrity sample_bloom_integrity() {
  BloomIntegrity bi;
  BloomKeywordPart part;
  part.bloom.stmt.term = "alpha";
  part.bloom.stmt.doc_bloom = CompressedBloom{
      BloomParams{.counters = 64, .hashes = 1, .domain = "rt"}, 3, Bytes{1, 2, 3, 4}};
  part.bloom.sig = Signature{Bigint(201)};
  part.check_elements = {11, 13};
  part.check_membership = flat_membership(70);
  bi.parts.push_back(std::move(part));
  return bi;
}

TEST(ByteIdenticalRoundtrip, SearchResult) { ExpectByteIdenticalRoundtrip(sample_result()); }

TEST(ByteIdenticalRoundtrip, MembershipEvidenceBothForms) {
  ExpectByteIdenticalRoundtrip(flat_membership(10));
  ExpectByteIdenticalRoundtrip(interval_membership(20));
}

TEST(ByteIdenticalRoundtrip, NonmembershipEvidenceBothForms) {
  ExpectByteIdenticalRoundtrip(flat_nonmembership(30));
  ExpectByteIdenticalRoundtrip(interval_nonmembership(35));
}

TEST(ByteIdenticalRoundtrip, CorrectnessProof) {
  CorrectnessProof cp;
  cp.keywords = {flat_membership(10), interval_membership(20)};
  ExpectByteIdenticalRoundtrip(cp);
}

TEST(ByteIdenticalRoundtrip, NonmembershipGroup) {
  NonmembershipGroup g;
  g.keyword = 2;
  g.docs = {4, 8};
  g.evidence = interval_nonmembership(45);
  ExpectByteIdenticalRoundtrip(g);
}

TEST(ByteIdenticalRoundtrip, AccumulatorIntegrity) {
  ExpectByteIdenticalRoundtrip(sample_accumulator_integrity());
}

TEST(ByteIdenticalRoundtrip, BloomKeywordPartAndIntegrity) {
  BloomIntegrity bi = sample_bloom_integrity();
  ExpectByteIdenticalRoundtrip(bi.parts[0]);
  ExpectByteIdenticalRoundtrip(bi);
}

TEST(ByteIdenticalRoundtrip, QueryProofBothIntegrityVariants) {
  QueryProof acc;
  acc.scheme = SchemeKind::kIntervalAccumulator;
  acc.terms = {sample_term_attestation("alpha"), sample_term_attestation("beta")};
  acc.correctness.keywords = {interval_membership(10), interval_membership(20)};
  acc.integrity = sample_accumulator_integrity();
  ExpectByteIdenticalRoundtrip(acc);

  QueryProof bloom;
  bloom.scheme = SchemeKind::kBloom;
  bloom.terms = {sample_term_attestation("alpha")};
  bloom.correctness.keywords = {flat_membership(10)};
  bloom.integrity = sample_bloom_integrity();
  ExpectByteIdenticalRoundtrip(bloom);
}

TEST(ByteIdenticalRoundtrip, SearchResponseAllBodyVariants) {
  SearchResponse multi;
  multi.query_id = 77;
  multi.raw_keywords = {"Alpha", "betas"};
  MultiKeywordResponse mbody;
  mbody.result = sample_result();
  mbody.proof.scheme = SchemeKind::kHybrid;
  mbody.proof.terms = {sample_term_attestation("alpha"), sample_term_attestation("beta")};
  mbody.proof.correctness.keywords = {interval_membership(10), interval_membership(20)};
  mbody.proof.integrity = sample_bloom_integrity();
  multi.body = std::move(mbody);
  multi.cloud_sig = Signature{Bigint(999)};
  ExpectByteIdenticalRoundtrip(multi);

  SearchResponse single;
  single.query_id = 78;
  single.raw_keywords = {"alpha"};
  single.body = SingleKeywordResponse{"alpha", PostingList{{2, 1}, {5, 3}},
                                      sample_term_attestation("alpha")};
  single.cloud_sig = Signature{Bigint(998)};
  ExpectByteIdenticalRoundtrip(single);

  SearchResponse unknown;
  unknown.query_id = 79;
  unknown.raw_keywords = {"zzmissing"};
  UnknownKeywordResponse ubody;
  ubody.keyword = "zzmissing";
  ubody.gap = GapProof{"yy", "zzz", Bigint(500)};
  ubody.dict = DictAttestation{DictStatement{Bigint(5), 100, 2000}, Signature{Bigint(501)}};
  unknown.body = std::move(ubody);
  unknown.cloud_sig = Signature{Bigint(997)};
  ExpectByteIdenticalRoundtrip(unknown);
}

TEST(ByteIdenticalRoundtrip, PayloadBytesStableAcrossReparse) {
  // payload_bytes() (the signed bytes) must also survive a parse cycle.
  SearchResponse resp;
  resp.query_id = 80;
  resp.raw_keywords = {"alpha"};
  resp.body = SingleKeywordResponse{"alpha", PostingList{{1, 1}},
                                    sample_term_attestation("alpha")};
  resp.cloud_sig = Signature{Bigint(42)};
  ByteWriter w;
  resp.write(w);
  ByteReader r(w.data());
  SearchResponse back = SearchResponse::read(r);
  r.expect_done();
  EXPECT_EQ(back.payload_bytes(), resp.payload_bytes());
}

// --- hybrid policy ---------------------------------------------------------------

HybridPolicyInputs base_inputs(std::vector<std::size_t>& bloom_bytes,
                               std::vector<std::size_t>& set_sizes) {
  HybridPolicyInputs in;
  in.keyword_count = 2;
  in.modulus_bytes = 128;
  in.interval_size = 100;
  in.bloom_counters = 4096;
  in.bloom_bytes = bloom_bytes;
  in.set_sizes = set_sizes;
  return in;
}

TEST(HybridPolicy, AccumulatorCostGrowsWithCheckDocs) {
  std::vector<std::size_t> bb = {600, 600}, ss = {2000, 2000};
  double prev = -1;
  for (std::size_t check : {0ul, 10ul, 100ul, 1000ul}) {
    auto in = base_inputs(bb, ss);
    in.check_doc_count = check;
    HybridEstimate est = estimate_integrity_cost(in);
    EXPECT_GT(est.accumulator_bytes, prev);
    prev = est.accumulator_bytes;
  }
}

TEST(HybridPolicy, SmallDifferencePrefersAccumulator) {
  std::vector<std::size_t> bb = {600, 600}, ss = {2000, 2000};
  auto in = base_inputs(bb, ss);
  in.check_doc_count = 2;
  HybridEstimate est = estimate_integrity_cost(in);
  EXPECT_EQ(est.choice, IntegrityChoice::kAccumulator);
  EXPECT_LT(est.accumulator_bytes, est.bloom_bytes);
}

TEST(HybridPolicy, LargeDifferencePrefersBloomOnTime) {
  // The paper's rule (§V-B1): many check elements make accumulator-form
  // witnesses slow; Bloom integrity is faster there — provided the filter
  // budget keeps collisions (check elements) rare.
  std::vector<std::size_t> bb = {4000, 4000}, ss = {20000, 20000};
  auto in = base_inputs(bb, ss);
  in.check_doc_count = 19000;
  in.bloom_counters = 1 << 22;  // generous m: few expected collisions
  HybridEstimate est = estimate_integrity_cost(in);
  EXPECT_GT(est.accumulator_seconds, in.fast_threshold_seconds);
  EXPECT_LT(est.bloom_seconds, est.accumulator_seconds);
  EXPECT_EQ(est.choice, IntegrityChoice::kBloom);
}

TEST(HybridPolicy, AccumulatorTimeGrowsWithCheckDocs) {
  std::vector<std::size_t> bb = {600, 600}, ss = {2000, 2000};
  double prev = -1;
  for (std::size_t check : {0ul, 100ul, 500ul, 1500ul}) {
    auto in = base_inputs(bb, ss);
    in.check_doc_count = check;
    HybridEstimate est = estimate_integrity_cost(in);
    EXPECT_GT(est.accumulator_seconds, prev);
    prev = est.accumulator_seconds;
  }
}

TEST(HybridPolicy, AccumulatorNonmembershipWorkBoundedByTargetSet) {
  // Per-interval nonmembership witnesses cover every check doc in an
  // interval at once, so accumulator-form time is bounded by the target
  // keyword's set size — growing the check count past that barely moves it.
  std::vector<std::size_t> bb = {600, 600}, ss = {2000, 2000};
  auto in = base_inputs(bb, ss);
  in.check_doc_count = 1000;
  double at_1000 = estimate_integrity_cost(in).accumulator_seconds;
  in.check_doc_count = 2000;
  double at_2000 = estimate_integrity_cost(in).accumulator_seconds;
  EXPECT_LT(at_2000, 3 * at_1000);  // far from the naive check×interval blowup
}

// Element counts are attacker-controlled varints: a count the buffer cannot
// hold must fail as a ParseError before anything is reserved, never as
// std::bad_alloc or std::length_error.
TEST(TrustBoundary, HugeCountsAreParseErrors) {
  ByteWriter group;
  group.u32(0);                            // keyword
  group.varint(std::uint64_t{1} << 62);    // docs count, nothing behind it
  ByteReader gr(group.data());
  EXPECT_THROW((void)NonmembershipGroup::read(gr), ParseError);

  ByteWriter result;
  result.varint(0);                        // keywords
  result.varint(0);                        // docs
  result.varint(1);                        // one posting list ...
  result.varint(std::uint64_t{1} << 62);   // ... claiming 2^62 postings
  ByteReader rr(result.data());
  EXPECT_THROW((void)SearchResult::read(rr), ParseError);
}

}  // namespace
}  // namespace vc
