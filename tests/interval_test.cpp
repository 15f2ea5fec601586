#include <gtest/gtest.h>

#include <vector>

#include "accumulator/batch_witness.hpp"
#include "accumulator/witness.hpp"
#include "crypto/standard_params.hpp"
#include "interval/dict_intervals.hpp"
#include "interval/interval_index.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"
#include "support/threadpool.hpp"

namespace vc {
namespace {

PrimeRepConfig test_prime_config() {
  return PrimeRepConfig{.rep_bits = 64, .domain = "interval-test", .mr_rounds = 24};
}

class IntervalIndexTest : public ::testing::Test {
 protected:
  IntervalIndexTest()
      : owner_(AccumulatorContext::owner(standard_accumulator_modulus(512),
                                         standard_qr_generator(512))),
        pub_(AccumulatorContext::public_side(owner_.params())),
        primes_(test_prime_config()) {}

  static std::vector<std::uint64_t> evens(std::uint64_t n) {
    std::vector<std::uint64_t> out;
    for (std::uint64_t i = 0; i < n; ++i) out.push_back(2 * i + 10);
    return out;
  }

  AccumulatorContext owner_;
  AccumulatorContext pub_;
  PrimeCache primes_;
  IntervalConfig cfg_{.interval_size = 8};
};

TEST_F(IntervalIndexTest, BuildPartitionsElements) {
  auto elems = evens(50);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  EXPECT_EQ(idx.element_count(), 50u);
  EXPECT_EQ(idx.interval_count(), (50 + 7) / 8);
  // Ranges partition the u64 domain.
  EXPECT_EQ(idx.descriptor(0).lo, 0u);
  EXPECT_EQ(idx.descriptor(idx.interval_count() - 1).hi, ~std::uint64_t{0});
  for (std::size_t k = 1; k < idx.interval_count(); ++k) {
    EXPECT_EQ(idx.descriptor(k).lo, idx.descriptor(k - 1).hi + 1);
  }
}

TEST_F(IntervalIndexTest, BuildRejectsUnsorted) {
  std::vector<std::uint64_t> bad = {3, 2, 5};
  EXPECT_THROW(IntervalIndex::build(owner_, bad, primes_, cfg_), UsageError);
  std::vector<std::uint64_t> dup = {2, 2, 5};
  EXPECT_THROW(IntervalIndex::build(owner_, dup, primes_, cfg_), UsageError);
  EXPECT_THROW(IntervalIndex::build(owner_, {}, primes_, IntervalConfig{.interval_size = 0}),
               UsageError);
}

TEST_F(IntervalIndexTest, FindIntervalLocatesValues) {
  auto elems = evens(40);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  for (std::uint64_t v : elems) {
    std::size_t k = idx.find_interval(v);
    EXPECT_GE(v, idx.descriptor(k).lo);
    EXPECT_LE(v, idx.descriptor(k).hi);
  }
  EXPECT_EQ(idx.find_interval(0), 0u);
  EXPECT_EQ(idx.find_interval(~std::uint64_t{0}), idx.interval_count() - 1);
}

TEST_F(IntervalIndexTest, MembershipProofVerifies) {
  auto elems = evens(60);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  // Values spanning several intervals.
  std::vector<std::uint64_t> values = {10, 12, 48, 100, 128};
  auto proof = idx.prove_membership(owner_, values, primes_);
  EXPECT_TRUE(
      IntervalIndex::verify_membership(pub_, idx.root(), proof, values, primes_));
}

TEST_F(IntervalIndexTest, MembershipSingleValue) {
  auto elems = evens(20);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  std::vector<std::uint64_t> values = {24};
  auto proof = idx.prove_membership(owner_, values, primes_);
  EXPECT_EQ(proof.parts.size(), 1u);
  EXPECT_TRUE(IntervalIndex::verify_membership(pub_, idx.root(), proof, values, primes_));
}

TEST_F(IntervalIndexTest, MembershipProofRejectsNonMember) {
  auto elems = evens(20);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  std::vector<std::uint64_t> values = {11};  // odd, not a member
  EXPECT_THROW(idx.prove_membership(owner_, values, primes_), CryptoError);
}

TEST_F(IntervalIndexTest, MembershipVerifyRejectsWrongValues) {
  auto elems = evens(40);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  std::vector<std::uint64_t> values = {10, 12};
  auto proof = idx.prove_membership(owner_, values, primes_);
  // Claiming a different value set with the same proof must fail.
  std::vector<std::uint64_t> other = {10, 14};
  EXPECT_FALSE(IntervalIndex::verify_membership(pub_, idx.root(), proof, other, primes_));
  // Claiming a non-member (odd) value: no part covers it correctly.
  std::vector<std::uint64_t> odd = {10, 13};
  EXPECT_FALSE(IntervalIndex::verify_membership(pub_, idx.root(), proof, odd, primes_));
}

TEST_F(IntervalIndexTest, MembershipVerifyRejectsWrongRoot) {
  auto elems = evens(30);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  std::vector<std::uint64_t> values = {10};
  auto proof = idx.prove_membership(owner_, values, primes_);
  Bigint wrong_root = owner_.power().mul(idx.root(), Bigint(2));
  EXPECT_FALSE(IntervalIndex::verify_membership(pub_, wrong_root, proof, values, primes_));
}

TEST_F(IntervalIndexTest, MembershipVerifyRejectsTamperedDescriptor) {
  auto elems = evens(30);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  std::vector<std::uint64_t> values = {10};
  auto proof = idx.prove_membership(owner_, values, primes_);
  proof.parts[0].desc.hi += 1;  // forged range
  EXPECT_FALSE(IntervalIndex::verify_membership(pub_, idx.root(), proof, values, primes_));
}

TEST_F(IntervalIndexTest, EmptyValuesNeedEmptyProof) {
  auto elems = evens(10);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  auto proof = idx.prove_membership(owner_, {}, primes_);
  EXPECT_TRUE(proof.parts.empty());
  EXPECT_TRUE(IntervalIndex::verify_membership(pub_, idx.root(), proof, {}, primes_));
  // A vacuous extra part is rejected.
  std::vector<std::uint64_t> one = {10};
  auto p2 = idx.prove_membership(owner_, one, primes_);
  EXPECT_FALSE(IntervalIndex::verify_membership(pub_, idx.root(), p2, {}, primes_));
}

TEST_F(IntervalIndexTest, NonmembershipProofVerifies) {
  auto elems = evens(60);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  std::vector<std::uint64_t> absent = {11, 13, 55, 1000000};
  auto proof = idx.prove_nonmembership(owner_, absent, primes_);
  EXPECT_TRUE(
      IntervalIndex::verify_nonmembership(pub_, idx.root(), proof, absent, primes_));
}

TEST_F(IntervalIndexTest, NonmembershipProofRejectsMember) {
  auto elems = evens(60);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  EXPECT_THROW(idx.prove_nonmembership(owner_, std::vector<std::uint64_t>{10}, primes_),
               CryptoError);
  // A valid proof for {11} cannot vouch for the member 10.
  std::vector<std::uint64_t> absent = {11};
  auto proof = idx.prove_nonmembership(owner_, absent, primes_);
  std::vector<std::uint64_t> member = {10};
  EXPECT_FALSE(
      IntervalIndex::verify_nonmembership(pub_, idx.root(), proof, member, primes_));
}

TEST_F(IntervalIndexTest, NonmembershipOutsideElementRange) {
  auto elems = evens(20);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  std::vector<std::uint64_t> absent = {0, 5, ~std::uint64_t{0}};
  auto proof = idx.prove_nonmembership(owner_, absent, primes_);
  EXPECT_TRUE(
      IntervalIndex::verify_nonmembership(pub_, idx.root(), proof, absent, primes_));
}

TEST_F(IntervalIndexTest, EmptySetNonmembership) {
  IntervalIndex idx = IntervalIndex::build(owner_, {}, primes_, cfg_);
  EXPECT_EQ(idx.interval_count(), 1u);
  std::vector<std::uint64_t> absent = {1, 42};
  auto proof = idx.prove_nonmembership(owner_, absent, primes_);
  EXPECT_TRUE(
      IntervalIndex::verify_nonmembership(pub_, idx.root(), proof, absent, primes_));
}

TEST_F(IntervalIndexTest, InsertUpdatesRootAndProofsStillVerify) {
  auto elems = evens(40);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  Bigint old_root = idx.root();
  std::vector<std::uint64_t> added = {11, 13, 15};
  idx.insert(owner_, added, primes_);
  EXPECT_NE(idx.root(), old_root);
  EXPECT_EQ(idx.element_count(), 43u);
  // New members prove membership; untouched members still prove.
  std::vector<std::uint64_t> values = {11, 10, 88};
  auto proof = idx.prove_membership(owner_, values, primes_);
  EXPECT_TRUE(IntervalIndex::verify_membership(pub_, idx.root(), proof, values, primes_));
  // And a nonmember near the inserted ones still proves absence.
  std::vector<std::uint64_t> absent = {17};
  auto np = idx.prove_nonmembership(owner_, absent, primes_);
  EXPECT_TRUE(IntervalIndex::verify_nonmembership(pub_, idx.root(), np, absent, primes_));
}

TEST_F(IntervalIndexTest, InsertMatchesFreshBuild) {
  auto elems = evens(30);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  std::vector<std::uint64_t> added = {101, 103};
  idx.insert(owner_, added, primes_);
  // The root need not equal a fresh build's root (ranges differ), but all
  // elements must verify.
  std::vector<std::uint64_t> all = elems;
  all.insert(all.end(), added.begin(), added.end());
  std::sort(all.begin(), all.end());
  auto proof = idx.prove_membership(owner_, all, primes_);
  EXPECT_TRUE(IntervalIndex::verify_membership(pub_, idx.root(), proof, all, primes_));
}

TEST_F(IntervalIndexTest, InsertSplitsOversizedInterval) {
  auto elems = evens(8);  // one interval
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  EXPECT_EQ(idx.interval_count(), 1u);
  std::vector<std::uint64_t> added;
  for (std::uint64_t i = 0; i < 12; ++i) added.push_back(101 + 2 * i);
  idx.insert(owner_, added, primes_);
  EXPECT_GT(idx.interval_count(), 1u);
  auto proof = idx.prove_membership(owner_, added, primes_);
  EXPECT_TRUE(IntervalIndex::verify_membership(pub_, idx.root(), proof, added, primes_));
}

TEST_F(IntervalIndexTest, InsertDuplicateIsNoop) {
  auto elems = evens(10);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  Bigint root = idx.root();
  idx.insert(owner_, std::vector<std::uint64_t>{10, 12}, primes_);
  EXPECT_EQ(idx.element_count(), 10u);
  EXPECT_EQ(idx.root(), root);
}

TEST_F(IntervalIndexTest, InsertRequiresTrapdoor) {
  auto elems = evens(10);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  EXPECT_THROW(idx.insert(pub_, std::vector<std::uint64_t>{11}, primes_), UsageError);
}

TEST_F(IntervalIndexTest, ProofSerializationRoundtrip) {
  auto elems = evens(30);
  IntervalIndex idx = IntervalIndex::build(owner_, elems, primes_, cfg_);
  std::vector<std::uint64_t> values = {10, 40};
  auto proof = idx.prove_membership(owner_, values, primes_);
  ByteWriter w;
  proof.write(w);
  ByteReader r(w.data());
  auto round = IntervalMembershipProof::read(r);
  EXPECT_EQ(w.size(), proof.encoded_size());
  EXPECT_TRUE(IntervalIndex::verify_membership(pub_, idx.root(), round, values, primes_));

  std::vector<std::uint64_t> absent = {11};
  auto np = idx.prove_nonmembership(owner_, absent, primes_);
  ByteWriter w2;
  np.write(w2);
  ByteReader r2(w2.data());
  auto nround = IntervalNonmembershipProof::read(r2);
  EXPECT_EQ(w2.size(), np.encoded_size());
  EXPECT_TRUE(IntervalIndex::verify_nonmembership(pub_, idx.root(), nround, absent, primes_));
}

// --- dictionary gap intervals -------------------------------------------------

class DictIntervalsTest : public ::testing::Test {
 protected:
  DictIntervalsTest()
      : owner_(AccumulatorContext::owner(standard_accumulator_modulus(512),
                                         standard_qr_generator(512))),
        pub_(AccumulatorContext::public_side(owner_.params())),
        dict_(DictionaryIntervals::build(
            owner_, {"apple", "banana", "cherry", "grape", "mango"}, test_prime_config())) {}

  AccumulatorContext owner_;
  AccumulatorContext pub_;
  DictionaryIntervals dict_;
};

TEST_F(DictIntervalsTest, Contains) {
  EXPECT_TRUE(dict_.contains("banana"));
  EXPECT_FALSE(dict_.contains("kiwi"));
  EXPECT_EQ(dict_.word_count(), 5u);
}

TEST_F(DictIntervalsTest, UnknownWordProofVerifies) {
  for (const char* w : {"aardvark", "blueberry", "kiwi", "zucchini"}) {
    GapProof p = dict_.prove_unknown(w);
    EXPECT_TRUE(
        DictionaryIntervals::verify_unknown(pub_, dict_.root(), w, p, test_prime_config()))
        << w;
  }
}

TEST_F(DictIntervalsTest, BoundaryGaps) {
  GapProof first = dict_.prove_unknown("aaa");  // before every word
  EXPECT_EQ(first.lo, "");
  EXPECT_EQ(first.hi, "apple");
  GapProof last = dict_.prove_unknown("zebra");  // after every word
  EXPECT_EQ(last.lo, "mango");
  EXPECT_EQ(last.hi, DictionaryIntervals::kPlusInf);
  EXPECT_TRUE(DictionaryIntervals::verify_unknown(pub_, dict_.root(), "zebra", last,
                                                  test_prime_config()));
}

TEST_F(DictIntervalsTest, KnownWordCannotBeProvedUnknown) {
  EXPECT_THROW((void)dict_.prove_unknown("cherry"), UsageError);
  // Replaying another gap's proof for a known word fails the range check.
  GapProof p = dict_.prove_unknown("kiwi");
  EXPECT_FALSE(DictionaryIntervals::verify_unknown(pub_, dict_.root(), "cherry", p,
                                                   test_prime_config()));
}

TEST_F(DictIntervalsTest, ForgedGapRejected) {
  GapProof p = dict_.prove_unknown("kiwi");
  GapProof forged = p;
  forged.lo = "a";  // a gap the owner never accumulated
  forged.hi = "zzz";
  EXPECT_FALSE(DictionaryIntervals::verify_unknown(pub_, dict_.root(), "kiwi", forged,
                                                   test_prime_config()));
}

TEST_F(DictIntervalsTest, WrongRootRejected) {
  GapProof p = dict_.prove_unknown("kiwi");
  Bigint wrong = pub_.power().mul(dict_.root(), Bigint(2));
  EXPECT_FALSE(
      DictionaryIntervals::verify_unknown(pub_, wrong, "kiwi", p, test_prime_config()));
}

TEST_F(DictIntervalsTest, BuildValidation) {
  EXPECT_THROW(DictionaryIntervals::build(owner_, {"b", "a"}, test_prime_config()),
               UsageError);
  EXPECT_THROW(DictionaryIntervals::build(owner_, {"a", "a"}, test_prime_config()),
               UsageError);
  EXPECT_THROW(DictionaryIntervals::build(owner_, {""}, test_prime_config()), UsageError);
}

TEST_F(DictIntervalsTest, EmptyDictionaryProvesEverythingUnknown) {
  DictionaryIntervals empty = DictionaryIntervals::build(owner_, {}, test_prime_config());
  GapProof p = empty.prove_unknown("anything");
  EXPECT_TRUE(DictionaryIntervals::verify_unknown(pub_, empty.root(), "anything", p,
                                                  test_prime_config()));
}

TEST_F(DictIntervalsTest, GapProofSerializationRoundtrip) {
  GapProof p = dict_.prove_unknown("kiwi");
  ByteWriter w;
  p.write(w);
  EXPECT_EQ(p.encoded_size(), w.size());
  ByteReader r(w.data());
  GapProof round = GapProof::read(r);
  EXPECT_TRUE(DictionaryIntervals::verify_unknown(pub_, dict_.root(), "kiwi", round,
                                                  test_prime_config()));
}

// --- witness-engine equivalence ---------------------------------------------------
//
// The batch engine, the pool fan-out and the fixed-base tables are pure
// optimisations: every path must emit the exact bytes the straight-line seed
// code emits.

class BatchWitnessTest : public IntervalIndexTest {
 protected:
  std::vector<Bigint> reps(std::uint64_t n) {
    std::vector<Bigint> out;
    for (std::uint64_t v : evens(n)) out.push_back(primes_.get(v));
    return out;
  }
};

TEST_F(BatchWitnessTest, BatchedWitnessesByteIdenticalToPerElement) {
  auto xs = reps(33);
  for (const AccumulatorContext* ctx : {&owner_, &pub_}) {
    auto batch = batch_membership_witnesses(*ctx, xs);
    ASSERT_EQ(batch.size(), xs.size());
    for (std::size_t j = 0; j < xs.size(); ++j) {
      std::vector<Bigint> rest;
      for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i != j) rest.push_back(xs[i]);
      }
      Bigint expect = membership_witness(*ctx, rest);
      ByteWriter wa, wb;
      batch[j].write(wa);
      expect.write(wb);
      EXPECT_EQ(wa.data(), wb.data()) << "witness " << j;
    }
  }
}

TEST_F(BatchWitnessTest, BatchedEdgeCases) {
  EXPECT_TRUE(batch_membership_witnesses(pub_, {}).empty());
  auto one = reps(1);
  auto batch = batch_membership_witnesses(pub_, one);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], membership_witness(pub_, {}));
}

TEST_F(BatchWitnessTest, GroupWitnessesMatchPerGroup) {
  auto xs = reps(12);
  std::vector<std::size_t> sizes = {5, 0, 3, 1, 3};  // includes an empty group
  for (const AccumulatorContext* ctx : {&owner_, &pub_}) {
    auto batch = batch_group_witnesses(*ctx, xs, sizes);
    ASSERT_EQ(batch.size(), sizes.size());
    std::size_t lo = 0;
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      std::vector<Bigint> rest(xs.begin(), xs.begin() + lo);
      rest.insert(rest.end(), xs.begin() + lo + sizes[k], xs.end());
      EXPECT_EQ(batch[k], membership_witness(*ctx, rest)) << "group " << k;
      lo += sizes[k];
    }
  }
  std::vector<std::size_t> bad = {5, 5};
  EXPECT_THROW(batch_group_witnesses(pub_, xs, bad), UsageError);
}

TEST_F(BatchWitnessTest, PooledBatchMatchesSerial) {
  auto xs = reps(40);
  auto serial = batch_membership_witnesses(pub_, xs);
  ThreadPool pool(4);
  AccumulatorContext pooled = pub_;
  pooled.set_pool(&pool);
  EXPECT_EQ(batch_membership_witnesses(pooled, xs), serial);
}

TEST_F(BatchWitnessTest, FixedBaseBatchMatchesGeneric) {
  auto xs = reps(24);
  auto generic = batch_membership_witnesses(pub_, xs);
  AccumulatorContext fixed = pub_;
  fixed.enable_fixed_base(xs.size() * 64 + 64);
  EXPECT_EQ(batch_membership_witnesses(fixed, xs), generic);
  EXPECT_EQ(fixed.accumulate(xs), pub_.accumulate(xs));

  AccumulatorContext fixed_owner = owner_;
  fixed_owner.enable_fixed_base(0);  // a no-op: owner() already built the tables
  EXPECT_EQ(fixed_owner.accumulate(xs), owner_.accumulate(xs));
  EXPECT_EQ(fixed_owner.accumulate(xs), pub_.accumulate(xs));
}

// owner() builds the trapdoor-side fixed-base tables for g itself; every
// owner g^e must still equal the plain powm, for any exponent width: zero,
// short, φ(n)-sized and beyond φ(n) (reduced per prime factor first).
TEST_F(BatchWitnessTest, OwnerFixedBaseMatchesPlainPowm) {
  ASSERT_TRUE(owner_.power().has_fixed_base(owner_.g()));
  const Bigint& g = owner_.g();
  const Bigint& n = owner_.n();
  const Bigint& phi = owner_.power().phi();
  DeterministicRng rng(4242);
  std::vector<Bigint> exps = {Bigint(0), Bigint(1), Bigint(2), phi, phi + Bigint(1),
                              phi * Bigint(3) + Bigint(7)};
  for (std::size_t bits : {8u, 64u, 200u, 511u, 512u, 1024u, 3000u}) {
    exps.push_back(Bigint::random_bits(rng, bits));
  }
  for (int i = 0; i < 8; ++i) exps.push_back(Bigint::random_below(rng, phi));
  for (const Bigint& e : exps) {
    EXPECT_EQ(owner_.power().pow(g, e), Bigint::pow_mod(g, e, n)) << e.to_decimal();
  }
}

TEST_F(BatchWitnessTest, PooledIntervalIndexByteIdenticalToSerial) {
  auto elems = evens(120);
  IntervalIndex serial = IntervalIndex::build(owner_, elems, primes_, cfg_);

  ThreadPool pool(4);
  AccumulatorContext pooled_owner = owner_;
  pooled_owner.set_pool(&pool);
  IntervalIndex pooled = IntervalIndex::build(pooled_owner, elems, primes_, cfg_);

  ByteWriter ws, wp;
  serial.write(ws);
  pooled.write(wp);
  EXPECT_EQ(ws.data(), wp.data());

  // Proof generation fan-out must not change proof bytes either.
  std::vector<std::uint64_t> members = {10, 12, 48, 100, 200, 236};
  std::vector<std::uint64_t> absent = {11, 49, 1001};
  ByteWriter ms, mp, ns, np;
  serial.prove_membership(owner_, members, primes_).write(ms);
  pooled.prove_membership(pooled_owner, members, primes_).write(mp);
  serial.prove_nonmembership(owner_, absent, primes_).write(ns);
  pooled.prove_nonmembership(pooled_owner, absent, primes_).write(np);
  EXPECT_EQ(ms.data(), mp.data());
  EXPECT_EQ(ns.data(), np.data());
}

}  // namespace
}  // namespace vc
