#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/miller_rabin.hpp"
#include "bigint/power_context.hpp"
#include "obs/metrics.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"

namespace vc {
namespace {

TEST(Bigint, U64Roundtrip) {
  for (std::uint64_t v : {0ULL, 1ULL, 255ULL, 1ULL << 32, ~0ULL}) {
    Bigint b = Bigint::from_u64(v);
    EXPECT_TRUE(b.fits_u64());
    EXPECT_EQ(b.to_u64(), v);
  }
}

TEST(Bigint, DecimalRoundtrip) {
  const char* s = "123456789012345678901234567890123456789";
  Bigint b = Bigint::from_decimal(s);
  EXPECT_EQ(b.to_decimal(), s);
  EXPECT_FALSE(b.fits_u64());
  EXPECT_THROW(b.to_u64(), UsageError);
  EXPECT_THROW(Bigint::from_decimal("12x"), ParseError);
}

TEST(Bigint, NegativeDecimal) {
  Bigint b = Bigint::from_decimal("-42");
  EXPECT_TRUE(b.is_negative());
  EXPECT_EQ((-b).to_u64(), 42u);
}

TEST(Bigint, BytesRoundtripBigEndian) {
  Bytes be = {0x01, 0x00, 0xFF};
  Bigint b = Bigint::from_bytes(be);
  EXPECT_EQ(b.to_u64(), 0x0100FFu);
  EXPECT_EQ(b.to_bytes(), be);
  EXPECT_TRUE(Bigint::from_bytes({}).is_zero());
  EXPECT_TRUE(Bigint(0).to_bytes().empty());
}

TEST(Bigint, ArithmeticBasics) {
  Bigint a(100), b(7);
  EXPECT_EQ((a + b).to_u64(), 107u);
  EXPECT_EQ((a - b).to_u64(), 93u);
  EXPECT_EQ((a * b).to_u64(), 700u);
  EXPECT_EQ((a / b).to_u64(), 14u);
  EXPECT_EQ((a % b).to_u64(), 2u);
  EXPECT_THROW(a / Bigint(0), UsageError);
  EXPECT_THROW(a % Bigint(0), UsageError);
}

TEST(Bigint, CompoundOps) {
  Bigint a(10);
  a += Bigint(5);
  a *= Bigint(3);
  a -= Bigint(1);
  EXPECT_EQ(a.to_u64(), 44u);
}

TEST(Bigint, Comparison) {
  EXPECT_LT(Bigint(3), Bigint(5));
  EXPECT_GT(Bigint(-1), Bigint(-2));
  EXPECT_EQ(Bigint(7), Bigint(7));
  EXPECT_EQ(Bigint(7), 7L);
}

TEST(Bigint, BitOps) {
  Bigint b(0b1010);
  EXPECT_EQ(b.bit_length(), 4u);
  EXPECT_TRUE(b.test_bit(1));
  EXPECT_FALSE(b.test_bit(0));
  EXPECT_EQ(Bigint(0).bit_length(), 0u);
}

TEST(Bigint, ModIsNonNegative) {
  EXPECT_EQ(Bigint::mod(Bigint(-7), Bigint(5)).to_u64(), 3u);
  EXPECT_EQ(Bigint::mod(Bigint(7), Bigint(5)).to_u64(), 2u);
  EXPECT_THROW(Bigint::mod(Bigint(1), Bigint(0)), UsageError);
}

TEST(Bigint, PowMod) {
  // 3^20 mod 1000 = 3486784401 mod 1000 = 401
  EXPECT_EQ(Bigint::pow_mod(Bigint(3), Bigint(20), Bigint(1000)).to_u64(), 401u);
  EXPECT_EQ(Bigint::pow_mod(Bigint(5), Bigint(0), Bigint(7)).to_u64(), 1u);
  EXPECT_THROW(Bigint::pow_mod(Bigint(2), Bigint(-1), Bigint(7)), UsageError);
}

TEST(Bigint, InvertMod) {
  Bigint inv = Bigint::invert_mod(Bigint(3), Bigint(7));
  EXPECT_EQ(Bigint::mod(inv * Bigint(3), Bigint(7)).to_u64(), 1u);
  EXPECT_THROW(Bigint::invert_mod(Bigint(2), Bigint(4)), CryptoError);
}

TEST(Bigint, GcdAndExt) {
  EXPECT_EQ(Bigint::gcd(Bigint(12), Bigint(18)).to_u64(), 6u);
  Bigint g, s, t;
  Bigint::gcd_ext(Bigint(240), Bigint(46), g, s, t);
  EXPECT_EQ(g.to_u64(), 2u);
  EXPECT_EQ(s * Bigint(240) + t * Bigint(46), g);
}

TEST(Bigint, Lcm) {
  EXPECT_EQ(Bigint::lcm(Bigint(4), Bigint(6)).to_u64(), 12u);
}

TEST(Bigint, ProductTreeMatchesNaive) {
  DeterministicRng rng(17);
  std::vector<Bigint> xs;
  Bigint naive(1);
  for (int i = 0; i < 137; ++i) {
    Bigint x = Bigint::random_bits(rng, 64) + Bigint(1);
    naive *= x;
    xs.push_back(std::move(x));
  }
  EXPECT_EQ(Bigint::product(xs), naive);
  EXPECT_EQ(Bigint::product({}), Bigint(1));
  EXPECT_EQ(Bigint::product(std::span<const Bigint>(xs.data(), 1)), xs[0]);
}

TEST(Bigint, DivExact) {
  EXPECT_EQ(Bigint::div_exact(Bigint(84), Bigint(7)).to_u64(), 12u);
  EXPECT_THROW(Bigint::div_exact(Bigint(85), Bigint(7)), CryptoError);
  EXPECT_THROW(Bigint::div_exact(Bigint(85), Bigint(0)), UsageError);
}

TEST(Bigint, SerializationRoundtrip) {
  for (const char* s : {"0", "1", "-1", "255", "-12345678901234567890123456789"}) {
    Bigint v = Bigint::from_decimal(s);
    ByteWriter w;
    v.write(w);
    ByteReader r(w.data());
    EXPECT_EQ(Bigint::read(r), v) << s;
    EXPECT_TRUE(r.done());
    EXPECT_EQ(v.encoded_size(), w.size());
  }
}

TEST(Bigint, SerializationRejectsBadSign) {
  Bytes bad = {2, 0};
  ByteReader r(bad);
  EXPECT_THROW(Bigint::read(r), ParseError);
}

TEST(Bigint, RandomBitsWidth) {
  DeterministicRng rng(5);
  for (int i = 0; i < 50; ++i) {
    Bigint b = Bigint::random_bits(rng, 100);
    EXPECT_LE(b.bit_length(), 100u);
  }
  EXPECT_TRUE(Bigint::random_bits(rng, 0).is_zero());
}

TEST(Bigint, RandomBelowInRange) {
  DeterministicRng rng(6);
  Bigint bound = Bigint::from_decimal("1000000000000000000000");
  for (int i = 0; i < 50; ++i) {
    Bigint b = Bigint::random_below(rng, bound);
    EXPECT_LT(b, bound);
    EXPECT_GE(b.sign(), 0);
  }
  EXPECT_THROW(Bigint::random_below(rng, Bigint(0)), UsageError);
}

TEST(MillerRabin, SmallPrimes) {
  DeterministicRng rng(1);
  for (long p : {2L, 3L, 5L, 7L, 11L, 13L, 97L, 251L, 257L, 65537L}) {
    EXPECT_TRUE(is_probable_prime(Bigint(p), rng)) << p;
  }
}

TEST(MillerRabin, SmallComposites) {
  DeterministicRng rng(2);
  for (long c : {0L, 1L, 4L, 9L, 100L, 255L, 1001L}) {
    EXPECT_FALSE(is_probable_prime(Bigint(c), rng)) << c;
  }
}

TEST(MillerRabin, CarmichaelNumbers) {
  // Fermat pseudoprimes to every base; Miller-Rabin must still reject them.
  DeterministicRng rng(3);
  for (long c : {561L, 1105L, 1729L, 2465L, 2821L, 6601L, 8911L, 41041L}) {
    EXPECT_FALSE(is_probable_prime(Bigint(c), rng)) << c;
  }
}

TEST(MillerRabin, KnownLargePrime) {
  DeterministicRng rng(4);
  // 2^127 - 1 is a Mersenne prime.
  Bigint m127 = Bigint::from_decimal("170141183460469231731687303715884105727");
  EXPECT_TRUE(is_probable_prime(m127, rng));
  EXPECT_FALSE(is_probable_prime(m127 * Bigint(3), rng));
}

TEST(MillerRabin, ProductOfTwoPrimesRejected) {
  DeterministicRng rng(7);
  Bigint p = Bigint::from_decimal("1000000007");
  Bigint q = Bigint::from_decimal("1000000009");
  EXPECT_FALSE(is_probable_prime(p * q, rng));
}

TEST(MillerRabin, NextPrimeFrom) {
  DeterministicRng rng(8);
  EXPECT_EQ(next_prime_from(Bigint(14), rng).to_u64(), 17u);
  EXPECT_EQ(next_prime_from(Bigint(17), rng).to_u64(), 17u);
  EXPECT_EQ(next_prime_from(Bigint(0), rng).to_u64(), 2u);
  EXPECT_EQ(next_prime_from(Bigint(90), rng).to_u64(), 97u);
}

TEST(PowerContext, PlainMatchesGmp) {
  PowerContext ctx(Bigint(1009) * Bigint(1013));
  Bigint base(123456), exp(789);
  EXPECT_EQ(ctx.pow(base, exp), Bigint::pow_mod(base, exp, ctx.modulus()));
  EXPECT_FALSE(ctx.has_trapdoor());
  EXPECT_THROW(ctx.phi(), UsageError);
}

TEST(PowerContext, CrtMatchesPlain) {
  Bigint p = Bigint::from_decimal("1000000007");
  Bigint q = Bigint::from_decimal("1000000009");
  PowerContext owner(p * q, p, q);
  PowerContext pub(p * q);
  DeterministicRng rng(9);
  for (int i = 0; i < 20; ++i) {
    Bigint base = Bigint::random_below(rng, owner.modulus());
    Bigint exp = Bigint::random_bits(rng, 200);
    EXPECT_EQ(owner.pow(base, exp), pub.pow(base, exp));
  }
}

TEST(PowerContext, NegativeExponentInverts) {
  Bigint p(1009), q(1013);
  PowerContext owner(p * q, p, q);
  Bigint base(5);
  Bigint x = owner.pow(base, Bigint(-3));
  EXPECT_EQ(owner.mul(x, owner.pow(base, Bigint(3))), Bigint(1));
}

TEST(PowerContext, RejectsWrongFactors) {
  EXPECT_THROW(PowerContext(Bigint(15), Bigint(3), Bigint(7)), UsageError);
}

TEST(PowerContext, PhiExposed) {
  Bigint p(11), q(13);
  PowerContext owner(p * q, p, q);
  EXPECT_EQ(owner.phi().to_u64(), 120u);
}

TEST(PowerContext, HugeExponentReducedByTrapdoor) {
  Bigint p = Bigint::from_decimal("1000000007");
  Bigint q = Bigint::from_decimal("1000000009");
  PowerContext owner(p * q, p, q);
  PowerContext pub(p * q);
  DeterministicRng rng(10);
  Bigint exp = Bigint::random_bits(rng, 5000);
  Bigint base(2);
  EXPECT_EQ(owner.pow(base, exp), pub.pow(base, exp));
}

std::uint64_t fixed_builds(const char* kind) {
  return obs::MetricsRegistry::global()
      .counter("vc_fixedbase_builds_total", std::string("kind=\"") + kind + "\"")
      .value();
}

// A public-side table that grows in place must be entry for entry the table
// a fresh build of the new capacity produces, and must agree with plain
// powm for every exponent width it now serves.
TEST(PowerContext, GrownFixedBaseMatchesFreshBuildAndPowm) {
  Bigint p = Bigint::from_decimal("1000000007");
  Bigint q = Bigint::from_decimal("1000000009");
  const Bigint n = p * q;
  const Bigint base(7);
  PowerContext grown(n);
  grown.prepare_fixed_base(base, 2000);
  const std::size_t window = grown.export_fixed_base()->window;

  // 2000 → 2600 bits keeps the window (pick_window gives 6 for both): grow.
  std::uint64_t full0 = fixed_builds("full"), grow0 = fixed_builds("grow");
  grown.prepare_fixed_base(base, 2600);
  EXPECT_EQ(fixed_builds("full"), full0);
  EXPECT_EQ(fixed_builds("grow"), grow0 + 1);
  EXPECT_EQ(grown.fixed_base_capacity_bits(), 2600u);

  PowerContext fresh(n);
  fresh.prepare_fixed_base(base, 2600);
  std::optional<FixedBaseSnapshot> a = grown.export_fixed_base();
  std::optional<FixedBaseSnapshot> b = fresh.export_fixed_base();
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->window, window);
  EXPECT_EQ(a->window, b->window);
  EXPECT_EQ(a->capacity_bits, b->capacity_bits);
  EXPECT_EQ(a->powers, b->powers);

  DeterministicRng rng(11);
  for (std::size_t bits : {1u, 64u, 1999u, 2000u, 2001u, 2300u, 2599u, 2600u}) {
    Bigint e = Bigint::random_bits(rng, bits);
    EXPECT_EQ(grown.pow(base, e), Bigint::pow_mod(base, e, n)) << bits;
    EXPECT_EQ(grown.pow(base, e), fresh.pow(base, e)) << bits;
  }

  // A narrower request keeps the held table without building anything.
  std::uint64_t builds = fixed_builds("full") + fixed_builds("grow");
  grown.prepare_fixed_base(base, 1000);
  EXPECT_EQ(grown.fixed_base_capacity_bits(), 2600u);
  EXPECT_EQ(fixed_builds("full") + fixed_builds("grow"), builds);

  // A width whose best window differs rebuilds the table whole.
  grown.prepare_fixed_base(base, 20000);
  EXPECT_EQ(fixed_builds("full"), full0 + 2);  // `fresh` above, and this one
  EXPECT_NE(grown.export_fixed_base()->window, window);
  Bigint e = Bigint::random_bits(rng, 19000);
  EXPECT_EQ(grown.pow(base, e), Bigint::pow_mod(base, e, n));
}

}  // namespace
}  // namespace vc
