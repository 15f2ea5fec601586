#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "bigint/miller_rabin.hpp"
#include "primes/prime_cache.hpp"
#include "primes/prime_rep.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"
#include "support/threadpool.hpp"
#include "temp_path.hpp"

namespace vc {
namespace {

PrimeRepConfig small_config(std::string domain = "test") {
  return PrimeRepConfig{.rep_bits = 64, .domain = std::move(domain), .mr_rounds = 24};
}

TEST(PrimeRep, ProducesPrimesOfExactWidth) {
  PrimeRepGenerator gen(small_config());
  DeterministicRng rng(40);
  for (std::uint64_t e = 0; e < 32; ++e) {
    Bigint p = gen.representative(e);
    EXPECT_EQ(p.bit_length(), 64u) << e;
    EXPECT_TRUE(is_probable_prime(p, rng)) << e;
  }
}

TEST(PrimeRep, Deterministic) {
  PrimeRepGenerator a(small_config()), b(small_config());
  for (std::uint64_t e : {0ULL, 7ULL, ~0ULL}) {
    EXPECT_EQ(a.representative(e), b.representative(e));
  }
}

TEST(PrimeRep, DistinctElementsDistinctPrimes) {
  PrimeRepGenerator gen(small_config());
  std::set<std::string> seen;
  for (std::uint64_t e = 0; e < 200; ++e) {
    EXPECT_TRUE(seen.insert(gen.representative(e).to_decimal()).second) << e;
  }
}

TEST(PrimeRep, DomainSeparation) {
  PrimeRepGenerator a(small_config("d1")), b(small_config("d2"));
  EXPECT_NE(a.representative(std::uint64_t{5}), b.representative(std::uint64_t{5}));
}

TEST(PrimeRep, StringElements) {
  PrimeRepGenerator gen(small_config());
  DeterministicRng rng(41);
  Bigint p = gen.representative("hello");
  EXPECT_TRUE(is_probable_prime(p, rng));
  EXPECT_EQ(p, gen.representative(std::string_view("hello")));
  EXPECT_NE(p, gen.representative("hellp"));
}

TEST(PrimeRep, ConfigurableWidth) {
  PrimeRepConfig cfg = small_config();
  cfg.rep_bits = 128;
  PrimeRepGenerator gen(cfg);
  EXPECT_EQ(gen.representative(std::uint64_t{1}).bit_length(), 128u);
  PrimeRepConfig bad = small_config();
  bad.rep_bits = 8;
  EXPECT_THROW(PrimeRepGenerator{bad}, UsageError);
}

TEST(PrimeCache, ComputesAndCaches) {
  PrimeCache cache(small_config());
  Bigint p1 = cache.get(42);
  EXPECT_EQ(cache.misses(), 1u);
  Bigint p2 = cache.get(42);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(p1, cache.generator().representative(std::uint64_t{42}));
}

TEST(PrimeCache, TryGetDoesNotCompute) {
  PrimeCache cache(small_config());
  Bigint out;
  EXPECT_FALSE(cache.try_get(1, out));
  cache.get(1);
  EXPECT_TRUE(cache.try_get(1, out));
  EXPECT_EQ(out, cache.get(1));
}

TEST(PrimeCache, PrecomputeFillsAll) {
  PrimeCache cache(small_config());
  ThreadPool pool(4);
  std::vector<std::uint64_t> elems;
  for (std::uint64_t e = 0; e < 100; ++e) elems.push_back(e * 3);
  cache.precompute(elems, pool);
  EXPECT_EQ(cache.size(), 100u);
  Bigint out;
  for (std::uint64_t e : elems) EXPECT_TRUE(cache.try_get(e, out));
}

TEST(PrimeCache, ClearEmpties) {
  PrimeCache cache(small_config());
  cache.get(5);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  Bigint out;
  EXPECT_FALSE(cache.try_get(5, out));
}

TEST(PrimeCache, SaveLoadRoundtrip) {
  auto path = testing_paths::unique_temp_path("vc_prime_cache_test.bin");
  PrimeCache cache(small_config());
  for (std::uint64_t e = 0; e < 20; ++e) cache.get(e);
  cache.save(path.string());

  PrimeCache loaded(small_config());
  loaded.load(path.string());
  EXPECT_EQ(loaded.size(), 20u);
  for (std::uint64_t e = 0; e < 20; ++e) {
    Bigint expect, got;
    ASSERT_TRUE(cache.try_get(e, expect));
    ASSERT_TRUE(loaded.try_get(e, got));
    EXPECT_EQ(got, expect);
  }
  std::filesystem::remove(path);
}

TEST(PrimeCache, LoadRejectsMissingFile) {
  PrimeCache cache(small_config());
  EXPECT_THROW(cache.load("/nonexistent/path/cache.bin"), UsageError);
}

TEST(PrimeCache, ConcurrentGetsConsistent) {
  PrimeCache cache(small_config());
  ThreadPool pool(8);
  std::vector<Bigint> results(200);
  pool.parallel_for(0, results.size(),
                    [&](std::size_t i) { results[i] = cache.get(i % 10); });
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], cache.get(i % 10));
  }
  EXPECT_EQ(cache.size(), 10u);
}

}  // namespace
}  // namespace vc
