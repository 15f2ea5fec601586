// RSA accumulator (§II-A, Eq 1) with dynamic updates (§II-D, Eq 5/6).
//
// A set X of primes condenses into c = g^(Π x_i) mod n.  The owner (who
// knows φ(n)) accumulates with exponents reduced mod φ(n); the cloud pays
// full-width exponentiations.  AccumulatorContext bundles the public
// parameters (n, g) with a PowerContext for whichever role the process is
// playing, and provides the exponentiation primitive every witness
// construction builds on.
#pragma once

#include <span>

#include "bigint/bigint.hpp"
#include "bigint/power_context.hpp"
#include "support/bytes.hpp"
#include "support/errors.hpp"

namespace vc {

struct RsaModulus;
class ThreadPool;

// The public accumulator parameters the owner publishes (§II-B3).
struct AccumulatorParams {
  Bigint n;  // random RSA modulus of safe primes
  Bigint g;  // random element of QR_n

  void write(ByteWriter& w) const;
  static AccumulatorParams read(ByteReader& r);
  friend bool operator==(const AccumulatorParams&, const AccumulatorParams&) = default;
};

class AccumulatorContext {
 public:
  // Owner role: holds the trapdoor, exponentiates via phi(n) + CRT.  The
  // fixed-base tables for g mod p and mod q are built here (two tables of
  // about a hundred half-modulus entries), so every owner g^x — interval
  // accumulators, middle-layer witnesses, roots, dictionary — is
  // squaring-free.
  static AccumulatorContext owner(const RsaModulus& m, Bigint g);
  // Cloud / third-party role: public parameters only.
  static AccumulatorContext public_side(AccumulatorParams params);

  [[nodiscard]] const AccumulatorParams& params() const { return params_; }
  [[nodiscard]] const Bigint& n() const { return params_.n; }
  [[nodiscard]] const Bigint& g() const { return params_.g; }
  [[nodiscard]] const PowerContext& power() const { return power_; }
  [[nodiscard]] bool has_trapdoor() const { return power_.has_trapdoor(); }

  // Optional worker pool for the fan-out paths (batched witness trees,
  // per-interval proof parts, parallel index builds).  Null means every
  // caller runs sequentially; proof bytes are identical either way.  The
  // pool must outlive the context and every copy of it.
  void set_pool(ThreadPool* pool) { pool_ = pool; }
  [[nodiscard]] ThreadPool* pool() const { return pool_; }

  // Precomputes a windowed fixed-base table for the generator g, making
  // every later g-based exponentiation (accumulate, membership witnesses)
  // a squaring-free multi-multiplication.  `max_exp_bits` bounds the
  // exponent width served on the public side (wider exponents fall back to
  // plain powm); the owner side always reduces mod φ(n), so its tables are
  // modulus-sized regardless, and owner() has already built them (a call
  // here is then a no-op).  Call before sharing the context across
  // threads; lookups afterwards are read-only.  Results are bit-identical
  // to the generic path.
  void enable_fixed_base(std::size_t max_exp_bits) {
    power_.prepare_fixed_base(params_.g, max_exp_bits);
  }

  // Adopts a persisted public-side fixed-base table for g (see
  // PowerContext::import_fixed_base) — the cold-restart shortcut that skips
  // the capacity_bits squarings enable_fixed_base would spend rebuilding it.
  // The image's base must be this context's generator.
  void adopt_fixed_base(const FixedBaseSnapshot& snap) {
    if (snap.base != params_.g) {
      throw UsageError("adopt_fixed_base: table base is not this context's generator");
    }
    power_.import_fixed_base(snap);
  }

  // base^(Π primes) mod n.  With the trapdoor the product is accumulated
  // mod φ(n) (one short exponentiation); without it the full product is
  // built with a balanced tree and exponentiated at full width — the cost
  // the paper's Fig 2 measures.
  [[nodiscard]] Bigint pow_product(const Bigint& base, std::span<const Bigint> primes) const;

  // The accumulator of a set of primes: c = g^(Π x) mod n  (Eq 1).
  [[nodiscard]] Bigint accumulate(std::span<const Bigint> primes) const {
    return pow_product(params_.g, primes);
  }

  // Dynamic update: add elements (Eq 5) — works for any role.
  [[nodiscard]] Bigint add_elements(const Bigint& c, std::span<const Bigint> added) const {
    return pow_product(c, added);
  }

  // Dynamic update: delete elements (Eq 6) — requires the trapdoor because
  // the exponent is the modular inverse of the product mod φ(n).
  [[nodiscard]] Bigint delete_elements(const Bigint& c, std::span<const Bigint> removed) const;

 private:
  AccumulatorContext(AccumulatorParams params, PowerContext power)
      : params_(std::move(params)), power_(std::move(power)) {}

  AccumulatorParams params_;
  PowerContext power_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace vc
