#include "bigint/power_context.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "support/errors.hpp"

namespace vc {

namespace {

// Table-effectiveness counters: a "hit" is an exponentiation served by the
// BGMW table, a "miss" found a table for the base but fell back to plain
// powm (exponent too wide or too short to profit).  Base-less
// exponentiations are counted separately so utilization is hits / total.
obs::Counter& fixed_hits() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_fixedbase_total", "result=\"hit\"", "Fixed-base table outcomes per exponentiation");
  return c;
}
obs::Counter& fixed_misses() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("vc_fixedbase_total", "result=\"miss\"");
  return c;
}
// Table builds by kind: "full" derives every entry from the base, "grow"
// keeps a held public-side table and appends only the missing entries.
obs::Counter& fixed_builds(bool grow) {
  static obs::Counter& full = obs::MetricsRegistry::global().counter(
      "vc_fixedbase_builds_total", "kind=\"full\"",
      "Fixed-base table builds: full rebuilds and in-place growth");
  static obs::Counter& grown =
      obs::MetricsRegistry::global().counter("vc_fixedbase_builds_total", "kind=\"grow\"");
  return grow ? grown : full;
}
obs::Counter& pow_calls() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_pow_total", "", "Modular exponentiations through PowerContext");
  return c;
}

}  // namespace

// --- fixed-base tables -------------------------------------------------------
//
// One sub-table per residue ring the exponentiation runs in: a single table
// mod n on the public side, tables mod p and mod q on the trapdoor side
// (whose exponents arrive already reduced mod p-1 / q-1).  Sub-table i
// stores powers[j] = base^(2^(window·j)) mod `mod`; the BGMW bucket scan in
// eval_fixed combines them without a single squaring.
namespace {

struct FixedSub {
  Bigint mod;
  std::size_t window = 0;         // digit width w in bits
  std::size_t capacity_bits = 0;  // widest exponent the table serves
  std::vector<Bigint> powers;     // ceil(capacity/window) entries
};

}  // namespace

struct PowerContext::FixedBase {
  Bigint base;
  std::vector<FixedSub> subs;  // public: {n}; trapdoor: {p, q}
};

namespace {

// Memory/build-time backstop: a table for a 2M-bit exponent capacity is
// ~180k modulus-sized entries (tens of MB) and 2M squarings to build; past
// that the generic powm path is the better deal anyway.
constexpr std::size_t kMaxFixedCapacityBits = 2'000'000;

std::size_t pick_window(std::size_t capacity_bits) {
  // Per-exponentiation cost ≈ capacity/w bucket mults + 2^w scan mults.
  std::size_t best_w = 2;
  double best_cost = 1e300;
  for (std::size_t w = 2; w <= 12; ++w) {
    double cost = static_cast<double>(capacity_bits) / static_cast<double>(w) +
                  static_cast<double>(std::size_t{1} << w);
    if (cost < best_cost) {
      best_cost = cost;
      best_w = w;
    }
  }
  return best_w;
}

std::size_t clamp_capacity(std::size_t capacity_bits) {
  return std::max<std::size_t>(1, std::min(capacity_bits, kMaxFixedCapacityBits));
}

// Appends powers[i] = powers[i-1]^(2^window) — `window` squarings via one
// powm each — until the table serves `capacity_bits`.  A grown table is
// therefore entry for entry the table a fresh build of the same capacity
// and window would produce.
void extend_sub(FixedSub& sub, std::size_t capacity_bits) {
  sub.capacity_bits = capacity_bits;
  std::size_t entries = (capacity_bits + sub.window - 1) / sub.window;
  sub.powers.reserve(entries);
  const Bigint step(long{1} << sub.window);
  while (sub.powers.size() < entries) {
    sub.powers.push_back(Bigint::pow_mod(sub.powers.back(), step, sub.mod));
  }
}

FixedSub build_sub(const Bigint& base, const Bigint& mod, std::size_t capacity_bits) {
  FixedSub sub;
  sub.mod = mod;
  capacity_bits = clamp_capacity(capacity_bits);
  sub.window = pick_window(capacity_bits);
  sub.powers.push_back(Bigint::mod(base, mod));
  extend_sub(sub, capacity_bits);
  return sub;
}

// BGMW bucket evaluation: group digit positions by digit value d, then
//   result = Π_d (Π_{i: e_i = d} powers[i])^d
// computed with the running-product trick (B accumulates the buckets from
// the largest d downward, A accumulates B once per d).  Total cost:
// (#nonzero digits + max digit) multiplications, zero squarings.
Bigint eval_fixed(const FixedSub& sub, const Bigint& exp) {
  const std::size_t bits = exp.bit_length();
  if (bits == 0) return Bigint(1);
  const std::size_t w = sub.window;
  const std::size_t digits = (bits + w - 1) / w;
  constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  std::vector<std::uint32_t> head(std::size_t{1} << w, kEmpty);
  std::vector<std::uint32_t> next(digits, kEmpty);
  mpz_srcptr z = exp.raw();
  std::size_t max_digit = 0;
  for (std::size_t i = 0; i < digits; ++i) {
    std::size_t d = 0;
    for (std::size_t k = 0; k < w && i * w + k < bits; ++k) {
      d |= static_cast<std::size_t>(mpz_tstbit(z, i * w + k)) << k;
    }
    if (d == 0) continue;
    next[i] = head[d];
    head[d] = static_cast<std::uint32_t>(i);
    max_digit = std::max(max_digit, d);
  }
  Bigint a(1), b(1);
  for (std::size_t d = max_digit; d >= 1; --d) {
    for (std::uint32_t j = head[d]; j != kEmpty; j = next[j]) {
      b = Bigint::mod(b * sub.powers[j], sub.mod);
    }
    a = Bigint::mod(a * b, sub.mod);
  }
  return a;
}

// The fixed path only wins when the bucket scan is cheaper than the ~1.2
// multiplications-per-exponent-bit of a generic powm; short exponents on a
// wide-capacity table would lose to the 2^w scan.
bool fixed_profitable(const FixedSub& sub, std::size_t exp_bits) {
  if (exp_bits == 0 || exp_bits > sub.capacity_bits) return false;
  double fixed_cost = static_cast<double>((exp_bits + sub.window - 1) / sub.window) +
                      static_cast<double>(std::size_t{1} << sub.window);
  double plain_cost = 1.2 * static_cast<double>(exp_bits);
  return fixed_cost < plain_cost;
}

}  // namespace

PowerContext::PowerContext(Bigint n) : n_(std::move(n)) {
  if (n_ < Bigint(2)) throw UsageError("PowerContext: modulus must be >= 2");
}

PowerContext::PowerContext(Bigint n, Bigint p, Bigint q) : n_(std::move(n)) {
  if (!(p * q == n_)) throw UsageError("PowerContext: p*q != n");
  Trapdoor t{.p = std::move(p),
             .q = std::move(q),
             .phi = Bigint(),
             .p_minus_1 = Bigint(),
             .q_minus_1 = Bigint(),
             .q_inv_mod_p = Bigint()};
  t.p_minus_1 = t.p - Bigint(1);
  t.q_minus_1 = t.q - Bigint(1);
  t.phi = t.p_minus_1 * t.q_minus_1;
  t.q_inv_mod_p = Bigint::invert_mod(t.q, t.p);
  trapdoor_ = std::move(t);
}

const Bigint& PowerContext::phi() const {
  if (!trapdoor_) throw UsageError("PowerContext: phi() requires the trapdoor");
  return trapdoor_->phi;
}

void PowerContext::prepare_fixed_base(const Bigint& base, std::size_t max_exp_bits) {
  // Trapdoor tables ignore max_exp_bits, so an existing one for this base is
  // already the table a rebuild would produce.
  if (trapdoor_ && fixed_base_matches(base)) return;
  const std::size_t need = clamp_capacity(max_exp_bits);
  if (!trapdoor_ && fixed_base_matches(base)) {
    const FixedSub& held = fixed_->subs[0];
    if (held.capacity_bits >= need) return;
    if (pick_window(need) == held.window) {
      // Grow: copy the held entries and append the missing ones, each only
      // its own `window` squarings.  Copies of this context keep the old,
      // narrower table — it is immutable once shared.
      auto grown = std::make_shared<FixedBase>(*fixed_);
      extend_sub(grown->subs[0], need);
      fixed_ = std::move(grown);
      fixed_builds(true).inc();
      return;
    }
  }
  auto fixed = std::make_shared<FixedBase>();
  fixed->base = base;
  if (trapdoor_) {
    // Exponents are reduced mod p-1 / q-1 before the table is consulted.
    fixed->subs.push_back(build_sub(base, trapdoor_->p, trapdoor_->p.bit_length()));
    fixed->subs.push_back(build_sub(base, trapdoor_->q, trapdoor_->q.bit_length()));
  } else {
    fixed->subs.push_back(build_sub(base, n_, need));
  }
  fixed_ = std::move(fixed);
  fixed_builds(false).inc();
}

bool PowerContext::fixed_base_matches(const Bigint& base) const {
  return fixed_ != nullptr && fixed_->base == base;
}

std::size_t PowerContext::fixed_base_capacity_bits() const {
  if (fixed_ == nullptr) return 0;
  if (trapdoor_) return static_cast<std::size_t>(-1);
  return fixed_->subs[0].capacity_bits;
}

std::optional<FixedBaseSnapshot> PowerContext::export_fixed_base() const {
  if (fixed_ == nullptr || trapdoor_) return std::nullopt;
  const FixedSub& sub = fixed_->subs[0];
  FixedBaseSnapshot out;
  out.base = fixed_->base;
  out.window = sub.window;
  out.capacity_bits = sub.capacity_bits;
  out.powers = sub.powers;
  return out;
}

void PowerContext::import_fixed_base(const FixedBaseSnapshot& snap) {
  if (trapdoor_) {
    throw UsageError("import_fixed_base: trapdoor-side tables are never persisted");
  }
  if (snap.window < 2 || snap.window > 12 || snap.capacity_bits == 0 ||
      snap.capacity_bits > kMaxFixedCapacityBits) {
    throw UsageError("import_fixed_base: window/capacity out of range");
  }
  std::size_t entries = (snap.capacity_bits + snap.window - 1) / snap.window;
  if (snap.powers.size() != entries) {
    throw UsageError("import_fixed_base: entry count does not match window/capacity");
  }
  if (snap.powers[0] != Bigint::mod(snap.base, n_)) {
    throw UsageError("import_fixed_base: powers[0] != base mod n");
  }
  // Spot-check one chain link; a wrong table only yields proofs the verifier
  // rejects (availability, not soundness), and the store CRCs cover bit rot.
  if (entries > 1 &&
      snap.powers[1] !=
          Bigint::pow_mod(snap.powers[0], Bigint(long{1} << snap.window), n_)) {
    throw UsageError("import_fixed_base: power chain mismatch");
  }
  auto fixed = std::make_shared<FixedBase>();
  fixed->base = snap.base;
  fixed->subs.push_back(FixedSub{.mod = n_,
                                 .window = snap.window,
                                 .capacity_bits = snap.capacity_bits,
                                 .powers = snap.powers});
  fixed_ = std::move(fixed);
}

Bigint PowerContext::pow(const Bigint& base, const Bigint& exp) const {
  if (exp.is_negative()) {
    return pow(inv(base), -exp);
  }
  pow_calls().inc();
  if (!trapdoor_) {
    if (fixed_base_matches(base)) {
      if (fixed_profitable(fixed_->subs[0], exp.bit_length())) {
        fixed_hits().inc();
        return eval_fixed(fixed_->subs[0], exp);
      }
      fixed_misses().inc();
    }
    return Bigint::pow_mod(base, exp, n_);
  }
  const Trapdoor& t = *trapdoor_;
  // Reduce the exponent per prime factor, exponentiate mod p and mod q,
  // recombine with Garner's formula:
  //   m = m_q + q * ((m_p - m_q) * q^{-1} mod p)
  Bigint ep = Bigint::mod(exp, t.p_minus_1);
  Bigint eq = Bigint::mod(exp, t.q_minus_1);
  Bigint mp, mq;
  if (fixed_base_matches(base)) {
    bool p_fixed = fixed_profitable(fixed_->subs[0], ep.bit_length());
    bool q_fixed = fixed_profitable(fixed_->subs[1], eq.bit_length());
    (p_fixed && q_fixed ? fixed_hits() : fixed_misses()).inc();
    mp = p_fixed ? eval_fixed(fixed_->subs[0], ep)
                 : Bigint::pow_mod(Bigint::mod(base, t.p), ep, t.p);
    mq = q_fixed ? eval_fixed(fixed_->subs[1], eq)
                 : Bigint::pow_mod(Bigint::mod(base, t.q), eq, t.q);
  } else {
    mp = Bigint::pow_mod(Bigint::mod(base, t.p), ep, t.p);
    mq = Bigint::pow_mod(Bigint::mod(base, t.q), eq, t.q);
  }
  Bigint h = Bigint::mod((mp - mq) * t.q_inv_mod_p, t.p);
  return mq + t.q * h;
}

}  // namespace vc
