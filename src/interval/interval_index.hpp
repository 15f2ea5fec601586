// Interval-based witnesses (§III-D1, Fig 3).
//
// A large sorted set X splits into fixed-size value intervals X_1..X_K.
// Each interval accumulates to b_k = g^(Π reps(X_k)); the *middle layer*
// accumulates authenticated interval descriptors to the root c, which
// stands for the whole of X.  Online witness generation then only touches
// one small interval per value — the entire point of the scheme: Fig 2's
// seconds-per-witness collapses to milliseconds.
//
// Soundness detail the paper leaves implicit: a nonmembership witness
// against interval X_k only proves v ∉ X when the verifier knows v *must*
// have been in X_k.  We therefore accumulate, in the middle layer, a prime
// representative of the canonical encoding (lo_k, hi_k, b_k) — the
// interval's covered value range plus its accumulator — and every proof
// part discloses (lo_k, hi_k, b_k).  The verifier checks the value falls in
// [lo_k, hi_k] and that the descriptor belongs to the signed root.  The
// owner constructs intervals to partition the full u64 domain, so each
// value has exactly one authenticated home interval.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "accumulator/accumulator.hpp"
#include "accumulator/witness.hpp"
#include "primes/prime_cache.hpp"

namespace vc {

namespace advtest {
struct IntervalAccess;
}  // namespace advtest

struct IntervalConfig {
  // Elements per interval; the paper picks 100 (§V-A).
  std::size_t interval_size = 100;
};

// One interval's public descriptor as disclosed in proofs.
struct IntervalDescriptor {
  std::uint64_t lo = 0;  // inclusive lower bound of covered value range
  std::uint64_t hi = 0;  // inclusive upper bound
  Bigint b;              // accumulator of the interval's members

  // Canonical encoding hashed into the middle-layer prime representative.
  [[nodiscard]] Bytes encode() const;
  void write(ByteWriter& w) const;
  static IntervalDescriptor read(ByteReader& r);
  friend bool operator==(const IntervalDescriptor&, const IntervalDescriptor&) = default;
};

// Proof that a group of values belongs to X, one part per touched interval.
struct IntervalMembershipPart {
  IntervalDescriptor desc;
  Bigint chat;        // aggregated membership witness of the values within b
  Bigint mid_witness; // membership witness of the descriptor in the root

  void write(ByteWriter& w) const;
  static IntervalMembershipPart read(ByteReader& r);
  [[nodiscard]] std::size_t encoded_size() const;
};

// Proof that a group of values is absent from X, one part per touched
// interval (values in the same gap share one part).
struct IntervalNonmembershipPart {
  IntervalDescriptor desc;
  NonmembershipWitness nmw;  // aggregated nonmembership within b
  Bigint mid_witness;

  void write(ByteWriter& w) const;
  static IntervalNonmembershipPart read(ByteReader& r);
  [[nodiscard]] std::size_t encoded_size() const;
};

struct IntervalMembershipProof {
  std::vector<IntervalMembershipPart> parts;

  void write(ByteWriter& w) const;
  static IntervalMembershipProof read(ByteReader& r);
  [[nodiscard]] std::size_t encoded_size() const;
};

struct IntervalNonmembershipProof {
  std::vector<IntervalNonmembershipPart> parts;

  void write(ByteWriter& w) const;
  static IntervalNonmembershipProof read(ByteReader& r);
  [[nodiscard]] std::size_t encoded_size() const;
};

// The owner-built two-layer structure of Fig 3.
class IntervalIndex {
 public:
  // Empty index; assign from build() before use.
  IntervalIndex() = default;

  // `sorted_elements` must be strictly increasing.  `element_primes` caches
  // member representatives (the prime manager); the middle-layer generator
  // is derived from its config with a distinct domain.
  static IntervalIndex build(const AccumulatorContext& ctx,
                             std::span<const std::uint64_t> sorted_elements,
                             PrimeCache& element_primes, IntervalConfig config = {});

  // Root accumulator c, the value the owner signs.
  [[nodiscard]] const Bigint& root() const { return root_; }
  [[nodiscard]] std::size_t interval_count() const { return intervals_.size(); }
  [[nodiscard]] std::size_t element_count() const { return elements_.size(); }
  [[nodiscard]] const IntervalConfig& config() const { return config_; }

  // Index of the unique interval whose [lo, hi] range contains v.
  [[nodiscard]] std::size_t find_interval(std::uint64_t v) const;
  [[nodiscard]] const IntervalDescriptor& descriptor(std::size_t k) const {
    return intervals_[k].desc;
  }
  // Sorted members of interval k (the witness-tier builder batches per-member
  // witnesses over exactly this set).
  [[nodiscard]] std::span<const std::uint64_t> interval_members(std::size_t k) const {
    return intervals_[k].members;
  }

  // Optional fast-path hook for prove_membership: given one touched
  // interval's full sorted member list and the sorted group of proven values
  // inside it, returns the aggregated chat g^(Π reps(members \ group)) — or
  // nullopt to fall back to the direct computation.  The witness tier backs
  // this with precomputed per-member witnesses; grouping, part order, and
  // every other proof byte are identical either way.
  using ChatProvider = std::function<std::optional<Bigint>(
      std::span<const std::uint64_t> members, std::span<const std::uint64_t> group)>;

  // Aggregated membership proof for `values` (every value must be a member;
  // throws CryptoError otherwise).  Cost: O(interval_size) ring mults per
  // touched interval — the fast online path.
  [[nodiscard]] IntervalMembershipProof prove_membership(
      const AccumulatorContext& ctx, std::span<const std::uint64_t> values,
      PrimeCache& element_primes) const {
    return prove_membership(ctx, values, element_primes, nullptr);
  }
  [[nodiscard]] IntervalMembershipProof prove_membership(
      const AccumulatorContext& ctx, std::span<const std::uint64_t> values,
      PrimeCache& element_primes, const ChatProvider& chat_provider) const;

  // Aggregated nonmembership proof for `values` (none may be a member).
  [[nodiscard]] IntervalNonmembershipProof prove_nonmembership(
      const AccumulatorContext& ctx, std::span<const std::uint64_t> values,
      PrimeCache& element_primes) const;

  // Incremental update (§II-D): inserts new elements, rebuilding only the
  // touched intervals and refreshing the middle layer.  Requires the
  // trapdoor (middle-layer deletions use Eq 6).
  void insert(const AccumulatorContext& ctx, std::span<const std::uint64_t> new_elements,
              PrimeCache& element_primes);

  // Incremental delete (§II-D, Eq 6): removes elements, recomputing only
  // the touched interval accumulators.  Interval ranges are preserved (an
  // interval may become empty), so nonmembership proofs for the removed
  // values work immediately.  Elements not present are ignored.  Requires
  // the trapdoor.
  void remove(const AccumulatorContext& ctx, std::span<const std::uint64_t> elements,
              PrimeCache& element_primes);

  // --- verification (public side) ----------------------------------------
  // Checks that `values` ⊆ X given the signed root.  `values` must be
  // grouped exactly as the prover grouped them; the function re-derives the
  // grouping from the disclosed interval ranges.
  static bool verify_membership(const AccumulatorContext& ctx, const Bigint& root,
                                const IntervalMembershipProof& proof,
                                std::span<const std::uint64_t> values,
                                PrimeCache& element_primes);

  static bool verify_nonmembership(const AccumulatorContext& ctx, const Bigint& root,
                                   const IntervalNonmembershipProof& proof,
                                   std::span<const std::uint64_t> values,
                                   PrimeCache& element_primes);

  // The middle-layer prime generator for a given element-prime config; the
  // verifier needs it to recompute descriptor representatives.
  static PrimeRepGenerator middle_generator(const PrimeRepConfig& element_config);

  // Full-structure serialization (what the owner uploads to the cloud).
  void write(ByteWriter& w) const;
  static IntervalIndex read(ByteReader& r);
  friend bool operator==(const IntervalIndex&, const IntervalIndex&);

 private:
  // Narrow test-only hook: the adversarial soundness harness (src/advtest)
  // reads interval internals (member lists, precomputed middle witnesses)
  // to graft genuinely-authenticated parts of *other* intervals into
  // proofs — the witness-substitution forgery class.
  friend struct advtest::IntervalAccess;

  struct Interval {
    IntervalDescriptor desc;
    std::vector<std::uint64_t> members;  // sorted
    Bigint mid_rep;                      // prime representative of desc
    Bigint mid_witness;                  // c_{b_k}, precomputed (Fig 3)

    friend bool operator==(const Interval&, const Interval&) = default;
  };

  // Re-derives the middle-layer representatives of the intervals listed in
  // `stale` (their descriptors changed), then recomputes the root and every
  // interval's c_{b_k} from all K cached representatives.
  void rebuild_middle_layer(const AccumulatorContext& ctx, std::span<const std::size_t> stale);
  [[nodiscard]] std::vector<Bigint> member_reps(const Interval& iv,
                                                PrimeCache& element_primes) const;

  IntervalConfig config_;
  std::vector<Interval> intervals_;
  std::vector<std::uint64_t> elements_;  // all members, sorted
  Bigint root_;
  PrimeRepConfig element_prime_config_;
};

}  // namespace vc
