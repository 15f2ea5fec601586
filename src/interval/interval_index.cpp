#include "interval/interval_index.hpp"

#include <algorithm>
#include <numeric>

#include "accumulator/batch_witness.hpp"
#include "obs/metrics.hpp"
#include "support/errors.hpp"
#include "support/threadpool.hpp"

namespace vc {

namespace {

// Fan-out helper for the per-interval work in this file: uses the pool the
// context carries when one is attached, otherwise runs the loop inline.
// Bodies write to disjoint slots, so proof part order (and bytes) never
// depends on scheduling.
void for_each_index(const AccumulatorContext& ctx, std::size_t n,
                    const std::function<void(std::size_t)>& body) {
  if (ThreadPool* pool = ctx.pool(); pool != nullptr && n > 1) {
    pool->parallel_for(0, n, body);
  } else {
    for (std::size_t i = 0; i < n; ++i) body(i);
  }
}

}  // namespace

namespace {
constexpr std::uint64_t kU64Max = ~std::uint64_t{0};
}

// --- descriptors -------------------------------------------------------------

Bytes IntervalDescriptor::encode() const {
  ByteWriter w;
  w.u64(lo);
  w.u64(hi);
  b.write(w);
  return std::move(w).take();
}

void IntervalDescriptor::write(ByteWriter& w) const {
  w.u64(lo);
  w.u64(hi);
  b.write(w);
}

IntervalDescriptor IntervalDescriptor::read(ByteReader& r) {
  IntervalDescriptor d;
  d.lo = r.u64();
  d.hi = r.u64();
  d.b = Bigint::read(r);
  return d;
}

// --- proof parts --------------------------------------------------------------

void IntervalMembershipPart::write(ByteWriter& w) const {
  desc.write(w);
  chat.write(w);
  mid_witness.write(w);
}

IntervalMembershipPart IntervalMembershipPart::read(ByteReader& r) {
  IntervalMembershipPart p;
  p.desc = IntervalDescriptor::read(r);
  p.chat = Bigint::read(r);
  p.mid_witness = Bigint::read(r);
  return p;
}

std::size_t IntervalMembershipPart::encoded_size() const {
  ByteWriter w;
  write(w);
  return w.size();
}

void IntervalNonmembershipPart::write(ByteWriter& w) const {
  desc.write(w);
  nmw.write(w);
  mid_witness.write(w);
}

IntervalNonmembershipPart IntervalNonmembershipPart::read(ByteReader& r) {
  IntervalNonmembershipPart p;
  p.desc = IntervalDescriptor::read(r);
  p.nmw = NonmembershipWitness::read(r);
  p.mid_witness = Bigint::read(r);
  return p;
}

std::size_t IntervalNonmembershipPart::encoded_size() const {
  ByteWriter w;
  write(w);
  return w.size();
}

void IntervalMembershipProof::write(ByteWriter& w) const {
  w.varint(parts.size());
  for (const auto& p : parts) p.write(w);
}

IntervalMembershipProof IntervalMembershipProof::read(ByteReader& r) {
  IntervalMembershipProof proof;
  std::uint64_t n = r.varint();
  proof.parts.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) proof.parts.push_back(IntervalMembershipPart::read(r));
  return proof;
}

std::size_t IntervalMembershipProof::encoded_size() const {
  ByteWriter w;
  write(w);
  return w.size();
}

void IntervalNonmembershipProof::write(ByteWriter& w) const {
  w.varint(parts.size());
  for (const auto& p : parts) p.write(w);
}

IntervalNonmembershipProof IntervalNonmembershipProof::read(ByteReader& r) {
  IntervalNonmembershipProof proof;
  std::uint64_t n = r.varint();
  proof.parts.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    proof.parts.push_back(IntervalNonmembershipPart::read(r));
  }
  return proof;
}

std::size_t IntervalNonmembershipProof::encoded_size() const {
  ByteWriter w;
  write(w);
  return w.size();
}

// --- index --------------------------------------------------------------------

PrimeRepGenerator IntervalIndex::middle_generator(const PrimeRepConfig& element_config) {
  PrimeRepConfig mid = element_config;
  mid.domain = element_config.domain + "/interval-mid";
  return PrimeRepGenerator(mid);
}

IntervalIndex IntervalIndex::build(const AccumulatorContext& ctx,
                                   std::span<const std::uint64_t> sorted_elements,
                                   PrimeCache& element_primes, IntervalConfig config) {
  if (config.interval_size == 0) throw UsageError("interval_size must be > 0");
  for (std::size_t i = 1; i < sorted_elements.size(); ++i) {
    if (sorted_elements[i] <= sorted_elements[i - 1]) {
      throw UsageError("IntervalIndex::build requires strictly increasing elements");
    }
  }

  IntervalIndex idx;
  idx.config_ = config;
  idx.element_prime_config_ = element_primes.generator().config();
  idx.elements_.assign(sorted_elements.begin(), sorted_elements.end());

  // Chunk the sorted members; ranges partition [0, 2^64-1].
  std::size_t n = idx.elements_.size();
  std::size_t k = n == 0 ? 1 : (n + config.interval_size - 1) / config.interval_size;
  idx.intervals_.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t begin = i * config.interval_size;
    std::size_t end = std::min(n, begin + config.interval_size);
    Interval& iv = idx.intervals_[i];
    iv.members.assign(idx.elements_.begin() + begin, idx.elements_.begin() + end);
    iv.desc.lo = i == 0 ? 0 : idx.elements_[begin];
    bool last = i + 1 == k;
    iv.desc.hi = last ? kU64Max : idx.elements_[end] - 1;
  }
  // Interval accumulators are independent of one another: fan out.
  for_each_index(ctx, idx.intervals_.size(), [&](std::size_t i) {
    Interval& iv = idx.intervals_[i];
    iv.desc.b = ctx.accumulate(idx.member_reps(iv, element_primes));
  });
  std::vector<std::size_t> all(k);
  std::iota(all.begin(), all.end(), std::size_t{0});
  idx.rebuild_middle_layer(ctx, all);
  return idx;
}

std::vector<Bigint> IntervalIndex::member_reps(const Interval& iv,
                                               PrimeCache& element_primes) const {
  std::vector<Bigint> reps;
  reps.reserve(iv.members.size());
  for (std::uint64_t m : iv.members) reps.push_back(element_primes.get(m));
  return reps;
}

void IntervalIndex::rebuild_middle_layer(const AccumulatorContext& ctx,
                                         std::span<const std::size_t> stale) {
  PrimeRepGenerator mid_gen = middle_generator(element_prime_config_);
  // Each representative costs dozens of Miller–Rabin rounds, so only the
  // stale descriptors re-derive theirs (fanned out); every other interval's
  // cached mid_rep still belongs to its unchanged descriptor.
  for_each_index(ctx, stale.size(), [&](std::size_t i) {
    Interval& iv = intervals_[stale[i]];
    iv.mid_rep = mid_gen.representative(iv.desc.encode());
  });
  std::vector<Bigint> mid_reps;
  mid_reps.reserve(intervals_.size());
  for (const Interval& iv : intervals_) mid_reps.push_back(iv.mid_rep);
  // Any changed rep changes every c_{b_k}: the root and all K witnesses are
  // recomputed.
  root_ = ctx.accumulate(mid_reps);

  const std::size_t k = mid_reps.size();
  if (ctx.power().has_trapdoor()) {
    // All K witnesses c_{b_k} = g^(Π_{j≠k} m_j) in one prefix/suffix sweep
    // with the partial products living mod φ(n) (short), then K short
    // exponentiations fanned over the pool.
    const Bigint& phi = ctx.power().phi();
    auto reduce = [&](const Bigint& x) { return Bigint::mod(x, phi); };
    std::vector<Bigint> prefix(k + 1, Bigint(1)), suffix(k + 1, Bigint(1));
    for (std::size_t i = 0; i < k; ++i) prefix[i + 1] = reduce(prefix[i] * mid_reps[i]);
    for (std::size_t i = k; i-- > 0;) suffix[i] = reduce(suffix[i + 1] * mid_reps[i]);
    for_each_index(ctx, k, [&](std::size_t i) {
      intervals_[i].mid_witness = ctx.power().pow(ctx.g(), reduce(prefix[i] * suffix[i + 1]));
    });
    return;
  }
  // Public side: the prefix/suffix products are genuine (K·rep_bits)-bit
  // integers, so the sweep degenerates to K full-width exponentiations —
  // the O(K²) cost the RootFactor tree avoids (O(K log K), pool-parallel).
  std::vector<Bigint> witnesses = batch_membership_witnesses(ctx, mid_reps);
  for (std::size_t i = 0; i < k; ++i) intervals_[i].mid_witness = std::move(witnesses[i]);
}

std::size_t IntervalIndex::find_interval(std::uint64_t v) const {
  // Intervals are sorted by lo; find the last interval with lo <= v.
  std::size_t lo = 0, hi = intervals_.size();
  while (hi - lo > 1) {
    std::size_t mid = lo + (hi - lo) / 2;
    if (intervals_[mid].desc.lo <= v) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

IntervalMembershipProof IntervalIndex::prove_membership(
    const AccumulatorContext& ctx, std::span<const std::uint64_t> values,
    PrimeCache& element_primes, const ChatProvider& chat_provider) const {
  // The online fast path of Fig 3: Fig 2's seconds-per-witness collapses to
  // one interval's worth of work, and this span is where that shows up.
  static obs::Histogram& stage = obs::MetricsRegistry::global().stage("interval_walk");
  obs::Span span(stage, "interval_walk");
  // Group values by home interval.
  std::vector<std::vector<std::uint64_t>> grouped(intervals_.size());
  for (std::uint64_t v : values) {
    std::size_t k = find_interval(v);
    const auto& members = intervals_[k].members;
    if (!std::binary_search(members.begin(), members.end(), v)) {
      throw CryptoError("prove_membership: value is not a member");
    }
    grouped[k].push_back(v);
  }
  // One part per touched interval; parts are independent, so the witness
  // exponentiations fan out over the pool (part order stays by interval).
  std::vector<std::size_t> touched;
  for (std::size_t k = 0; k < intervals_.size(); ++k) {
    if (!grouped[k].empty()) touched.push_back(k);
  }
  IntervalMembershipProof proof;
  proof.parts.resize(touched.size());
  for_each_index(ctx, touched.size(), [&](std::size_t t) {
    std::size_t k = touched[t];
    std::sort(grouped[k].begin(), grouped[k].end());
    const Interval& iv = intervals_[k];
    if (chat_provider) {
      if (std::optional<Bigint> chat = chat_provider(iv.members, grouped[k])) {
        proof.parts[t] = IntervalMembershipPart{
            .desc = iv.desc,
            .chat = *std::move(chat),
            .mid_witness = iv.mid_witness,
        };
        return;
      }
    }
    // chat = g^(Π reps of members not in the value group)  — Eq 4 within X_k.
    std::vector<Bigint> rest;
    rest.reserve(iv.members.size());
    for (std::uint64_t m : iv.members) {
      if (!std::binary_search(grouped[k].begin(), grouped[k].end(), m)) {
        rest.push_back(element_primes.get(m));
      }
    }
    proof.parts[t] = IntervalMembershipPart{
        .desc = iv.desc,
        .chat = membership_witness(ctx, rest),
        .mid_witness = iv.mid_witness,
    };
  });
  return proof;
}

IntervalNonmembershipProof IntervalIndex::prove_nonmembership(
    const AccumulatorContext& ctx, std::span<const std::uint64_t> values,
    PrimeCache& element_primes) const {
  static obs::Histogram& stage = obs::MetricsRegistry::global().stage("interval_walk");
  obs::Span span(stage, "interval_walk");
  std::vector<std::vector<std::uint64_t>> grouped(intervals_.size());
  for (std::uint64_t v : values) grouped[find_interval(v)].push_back(v);

  std::vector<std::size_t> touched;
  for (std::size_t k = 0; k < intervals_.size(); ++k) {
    if (!grouped[k].empty()) touched.push_back(k);
  }
  IntervalNonmembershipProof proof;
  proof.parts.resize(touched.size());
  for_each_index(ctx, touched.size(), [&](std::size_t t) {
    std::size_t k = touched[t];
    const Interval& iv = intervals_[k];
    std::vector<Bigint> outsider_reps;
    outsider_reps.reserve(grouped[k].size());
    for (std::uint64_t v : grouped[k]) outsider_reps.push_back(element_primes.get(v));
    proof.parts[t] = IntervalNonmembershipPart{
        .desc = iv.desc,
        .nmw = nonmembership_witness(ctx, member_reps(iv, element_primes), outsider_reps),
        .mid_witness = iv.mid_witness,
    };
  });
  return proof;
}

void IntervalIndex::insert(const AccumulatorContext& ctx,
                           std::span<const std::uint64_t> new_elements,
                           PrimeCache& element_primes) {
  if (new_elements.empty()) return;
  if (!ctx.power().has_trapdoor()) {
    throw UsageError("IntervalIndex::insert requires the owner trapdoor");
  }
  std::vector<bool> touched(intervals_.size(), false);
  for (std::uint64_t v : new_elements) {
    std::size_t k = find_interval(v);
    auto& members = intervals_[k].members;
    auto it = std::lower_bound(members.begin(), members.end(), v);
    if (it != members.end() && *it == v) continue;  // already present
    members.insert(it, v);
    touched[k] = true;
    auto eit = std::lower_bound(elements_.begin(), elements_.end(), v);
    elements_.insert(eit, v);
  }
  // Re-chunk touched intervals (splitting any that grew past twice the
  // nominal size, to keep online proving cheap), then refresh the stale
  // accumulators in one pool fan-out.
  std::vector<Interval> next;
  next.reserve(intervals_.size());
  std::vector<std::size_t> stale;  // indices into `next` needing re-accumulation
  for (std::size_t k = 0; k < intervals_.size(); ++k) {
    Interval& iv = intervals_[k];
    if (!touched[k]) {
      next.push_back(std::move(iv));
      continue;
    }
    if (iv.members.size() <= 2 * config_.interval_size) {
      stale.push_back(next.size());
      next.push_back(std::move(iv));
      continue;
    }
    // Split into chunks of the nominal size; sub-ranges partition [lo, hi].
    const auto& ms = iv.members;
    std::size_t pieces = (ms.size() + config_.interval_size - 1) / config_.interval_size;
    std::size_t per = (ms.size() + pieces - 1) / pieces;
    for (std::size_t p = 0; p < pieces; ++p) {
      std::size_t begin = p * per, end = std::min(ms.size(), begin + per);
      Interval sub;
      sub.members.assign(ms.begin() + begin, ms.begin() + end);
      sub.desc.lo = p == 0 ? iv.desc.lo : ms[begin];
      sub.desc.hi = p + 1 == pieces ? iv.desc.hi : ms[end] - 1;
      stale.push_back(next.size());
      next.push_back(std::move(sub));
    }
  }
  for_each_index(ctx, stale.size(), [&](std::size_t i) {
    Interval& iv = next[stale[i]];
    iv.desc.b = ctx.accumulate(member_reps(iv, element_primes));
  });
  intervals_ = std::move(next);
  rebuild_middle_layer(ctx, stale);
}

void IntervalIndex::remove(const AccumulatorContext& ctx,
                           std::span<const std::uint64_t> elements,
                           PrimeCache& element_primes) {
  if (elements.empty()) return;
  if (!ctx.power().has_trapdoor()) {
    throw UsageError("IntervalIndex::remove requires the owner trapdoor");
  }
  std::vector<bool> touched(intervals_.size(), false);
  for (std::uint64_t v : elements) {
    std::size_t k = find_interval(v);
    auto& members = intervals_[k].members;
    auto it = std::lower_bound(members.begin(), members.end(), v);
    if (it == members.end() || *it != v) continue;  // not present
    members.erase(it);
    touched[k] = true;
    auto eit = std::lower_bound(elements_.begin(), elements_.end(), v);
    if (eit != elements_.end() && *eit == v) elements_.erase(eit);
  }
  std::vector<std::size_t> stale;
  for (std::size_t k = 0; k < intervals_.size(); ++k) {
    if (touched[k]) stale.push_back(k);
  }
  // Eq 6 per interval: recompute b_k from the surviving members (the
  // interval is small, so a fresh accumulation is as cheap as the
  // modular-inverse update and avoids carrying extra state).  Touched
  // intervals refresh concurrently.
  for_each_index(ctx, stale.size(), [&](std::size_t i) {
    std::size_t k = stale[i];
    intervals_[k].desc.b = ctx.accumulate(member_reps(intervals_[k], element_primes));
  });
  if (!stale.empty()) rebuild_middle_layer(ctx, stale);
}

namespace {

// Shared verification plumbing: checks the descriptor is authenticated by
// the root and collects the values claimed for this part.
bool verify_descriptor(const AccumulatorContext& ctx, const Bigint& root,
                       const IntervalDescriptor& desc, const Bigint& mid_witness,
                       const PrimeRepGenerator& mid_gen) {
  std::vector<Bigint> mid_rep = {mid_gen.representative(desc.encode())};
  return verify_membership(ctx, root, mid_witness, mid_rep);
}

}  // namespace

namespace {

void write_prime_config(ByteWriter& w, const PrimeRepConfig& cfg) {
  w.varint(cfg.rep_bits);
  w.str(cfg.domain);
  w.varint(static_cast<std::uint64_t>(cfg.mr_rounds));
}

PrimeRepConfig read_prime_config(ByteReader& r) {
  PrimeRepConfig cfg;
  cfg.rep_bits = r.varint();
  cfg.domain = r.str();
  cfg.mr_rounds = static_cast<int>(r.varint());
  return cfg;
}

void write_members(ByteWriter& w, const std::vector<std::uint64_t>& members) {
  w.varint(members.size());
  std::uint64_t prev = 0;
  for (std::uint64_t m : members) {
    w.varint(m - prev);
    prev = m;
  }
}

std::vector<std::uint64_t> read_members(ByteReader& r) {
  std::uint64_t n = r.varint();
  std::vector<std::uint64_t> out;
  out.reserve(n);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    prev += r.varint();
    out.push_back(prev);
  }
  return out;
}

}  // namespace

void IntervalIndex::write(ByteWriter& w) const {
  w.str("vc.interval-index.v1");
  w.varint(config_.interval_size);
  write_prime_config(w, element_prime_config_);
  root_.write(w);
  write_members(w, elements_);
  w.varint(intervals_.size());
  for (const Interval& iv : intervals_) {
    iv.desc.write(w);
    write_members(w, iv.members);
    iv.mid_rep.write(w);
    iv.mid_witness.write(w);
  }
}

IntervalIndex IntervalIndex::read(ByteReader& r) {
  if (r.str() != "vc.interval-index.v1") throw ParseError("bad interval-index tag");
  IntervalIndex idx;
  idx.config_.interval_size = r.varint();
  idx.element_prime_config_ = read_prime_config(r);
  idx.root_ = Bigint::read(r);
  idx.elements_ = read_members(r);
  std::uint64_t n = r.varint();
  idx.intervals_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Interval iv;
    iv.desc = IntervalDescriptor::read(r);
    iv.members = read_members(r);
    iv.mid_rep = Bigint::read(r);
    iv.mid_witness = Bigint::read(r);
    idx.intervals_.push_back(std::move(iv));
  }
  return idx;
}

bool operator==(const IntervalIndex& a, const IntervalIndex& b) {
  return a.config_.interval_size == b.config_.interval_size &&
         a.element_prime_config_.rep_bits == b.element_prime_config_.rep_bits &&
         a.element_prime_config_.domain == b.element_prime_config_.domain &&
         a.root_ == b.root_ && a.elements_ == b.elements_ && a.intervals_ == b.intervals_;
}

bool IntervalIndex::verify_membership(const AccumulatorContext& ctx, const Bigint& root,
                                      const IntervalMembershipProof& proof,
                                      std::span<const std::uint64_t> values,
                                      PrimeCache& element_primes) {
  if (values.empty()) return proof.parts.empty();
  PrimeRepGenerator mid_gen = middle_generator(element_primes.generator().config());
  std::vector<bool> covered(values.size(), false);
  for (const auto& part : proof.parts) {
    if (!verify_descriptor(ctx, root, part.desc, part.mid_witness, mid_gen)) return false;
    std::vector<Bigint> reps;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i] >= part.desc.lo && values[i] <= part.desc.hi) {
        if (covered[i]) return false;  // duplicated coverage
        covered[i] = true;
        reps.push_back(element_primes.get(values[i]));
      }
    }
    if (reps.empty()) return false;  // vacuous part
    if (!vc::verify_membership(ctx, part.desc.b, part.chat, reps)) return false;
  }
  return std::all_of(covered.begin(), covered.end(), [](bool c) { return c; });
}

bool IntervalIndex::verify_nonmembership(const AccumulatorContext& ctx, const Bigint& root,
                                         const IntervalNonmembershipProof& proof,
                                         std::span<const std::uint64_t> values,
                                         PrimeCache& element_primes) {
  if (values.empty()) return proof.parts.empty();
  PrimeRepGenerator mid_gen = middle_generator(element_primes.generator().config());
  std::vector<bool> covered(values.size(), false);
  for (const auto& part : proof.parts) {
    if (!verify_descriptor(ctx, root, part.desc, part.mid_witness, mid_gen)) return false;
    std::vector<Bigint> reps;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i] >= part.desc.lo && values[i] <= part.desc.hi) {
        if (covered[i]) return false;
        covered[i] = true;
        reps.push_back(element_primes.get(values[i]));
      }
    }
    if (reps.empty()) return false;
    if (!vc::verify_nonmembership(ctx, part.desc.b, part.nmw, reps)) return false;
  }
  return std::all_of(covered.begin(), covered.end(), [](bool c) { return c; });
}

}  // namespace vc
