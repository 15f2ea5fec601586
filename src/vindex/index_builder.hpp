// The owner-side verifiable index builder (§III-B): the mutable half of the
// builder/snapshot split.
//
// IndexBuilder owns the inverted index and maps every indexed term to
//   - its inverted-index posting list of (docID, tf) tuples,
//   - two flat RSA accumulators (tuples; docIDs),
//   - two interval trees (tuples; docIDs) for fast online witnesses,
//   - an owner-signed counting Bloom filter of the docID set,
//   - owner signatures binding all of the above to the term,
// plus the dictionary gap-interval structure for unknown keywords.
//
// Every committed mutation (build, add_documents, remove_documents) advances
// an epoch counter that is stamped into every re-signed statement.  The
// serving side never touches the builder: snapshot() freezes the current
// state into an immutable, epoch-numbered IndexSnapshot that shares every
// untouched entry with its predecessor (copy-on-write — an incremental
// update clones only the entries it mutates).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "accumulator/accumulator.hpp"
#include "index/inverted_index.hpp"
#include "vindex/balance.hpp"
#include "vindex/index_snapshot.hpp"

namespace vc {

class ThreadPool;

// Build costs.  prime_precompute_seconds, accumulate_seconds and
// dictionary_seconds are wall time per phase; bloom_seconds and
// sign_seconds are per-term seconds summed across pool workers, spent
// inside the accumulate phase.
struct BuildStats {
  double prime_precompute_seconds = 0;  // Table II's cost, paid offline
  double accumulate_seconds = 0;        // per-term entries: accumulators, Bloom, signing
  double bloom_seconds = 0;             // Bloom build + compression, summed per term
  double sign_seconds = 0;              // both attestations, summed per term
  double dictionary_seconds = 0;
  std::uint64_t records = 0;
  std::size_t terms = 0;
};

// Per-layer cost of one add_documents / remove_documents call.  Touched
// terms refresh in parallel over the owner context's pool, so every layer
// figure (flat accumulator, Bloom, interval, sign, new-term) is the per-term
// seconds summed across workers, not wall time: with a pool, interval_seconds
// alone can exceed the call's wall time.  dictionary_seconds is wall time.
struct UpdateTimings {
  double flat_accumulator_seconds = 0;  // Eq 5 updates (Accumulator scheme)
  double bloom_seconds = 0;             // decompress + add + recompress (Bloom)
  double interval_seconds = 0;          // interval-tree maintenance (Hybrid extra)
  double sign_seconds = 0;
  double dictionary_seconds = 0;
  double new_term_seconds = 0;          // entries built from scratch for new terms
  std::size_t touched_terms = 0;
  std::size_t new_terms = 0;
  std::size_t added_postings = 0;

  [[nodiscard]] double accumulator_scheme_seconds() const {
    return flat_accumulator_seconds + sign_seconds;
  }
  [[nodiscard]] double bloom_scheme_seconds() const { return bloom_seconds + sign_seconds; }
  [[nodiscard]] double hybrid_scheme_seconds() const {
    return flat_accumulator_seconds + bloom_seconds + interval_seconds + sign_seconds;
  }
};

// One publish's worth of committed changes, ready for the epoch store's
// format-v3 delta record (store/delta_codec.hpp): the touched terms'
// re-signed entries (accumulators already advanced via Eq 5/6), the terms
// whose posting lists emptied out, the rebuilt dictionary when it changed,
// and the prime representatives the touched postings reference — everything
// a reader needs to overlay this epoch on top of `base_epoch` without the
// O(index) payload of a full snapshot.
struct IndexDelta {
  std::uint64_t epoch = 0;       // the epoch this delta commits
  std::uint64_t base_epoch = 0;  // the chain predecessor it applies to
  VerifiableIndexConfig config;
  std::map<std::string, std::shared_ptr<const IndexEntry>, std::less<>> touched;
  std::vector<std::string> removed;  // sorted; absent from `touched`
  bool dict_changed = false;
  std::shared_ptr<const DictionaryIntervals> dict;             // when dict_changed
  std::shared_ptr<const DictAttestation> dict_attestation;     // when dict_changed
  std::size_t max_posting_count = 0;  // over the whole index at `epoch`
  // Representatives for postings of documents added since the last publish,
  // sorted by element.  Older postings' representatives resolve through the
  // chain's base backings (docIDs are append-only, so anything at or below
  // the publish watermark was already referenced there) and, in the worst
  // case, recompute deterministically from the element.
  std::vector<std::pair<std::uint64_t, Bigint>> tuple_primes;
  std::vector<std::pair<std::uint64_t, Bigint>> doc_primes;
};

class IndexBuilder {
 public:
  // Owner-side build.  `workers` threads pre-compute prime representatives
  // and per-term structures, partitioned by `strategy` (Fig 9).  The built
  // index starts at epoch 1.
  static IndexBuilder build(InvertedIndex index, const AccumulatorContext& owner_ctx,
                            const SigningKey& owner_key, VerifiableIndexConfig config,
                            ThreadPool& pool,
                            BalanceStrategy strategy = BalanceStrategy::kRecordBased,
                            BuildStats* stats = nullptr);

  [[nodiscard]] const IndexEntry* find(std::string_view term) const;
  [[nodiscard]] const InvertedIndex& index() const { return index_; }
  [[nodiscard]] const VerifiableIndexConfig& config() const { return config_; }
  [[nodiscard]] std::size_t term_count() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  [[nodiscard]] const DictionaryIntervals& dictionary() const { return *dict_; }
  [[nodiscard]] const DictAttestation& dict_attestation() const { return *dict_attestation_; }

  // The cloud-side prime manager caches (pre-computed at build: §III-D3).
  [[nodiscard]] PrimeCache& tuple_primes() const { return *tuple_primes_; }
  [[nodiscard]] PrimeCache& doc_primes() const { return *doc_primes_; }

  // Freezes the current state into an immutable snapshot stamped with the
  // current epoch.  Cheap: the snapshot shares every entry, the dictionary
  // and the prime caches through shared_ptr; repeated calls between
  // mutations return the same object.
  [[nodiscard]] SnapshotPtr snapshot() const;

  // Incremental update (§II-D, Fig 8): appends new documents (docIDs must
  // exceed all indexed ones), updating flat accumulators with Eq 5, Bloom
  // filters by counter increments, interval trees incrementally, and
  // re-signing touched statements — the untouched entries are shared with
  // the previous epoch's snapshot.  Requires the owner context + key.
  // `rebuild_dictionary` re-derives the gap structure when new terms
  // appeared (skippable for measurement runs that follow the paper's Fig 8
  // scope; a skipped rebuild leaves unknown-keyword proofs stale for the
  // new terms until the next rebuild).  Touched terms refresh in parallel
  // over owner_ctx's pool when one is attached; every byte is the same
  // without it.
  UpdateTimings add_documents(const std::vector<Document>& docs,
                              const AccumulatorContext& owner_ctx,
                              const SigningKey& owner_key, bool rebuild_dictionary = true);

  // Incremental delete (§II-D, Eq 6): removes documents entirely.  Flat
  // accumulators shrink via the modular-inverse update, Bloom counters
  // decrement, interval trees drop the elements from cloned entries.  Terms
  // whose posting lists empty out disappear from the index (and from the
  // dictionary when `rebuild_dictionary` is set).  Runs the same per-term
  // refresh as add_documents, pool included.
  UpdateTimings remove_documents(std::span<const std::uint64_t> doc_ids,
                                 const AccumulatorContext& owner_ctx,
                                 const SigningKey& owner_key,
                                 bool rebuild_dictionary = true);

  // Rebuilds the dictionary gap structure + attestation from current terms.
  double rebuild_dictionary(const AccumulatorContext& owner_ctx, const SigningKey& owner_key);

  // --- delta publication ---------------------------------------------------
  // Every committed mutation records which terms it touched or removed and
  // whether the dictionary was rebuilt.  publish_delta() drains that state
  // into an IndexDelta chained to the last published epoch, so the publish
  // path ships O(touched) bytes instead of O(index).  Returns nullopt when
  // there is nothing to ship: no full epoch has been published yet (the
  // chain needs a base snapshot), or no mutation committed since the last
  // publish.  The caller hands the result to EpochStore::publish_delta().
  [[nodiscard]] std::optional<IndexDelta> publish_delta();

  // Records that the current epoch was published as a full snapshot,
  // resetting the dirty state so the next publish_delta() chains to it.
  void note_full_publish();

  // Terms dirtied (touched or removed) since the last publish — what the
  // next publish_delta() would ship.
  [[nodiscard]] std::size_t dirty_term_count() const {
    return dirty_terms_.size() + removed_terms_.size();
  }
  [[nodiscard]] std::uint64_t last_published_epoch() const { return last_published_epoch_; }

  // --- outsourcing ---------------------------------------------------------
  // Serializes the complete structure — index, per-term entries, dictionary
  // and (optionally) the pre-computed prime caches — into the artifact the
  // owner uploads (§III-B).
  void save(const std::string& path, bool include_prime_caches = true) const;
  static IndexBuilder load(const std::string& path);

  // The receipt check the cloud performs before acknowledging: every
  // attestation must verify under the owner's key, and every entry must be
  // consistent with the inverted index it claims to cover.  Throws
  // VerifyError naming the first failed check.
  void validate(const VerifyKey& owner_key) const;

 private:
  explicit IndexBuilder(VerifiableIndexConfig config)
      : config_(config),
        dict_(std::make_shared<DictionaryIntervals>()),
        dict_attestation_(std::make_shared<DictAttestation>()),
        tuple_primes_(std::make_shared<PrimeCache>(config.tuple_prime_config())),
        doc_primes_(std::make_shared<PrimeCache>(config.doc_prime_config())) {}

  // Builds one term's entry from scratch; the Bloom and signing seconds go
  // into `t`.
  IndexEntry build_entry(const std::string& term, const PostingList& postings,
                         const AccumulatorContext& owner_ctx, const SigningKey& owner_key,
                         UpdateTimings& t) const;

  // The update loop shared by add_documents and remove_documents: refreshes
  // every term of `changed` (its added or removed postings) with
  // refresh_entry, fanned out over owner_ctx's pool when one is attached,
  // then commits the new entries and dirty marks serially in term order
  // and adds the per-term seconds into `t`.  Every changed term must still
  // be in the inverted index.
  void refresh_terms(const std::map<std::string, PostingList, std::less<>>& changed,
                     bool adding, const AccumulatorContext& owner_ctx,
                     const SigningKey& owner_key, UpdateTimings& t);
  // One term's copy-on-write refresh: Eq 5 (adding) or Eq 6 on the flat
  // accumulators, Bloom counters, interval insert/remove, and both
  // statements re-signed at the current epoch.  A term without an `old`
  // entry is built from scratch.  Reads only shared-safe state.
  [[nodiscard]] std::shared_ptr<const IndexEntry> refresh_entry(
      const std::string& term, const IndexEntry* old, const PostingList& changed, bool adding,
      const AccumulatorContext& owner_ctx, const SigningKey& owner_key,
      UpdateTimings& t) const;

  // Marks the start of a committed mutation: bumps the epoch that re-signed
  // statements will carry and invalidates the cached snapshot.
  void begin_mutation();

  VerifiableIndexConfig config_;
  InvertedIndex index_;
  IndexSnapshot::EntryMap entries_;
  std::shared_ptr<const DictionaryIntervals> dict_;
  std::shared_ptr<const DictAttestation> dict_attestation_;
  std::shared_ptr<PrimeCache> tuple_primes_;  // stable identity across moves
  std::shared_ptr<PrimeCache> doc_primes_;
  std::uint64_t epoch_ = 0;
  mutable SnapshotPtr cached_snapshot_;

  // Delta-publication dirty tracking (see publish_delta).  A term is in at
  // most one of the two sets; re-adding a removed term moves it back.
  std::set<std::string, std::less<>> dirty_terms_;
  std::set<std::string, std::less<>> removed_terms_;
  bool dict_dirty_ = false;
  std::uint64_t last_published_epoch_ = 0;  // 0: no publish recorded yet
  // DocIDs below this were covered by the last published epoch; deltas ship
  // prime representatives only for postings at or above it.
  std::uint32_t published_doc_watermark_ = 0;
};

}  // namespace vc
