#include "vindex/index_builder.hpp"

#include <algorithm>
#include <fstream>

#include "bloom/compressed_bloom.hpp"
#include "support/errors.hpp"
#include "support/stopwatch.hpp"
#include "support/threadpool.hpp"

namespace vc {

IndexEntry IndexBuilder::build_entry(const std::string& term, const PostingList& postings,
                                     const AccumulatorContext& owner_ctx,
                                     const SigningKey& owner_key, UpdateTimings& t) const {
  IndexEntry e;
  e.postings = postings;
  U64Set tuples = InvertedIndex::tuple_set(postings);
  U64Set docs = InvertedIndex::doc_set(postings);
  // tuple_set is sorted by construction (doc_id major); doc ids are sorted.
  std::sort(tuples.begin(), tuples.end());
  IntervalConfig icfg{.interval_size = config_.interval_size};
  e.tuple_intervals = IntervalIndex::build(owner_ctx, tuples, *tuple_primes_, icfg);
  e.doc_intervals = IntervalIndex::build(owner_ctx, docs, *doc_primes_, icfg);

  std::vector<Bigint> tuple_reps, doc_reps;
  tuple_reps.reserve(tuples.size());
  doc_reps.reserve(docs.size());
  for (std::uint64_t t : tuples) tuple_reps.push_back(tuple_primes_->get(t));
  for (std::uint64_t d : docs) doc_reps.push_back(doc_primes_->get(d));

  Stopwatch sw;
  e.doc_bloom = CountingBloom::from_set(config_.bloom, docs);
  CompressedBloom compressed = compress_bloom(e.doc_bloom);
  t.bloom_seconds = sw.seconds();

  TermStatement stmt;
  stmt.term = term;
  stmt.tuple_acc = owner_ctx.accumulate(tuple_reps);
  stmt.doc_acc = owner_ctx.accumulate(doc_reps);
  stmt.tuple_root = e.tuple_intervals.root();
  stmt.doc_root = e.doc_intervals.root();
  stmt.posting_count = postings.size();
  stmt.postings_digest = postings_digest(postings);
  stmt.epoch = epoch_;

  sw.reset();
  e.attestation = TermAttestation{stmt, owner_key.sign(stmt.encode())};
  BloomStatement bstmt{term, std::move(compressed), epoch_};
  e.bloom_attestation = BloomAttestation{bstmt, owner_key.sign(bstmt.encode())};
  t.sign_seconds = sw.seconds();
  return e;
}

void IndexBuilder::begin_mutation() {
  ++epoch_;
  cached_snapshot_.reset();
}

SnapshotPtr IndexBuilder::snapshot() const {
  if (!cached_snapshot_) {
    cached_snapshot_ = std::make_shared<IndexSnapshot>(
        config_, epoch_, entries_, dict_, dict_attestation_, tuple_primes_, doc_primes_);
  }
  return cached_snapshot_;
}

IndexBuilder IndexBuilder::build(InvertedIndex index, const AccumulatorContext& owner_ctx,
                                 const SigningKey& owner_key, VerifiableIndexConfig config,
                                 ThreadPool& pool, BalanceStrategy strategy,
                                 BuildStats* stats) {
  IndexBuilder vidx(config);
  vidx.index_ = std::move(index);
  vidx.epoch_ = 1;  // the initial build commits epoch 1

  // Phase 1 (offline, §III-D3): pre-compute all prime representatives.
  // Work is partitioned across the pool by the chosen strategy.
  Stopwatch sw;
  std::vector<const PostingList*> lists;
  std::vector<const std::string*> term_names;
  std::vector<std::size_t> record_counts;
  for (const auto& [term, list] : vidx.index_.terms()) {
    term_names.push_back(&term);
    lists.push_back(&list);
    record_counts.push_back(list.size());
  }
  auto groups = partition_terms(record_counts, std::max<std::size_t>(1, pool.worker_count()),
                                strategy);
  pool.parallel_for(0, groups.size(), [&](std::size_t gi) {
    for (std::size_t t : groups[gi]) {
      for (const Posting& p : *lists[t]) {
        (void)vidx.tuple_primes_->get(InvertedIndex::encode_tuple(p));
        (void)vidx.doc_primes_->get(InvertedIndex::encode_doc(p.doc_id));
      }
    }
  });
  double prime_seconds = sw.seconds();

  // Phase 2: per-term accumulators, interval trees, Blooms, signatures.
  // The context carries the pool so per-interval accumulation and the
  // batched middle-layer witnesses inside each entry also fan out; the
  // cooperative parallel_for makes the nesting deadlock-free.
  AccumulatorContext pooled_ctx = owner_ctx;
  pooled_ctx.set_pool(&pool);
  sw.reset();
  std::vector<IndexEntry> built(lists.size());
  std::vector<UpdateTimings> parts(lists.size());
  pool.parallel_for(0, groups.size(), [&](std::size_t gi) {
    for (std::size_t t : groups[gi]) {
      built[t] = vidx.build_entry(*term_names[t], *lists[t], pooled_ctx, owner_key, parts[t]);
    }
  });
  double bloom_seconds = 0, sign_seconds = 0;
  for (std::size_t t = 0; t < built.size(); ++t) {
    vidx.entries_.emplace(*term_names[t],
                          std::make_shared<const IndexEntry>(std::move(built[t])));
    bloom_seconds += parts[t].bloom_seconds;
    sign_seconds += parts[t].sign_seconds;
  }
  double accumulate_seconds = sw.seconds();

  // Phase 3: dictionary gap intervals (unknown keywords, §III-D4).
  double dict_seconds = vidx.rebuild_dictionary(pooled_ctx, owner_key);

  if (stats != nullptr) {
    stats->prime_precompute_seconds = prime_seconds;
    stats->accumulate_seconds = accumulate_seconds;
    stats->bloom_seconds = bloom_seconds;
    stats->sign_seconds = sign_seconds;
    stats->dictionary_seconds = dict_seconds;
    stats->records = vidx.index_.record_count();
    stats->terms = vidx.entries_.size();
  }
  return vidx;
}

const IndexEntry* IndexBuilder::find(std::string_view term) const {
  auto it = entries_.find(term);
  return it == entries_.end() ? nullptr : it->second.get();
}

double IndexBuilder::rebuild_dictionary(const AccumulatorContext& owner_ctx,
                                        const SigningKey& owner_key) {
  Stopwatch sw;
  cached_snapshot_.reset();
  dict_dirty_ = true;
  auto dict = std::make_shared<DictionaryIntervals>(DictionaryIntervals::build(
      owner_ctx, index_.dictionary(), config_.dict_prime_config()));
  DictStatement stmt{dict->root(), dict->word_count(), index_.doc_count(), epoch_};
  dict_attestation_ = std::make_shared<DictAttestation>(
      DictAttestation{stmt, owner_key.sign(stmt.encode())});
  dict_ = std::move(dict);
  return sw.seconds();
}

void IndexBuilder::note_full_publish() {
  last_published_epoch_ = epoch_;
  published_doc_watermark_ = index_.doc_count();
  dirty_terms_.clear();
  removed_terms_.clear();
  dict_dirty_ = false;
}

std::optional<IndexDelta> IndexBuilder::publish_delta() {
  // A delta needs a published predecessor to chain to, and at least one
  // committed mutation since it.
  if (last_published_epoch_ == 0 || epoch_ == last_published_epoch_) return std::nullopt;
  if (dirty_terms_.empty() && removed_terms_.empty() && !dict_dirty_) return std::nullopt;

  IndexDelta d;
  d.epoch = epoch_;
  d.base_epoch = last_published_epoch_;
  d.config = config_;
  for (const std::string& term : dirty_terms_) {
    auto it = entries_.find(term);
    if (it == entries_.end()) throw Error("dirty term vanished from the index: " + term);
    d.touched.emplace(term, it->second);
  }
  d.removed.assign(removed_terms_.begin(), removed_terms_.end());
  d.dict_changed = dict_dirty_;
  if (dict_dirty_) {
    d.dict = dict_;
    d.dict_attestation = dict_attestation_;
  }
  for (const auto& [term, e] : entries_) {
    d.max_posting_count = std::max(d.max_posting_count, e->postings.size());
  }

  // Representatives only for postings new since the last publish.  Older
  // postings already had their primes referenced by the base epoch (docIDs
  // are append-only, so the watermark is exact), and the overlay reader
  // chains the base's prime backings — shipping them again would make the
  // delta O(postings of touched terms) instead of O(added postings), which
  // under a Zipf workload is the difference between flat and O(corpus)
  // publish latency.
  std::vector<std::uint64_t> tuple_keys, doc_keys;
  for (const auto& [term, e] : d.touched) {
    for (const Posting& p : e->postings) {
      if (p.doc_id < published_doc_watermark_) continue;
      tuple_keys.push_back(InvertedIndex::encode_tuple(p));
      doc_keys.push_back(InvertedIndex::encode_doc(p.doc_id));
    }
  }
  auto dedupe = [](std::vector<std::uint64_t>& keys) {
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  };
  dedupe(tuple_keys);
  dedupe(doc_keys);
  d.tuple_primes.reserve(tuple_keys.size());
  for (std::uint64_t k : tuple_keys) d.tuple_primes.emplace_back(k, tuple_primes_->get(k));
  d.doc_primes.reserve(doc_keys.size());
  for (std::uint64_t k : doc_keys) d.doc_primes.emplace_back(k, doc_primes_->get(k));

  last_published_epoch_ = epoch_;
  published_doc_watermark_ = index_.doc_count();
  dirty_terms_.clear();
  removed_terms_.clear();
  dict_dirty_ = false;
  return d;
}

void IndexBuilder::save(const std::string& path, bool include_prime_caches) const {
  ByteWriter w;
  w.str("vc.verifiable-index.v2");
  config_.write(w);
  w.u64(epoch_);
  index_.write(w);
  w.varint(entries_.size());
  for (const auto& [term, e] : entries_) {
    w.str(term);
    e->tuple_intervals.write(w);
    e->doc_intervals.write(w);
    e->doc_bloom.write(w);
    e->attestation.write(w);
    e->bloom_attestation.write(w);
  }
  dict_->write(w);
  dict_attestation_->write(w);
  w.u8(include_prime_caches ? 1 : 0);
  if (include_prime_caches) {
    tuple_primes_->write(w);
    doc_primes_->write(w);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw UsageError("cannot open for write: " + path);
  out.write(reinterpret_cast<const char*>(w.data().data()),
            static_cast<std::streamsize>(w.size()));
}

IndexBuilder IndexBuilder::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw UsageError("cannot open for read: " + path);
  Bytes data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ByteReader r(data);
  if (r.str() != "vc.verifiable-index.v2") throw ParseError("bad verifiable-index tag");
  IndexBuilder vidx(VerifiableIndexConfig::read(r));
  vidx.epoch_ = r.u64();
  vidx.index_ = InvertedIndex::read(r);
  std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string term = r.str();
    IndexEntry e;
    e.tuple_intervals = IntervalIndex::read(r);
    e.doc_intervals = IntervalIndex::read(r);
    e.doc_bloom = CountingBloom::read(r);
    e.attestation = TermAttestation::read(r);
    e.bloom_attestation = BloomAttestation::read(r);
    const PostingList* postings = vidx.index_.find(term);
    if (postings == nullptr) throw ParseError("entry for unknown term: " + term);
    e.postings = *postings;
    vidx.entries_.emplace(std::move(term), std::make_shared<const IndexEntry>(std::move(e)));
  }
  vidx.dict_ = std::make_shared<DictionaryIntervals>(DictionaryIntervals::read(r));
  vidx.dict_attestation_ = std::make_shared<DictAttestation>(DictAttestation::read(r));
  if (r.u8() != 0) {
    vidx.tuple_primes_->read_into(r);
    vidx.doc_primes_->read_into(r);
  }
  r.expect_done();
  return vidx;
}

void IndexBuilder::validate(const VerifyKey& owner_key) const {
  auto require = [](bool ok, const std::string& what) {
    if (!ok) throw VerifyError(what);
  };
  require(entries_.size() == index_.term_count(),
          "entry count does not match the inverted index");
  for (const auto& [term, ep] : entries_) {
    const IndexEntry& e = *ep;
    require(index_.find(term) != nullptr, "entry term missing from index: " + term);
    require(e.attestation.verify(owner_key), "term attestation invalid: " + term);
    require(e.bloom_attestation.verify(owner_key), "bloom attestation invalid: " + term);
    require(e.attestation.stmt.term == term, "attestation names wrong term: " + term);
    require(e.bloom_attestation.stmt.term == term, "bloom names wrong term: " + term);
    require(e.attestation.stmt.posting_count == e.postings.size(),
            "posting count mismatch: " + term);
    require(e.attestation.stmt.postings_digest == postings_digest(e.postings),
            "postings digest mismatch: " + term);
    require(e.attestation.stmt.tuple_root == e.tuple_intervals.root(),
            "tuple interval root mismatch: " + term);
    require(e.attestation.stmt.doc_root == e.doc_intervals.root(),
            "doc interval root mismatch: " + term);
    require(e.doc_bloom == decompress_bloom(e.bloom_attestation.stmt.doc_bloom),
            "bloom filter mismatch: " + term);
    require(e.tuple_intervals.element_count() == e.postings.size(),
            "tuple interval cardinality mismatch: " + term);
    require(e.doc_intervals.element_count() == e.postings.size(),
            "doc interval cardinality mismatch: " + term);
    require(e.attestation.stmt.epoch >= 1 && e.attestation.stmt.epoch <= epoch_,
            "attestation epoch out of range: " + term);
    require(e.bloom_attestation.stmt.epoch >= 1 && e.bloom_attestation.stmt.epoch <= epoch_,
            "bloom attestation epoch out of range: " + term);
  }
  require(dict_attestation_->verify(owner_key), "dictionary attestation invalid");
  require(dict_attestation_->stmt.gap_root == dict_->root(), "dictionary root mismatch");
  require(dict_attestation_->stmt.word_count == dict_->word_count(),
          "dictionary word count mismatch");
  require(dict_->word_count() == index_.term_count(),
          "dictionary does not cover the index terms");
  require(dict_attestation_->stmt.epoch <= epoch_, "dictionary epoch out of range");
}

UpdateTimings IndexBuilder::add_documents(const std::vector<Document>& docs,
                                          const AccumulatorContext& owner_ctx,
                                          const SigningKey& owner_key, bool rebuild_dict) {
  if (!owner_ctx.has_trapdoor()) {
    throw UsageError("add_documents requires the owner context");
  }
  begin_mutation();
  UpdateTimings t;

  // Index the new documents, collecting per-term added postings.
  std::map<std::string, PostingList, std::less<>> added;
  for (const Document& doc : docs) {
    for (const std::string& term : index_.add_document(doc.id, doc.text)) {
      const PostingList& list = *index_.find(term);
      added[term].push_back(list.back());
      ++t.added_postings;
    }
  }
  t.touched_terms = added.size();

  refresh_terms(added, /*adding=*/true, owner_ctx, owner_key, t);
  if (rebuild_dict && t.new_terms > 0) {
    t.dictionary_seconds = rebuild_dictionary(owner_ctx, owner_key);
  }
  return t;
}

UpdateTimings IndexBuilder::remove_documents(std::span<const std::uint64_t> doc_ids,
                                             const AccumulatorContext& owner_ctx,
                                             const SigningKey& owner_key,
                                             bool rebuild_dict) {
  if (!owner_ctx.has_trapdoor()) {
    throw UsageError("remove_documents requires the owner context");
  }
  begin_mutation();
  UpdateTimings t;
  U64Set sorted_ids(doc_ids.begin(), doc_ids.end());
  std::sort(sorted_ids.begin(), sorted_ids.end());

  auto removed = index_.remove_documents(sorted_ids);
  t.touched_terms = removed.size();
  bool terms_vanished = false;
  for (auto it = removed.begin(); it != removed.end();) {
    auto entry = entries_.find(it->first);
    if (entry == entries_.end()) {  // defensive; should not happen
      it = removed.erase(it);
      continue;
    }
    t.added_postings += it->second.size();  // postings *changed* by this update
    if (index_.find(it->first) != nullptr) {
      ++it;
      continue;
    }
    // Every posting of this term is gone: drop the whole entry.
    entries_.erase(entry);
    terms_vanished = true;
    removed_terms_.insert(it->first);
    dirty_terms_.erase(it->first);
    it = removed.erase(it);
  }

  refresh_terms(removed, /*adding=*/false, owner_ctx, owner_key, t);
  if (rebuild_dict && terms_vanished) {
    t.dictionary_seconds = rebuild_dictionary(owner_ctx, owner_key);
  }
  return t;
}

void IndexBuilder::refresh_terms(const std::map<std::string, PostingList, std::less<>>& changed,
                                 bool adding, const AccumulatorContext& owner_ctx,
                                 const SigningKey& owner_key, UpdateTimings& t) {
  struct Refresh {
    const std::string* term;
    const PostingList* changed;
    const IndexEntry* old;  // null for a brand-new term
    std::shared_ptr<const IndexEntry> entry;
    UpdateTimings t;
  };
  std::vector<Refresh> work;
  work.reserve(changed.size());
  for (const auto& [term, postings] : changed) {
    auto it = entries_.find(term);
    work.push_back(Refresh{.term = &term,
                           .changed = &postings,
                           .old = it == entries_.end() ? nullptr : it->second.get(),
                           .entry = nullptr,
                           .t = {}});
  }
  // Terms are independent: each refresh writes only its own slot, and the
  // prime caches and the signing key are safe to share.  The cooperative
  // parallel_for lets the per-interval fan-outs inside each refresh nest on
  // the same pool.  The commit below is serial and in term order, so no
  // byte depends on scheduling.
  auto body = [&](std::size_t i) {
    Refresh& r = work[i];
    r.entry = refresh_entry(*r.term, r.old, *r.changed, adding, owner_ctx, owner_key, r.t);
  };
  if (ThreadPool* pool = owner_ctx.pool(); pool != nullptr && work.size() > 1) {
    pool->parallel_for(0, work.size(), body);
  } else {
    for (std::size_t i = 0; i < work.size(); ++i) body(i);
  }
  for (Refresh& r : work) {
    entries_.insert_or_assign(*r.term, std::move(r.entry));
    dirty_terms_.insert(*r.term);
    removed_terms_.erase(*r.term);  // a re-appearing term is an upsert again
    t.flat_accumulator_seconds += r.t.flat_accumulator_seconds;
    t.bloom_seconds += r.t.bloom_seconds;
    t.interval_seconds += r.t.interval_seconds;
    t.sign_seconds += r.t.sign_seconds;
    t.new_term_seconds += r.t.new_term_seconds;
    t.new_terms += r.t.new_terms;
  }
}

std::shared_ptr<const IndexEntry> IndexBuilder::refresh_entry(
    const std::string& term, const IndexEntry* old, const PostingList& changed, bool adding,
    const AccumulatorContext& owner_ctx, const SigningKey& owner_key, UpdateTimings& t) const {
  const PostingList& postings = *index_.find(term);
  if (old == nullptr) {
    // Brand-new term: build its entry from scratch (small list).  Its layer
    // split stays out of the per-layer sums; new_term_seconds has it all.
    Stopwatch sw;
    UpdateTimings parts;
    auto e = std::make_shared<const IndexEntry>(
        build_entry(term, postings, owner_ctx, owner_key, parts));
    t.new_term_seconds = sw.seconds();
    t.new_terms = 1;
    return e;
  }
  // Copy-on-write: clone the touched entry so snapshots from earlier
  // epochs keep serving the pre-update version untouched.
  auto clone = std::make_shared<IndexEntry>(*old);
  IndexEntry& e = *clone;
  e.postings = postings;
  U64Set tuples, docs;
  for (const Posting& p : changed) {
    tuples.push_back(InvertedIndex::encode_tuple(p));
    docs.push_back(InvertedIndex::encode_doc(p.doc_id));
  }
  std::sort(tuples.begin(), tuples.end());
  std::sort(docs.begin(), docs.end());

  // Flat accumulators: Eq 5 on add, Eq 6 (the inverse exponent mod φ(n)) on
  // remove — cost proportional to the changed elements only, independent
  // of the existing set size.
  Stopwatch sw;
  std::vector<Bigint> tuple_reps, doc_reps;
  for (std::uint64_t v : tuples) tuple_reps.push_back(tuple_primes_->get(v));
  for (std::uint64_t v : docs) doc_reps.push_back(doc_primes_->get(v));
  TermStatement stmt = e.attestation.stmt;
  if (adding) {
    stmt.tuple_acc = owner_ctx.add_elements(stmt.tuple_acc, tuple_reps);
    stmt.doc_acc = owner_ctx.add_elements(stmt.doc_acc, doc_reps);
  } else {
    stmt.tuple_acc = owner_ctx.delete_elements(stmt.tuple_acc, tuple_reps);
    stmt.doc_acc = owner_ctx.delete_elements(stmt.doc_acc, doc_reps);
  }
  t.flat_accumulator_seconds = sw.seconds();

  // Bloom: decompress the signed filter, count the changed documents in or
  // out, recompress (§V-D).
  sw.reset();
  CountingBloom stored = decompress_bloom(e.bloom_attestation.stmt.doc_bloom);
  for (std::uint64_t d : docs) {
    if (adding) {
      stored.add(d);
      e.doc_bloom.add(d);
    } else {
      stored.remove(d);
      e.doc_bloom.remove(d);
    }
  }
  CompressedBloom recompressed = compress_bloom(stored);
  t.bloom_seconds = sw.seconds();

  // Interval trees: incremental insert or removal on the clone.
  sw.reset();
  if (adding) {
    e.tuple_intervals.insert(owner_ctx, tuples, *tuple_primes_);
    e.doc_intervals.insert(owner_ctx, docs, *doc_primes_);
  } else {
    e.tuple_intervals.remove(owner_ctx, tuples, *tuple_primes_);
    e.doc_intervals.remove(owner_ctx, docs, *doc_primes_);
  }
  stmt.tuple_root = e.tuple_intervals.root();
  stmt.doc_root = e.doc_intervals.root();
  t.interval_seconds = sw.seconds();

  // Re-sign the updated statements at the new epoch.
  sw.reset();
  stmt.posting_count = e.postings.size();
  stmt.postings_digest = postings_digest(e.postings);
  stmt.epoch = epoch_;
  e.attestation = TermAttestation{stmt, owner_key.sign(stmt.encode())};
  BloomStatement bstmt{term, std::move(recompressed), epoch_};
  e.bloom_attestation = BloomAttestation{bstmt, owner_key.sign(bstmt.encode())};
  t.sign_seconds = sw.seconds();
  return clone;
}

}  // namespace vc
