// The cloud-side verifiable search service (§III-C, Fig 4).
//
// A query flows through the same pipeline as the paper's prototype: the
// index manager looks up posting lists and intersects them, the prime
// manager serves pre-computed representatives, and the proof manager builds
// correctness + integrity proofs (in parallel when a pool is given).  The
// response is signed with the cloud's key so the owner can hold the cloud
// to it before a third party.
#pragma once

#include "proof/prover.hpp"
#include "proof/verifier.hpp"

namespace vc {

struct Query {
  std::uint64_t id = 0;
  std::vector<std::string> keywords;  // raw user keywords (un-normalized)
  // Client-minted distributed-tracing ID (0 = untraced).  Declared after
  // `keywords` so existing {.id, .keywords} designated initializers keep
  // compiling; covered by the signature like every other field.
  std::uint64_t trace_id = 0;
  // Boolean-language extension (wire v3).  `expr` carries the raw
  // (un-normalized) expression; `keywords` then echoes its leaf terms in
  // first-appearance order.  `top_k` > 0 requests a verifiable tf ranking.
  // Both default-absent, in which case the query encodes byte-identically
  // to wire v2 and legacy peers interoperate unchanged.
  std::uint32_t top_k = 0;
  std::optional<BoolNode> expr;

  [[nodiscard]] Bytes encode() const;
  void write(ByteWriter& w) const;
  static Query read(ByteReader& r);
  friend bool operator==(const Query&, const Query&) = default;
};

class SearchEngine {
 public:
  // The engine serves exactly one immutable snapshot; every response is
  // stamped with the snapshot's epoch.  `shards` is forwarded to the prover
  // for per-shard proof generation.
  SearchEngine(SnapshotPtr snapshot, AccumulatorContext cloud_ctx,
               SigningKey cloud_key, ThreadPool* pool = nullptr,
               std::size_t shards = 1);

  // Executes the query and returns the signed response with proofs.
  // The response records search vs proof-generation wall time separately
  // (Fig 5 plots both).
  [[nodiscard]] SearchResponse search(const Query& query, SchemeKind scheme) const;

  // Search without proof generation; used to measure the paper's "Search"
  // series in Fig 5.
  [[nodiscard]] SearchResult execute_only(const Query& query) const;

  [[nodiscard]] const VerifyKey& verify_key() const { return cloud_key_.verify_key(); }
  [[nodiscard]] const Prover& prover() const { return prover_; }
  [[nodiscard]] const SnapshotPtr& snapshot() const { return snap_; }
  [[nodiscard]] std::uint64_t epoch() const { return snap_->epoch(); }

 private:
  struct Classified {
    std::vector<std::string> known;    // normalized keywords present in the index
    std::vector<std::string> unknown;  // normalized keywords absent from it
  };
  // Splits already-normalized terms into known and unknown, dropping
  // repeats; throws UsageError when no term is left.
  [[nodiscard]] Classified classify(const std::vector<std::string>& terms) const;
  [[nodiscard]] SearchResult intersect(const std::vector<std::string>& keywords) const;
  // Evaluates a boolean / top-k query into a response body (everything but
  // the proof): normalized expr, sorted known terms, S, C, postings, top-k
  // claim.  Returns the sorted unknown leaf terms through `unknowns`.
  [[nodiscard]] BooleanQueryResponse evaluate_boolean(
      const Query& query, std::vector<std::string>& unknowns) const;

  SnapshotPtr snap_;
  AccumulatorContext ctx_;
  SigningKey cloud_key_;
  Prover prover_;
};

}  // namespace vc
