// The benchmark's correctness oracle, kept apart from the program under
// test: it scans document text itself (whitespace split + the text
// module's normalize_term, nothing else) and evaluates conjunctive,
// boolean and top-k queries with its own small evaluator.  None of
// InvertedIndex, setops, SearchEngine or proof is used here, so a response
// that matches the oracle was not checked against itself.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "proof/proof_types.hpp"

namespace perfbench {

// One query as the client issues it: either a conjunction of raw keywords
// (DataOwner::issue_query) or an expression in the query language with an
// optional top-k cutoff (DataOwner::issue_expression_query).
struct BenchQuery {
  std::vector<std::string> keywords;
  std::string expr;
  std::uint32_t top_k = 0;
};

class Oracle {
 public:
  struct Hit {
    std::uint32_t doc = 0;
    std::uint32_t tf = 0;
  };

  void add_document(std::uint32_t id, std::string_view text);

  // Posting list of a normalized term, ascending by doc; null when absent.
  [[nodiscard]] const std::vector<Hit>* postings(const std::string& term) const;
  [[nodiscard]] std::size_t document_frequency(const std::string& term) const;

  // One surface word of a document and the index term it normalizes to.
  struct Word {
    std::string surface;
    std::string term;
  };
  // A document's words with distinct terms, in first-appearance order (the
  // update workload draws its reads from these; queries carry the surface
  // word, as a user would type it).
  [[nodiscard]] static std::vector<Word> words_of(std::string_view text);

  // Normalized, distinct terms the query names (its leaves for an
  // expression), in first-appearance order.
  [[nodiscard]] static std::vector<std::string> query_terms(const BenchQuery& q);

  // Result documents the query must return.
  [[nodiscard]] std::vector<std::uint32_t> expected_docs(const BenchQuery& q) const;

  // Empty when `resp` carries exactly the oracle's answer to `q` (body
  // kind, document set, per-term postings with tf, top-k ranking);
  // otherwise a one-line description of the first difference.
  [[nodiscard]] std::string check(const BenchQuery& q, const vc::SearchResponse& resp) const;

 private:
  std::map<std::string, std::vector<Hit>, std::less<>> index_;
};

}  // namespace perfbench
