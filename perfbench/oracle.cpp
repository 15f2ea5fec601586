#include "oracle.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <variant>

#include "text/tokenizer.hpp"

namespace perfbench {
namespace {

using Hits = std::vector<Oracle::Hit>;

// The oracle's own expression tree: TERM leaves hold normalized terms; AND
// and OR chains are flat, NOT binds tighter than AND, AND than OR, and
// adjacent operands are an implicit AND.
struct Node {
  enum class Kind { kTerm, kAnd, kOr, kNot };
  Kind kind = Kind::kTerm;
  std::string term;
  std::vector<Node> kids;
};

class Parser {
 public:
  explicit Parser(std::string_view text) {
    std::string word;
    auto flush = [&] {
      if (!word.empty()) tokens_.push_back(std::move(word));
      word.clear();
    };
    for (char c : text) {
      if (c == '(' || c == ')') {
        flush();
        tokens_.emplace_back(1, c);
      } else if (c == ' ' || c == '\t' || c == '\n') {
        flush();
      } else {
        word.push_back(c);
      }
    }
    flush();
  }

  Node parse() {
    Node n = parse_or();
    if (pos_ != tokens_.size()) throw std::runtime_error("oracle: trailing tokens");
    return n;
  }

 private:
  [[nodiscard]] const std::string* peek() const {
    return pos_ < tokens_.size() ? &tokens_[pos_] : nullptr;
  }

  Node parse_or() {
    Node first = parse_and();
    if (peek() == nullptr || *peek() != "OR") return first;
    Node n{.kind = Node::Kind::kOr, .term = {}, .kids = {std::move(first)}};
    while (peek() != nullptr && *peek() == "OR") {
      ++pos_;
      n.kids.push_back(parse_and());
    }
    return n;
  }

  Node parse_and() {
    Node first = parse_unary();
    Node n{.kind = Node::Kind::kAnd, .term = {}, .kids = {std::move(first)}};
    while (peek() != nullptr && *peek() != ")" && *peek() != "OR") {
      if (*peek() == "AND") ++pos_;
      n.kids.push_back(parse_unary());
    }
    if (n.kids.size() == 1) return std::move(n.kids[0]);
    return n;
  }

  Node parse_unary() {
    const std::string* t = peek();
    if (t == nullptr) throw std::runtime_error("oracle: expression ends early");
    ++pos_;
    if (*t == "NOT") {
      return Node{.kind = Node::Kind::kNot, .term = {}, .kids = {parse_unary()}};
    }
    if (*t == "(") {
      Node inner = parse_or();
      if (peek() == nullptr || *peek() != ")") throw std::runtime_error("oracle: missing )");
      ++pos_;
      return inner;
    }
    return Node{.kind = Node::Kind::kTerm, .term = vc::normalize_term(*t), .kids = {}};
  }

  std::vector<std::string> tokens_;
  std::size_t pos_ = 0;
};

void collect_leaves(const Node& n, std::vector<std::string>& out) {
  if (n.kind == Node::Kind::kTerm) {
    if (std::find(out.begin(), out.end(), n.term) == out.end()) out.push_back(n.term);
    return;
  }
  for (const Node& k : n.kids) collect_leaves(k, out);
}

bool pure_conjunction(const Node& n) {
  if (n.kind == Node::Kind::kTerm) return true;
  if (n.kind != Node::Kind::kAnd) return false;
  return std::all_of(n.kids.begin(), n.kids.end(),
                     [](const Node& k) { return k.kind == Node::Kind::kTerm; });
}

bool has_doc(const Hits* hits, std::uint32_t doc) {
  if (hits == nullptr) return false;
  auto it = std::lower_bound(hits->begin(), hits->end(), doc,
                             [](const Oracle::Hit& h, std::uint32_t d) { return h.doc < d; });
  return it != hits->end() && it->doc == doc;
}

std::uint32_t tf_of(const Hits* hits, std::uint32_t doc) {
  if (hits == nullptr) return 0;
  auto it = std::lower_bound(hits->begin(), hits->end(), doc,
                             [](const Oracle::Hit& h, std::uint32_t d) { return h.doc < d; });
  return it != hits->end() && it->doc == doc ? it->tf : 0;
}

bool eval(const Node& n, const Oracle& o, std::uint32_t doc) {
  switch (n.kind) {
    case Node::Kind::kTerm:
      return has_doc(o.postings(n.term), doc);
    case Node::Kind::kNot:
      return !eval(n.kids[0], o, doc);
    case Node::Kind::kAnd:
      return std::all_of(n.kids.begin(), n.kids.end(),
                         [&](const Node& k) { return eval(k, o, doc); });
    case Node::Kind::kOr:
      return std::any_of(n.kids.begin(), n.kids.end(),
                         [&](const Node& k) { return eval(k, o, doc); });
  }
  return false;
}

// The conjunction a keyword query (or a pure-conjunction expression)
// stands for.
Node conjunction_of(const std::vector<std::string>& terms) {
  Node n{.kind = Node::Kind::kAnd, .term = {}, .kids = {}};
  for (const auto& t : terms) {
    n.kids.push_back(Node{.kind = Node::Kind::kTerm, .term = t, .kids = {}});
  }
  return n;
}

Node tree_of(const BenchQuery& q) {
  if (!q.expr.empty()) return Parser(q.expr).parse();
  std::vector<std::string> terms;
  for (const auto& k : q.keywords) {
    std::string t = vc::normalize_term(k);
    if (!t.empty() && std::find(terms.begin(), terms.end(), t) == terms.end()) {
      terms.push_back(std::move(t));
    }
  }
  return conjunction_of(terms);
}

// Documents satisfying `n`, drawn from the union of its leaves' lists (the
// workloads issue positive-guarded queries only, so no satisfier lies
// outside that union).
std::vector<std::uint32_t> satisfiers(const Node& n, const Oracle& o) {
  std::vector<std::string> leaves;
  collect_leaves(n, leaves);
  std::set<std::uint32_t> candidates;
  for (const auto& t : leaves) {
    if (const Hits* h = o.postings(t)) {
      for (const auto& hit : *h) candidates.insert(hit.doc);
    }
  }
  std::vector<std::uint32_t> out;
  for (std::uint32_t d : candidates) {
    if (eval(n, o, d)) out.push_back(d);
  }
  return out;
}

std::string compare_postings(const vc::PostingList& got, const Hits* all,
                             const std::vector<std::uint32_t>& docs, const std::string& term) {
  vc::PostingList want;
  for (std::uint32_t d : docs) {
    if (std::uint32_t tf = tf_of(all, d); tf != 0) want.push_back(vc::Posting{d, tf});
  }
  if (got != want) return "postings of '" + term + "' differ from the oracle";
  return {};
}

bool same_docs(const vc::U64Set& got, const std::vector<std::uint32_t>& want) {
  return std::equal(got.begin(), got.end(), want.begin(), want.end(),
                    [](std::uint64_t a, std::uint32_t b) { return a == b; });
}

}  // namespace

void Oracle::add_document(std::uint32_t id, std::string_view text) {
  std::size_t i = 0;
  std::map<std::string, std::uint32_t> counts;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\n' || text[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < text.size() && text[j] != ' ' && text[j] != '\n' && text[j] != '\t') ++j;
    if (j > i) {
      std::string t = vc::normalize_term(text.substr(i, j - i));
      if (!t.empty()) ++counts[t];
    }
    i = j;
  }
  for (auto& [term, tf] : counts) {
    Hits& hits = index_[term];
    if (!hits.empty() && hits.back().doc >= id) {
      throw std::runtime_error("oracle: documents must arrive in ascending id order");
    }
    hits.push_back(Hit{id, tf});
  }
}

const Hits* Oracle::postings(const std::string& term) const {
  auto it = index_.find(term);
  return it == index_.end() ? nullptr : &it->second;
}

std::size_t Oracle::document_frequency(const std::string& term) const {
  const Hits* h = postings(term);
  return h == nullptr ? 0 : h->size();
}

std::vector<Oracle::Word> Oracle::words_of(std::string_view text) {
  std::vector<Word> out;
  std::set<std::string> seen;
  std::size_t i = 0;
  while (i < text.size()) {
    std::size_t j = text.find_first_of(" \n\t", i);
    if (j == std::string_view::npos) j = text.size();
    if (j > i) {
      std::string surface(text.substr(i, j - i));
      std::string t = vc::normalize_term(surface);
      if (!t.empty() && seen.insert(t).second) out.push_back(Word{std::move(surface), t});
    }
    i = j + 1;
  }
  return out;
}

std::vector<std::string> Oracle::query_terms(const BenchQuery& q) {
  std::vector<std::string> out;
  collect_leaves(tree_of(q), out);
  return out;
}

std::vector<std::uint32_t> Oracle::expected_docs(const BenchQuery& q) const {
  return satisfiers(tree_of(q), *this);
}

std::string Oracle::check(const BenchQuery& q, const vc::SearchResponse& resp) const {
  const Node tree = tree_of(q);
  std::vector<std::string> leaves;
  collect_leaves(tree, leaves);

  const bool boolean = q.top_k != 0 || !pure_conjunction(tree);
  if (boolean) {
    const auto* body = std::get_if<vc::BooleanQueryResponse>(&resp.body);
    if (body == nullptr) return "expected a boolean response body";
    std::vector<std::string> known;
    for (const auto& t : leaves) {
      if (postings(t) != nullptr) known.push_back(t);
    }
    std::sort(known.begin(), known.end());
    if (body->terms != known) return "boolean response names other known terms";
    const std::vector<std::uint32_t> docs = satisfiers(tree, *this);
    if (!same_docs(body->docs, docs)) return "boolean result set differs from the oracle";
    if (body->postings.size() != known.size()) return "boolean response posting count";
    for (std::size_t i = 0; i < known.size(); ++i) {
      if (auto e = compare_postings(body->postings[i], postings(known[i]), docs, known[i]);
          !e.empty()) {
        return e;
      }
    }
    if (q.top_k != 0) {
      // Summed-tf ranking: score desc, doc id asc, first min(k, |S|).
      std::vector<vc::TopKEntry> want;
      for (std::uint32_t d : docs) {
        std::uint64_t score = 0;
        for (const auto& t : known) score += tf_of(postings(t), d);
        want.push_back(vc::TopKEntry{d, score});
      }
      std::sort(want.begin(), want.end(), [](const vc::TopKEntry& a, const vc::TopKEntry& b) {
        return a.score != b.score ? a.score > b.score : a.doc_id < b.doc_id;
      });
      if (want.size() > q.top_k) want.resize(q.top_k);
      if (body->ranked != want) return "top-k ranking differs from the oracle";
    }
    return {};
  }

  std::vector<std::string> known;
  std::optional<std::string> first_unknown;
  for (const auto& t : leaves) {
    if (postings(t) != nullptr) {
      known.push_back(t);
    } else if (!first_unknown) {
      first_unknown = t;
    }
  }
  if (first_unknown) {
    const auto* body = std::get_if<vc::UnknownKeywordResponse>(&resp.body);
    if (body == nullptr) return "expected an unknown-keyword response";
    if (body->keyword != *first_unknown) return "gap proof names another keyword";
    return {};
  }
  if (known.size() == 1) {
    const auto* body = std::get_if<vc::SingleKeywordResponse>(&resp.body);
    if (body == nullptr) return "expected a single-keyword response";
    if (body->keyword != known[0]) return "single-keyword response names another term";
    const Hits* all = postings(known[0]);
    std::vector<std::uint32_t> docs;
    for (const auto& h : *all) docs.push_back(h.doc);
    return compare_postings(body->postings, all, docs, known[0]);
  }
  const auto* body = std::get_if<vc::MultiKeywordResponse>(&resp.body);
  if (body == nullptr) return "expected a multi-keyword response";
  if (body->result.keywords != known) return "multi-keyword response names other terms";
  const std::vector<std::uint32_t> docs = satisfiers(tree, *this);
  if (!same_docs(body->result.docs, docs)) return "result set differs from the oracle";
  if (body->result.postings.size() != known.size()) return "multi-keyword posting count";
  for (std::size_t i = 0; i < known.size(); ++i) {
    if (auto e = compare_postings(body->result.postings[i], postings(known[i]), docs, known[i]);
        !e.empty()) {
      return e;
    }
  }
  return {};
}

}  // namespace perfbench
