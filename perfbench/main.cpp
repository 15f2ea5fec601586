// vcbench — the repository's end-to-end and per-layer benchmark program.
//
//   vcbench --workload serve_hot|serve_wide|update_stream --seed N
//           --seconds S --trace 0|1 --workdir DIR
//
// One process, one closed-loop client, at most four threads (main client,
// the HTTP acceptor that serves inline, two pool workers; the set-up's
// build pool has three workers and is gone before serving starts).  Every
// layer is timed from outside, around calls into its public entry points;
// count-based layer numbers are deltas of obs::MetricsRegistry counters
// taken around each request, so set-up work never lands in them.  The last
// stdout line is the JSON result; README.md documents the workloads and
// every metric.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/standard_params.hpp"
#include "data/workload.hpp"
#include "obs/metrics.hpp"
#include "oracle.hpp"
#include "protocol/cloud.hpp"
#include "protocol/http.hpp"
#include "protocol/owner.hpp"
#include "store/epoch_store.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"
#include "support/threadpool.hpp"
#include "text/synth.hpp"
#include "vindex/index_builder.hpp"
#include "vindex/witness_tier.hpp"

namespace fs = std::filesystem;
using namespace vc;
using perfbench::BenchQuery;
using perfbench::Oracle;

namespace {

// ---- fixed workload make-up (README.md, "Workloads") ----------------------
constexpr std::uint32_t kDocs = 1000;           // Enron-profile documents
constexpr std::uint64_t kCorpusSeed = 20150525;  // corpus + paper queries; not --seed
constexpr std::size_t kBuildWorkers = 3;         // set-up pool (+ main = 4 threads)
constexpr std::size_t kServeWorkers = 2;         // + main + HTTP acceptor = 4 threads
constexpr std::uint32_t kBatchDocs = 2;          // documents per update batch
constexpr std::uint32_t kBatchDocWords = 240;    // words per added document
constexpr std::size_t kCompactEvery = 4;         // batches per synchronous compaction
constexpr std::size_t kQueriesPerBatch = 3;      // verified reads between batches
constexpr std::size_t kSizeBatches = 8;          // batches that set response_kb and counts
constexpr std::size_t kTailBatches = 5;          // update batches after a serve window
constexpr std::size_t kWideRound = 8;            // serve_wide queries per round
constexpr std::size_t kWideSizeRounds = 40;      // rounds that set response_kb and counts
constexpr std::size_t kHotCountRounds = 4;       // serve_hot rounds that set the counts
constexpr std::size_t kForgedPerBehavior = 3;    // negative controls per cloud behaviour
constexpr std::size_t kPowmBatch = 200;          // host reference modexps per check

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(pos));
  auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::uint64_t dir_bytes(const fs::path& root) {
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(root)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

// ---- the benchmark's own spans (README.md, "Tracing") ---------------------
class Tracer {
 public:
  struct Record {
    const char* name;
    double start;
    double end;
    int parent;
    std::uint64_t query;
  };

  explicit Tracer(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }

  // RAII span; a no-op when tracing is off.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t query) : t_(t) {
      if (!t_.on_) return;
      idx_ = static_cast<int>(t_.spans_.size());
      int parent = t_.stack_.empty() ? -1 : t_.stack_.back();
      t_.spans_.push_back(Record{name, now_s(), 0, parent, query});
      t_.stack_.push_back(idx_);
    }
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    // Closes early; returns the span's duration in seconds.
    double close() {
      if (idx_ < 0) return 0;
      Record& r = t_.spans_[static_cast<std::size_t>(idx_)];
      r.end = now_s();
      t_.stack_.pop_back();
      idx_ = -1;
      return r.end - r.start;
    }

   private:
    Tracer& t_;
    int idx_ = -1;
  };

  // Durations (ms) of every span named `name`.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const {
    std::vector<double> out;
    for (const auto& r : spans_) {
      if (name == r.name) out.push_back((r.end - r.start) * 1e3);
    }
    return out;
  }

  void write_json(const fs::path& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"parent\":%d,"
                    "\"query\":%llu}%s\n",
                    i, r.name, r.start, r.end, r.parent,
                    static_cast<unsigned long long>(r.query), i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]\n";
  }

  // Per span name: count, median duration and median self time (duration
  // minus the part of it covered by child spans).
  void print_self_times() const {
    std::vector<double> child(spans_.size(), 0);
    for (const auto& r : spans_) {
      if (r.parent >= 0) child[static_cast<std::size_t>(r.parent)] += r.end - r.start;
    }
    std::map<std::string, std::pair<std::vector<double>, std::vector<double>>> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& [dur, self] = by_name[spans_[i].name];
      double d = spans_[i].end - spans_[i].start;
      dur.push_back(d * 1e3);
      self.push_back((d - child[i]) * 1e3);
    }
    std::printf("%-28s %8s %12s %12s\n", "span", "count", "p50_ms", "self_p50_ms");
    for (const auto& [name, v] : by_name) {
      std::printf("%-28s %8zu %12.3f %12.3f\n", name.c_str(), v.first.size(), median(v.first),
                  median(v.second));
    }
  }

 private:
  bool on_;
  std::vector<Record> spans_;
  std::vector<int> stack_;
};

// ---- windowed registry counters --------------------------------------------
struct Counters {
  std::uint64_t pow = 0, fb_hit = 0, fb_miss = 0, prime_miss = 0, tier_hit = 0,
                tier_miss = 0, materialized = 0, choice_bloom = 0, choice_acc = 0;
  double est_s = 0, act_s = 0;

  // The registry hands out stable references; look them up once so a
  // read is a handful of relaxed loads.
  static Counters read() {
    struct Refs {
      obs::Counter *pow, *fb_hit, *fb_miss, *prime_miss, *tier_hit, *tier_miss, *materialized,
          *bloom, *acc;
      obs::TimeCounter *est_bloom, *est_acc, *act_bloom, *act_acc;
    };
    static const Refs r = [] {
      auto& reg = obs::MetricsRegistry::global();
      const std::string acc = "choice=\"accumulator\"";
      const std::string bloom = "choice=\"bloom\"";
      return Refs{&reg.counter("vc_pow_total"),
                  &reg.counter("vc_fixedbase_total", "result=\"hit\""),
                  &reg.counter("vc_fixedbase_total", "result=\"miss\""),
                  &reg.counter("vc_prime_lookup_total", "result=\"miss\""),
                  &reg.counter("vc_witness_tier_hits"),
                  &reg.counter("vc_witness_tier_misses"),
                  &reg.counter("vc_store_entries_materialized_total"),
                  &reg.counter("vc_hybrid_choice_total", bloom),
                  &reg.counter("vc_hybrid_choice_total", acc),
                  &reg.time_counter("vc_hybrid_estimated_seconds_total", bloom),
                  &reg.time_counter("vc_hybrid_estimated_seconds_total", acc),
                  &reg.time_counter("vc_hybrid_actual_seconds_total", bloom),
                  &reg.time_counter("vc_hybrid_actual_seconds_total", acc)};
    }();
    Counters c;
    c.pow = r.pow->value();
    c.fb_hit = r.fb_hit->value();
    c.fb_miss = r.fb_miss->value();
    c.prime_miss = r.prime_miss->value();
    c.tier_hit = r.tier_hit->value();
    c.tier_miss = r.tier_miss->value();
    c.materialized = r.materialized->value();
    c.choice_bloom = r.bloom->value();
    c.choice_acc = r.acc->value();
    c.est_s = r.est_bloom->seconds() + r.est_acc->seconds();
    c.act_s = r.act_bloom->seconds() + r.act_acc->seconds();
    return c;
  }

  Counters operator-(const Counters& o) const {
    Counters d;
    d.pow = pow - o.pow;
    d.fb_hit = fb_hit - o.fb_hit;
    d.fb_miss = fb_miss - o.fb_miss;
    d.prime_miss = prime_miss - o.prime_miss;
    d.tier_hit = tier_hit - o.tier_hit;
    d.tier_miss = tier_miss - o.tier_miss;
    d.materialized = materialized - o.materialized;
    d.choice_bloom = choice_bloom - o.choice_bloom;
    d.choice_acc = choice_acc - o.choice_acc;
    d.est_s = est_s - o.est_s;
    d.act_s = act_s - o.act_s;
    return d;
  }
  Counters& operator+=(const Counters& o) {
    pow += o.pow;
    fb_hit += o.fb_hit;
    fb_miss += o.fb_miss;
    prime_miss += o.prime_miss;
    tier_hit += o.tier_hit;
    tier_miss += o.tier_miss;
    materialized += o.materialized;
    choice_bloom += o.choice_bloom;
    choice_acc += o.choice_acc;
    est_s += o.est_s;
    act_s += o.act_s;
    return *this;
  }
};

std::string describe(const BenchQuery& q) {
  if (!q.expr.empty()) return q.expr + (q.top_k != 0 ? " top-" + std::to_string(q.top_k) : "");
  std::string out;
  for (const auto& k : q.keywords) out += (out.empty() ? "" : " ") + k;
  return out;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Host-speed reference: a fixed batch of 1024-bit modexps through the
// public Bigint API, in microseconds per modexp.
double powm_us() {
  const Bigint& n = standard_accumulator_modulus(1024).n;
  DeterministicRng rng(1, "perfbench.powm");
  Bigint base = Bigint::random_below(rng, n);
  Bigint exp = Bigint::random_bits(rng, 1024);
  double t0 = now_s();
  for (std::size_t i = 0; i < kPowmBatch; ++i) base = Bigint::pow_mod(base, exp, n);
  return (now_s() - t0) * 1e6 / static_cast<double>(kPowmBatch);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  fs::path workdir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
      have_seconds = true;
    } else if (k == "--trace") {
      a.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (k == "--workdir") {
      a.workdir = v;
    } else {
      throw UsageError("unknown argument " + k);
    }
  }
  if (a.workload != "serve_hot" && a.workload != "serve_wide" &&
      a.workload != "update_stream") {
    throw UsageError("--workload must be serve_hot, serve_wide or update_stream");
  }
  if (!have_seed || !have_seconds || !have_trace || a.seconds <= 0 || a.workdir.empty()) {
    throw UsageError("need --seed, --seconds > 0, --trace 0|1 and --workdir");
  }
  return a;
}

// ---- the benchmark -----------------------------------------------------------
class Bench {
 public:
  explicit Bench(Args args)
      : args_(std::move(args)),
        spec_(enron_profile(kDocs, kCorpusSeed)),
        owner_ctx_(AccumulatorContext::owner(standard_accumulator_modulus(1024),
                                             standard_qr_generator(1024))),
        tracer_(args_.trace) {}

  int run() {
    host_.push_back(powm_us());
    fs::remove_all(store_root());
    setup_s_ = setup();
    if (args_.workload == "update_stream") {
      update_window();
    } else {
      serve_window();
    }
    host_.push_back(powm_us());
    if (args_.workload != "update_stream") {
      for (std::size_t i = 0; i < kTailBatches; ++i) update_batch(false);
    }
    store_mb_ = static_cast<double>(dir_bytes(store_root())) / (1024.0 * 1024.0);
    negative_controls();
    host_.push_back(powm_us());
    http_->stop();
    return report();
  }

 private:
  fs::path store_root() const { return args_.workdir / "store"; }

  // ---- set-up ----------------------------------------------------------------
  // Builds everything once and returns setup_s.  One set-up per run: at
  // about 9 s, a second would push a full 70-run campaign past an hour.
  double setup() {
    const double t0 = now_s();
    DeterministicRng key_rng(kCorpusSeed, "perfbench.keys");
    owner_key_ = generate_signing_key(key_rng, 1024);
    cloud_key_ = generate_signing_key(key_rng, 1024);

    double t = now_s();
    corpus_ = generate_corpus(spec_);
    layer("text.corpus_s", now_s() - t);

    // The oracle scan is the benchmark's own work: kept out of setup_s.
    double oracle_s = now_s();
    oracle_ = Oracle();
    for (const Document& d : corpus_) oracle_.add_document(d.id, d.text);
    next_doc_id_ = static_cast<std::uint32_t>(corpus_.size());
    oracle_s = now_s() - oracle_s;

    SnapshotPtr snap;
    TierBuildResult tier;
    {
      ThreadPool build_pool(kBuildWorkers);
      t = now_s();
      InvertedIndex inverted = InvertedIndex::build(corpus_);
      layer("index.invert_s", now_s() - t);
      BuildStats stats;
      builder_.emplace(IndexBuilder::build(std::move(inverted), owner_ctx_, owner_key_,
                                           VerifiableIndexConfig{}, build_pool,
                                           BalanceStrategy::kRecordBased, &stats));
      layer("primes.precompute_s", stats.prime_precompute_seconds);
      layer("accumulator.build_s", stats.accumulate_seconds);
      layer("bloom.build_s", stats.bloom_seconds);
      layer("crypto.build_sign_s", stats.sign_seconds);
      layer("interval.dictionary_build_s", stats.dictionary_seconds);

      snap = builder_->snapshot();
      TierPolicy policy;
      policy.hot_terms = hot_terms();
      owner_ctx_.set_pool(&build_pool);
      t = now_s();
      tier = build_witness_tier(*snap, owner_ctx_, policy);
      layer("vindex.tier_build_s", now_s() - t);
      owner_ctx_.set_pool(nullptr);
    }

    store_.emplace(store_root());
    t = now_s();
    store::TierArtifacts artifacts{tier.tier, std::move(tier.fixed_base)};
    if (tier.tier != nullptr) snap->attach_tier(tier.tier);
    store_->publish(*snap, 1, tier.tier != nullptr ? &artifacts : nullptr);
    builder_->note_full_publish();
    layer("store.publish_full_s", now_s() - t);

    // Boot: the cloud restores the published epoch from the store, as
    // vcsearch-serve does on a cold restart.
    t = now_s();
    serve_pool_ = std::make_unique<ThreadPool>(kServeWorkers);
    owner_ctx_.set_pool(serve_pool_.get());
    store::OpenedEpoch opened = store_->open_current();
    pub_ctx_ = AccumulatorContext::public_side(owner_ctx_.params());
    if (opened.fixed_base && opened.fixed_base->base == pub_ctx_->g()) {
      pub_ctx_->adopt_fixed_base(*opened.fixed_base);
    }
    cloud_ = std::make_unique<CloudService>(opened.snapshot, *pub_ctx_, cloud_key_,
                                            owner_key_.verify_key(), serve_pool_.get());
    http_ = std::make_unique<HttpFrontend>(*cloud_, 0, nullptr);
    http_->start();
    layer("protocol.boot_ms", (now_s() - t) * 1e3);

    owner_.emplace(owner_ctx_, owner_key_, cloud_key_.verify_key(), VerifiableIndexConfig{});
    pinned_.emplace(owner_ctx_, owner_key_.verify_key(), cloud_key_.verify_key(),
                    VerifiableIndexConfig{});
    replay_verifier_.emplace(owner_ctx_, owner_key_.verify_key(), cloud_key_.verify_key(),
                             VerifiableIndexConfig{});
    epoch_ = opened.snapshot->epoch();
    if (tracer_.on()) open_replay_engine(std::move(opened));
    return now_s() - t0 - oracle_s;
  }

  // serve_hot's query set: the paper's 24 queries and the 8 boolean/top-k
  // queries over the fixed corpus.
  std::vector<BenchQuery> hot_queries() const {
    std::vector<BenchQuery> out;
    for (const auto& wq : paper_query_workload(spec_)) {
      out.push_back(BenchQuery{.keywords = wq.query.keywords, .expr = {}, .top_k = 0});
    }
    for (const auto& bq : boolean_query_workload(spec_)) {
      out.push_back(BenchQuery{.keywords = {}, .expr = bq.text, .top_k = bq.top_k});
    }
    return out;
  }

  // Every indexed term serve_hot names: the tier covers exactly these.
  std::vector<std::string> hot_terms() const {
    std::vector<std::string> out;
    for (const auto& q : hot_queries()) {
      for (auto& t : Oracle::query_terms(q)) {
        if (oracle_.postings(t) != nullptr && std::find(out.begin(), out.end(), t) == out.end()) {
          out.push_back(std::move(t));
        }
      }
    }
    return out;
  }

  // ---- one verified request ------------------------------------------------
  struct Outcome {
    bool ok = false;
    double latency_s = 0;
    std::size_t response_bytes = 0;
  };

  // `counted` adds the request's counter deltas to the per-query layer
  // counts (only queries of the fixed counted set: warm-up, visibility and
  // late window queries stay out, so the counts repeat for a seed); `pin`
  // also checks the response with a verifier pinned to that epoch.  A
  // response that verifies but differs from the oracle fails the request.
  Outcome query(const BenchQuery& q, bool traced, bool counted,
                std::optional<std::uint64_t> pin = {}) {
    const std::uint64_t qid = ++query_seq_;
    Outcome out;
    const bool spans = traced && tracer_.on();
    Tracer dummy(false);
    Tracer& tr = spans ? tracer_ : dummy;
    SearchResponse resp;
    Counters serve, verify;
    const double t0 = now_s();
    {
      Tracer::Scope root(tr, "query", qid);
      SignedQuery sq = [&] {
        Tracer::Scope s(tr, "protocol.issue_query", qid);
        return q.expr.empty() ? owner_->issue_query(q.keywords)
                              : owner_->issue_expression_query(q.expr, q.top_k);
      }();
      Counters c0 = Counters::read();
      try {
        Tracer::Scope s(tr, "protocol.http_search", qid);
        resp = http_search(http_->port(), sq);
      } catch (const Error& e) {
        std::fprintf(stderr, "query %llu: transport failed: %s\n",
                     static_cast<unsigned long long>(qid), e.what());
        return out;
      }
      Counters c1 = Counters::read();
      try {
        Tracer::Scope s(tr, "protocol.receive_response", qid);
        owner_->receive_response(resp);
        if (pin) {
          pinned_->pin_epoch(*pin);
          pinned_->verify(resp);
        }
      } catch (const VerifyError& e) {
        std::fprintf(stderr, "query %llu (%s): honest response rejected: %s\n",
                     static_cast<unsigned long long>(qid), describe(q).c_str(), e.what());
        return out;
      }
      Counters c2 = Counters::read();
      out.latency_s = now_s() - t0;
      serve = c1 - c0;
      verify = c2 - c1;
    }
    if (std::string diff = oracle_.check(q, resp); !diff.empty()) {
      std::fprintf(stderr, "query %llu (%s): %s\n", static_cast<unsigned long long>(qid),
                   describe(q).c_str(), diff.c_str());
      correct_ = false;
      return out;
    }
    if (counted) {
      serve_counts_ += serve;
      verify_counts_ += verify;
      ++counted_queries_;
    }
    ByteWriter w;
    resp.write(w);
    out.response_bytes = std::move(w).take().size();
    out.ok = true;
    if (spans) replay(q, qid, resp, counted);
    return out;
  }

  // Traced runs replay each traced query through the layer entry points
  // after the end-to-end request: in-process handle, materialization,
  // execute_only, prove, sign, encode and verify, then a second (warm)
  // HTTP round trip so http_ms compares like with like.
  // Only counted queries add to proof.proof_kb, so it repeats for a seed.
  void replay(const BenchQuery& q, std::uint64_t qid, const SearchResponse& first,
              bool counted) {
    SignedQuery sq = q.expr.empty() ? owner_->issue_query(q.keywords)
                                    : owner_->issue_expression_query(q.expr, q.top_k);
    SearchResponse handled;
    double handle_s = 0;
    {
      Tracer::Scope s(tracer_, "protocol.handle", qid);
      handled = cloud_->handle(sq);
      handle_s = s.close();
    }
    owner_->receive_response(handled);

    // Materialize the replay snapshot's entries first, so execute_only and
    // prove below time the same work on every workload.
    for (const auto& t : Oracle::query_terms(q)) {
      Tracer::Scope s(tracer_, "store.materialize", qid);
      replay_snap_->warm(t);
    }

    Query plain = sq.query;
    SearchResult result;
    {
      Tracer::Scope s(tracer_, "search.execute", qid);
      result = replay_engine_->execute_only(plain);
    }
    if (std::holds_alternative<MultiKeywordResponse>(first.body)) {
      Tracer::Scope s(tracer_, "proof.prove", qid);
      QueryProof proof = replay_engine_->prover().prove(result, SchemeKind::kHybrid);
      if (counted) layer("proof.proof_kb", static_cast<double>(proof.encoded_size()) / 1024.0);
    }
    {
      Tracer::Scope s(tracer_, "crypto.sign", qid);
      Signature sig = cloud_key_.sign(handled.payload_bytes());
      if (!(sig == handled.cloud_sig)) correct_ = false;
    }
    SearchResponse decoded;
    {
      Tracer::Scope s(tracer_, "proof.encode", qid);
      ByteWriter w;
      handled.write(w);
      Bytes bytes = std::move(w).take();
      ByteReader r(bytes);
      decoded = SearchResponse::read(r);
    }
    {
      Tracer::Scope s(tracer_, "proof.verify", qid);
      replay_verifier_->verify(decoded);
    }
    SignedQuery again = q.expr.empty() ? owner_->issue_query(q.keywords)
                                       : owner_->issue_expression_query(q.expr, q.top_k);
    double http_s = 0;
    {
      Tracer::Scope s(tracer_, "protocol.http_warm", qid);
      SearchResponse r = http_search(http_->port(), again);
      http_s = s.close();
      owner_->receive_response(r);
    }
    layer("protocol.http_ms", (http_s - handle_s) * 1e3);
  }

  void open_replay_engine(store::OpenedEpoch opened) {
    replay_snap_ = opened.snapshot;
    replay_engine_.emplace(opened.snapshot, *pub_ctx_, cloud_key_, serve_pool_.get());
  }

  // A window query: only verified, oracle-equal responses enter the
  // latency samples.
  void record(const Outcome& o, bool traced) {
    ++attempted_;
    if (!o.ok) {
      ++failed_;
      return;
    }
    latencies_.push_back(o.latency_s);
    (traced ? traced_lat_ : untraced_lat_).push_back(o.latency_s);
  }

  // ---- serve workloads ------------------------------------------------------
  void serve_window() {
    DeterministicRng rng(args_.seed, "perfbench." + args_.workload);
    const bool hot = args_.workload == "serve_hot";
    std::vector<BenchQuery> hot_set = hot ? hot_queries() : std::vector<BenchQuery>{};
    auto next_round = [&]() -> std::vector<BenchQuery> {
      if (!hot) return wide_round(rng);
      std::vector<BenchQuery> r = hot_set;
      for (std::size_t i = r.size(); i > 1; --i) std::swap(r[i - 1], r[rng.below(i)]);
      return r;
    };
    if (hot) {
      // Warm-up pass: every hot query once, checked but not timed.
      for (const auto& q : hot_set) {
        Outcome o = query(q, false, false);
        ++attempted_;
        if (!o.ok) ++failed_;
        size_samples_.push_back(static_cast<double>(o.response_bytes));
        forge_candidates_.push_back(q);
      }
    }
    // The first fixed_rounds rounds always run, whatever the host speed;
    // they alone set serve_wide's response_kb and the per-query counts.
    const std::size_t fixed_rounds = hot ? kHotCountRounds : kWideSizeRounds;
    const double t0 = now_s();
    std::size_t round = 0;
    do {
      const bool fixed = round < fixed_rounds;
      for (const auto& q : next_round()) {
        bool traced = tracer_.on() && trace_coin_.below(2) == 1;
        Outcome o = query(q, traced, fixed);
        record(o, traced);
        if (!hot && fixed) {
          size_samples_.push_back(static_cast<double>(o.response_bytes));
          forge_candidates_.push_back(q);
        }
      }
      ++round;
    } while (now_s() - t0 < args_.seconds || round < fixed_rounds);
    window_s_ = now_s() - t0;
  }

  // One serve_wide round: kWideRound distinct keyword queries, one frequent
  // word from each of kWideRound rank strata, each paired with a medium
  // word (the sixth query with two).  Words whose terms the tier covers are
  // never drawn.  Boolean queries are held back from this stream until
  // SearchEngine::evaluate_boolean stops normalizing leaves twice: an
  // honest boolean response fails verification for every word whose term
  // is not a fixed point of normalize_term (CHANGES.md, FOUND), so a seeded
  // draw would fail on a seed-dependent share of queries.
  std::vector<BenchQuery> wide_round(DeterministicRng& rng) {
    if (wide_frequent_.empty()) {
      std::set<std::string> taken;
      for (auto& t : hot_terms()) taken.insert(std::move(t));
      auto pool = [&](std::uint32_t lo, std::uint32_t hi) {
        std::vector<std::string> out;
        for (std::uint32_t r = lo; r < hi; ++r) {
          std::string w = synth_word(spec_, r);
          if (oracle_.postings(normalize_term(w)) != nullptr &&
              taken.insert(normalize_term(w)).second) {
            out.push_back(std::move(w));
          }
        }
        return out;
      };
      wide_frequent_ = pool(24, 200);
      wide_medium_ = pool(200, 1200);
    }
    auto medium = [&] { return wide_medium_[rng.below(wide_medium_.size())]; };
    std::vector<BenchQuery> out;
    const std::size_t per = wide_frequent_.size() / kWideRound;
    for (std::size_t i = 0; i < kWideRound; ++i) {
      for (;;) {
        BenchQuery q;
        q.keywords = {wide_frequent_[i * per + rng.below(per)], medium()};
        if (i == 5) {
          q.keywords.push_back(medium());
          if (q.keywords[2] == q.keywords[1]) continue;
        }
        if (!wide_seen_.insert(describe(q)).second) continue;
        out.push_back(std::move(q));
        break;
      }
    }
    return out;
  }

  // ---- update workload --------------------------------------------------------
  void update_window() {
    const double t0 = now_s();
    std::size_t batches = 0;
    do {
      update_batch(true);
      ++batches;
      if (batches == kCompactEvery) {
        store_mb_first_cycle_ = static_cast<double>(dir_bytes(store_root())) / (1024.0 * 1024.0);
      }
    } while (now_s() - t0 < args_.seconds || batches < kSizeBatches);
    window_s_ = now_s() - t0;
  }

  // One batch: kBatchDocs new documents through add_documents,
  // publish_delta, the store's fsynced delta publish and the cloud's
  // publish_from, then a visibility query pinned to the new epoch; in the
  // update workload also kQueriesPerBatch reads on the batch's terms and a
  // synchronous compaction every kCompactEvery batches.
  void update_batch(bool in_window) {
    const std::size_t b = batch_index_++;
    SynthSpec add = spec_;
    add.num_docs = kBatchDocs;
    // Fixed-length documents: a batch's size (and so its delta) then
    // varies with the drawn words only, not with a drawn length.
    add.min_doc_words = kBatchDocWords;
    add.max_doc_words = kBatchDocWords;
    add.doc_seed = kCorpusSeed + b + 1;  // the same batches for every --seed
    Corpus fresh = generate_corpus(add);
    std::vector<Document> docs;
    for (const Document& d : fresh) {
      docs.push_back(Document{next_doc_id_ + d.id, d.name, d.text});
    }
    next_doc_id_ += kBatchDocs;
    for (const Document& d : docs) oracle_.add_document(d.id, d.text);
    std::vector<BenchQuery> reads = batch_queries(docs, b);

    // Counts and sizes come from the first kSizeBatches batches only, which
    // every run completes, so they repeat for a seed; timings use them all.
    const bool fixed = b < kSizeBatches;
    const double t0 = now_s();
    UpdateTimings ut;
    {
      Tracer::Scope s(tracer_, "vindex.add_documents", 0);
      Counters c0 = Counters::read();
      ut = builder_->add_documents(docs, owner_ctx_, owner_key_);
      if (fixed) {
        layer("bigint.modexp_per_update", static_cast<double>((Counters::read() - c0).pow));
      }
    }
    std::optional<IndexDelta> delta;
    {
      Tracer::Scope s(tracer_, "vindex.publish_delta", 0);
      delta = builder_->publish_delta();
    }
    if (!delta) throw std::runtime_error("add_documents produced no delta");
    fs::path dir;
    {
      Tracer::Scope s(tracer_, "store.publish_delta", 0);
      dir = store_->publish_delta(*delta, 1);
    }
    {
      Tracer::Scope s(tracer_, "protocol.cloud_publish", 0);
      epoch_ = cloud_->publish_from(*store_);
    }
    if (epoch_ != delta->epoch) throw std::runtime_error("cloud serves another epoch");
    Outcome vis = query(reads.front(), false, false, epoch_);
    ++attempted_;
    if (!vis.ok) {
      ++failed_;
    } else {
      visible_s_.push_back(now_s() - t0);
    }
    if (b < kCompactEvery) {
      delta_bytes_.push_back(
          static_cast<double>(fs::file_size(dir / store::EpochStore::kDeltaFile)));
    }

    layer("accumulator.update_ms", ut.flat_accumulator_seconds * 1e3);
    layer("bloom.update_ms", ut.bloom_seconds * 1e3);
    layer("interval.update_ms", ut.interval_seconds * 1e3);
    layer("crypto.resign_ms", ut.sign_seconds * 1e3);
    layer("interval.dictionary_ms", ut.dictionary_seconds * 1e3);
    if (fixed) layer("vindex.touched_terms", static_cast<double>(ut.touched_terms));

    if (tracer_.on()) {
      store::OpenedEpoch opened;
      {
        Tracer::Scope s(tracer_, "store.open", 0);
        opened = store_->open_current();
      }
      if (fixed) layer("store.chain_length", static_cast<double>(opened.chain_length));
      open_replay_engine(std::move(opened));
    }
    if (!in_window) return;

    for (std::size_t i = 1; i < reads.size(); ++i) {
      bool traced = tracer_.on() && trace_coin_.below(2) == 1;
      Outcome o = query(reads[i], traced, fixed);
      record(o, traced);
      if (fixed) {
        size_samples_.push_back(static_cast<double>(o.response_bytes));
        forge_candidates_.push_back(reads[i]);
      }
    }
    if ((b + 1) % kCompactEvery == 0) {
      Tracer::Scope s(tracer_, "store.compact", 0);
      store_->compact(1);
    }
  }

  // The batch's reads: first the visibility query (the first new
  // document's most frequent word and its median-frequency word, so the new
  // document is in the result), then kQueriesPerBatch seeded pairs of the
  // same shape: one of a document's four most frequent words with one from
  // the middle tenth of its words by document frequency.
  std::vector<BenchQuery> batch_queries(const std::vector<Document>& docs, std::size_t b) {
    DeterministicRng rng(args_.seed ^ (0x9e3779b97f4a7c15ULL * (b + 1)), "perfbench.reads");
    std::vector<BenchQuery> out;
    for (std::size_t i = 0; i <= kQueriesPerBatch; ++i) {
      const Document& d = docs[i % docs.size()];
      std::vector<Oracle::Word> words = Oracle::words_of(d.text);
      std::sort(words.begin(), words.end(), [&](const Oracle::Word& x, const Oracle::Word& y) {
        std::size_t dx = oracle_.document_frequency(x.term);
        std::size_t dy = oracle_.document_frequency(y.term);
        return dx != dy ? dx > dy : x.term < y.term;
      });
      const std::size_t n = words.size();
      const std::size_t band = std::max<std::size_t>(1, n / 10);
      std::size_t first = i == 0 ? 0 : rng.below(std::min<std::size_t>(4, n));
      std::size_t second = i == 0 ? n / 2 : n / 2 - band / 2 + rng.below(band);
      if (second == first) second = n - 1;
      out.push_back(BenchQuery{.keywords = {words[first].surface, words[second].surface},
                               .expr = {},
                               .top_k = 0});
    }
    return out;
  }

  // ---- negative control ---------------------------------------------------------
  // Sampled queries served by a cheating cloud must be rejected; they are
  // counted apart and kept out of every timing.
  void negative_controls() {
    DeterministicRng rng(args_.seed, "perfbench.forgeries");
    std::vector<BenchQuery> candidates;
    for (const auto& q : forge_candidates_) {
      auto terms = Oracle::query_terms(q);
      auto known = [&](const std::string& t) { return oracle_.postings(t) != nullptr; };
      bool plain = q.expr.empty() && !oracle_.expected_docs(q).empty() &&
                   std::all_of(terms.begin(), terms.end(), known);
      if (plain) candidates.push_back(q);
    }
    if (candidates.empty()) throw std::runtime_error("no query qualifies as a negative control");
    for (CloudBehavior behavior : {CloudBehavior::kDropLastResult, CloudBehavior::kInflateWeight}) {
      cloud_->set_behavior(behavior);
      for (std::size_t i = 0; i < kForgedPerBehavior; ++i) {
        const BenchQuery& q = candidates[rng.below(candidates.size())];
        SignedQuery sq = owner_->issue_query(q.keywords);
        SearchResponse resp = http_search(http_->port(), sq);
        ++forged_;
        try {
          owner_->receive_response(resp);
          ++forged_accepted_;
          std::fprintf(stderr, "negative control: forged response accepted\n");
        } catch (const VerifyError&) {
        }
      }
    }
    cloud_->set_behavior(CloudBehavior::kHonest);
  }

  // ---- output --------------------------------------------------------------------
  void layer(const std::string& name, double v) { layers_[name].push_back(v); }

  int report() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    const std::size_t n = latencies_.size();
    // query_tail_ms is a fixed percentile per workload: the highest whole
    // one that keeps at least ten samples beyond it at the sample counts
    // README.md records (a percentile that moved with n would add noise).
    const double tail_q = args_.workload == "update_stream" ? 0.75 : 0.98;
    std::printf("latency percentiles (ms, n=%zu): p50 %.2f p75 %.2f p90 %.2f p95 %.2f p98 %.2f "
                "p99 %.2f\n",
                n, quantile(latencies_, 0.5) * 1e3, quantile(latencies_, 0.75) * 1e3,
                quantile(latencies_, 0.9) * 1e3, quantile(latencies_, 0.95) * 1e3,
                quantile(latencies_, 0.98) * 1e3, quantile(latencies_, 0.99) * 1e3);
    if (static_cast<double>(n) * (1 - tail_q) < 10) {
      std::fprintf(stderr, "vcbench: only %zu samples; p%.0f has fewer than ten beyond it\n", n,
                   tail_q * 100);
    }
    if (args_.workload == "update_stream") store_mb_ = store_mb_first_cycle_;

    std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
    if (!args_.trace) {
      metrics = {
          {"setup_s", {setup_s_, "s"}},
          {"verified_qps", {static_cast<double>(n) / window_s_, "1/s"}},
          {"query_p50_ms", {median(latencies_) * 1e3, "ms"}},
          {"query_tail_ms", {quantile(latencies_, tail_q) * 1e3, "ms"}},
          {"response_kb", {mean(size_samples_) / 1024.0, "KiB"}},
          {"update_visible_s", {median(visible_s_), "s"}},
          {"delta_kb", {mean(delta_bytes_) / 1024.0, "KiB"}},
          {"store_mb", {store_mb_, "MiB"}},
          {"peak_rss_mb", {rss_mb, "MiB"}},
      };
    } else {
      metrics = per_layer_metrics();
    }

    std::printf("workload %s seed %llu: %zu verified queries in %.2fs window, tail = p%.0f\n",
                args_.workload.c_str(), static_cast<unsigned long long>(args_.seed), n,
                window_s_, tail_q * 100);
    std::printf("host bigint.powm_us start %.2f mid %.2f end %.2f\n", host_[0], host_[1],
                host_[2]);
    std::printf("negative controls: %zu forged, %zu accepted\n", forged_, forged_accepted_);
    if (tracer_.on()) {
      tracer_.print_self_times();
      tracer_.write_json(args_.workdir / ("spans-" + args_.workload + ".json"));
    }
    const bool correct = correct_ && forged_accepted_ == 0 && forged_ > 0;
    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted_) +
                       ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].first.c_str(), metrics[i].second.first,
                    metrics[i].second.second.c_str());
      json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct && failed_ == 0 ? 0 : 1;
  }

  std::vector<std::pair<std::string, std::pair<double, std::string>>> per_layer_metrics() {
    auto med = [&](const std::string& k) { return median(layers_[k]); };
    auto avg = [&](const std::string& k) { return mean(layers_[k]); };
    auto span = [&](const char* k) { return median(tracer_.durations_ms(k)); };
    const auto q = static_cast<double>(std::max<std::size_t>(1, counted_queries_));
    const Counters& s = serve_counts_;
    const Counters& v = verify_counts_;
    const double overhead =
        100.0 * ratio(median(traced_lat_) - median(untraced_lat_), median(untraced_lat_));
    return {
        {"protocol.issue_query_ms", {span("protocol.issue_query"), "ms"}},
        {"protocol.http_ms", {med("protocol.http_ms"), "ms"}},
        {"protocol.handle_ms", {span("protocol.handle"), "ms"}},
        {"search.execute_ms", {span("search.execute"), "ms"}},
        {"proof.prove_ms", {span("proof.prove"), "ms"}},
        {"proof.verify_ms", {span("proof.verify"), "ms"}},
        {"proof.encode_ms", {span("proof.encode"), "ms"}},
        {"proof.proof_kb", {avg("proof.proof_kb"), "KiB"}},
        {"crypto.sign_ms", {span("crypto.sign"), "ms"}},
        {"bigint.modexp_prove", {static_cast<double>(s.pow) / q, "count"}},
        {"bigint.modexp_verify", {static_cast<double>(v.pow) / q, "count"}},
        {"bigint.fixedbase_hit_ratio",
         {ratio(static_cast<double>(serve_counts_.fb_hit),
                static_cast<double>(serve_counts_.fb_hit + serve_counts_.fb_miss)),
          "ratio"}},
        {"primes.miss_prove", {static_cast<double>(s.prime_miss) / q, "count"}},
        {"primes.miss_verify", {static_cast<double>(v.prime_miss) / q, "count"}},
        {"vindex.tier_hit_ratio",
         {ratio(static_cast<double>(serve_counts_.tier_hit),
                static_cast<double>(serve_counts_.tier_hit + serve_counts_.tier_miss)),
          "ratio"}},
        {"store.materialized_per_query", {static_cast<double>(s.materialized) / q, "count"}},
        {"proof.hybrid_bloom_choices",
         {ratio(static_cast<double>(serve_counts_.choice_bloom),
                static_cast<double>(serve_counts_.choice_bloom + serve_counts_.choice_acc)),
          "ratio"}},
        {"proof.hybrid_estimate_ratio",
         {ratio(serve_counts_.est_s, serve_counts_.act_s), "ratio"}},
        {"vindex.add_documents_ms", {span("vindex.add_documents"), "ms"}},
        {"accumulator.update_ms", {med("accumulator.update_ms"), "ms"}},
        {"bloom.update_ms", {med("bloom.update_ms"), "ms"}},
        {"interval.update_ms", {med("interval.update_ms"), "ms"}},
        {"crypto.resign_ms", {med("crypto.resign_ms"), "ms"}},
        {"interval.dictionary_ms", {med("interval.dictionary_ms"), "ms"}},
        {"vindex.touched_terms", {avg("vindex.touched_terms"), "count"}},
        {"bigint.modexp_per_update", {avg("bigint.modexp_per_update"), "count"}},
        {"vindex.publish_delta_ms", {span("vindex.publish_delta"), "ms"}},
        {"store.publish_delta_ms", {span("store.publish_delta"), "ms"}},
        {"store.open_ms", {span("store.open"), "ms"}},
        {"store.chain_length", {avg("store.chain_length"), "count"}},
        {"store.compact_ms", {span("store.compact"), "ms"}},
        {"protocol.cloud_publish_ms", {span("protocol.cloud_publish"), "ms"}},
        {"text.corpus_s", {med("text.corpus_s"), "s"}},
        {"index.invert_s", {med("index.invert_s"), "s"}},
        {"primes.precompute_s", {med("primes.precompute_s"), "s"}},
        {"accumulator.build_s", {med("accumulator.build_s"), "s"}},
        {"bloom.build_s", {med("bloom.build_s"), "s"}},
        {"crypto.build_sign_s", {med("crypto.build_sign_s"), "s"}},
        {"interval.dictionary_build_s", {med("interval.dictionary_build_s"), "s"}},
        {"vindex.tier_build_s", {med("vindex.tier_build_s"), "s"}},
        {"store.publish_full_s", {med("store.publish_full_s"), "s"}},
        {"protocol.boot_ms", {med("protocol.boot_ms"), "ms"}},
        {"bigint.powm_us", {median(host_), "us"}},
        {"obs.trace_overhead_pct", {overhead, "%"}},
    };
  }

  Args args_;
  SynthSpec spec_;
  AccumulatorContext owner_ctx_;
  std::optional<AccumulatorContext> pub_ctx_;
  SigningKey owner_key_;
  SigningKey cloud_key_;
  Corpus corpus_;
  Oracle oracle_;
  std::uint32_t next_doc_id_ = 0;
  std::optional<IndexBuilder> builder_;
  std::optional<store::EpochStore> store_;
  std::unique_ptr<ThreadPool> serve_pool_;
  std::unique_ptr<CloudService> cloud_;
  std::unique_ptr<HttpFrontend> http_;
  std::optional<DataOwner> owner_;
  std::optional<ResultVerifier> pinned_;
  std::optional<ResultVerifier> replay_verifier_;
  SnapshotPtr replay_snap_;
  std::optional<SearchEngine> replay_engine_;
  std::uint64_t epoch_ = 0;

  Tracer tracer_;
  std::uint64_t query_seq_ = 0;
  std::size_t batch_index_ = 0;
  // Which window queries a traced run traces: a seeded coin, so traced and
  // untraced queries have the same mix of query shapes.
  DeterministicRng trace_coin_{1, "perfbench.trace"};
  std::vector<std::string> wide_frequent_, wide_medium_;
  std::set<std::string> wide_seen_;

  double setup_s_ = 0;
  double window_s_ = 0;
  double store_mb_ = 0;
  double store_mb_first_cycle_ = 0;
  std::vector<double> host_;
  std::vector<double> latencies_, traced_lat_, untraced_lat_;
  std::vector<double> size_samples_;
  std::vector<double> visible_s_;
  std::vector<double> delta_bytes_;
  std::vector<BenchQuery> forge_candidates_;
  Counters serve_counts_, verify_counts_;
  std::size_t counted_queries_ = 0;
  std::map<std::string, std::vector<double>> layers_;
  std::size_t attempted_ = 0, failed_ = 0, forged_ = 0, forged_accepted_ = 0;
  bool correct_ = true;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args = parse_args(argc, argv);
    fs::create_directories(args.workdir);
    Bench bench(std::move(args));
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vcbench: %s\n", e.what());
    return 2;
  }
}
