#include "protocol/cloud.hpp"

#include <cstdlib>
#include <cstring>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/epoch_store.hpp"
#include "support/errors.hpp"
#include "text/tokenizer.hpp"
#include "vindex/witness_tier.hpp"

namespace vc {

namespace {

// Per-scheme serving counters, cached in an array so the per-query cost is
// one index + one relaxed add (scheme values are the wire enum 0..3).
obs::Counter& scheme_counter(SchemeKind scheme) {
  auto& reg = obs::MetricsRegistry::global();
  static obs::Counter* counters[] = {
      &reg.counter("vc_cloud_queries_total", "scheme=\"accumulator\"",
                   "Signed queries served, by proof scheme"),
      &reg.counter("vc_cloud_queries_total", "scheme=\"bloom\""),
      &reg.counter("vc_cloud_queries_total", "scheme=\"interval\""),
      &reg.counter("vc_cloud_queries_total", "scheme=\"hybrid\""),
  };
  auto i = static_cast<std::size_t>(scheme);
  return *counters[i < 4 ? i : 3];
}

obs::Counter& error_counter(const char* kind) {
  auto& reg = obs::MetricsRegistry::global();
  return reg.counter("vc_cloud_errors_total", std::string("kind=\"") + kind + "\"",
                     "Queries the cloud rejected or failed on");
}

std::string shard_label(std::size_t shard) {
  return "shard=\"" + std::to_string(shard) + "\"";
}

obs::Gauge& publish_queue_depth(std::size_t shard) {
  return obs::MetricsRegistry::global().gauge(
      "vc_publish_queue_depth", shard_label(shard),
      "Epochs staged in each shard's publish lane (0 or 1; newest wins)");
}

obs::Gauge& publish_lag_gauge(std::size_t shard) {
  return obs::MetricsRegistry::global().gauge(
      "vc_publish_lag_ms", shard_label(shard),
      "Milliseconds from publish() staging an epoch to this shard's swap");
}

obs::Counter& shard_publishes(std::size_t shard) {
  return obs::MetricsRegistry::global().counter(
      "vc_shard_publishes_total", shard_label(shard),
      "Epoch swaps completed by each shard's publish worker");
}

obs::Counter& publishes_dropped() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_publish_dropped_total", "",
      "Staged epochs superseded before a slow shard's worker reached them");
  return c;
}

obs::Counter& async_publishes() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_async_publishes_total", "",
      "publish() calls staged through the async pipeline");
  return c;
}

}  // namespace

CloudService::CloudService(SnapshotPtr snapshot, AccumulatorContext public_ctx,
                           SigningKey cloud_key, VerifyKey owner_key, ThreadPool* pool,
                           SchemeKind scheme, std::size_t shards)
    : ctx_(std::move(public_ctx)),
      key_(std::move(cloud_key)),
      owner_key_(std::move(owner_key)),
      scheme_(scheme),
      pool_(pool),
      shards_(std::max<std::size_t>(1, shards)),
      stall_ms_(std::max<std::size_t>(1, shards)) {
  ctx_.set_pool(pool);
  publish(std::move(snapshot));
}

CloudService::~CloudService() {
  for (auto& p : publishers_) {
    {
      std::lock_guard lock(p->mu);
      p->stop = true;
    }
    p->cv.notify_all();
  }
  for (auto& p : publishers_) {
    if (p->worker.joinable()) p->worker.join();
  }
}

CloudService::StatePtr CloudService::build_state(const SnapshotPtr& snapshot) {
  // Serialized across shard workers: the context's fixed-base table is
  // shared publish-path state.
  std::lock_guard lock(build_mu_);
  // Keep the shared fixed-base table for g wide enough for this snapshot's
  // longest posting list: a held table that is wide enough is kept and a
  // narrower one grows in place, so every epoch's engine reuses it (it is
  // shared through context copies) instead of rebuilding it.
  ctx_.enable_fixed_base((std::max<std::size_t>(1, snapshot->max_posting_count()) + 1) *
                         snapshot->config().rep_bits);
  auto engine = std::make_shared<const SearchEngine>(snapshot, ctx_, key_, pool_,
                                                     shards_.size());
  auto& reg = obs::MetricsRegistry::global();
  if (shards_.size() > 1) {
    std::vector<std::int64_t> per_shard(shards_.size(), 0);
    for (const auto& [term, entry] : snapshot->entries()) {
      ++per_shard[term_shard(term, shards_.size())];
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      reg.gauge("vc_shard_terms", shard_label(s),
               "Indexed terms hash-partitioned onto each serving shard")
          .set(per_shard[s]);
    }
  }
  return std::make_shared<const EpochState>(EpochState{snapshot, std::move(engine)});
}

void CloudService::publish(SnapshotPtr snapshot) {
  if (snapshot == nullptr) throw UsageError("publish requires a snapshot");
  auto& reg = obs::MetricsRegistry::global();
  if (!publishers_.empty()) {
    // Async pipeline: stage and return.  State construction, warming and
    // the swaps all happen on the shard workers.
    static obs::Histogram& enqueue_stage = reg.stage("publish_enqueue");
    obs::Span span(enqueue_stage, "publish_enqueue");
    obs::trace_attr("epoch", static_cast<std::int64_t>(snapshot->epoch()));
    auto pending = std::make_shared<PendingPublish>();
    pending->snap = std::move(snapshot);
    pending->enqueued = std::chrono::steady_clock::now();
    stage_publish(std::move(pending));
    async_publishes().inc();
    return;
  }
  StatePtr state = build_state(snapshot);
  for (auto& slot : shards_) {
    slot.store(state);
  }
  reg.counter("vc_snapshot_swaps_total", "",
              "Snapshot epochs published to the serving core")
      .inc();
  reg.gauge("vc_epoch", "", "Epoch of the newest published index snapshot")
      .set(static_cast<std::int64_t>(snapshot->epoch()));
}

void CloudService::stage_publish(PendingPtr pending) {
  for (std::size_t s = 0; s < publishers_.size(); ++s) {
    ShardPublisher& lane = *publishers_[s];
    {
      std::lock_guard lock(lane.mu);
      // Depth-1 newest-wins staging: a shard that stalls skips straight to
      // the newest epoch instead of replaying every superseded one.
      if (lane.pending != nullptr) publishes_dropped().inc();
      lane.pending = pending;
      publish_queue_depth(s).set(1);  // under mu so it never races the drain's 0
    }
    lane.cv.notify_one();
  }
}

void CloudService::enable_async_publish(PublishConfig config) {
  if (!publishers_.empty()) return;
  publish_cfg_ = config;
  if (const char* spec = std::getenv("VC_PUBLISH_STALL");
      spec != nullptr && *spec != '\0') {
    // "<shard>:<ms>" — the fault-injection hook the pipeline tests and the
    // CLI harness use to emulate one slow shard.
    char* end = nullptr;
    unsigned long shard = std::strtoul(spec, &end, 10);
    if (end != nullptr && *end == ':' && shard < shards_.size()) {
      stall_ms_[shard].store(std::strtoul(end + 1, nullptr, 10),
                             std::memory_order_relaxed);
    }
  }
  publishers_.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    publishers_.push_back(std::make_unique<ShardPublisher>());
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    publishers_[s]->worker = std::thread([this, s] { shard_publish_loop(s); });
  }
  // Stage the boot snapshot once so its warm stage runs off the serving
  // path; the swap is an idempotent same-state store.
  auto pending = std::make_shared<PendingPublish>();
  StatePtr current = shards_[0].load();
  pending->snap = current->snap;
  pending->state = current;
  std::call_once(pending->built, [] {});  // state already built
  pending->enqueued = std::chrono::steady_clock::now();
  stage_publish(std::move(pending));
}

void CloudService::shard_publish_loop(std::size_t shard) {
  ShardPublisher& lane = *publishers_[shard];
  auto& reg = obs::MetricsRegistry::global();
  static obs::Histogram& publish_stage =
      obs::MetricsRegistry::global().stage("shard_publish");
  for (;;) {
    PendingPtr pending;
    {
      std::unique_lock lock(lane.mu);
      lane.cv.wait(lock, [&] { return lane.stop || lane.pending != nullptr; });
      if (lane.stop) return;
      pending = std::move(lane.pending);
      lane.pending = nullptr;
      publish_queue_depth(shard).set(0);
    }
    obs::Span span(publish_stage, "shard_publish");
    obs::trace_attr("shard", static_cast<std::int64_t>(shard));
    obs::trace_attr("epoch", static_cast<std::int64_t>(pending->snap->epoch()));
    std::call_once(pending->built,
                   [&] { pending->state = build_state(pending->snap); });
    if (publish_cfg_.warm_budget_bytes > 0) warm_shard(shard, *pending->state);
    if (std::uint64_t ms = stall_ms_[shard].load(std::memory_order_relaxed); ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
    const std::uint64_t epoch = pending->state->snap->epoch();
    shards_[shard].store(pending->state);
    auto lag = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - pending->enqueued);
    publish_lag_gauge(shard).set(static_cast<std::int64_t>(lag.count()));
    shard_publishes(shard).inc();
    // The epoch gauge / swap counter advance when the *first* shard serves
    // the new epoch — that is when current_state()'s max-epoch pinning
    // starts returning it.
    auto& epoch_gauge =
        reg.gauge("vc_epoch", "", "Epoch of the newest published index snapshot");
    if (epoch_gauge.value() < static_cast<std::int64_t>(epoch)) {
      epoch_gauge.set(static_cast<std::int64_t>(epoch));
      reg.counter("vc_snapshot_swaps_total", "",
                  "Snapshot epochs published to the serving core")
          .inc();
    }
    {
      std::lock_guard lock(swap_mu_);
    }
    swap_cv_.notify_all();
  }
}

void CloudService::warm_shard(std::size_t shard, const EpochState& state) {
  // The tier's term list is the publish-time hot set (ranked by traffic/df
  // under the tier policy); this shard warms its own partition of it.  The
  // global budget is apportioned by each shard's observed query traffic so
  // the hottest shard's terms are resident first (equal split cold).
  auto tier = state.snap->witness_tier();
  if (tier == nullptr) return;
  std::vector<std::uint64_t> traffic =
      shard_query_counts_from_metrics(shards_.size());
  std::uint64_t total = 0;
  for (std::uint64_t t : traffic) total += t;
  // Laplace-smoothed share: proportional to observed traffic but never
  // zero, so a shard that has not seen a query yet still warms its
  // partition (and a cold process degrades to an equal split).
  std::uint64_t budget = static_cast<std::uint64_t>(
      static_cast<double>(publish_cfg_.warm_budget_bytes) *
      (static_cast<double>(traffic[shard]) + 1.0) /
      (static_cast<double>(total) + static_cast<double>(shards_.size())));
  if (budget == 0) return;
  std::vector<std::string> mine;
  for (const std::string& term : tier->terms()) {
    if (term_shard(term, shards_.size()) == shard) mine.push_back(term);
  }
  store::warm_epoch(*state.snap, tier.get(), mine, budget);
}

std::uint64_t CloudService::publish_from(const store::EpochStore& store) {
  store::OpenedEpoch opened;
  {
    // The held epoch and the context's table are publish-path state shared
    // with the async shard workers' build_state.
    std::lock_guard lock(build_mu_);
    // Stacked on the held epoch, only the deltas published since it are
    // opened and validated; a cold first call (or a re-base after
    // compaction) resolves the whole chain.
    opened = store.open_current(store::OpenOptions{}, held_.get());
    // A tiered epoch carries the public fixed-base table for g; adopting it
    // makes a cold restart skip the capacity_bits squarings build_state
    // would otherwise spend.  A table grown past it since is kept.  The
    // witness tier itself is already attached to the snapshot (lazy,
    // mmap-backed) — no per-term witness is recomputed on reopen.
    if (opened.fixed_base && opened.fixed_base->base == ctx_.g() &&
        opened.fixed_base->capacity_bits > ctx_.power().fixed_base_capacity_bits()) {
      ctx_.adopt_fixed_base(*opened.fixed_base);
    }
    held_ = std::make_unique<store::OpenedEpoch>(opened);
  }
  publish(opened.snapshot);
  return opened.snapshot->epoch();
}

CloudService::StatePtr CloudService::current_state() const {
  StatePtr best = shards_[0].load();
  bool mixed = false;
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    StatePtr s = shards_[i].load();
    if (s->snap->epoch() != best->snap->epoch()) {
      mixed = true;
      if (s->snap->epoch() > best->snap->epoch()) best = std::move(s);
    }
  }
  if (mixed) {
    // A read raced a publish mid-swap; serving pins the newest epoch so the
    // response never mixes evidence across epochs.
    obs::MetricsRegistry::global()
        .counter("vc_epoch_fallback_total", "",
                 "Queries that observed shard slots from mixed epochs")
        .inc();
  }
  return best;
}

std::uint64_t CloudService::epoch() const { return current_state()->snap->epoch(); }

void CloudService::wait_published(std::uint64_t epoch) const {
  std::unique_lock lock(swap_mu_);
  swap_cv_.wait(lock, [&] {
    for (const auto& slot : shards_) {
      StatePtr s = slot.load();
      if (s == nullptr || s->snap->epoch() < epoch) return false;
    }
    return true;
  });
}

void CloudService::set_publish_stall_for_test(std::size_t shard, std::uint64_t ms) {
  if (shard < stall_ms_.size()) {
    stall_ms_[shard].store(ms, std::memory_order_relaxed);
  }
}

SearchResponse CloudService::handle(const SignedQuery& query) {
  static obs::Histogram& handle_stage = obs::MetricsRegistry::global().stage("handle");
  obs::Span handle_span(handle_stage, "handle");
  if (!query.verify(owner_key_)) {
    error_counter("bad_signature").inc();
    throw VerifyError("query is not signed by the data owner");
  }
  // Pin one epoch's state for the whole query: every keyword's proof comes
  // from the same snapshot even if a publish lands mid-query.
  StatePtr state = current_state();
  obs::trace_attr("epoch", static_cast<std::int64_t>(state->snap->epoch()));
  obs::trace_attr("shards", static_cast<std::int64_t>(shards_.size()));
  SearchResponse resp;
  try {
    resp = state->engine->search(query.query, scheme_);
  } catch (const Error&) {
    error_counter("search_failed").inc();
    throw;
  }
  scheme_counter(scheme_).inc();
  if (shards_.size() > 1) {
    auto& reg = obs::MetricsRegistry::global();
    for (const auto& raw : query.query.keywords) {
      std::string norm = normalize_term(raw);
      if (norm.empty()) continue;
      reg.counter("vc_shard_queries_total", shard_label(term_shard(norm, shards_.size())),
                  "Query keywords routed to each serving shard")
          .inc();
    }
  }
  served_.fetch_add(1, std::memory_order_relaxed);
  if (behavior_ == CloudBehavior::kHonest) return resp;

  // Misbehaviour modes tamper with the already-proven response, exactly the
  // situation the owner's verification must catch.
  if (auto* multi = std::get_if<MultiKeywordResponse>(&resp.body)) {
    if (behavior_ == CloudBehavior::kDropLastResult && !multi->result.docs.empty()) {
      std::uint64_t hidden = multi->result.docs.back();
      multi->result.docs.pop_back();
      for (auto& postings : multi->result.postings) {
        if (!postings.empty() && postings.back().doc_id == hidden) postings.pop_back();
      }
    } else if (behavior_ == CloudBehavior::kInflateWeight &&
               !multi->result.postings.empty() && !multi->result.postings[0].empty()) {
      multi->result.postings[0][0].tf += 100;
    }
    resp.cloud_sig = key_.sign(resp.payload_bytes());
  } else if (auto* single = std::get_if<SingleKeywordResponse>(&resp.body)) {
    if (behavior_ == CloudBehavior::kDropLastResult && !single->postings.empty()) {
      single->postings.pop_back();
    } else if (behavior_ == CloudBehavior::kInflateWeight && !single->postings.empty()) {
      single->postings[0].tf += 100;
    }
    resp.cloud_sig = key_.sign(resp.payload_bytes());
  }
  return resp;
}

}  // namespace vc
