// The cloud role (Fig 1 right): the sharded serving core.
//
// Wraps the search engine with the signed-message protocol: it rejects
// queries that are not validly signed by the owner (so it can later
// disprove forged-query accusations) and signs every response.
//
// Serving is organized around immutable, epoch-numbered IndexSnapshots.
// The service holds one std::atomic<std::shared_ptr<...>> slot per shard
// (terms are hash-partitioned across shards with term_shard); publish()
// swaps every slot to the new epoch's snapshot atomically, so queries in
// flight keep proving against the snapshot they started on while new
// queries see the new epoch — concurrent owner updates never race with
// proof generation.  Per-keyword proofs are generated per shard and merged
// (see Prover); responses carry the serving snapshot's epoch in the signed
// payload.
//
// Async publication pipeline (enable_async_publish): publish() then only
// stages the epoch into a depth-1 newest-wins slot per shard and returns
// immediately; one worker thread per shard builds the serving state (first
// worker to reach it), runs an optional witness warm stage for its shard's
// hot terms, and swaps its slot independently — a slow shard never delays
// the others.  Consistency is unchanged: a query that observes mixed
// epochs mid-pipeline pins to the max fully-published state it saw
// (current_state), so responses never mix evidence across epochs and
// verifier semantics are untouched.  A shard that falls behind skips
// superseded epochs (newest wins) instead of queueing them.
//
// For tests and the arbitration example it can also be configured to
// misbehave in the ways the paper's threat model names: dropping results or
// tampering with weights.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "protocol/messages.hpp"

namespace vc {

namespace store {
class EpochStore;
struct OpenedEpoch;
}  // namespace store

namespace advtest {
struct CloudAccess;
}  // namespace advtest

enum class CloudBehavior {
  kHonest,
  kDropLastResult,   // return partial results (the economic-incentive cheat)
  kInflateWeight,    // tamper with a tf weight in the results
};

// Knobs for the asynchronous per-shard publication pipeline.
struct PublishConfig {
  // Warm-stage byte budget across the whole pool; apportioned to shards by
  // their vc_shard_queries_total traffic share (equal split before any
  // traffic is recorded).  0 disables the warm stage.
  std::uint64_t warm_budget_bytes = 0;
};

class CloudService {
 public:
  CloudService(SnapshotPtr snapshot, AccumulatorContext public_ctx,
               SigningKey cloud_key, VerifyKey owner_key, ThreadPool* pool = nullptr,
               SchemeKind scheme = SchemeKind::kHybrid, std::size_t shards = 1);

  ~CloudService();  // drains and joins the publish workers, if any

  // Swaps every shard slot to the given snapshot (a new epoch).  Safe to
  // call while queries are being served concurrently; concurrent publishers
  // must be externally serialized (there is one owner).  With the async
  // pipeline enabled this only stages the epoch (one depth-1 newest-wins
  // slot per shard) and returns immediately — each shard's worker warms and
  // swaps independently; wait_published() blocks until the swap completed
  // everywhere.
  void publish(SnapshotPtr snapshot);

  // Spawns one publish worker per shard and routes subsequent publish()
  // calls through them.  Also stages the currently-served state once, so
  // the warm stage runs for the boot snapshot off the serving path.
  // Idempotent; must not race publish().  Honors VC_PUBLISH_STALL
  // ("<shard>:<ms>", fault injection for tests) like
  // set_publish_stall_for_test.
  void enable_async_publish(PublishConfig config = {});
  [[nodiscard]] bool async_publish_enabled() const { return !publishers_.empty(); }

  // Blocks until every shard slot serves an epoch >= `epoch` (all shards
  // finished swapping; with a staged-but-stalled shard this waits out the
  // stall).  Immediate in sync mode.
  void wait_published(std::uint64_t epoch) const;

  // Fault injection for the publish-pipeline tests: the given shard's
  // worker sleeps `ms` before its swap, emulating a slow shard (cold page
  // cache, contended NUMA node, ...).  The other shards must not care.
  void set_publish_stall_for_test(std::size_t shard, std::uint64_t ms);

  // Opens the store's CURRENT epoch (mmap-backed, lazily materialized) and
  // publishes it into the shard slots — the cold-restart entry point, and
  // the cloud's side of every delta publish.  The epoch this call opened
  // last is held: the next call validates only the delta records published
  // since and stacks them on it (see EpochStore::open_current), so a
  // publish costs O(delta).  Throws the store's typed errors when the epoch
  // is missing or damaged; the served epoch is then unchanged.  Returns the
  // published epoch number.
  std::uint64_t publish_from(const store::EpochStore& store);

  // Throws VerifyError if the query signature is invalid.
  [[nodiscard]] SearchResponse handle(const SignedQuery& query);

  void set_behavior(CloudBehavior behavior) { behavior_ = behavior; }
  [[nodiscard]] const VerifyKey& verify_key() const { return key_.verify_key(); }
  [[nodiscard]] std::uint64_t queries_served() const {
    return served_.load(std::memory_order_relaxed);
  }
  // Epoch of the newest published snapshot.
  [[nodiscard]] std::uint64_t epoch() const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

 private:
  // Narrow test-only hook: the adversarial soundness harness (src/advtest)
  // wraps a live CloudService — reusing its engine and response-signing key
  // — to emit semantically forged responses that are still validly signed
  // by the cloud, exactly what a malicious operator would produce.
  friend struct advtest::CloudAccess;

  // One epoch's serving state: the snapshot and the engine (prover) built
  // over it.  Immutable once published; shared by every shard slot.
  struct EpochState {
    SnapshotPtr snap;
    std::shared_ptr<const SearchEngine> engine;
  };
  using StatePtr = std::shared_ptr<const EpochState>;

  // Reads every shard slot and serves from the newest epoch seen, so one
  // query never mixes shards from different epochs even mid-publish.
  [[nodiscard]] StatePtr current_state() const;

  // One staged epoch moving through the pipeline.  The serving state is
  // built once, by whichever shard worker reaches it first (call_once);
  // the others reuse it.
  struct PendingPublish {
    SnapshotPtr snap;
    std::chrono::steady_clock::time_point enqueued;
    std::once_flag built;
    StatePtr state;
  };
  using PendingPtr = std::shared_ptr<PendingPublish>;

  // Per-shard publish lane: a depth-1 newest-wins staging slot plus the
  // worker that drains it.  Bounded by construction — a shard that stalls
  // holds back at most one superseded epoch, which is dropped (counted in
  // vc_publish_dropped_total) when a newer one lands.
  struct ShardPublisher {
    std::mutex mu;
    std::condition_variable cv;
    PendingPtr pending;
    bool stop = false;
    std::thread worker;
  };

  // Fixed-base sizing + engine construction for one epoch (the serialized
  // part of a publish; guarded by build_mu_ under the async pipeline).
  [[nodiscard]] StatePtr build_state(const SnapshotPtr& snapshot);
  void stage_publish(PendingPtr pending);    // fan a staged epoch out to all lanes
  void shard_publish_loop(std::size_t shard);
  void warm_shard(std::size_t shard, const EpochState& state);

  AccumulatorContext ctx_;
  SigningKey key_;
  VerifyKey owner_key_;
  SchemeKind scheme_;
  ThreadPool* pool_;
  CloudBehavior behavior_ = CloudBehavior::kHonest;
  std::atomic<std::uint64_t> served_{0};
  std::vector<std::atomic<StatePtr>> shards_;

  // Async pipeline state (empty/idle in sync mode).
  PublishConfig publish_cfg_;
  std::mutex build_mu_;
  std::unique_ptr<store::OpenedEpoch> held_;  // last publish_from epoch; under build_mu_
  std::vector<std::unique_ptr<ShardPublisher>> publishers_;
  std::vector<std::atomic<std::uint64_t>> stall_ms_;  // fault injection, per shard
  mutable std::mutex swap_mu_;               // pairs with swap_cv_ for wait_published
  mutable std::condition_variable swap_cv_;  // notified after every shard swap
};

}  // namespace vc
