// vcsearch-serve — cloud-side CLI: load a verifiable index, validate the
// owner's signatures (the "acknowledge receipt" step of Fig 1), and serve
// signed search responses over HTTP until interrupted.
//
//   vcsearch-serve --dir DIR [--store DIR] [--port P]
//                  [--scheme hybrid|accumulator|bloom|interval]
//                  [--shards N] [--max-inflight M] [--compact-chain N]
//                  [--async-publish] [--warm-budget-mb MB]
//                  [--slow-ms MS] [--trace-capacity N] [--profile]
//
// --async-publish enables the per-shard epoch publication pipeline: one
// worker per shard swaps its slot independently (queries pin the max
// published epoch mid-pipeline), with a witness warm stage sized by
// --warm-budget-mb (default 16) so the first post-swap query never pays
// the cold lazy-materialization path.  With --store, the same budget also
// warms the boot epoch's hot terms straight off the mapping (warm-on-open).
//
// With --store, the server boots from the persistent epoch store when it
// has a published epoch (mmap-backed, lazily materialized — no builder
// load, no full-index signature sweep), and otherwise performs the normal
// builder load and then publishes the snapshot into the store so the next
// restart is a cold start from disk.  --dir stays required either way: the
// signing keys live there.
//
// Requests are dispatched onto the worker pool (up to --max-inflight
// concurrently; excess gets 503) and proofs are generated per shard when
// --shards > 1 (also settable via VC_SHARDS).  SIGINT/SIGTERM drain
// in-flight requests before exiting.
//
// Every /search is traced (GET /traces lists the sampled span trees;
// /traces/<id>/chrome exports Chrome trace_event JSON for Perfetto).
// Queries slower than --slow-ms (default 250, also VC_SLOW_MS) are always
// kept and logged as one structured JSON line on stderr.  --profile dumps
// the registry snapshot plus the top-10 slowest sampled traces on clean
// shutdown.
#include <csignal>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>

#include "crypto/standard_params.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "protocol/http.hpp"
#include "store/epoch_store.hpp"
#include "support/threadpool.hpp"
#include "vindex/index_builder.hpp"

using namespace vc;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

const char* arg_value(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

SchemeKind parse_scheme(const char* s) {
  if (std::strcmp(s, "accumulator") == 0) return SchemeKind::kAccumulator;
  if (std::strcmp(s, "bloom") == 0) return SchemeKind::kBloom;
  if (std::strcmp(s, "interval") == 0) return SchemeKind::kIntervalAccumulator;
  return SchemeKind::kHybrid;
}

}  // namespace

int main(int argc, char** argv) {
  const char* dir = arg_value(argc, argv, "--dir", nullptr);
  const char* store_dir = arg_value(argc, argv, "--store", nullptr);
  if (dir == nullptr) {
    std::fprintf(stderr,
                 "usage: vcsearch-serve --dir DIR [--store DIR] [--port P] [--scheme S]\n");
    return 2;
  }
  std::uint16_t port = static_cast<std::uint16_t>(
      std::strtoul(arg_value(argc, argv, "--port", "8080"), nullptr, 10));
  SchemeKind scheme = parse_scheme(arg_value(argc, argv, "--scheme", "hybrid"));
  const char* shards_env = std::getenv("VC_SHARDS");
  std::size_t shards = std::strtoul(
      arg_value(argc, argv, "--shards",
                (shards_env != nullptr && *shards_env != '\0') ? shards_env : "1"),
      nullptr, 10);
  if (shards == 0) shards = 1;
  std::size_t max_inflight =
      std::strtoul(arg_value(argc, argv, "--max-inflight", "32"), nullptr, 10);
  if (max_inflight == 0) max_inflight = 1;
  const bool profile = has_flag(argc, argv, "--profile");
  const bool async_publish = has_flag(argc, argv, "--async-publish");
  const std::uint64_t warm_budget_mb =
      std::strtoull(arg_value(argc, argv, "--warm-budget-mb", "16"), nullptr, 10);
  const std::uint64_t warm_budget_bytes =
      async_publish ? warm_budget_mb * 1024 * 1024 : 0;

  // Trace collection: --slow-ms / --trace-capacity override the collector's
  // env-seeded defaults (VC_SLOW_MS / VC_TRACE_CAPACITY, else 250 ms / 128).
  auto& collector = obs::TraceCollector::global();
  if (const char* v = arg_value(argc, argv, "--slow-ms", nullptr); v != nullptr) {
    collector.set_slow_threshold_ns(std::strtoull(v, nullptr, 10) * 1'000'000ull);
  }
  if (const char* v = arg_value(argc, argv, "--trace-capacity", nullptr); v != nullptr) {
    std::size_t cap = std::strtoul(v, nullptr, 10);
    if (cap > 0) collector.configure(cap, collector.slow_threshold_ns(), cap / 2 + 1);
  }
  collector.set_slow_log(true);

  std::filesystem::path base(dir);
  SigningKey cloud_key = SigningKey::load((base / "cloud.key").string());
  SigningKey owner_key = SigningKey::load((base / "owner.key").string());

  // Boot path 1 (cold restart): the store has a published epoch — mmap it
  // and serve without touching the builder artifact.  Per-term signatures
  // in the mapped epoch still guard soundness; the full receipt sweep ran
  // when the epoch was first built and published.
  SnapshotPtr snapshot;
  std::shared_ptr<const FixedBaseSnapshot> restored_fixed_base;
  std::optional<store::EpochStore> store;
  if (store_dir != nullptr) store.emplace(store_dir);
  if (store && store->has_current()) {
    // A corrupt tier section degrades to untiered serving (the tier is a
    // cache over the base sections); base-section corruption still fails.
    store::OpenedEpoch opened =
        store->open_current(store::OpenOptions{.degrade_tier_on_corruption = true,
                                               .warm_budget_bytes = warm_budget_bytes});
    snapshot = opened.snapshot;
    restored_fixed_base = std::move(opened.fixed_base);
    std::printf("store: restored epoch %llu from %s (%zu terms, %.2f MB mapped)\n",
                static_cast<unsigned long long>(snapshot->epoch()), store_dir,
                snapshot->term_count(),
                static_cast<double>(opened.file->size()) / (1024 * 1024));
    if (opened.chain_length > 0) {
      std::printf("store: resolved delta chain (%u deltas on base epoch %llu)\n",
                  opened.chain_length,
                  static_cast<unsigned long long>(opened.base_epoch));
    }
    if (opened.tier != nullptr) {
      std::printf("store: restored witness tier (%zu terms, %.2f MB tables, "
                  "no witness recompute)\n",
                  opened.tier->term_count(),
                  static_cast<double>(opened.tier->table_bytes()) / (1024 * 1024));
    } else if (opened.tier_degraded) {
      std::printf("store: witness tier sections corrupt — serving untiered "
                  "(compute path)\n");
    }
  } else {
    // Boot path 2: load + receipt-check the builder artifact, and seed the
    // store (when given) so the next restart takes path 1.
    IndexBuilder vidx = IndexBuilder::load((base / "index.vc").string());
    vidx.validate(owner_key.verify_key());
    std::printf("index validated: %zu terms, owner key fingerprint %s...\n",
                vidx.term_count(),
                to_hex(owner_key.verify_key().fingerprint()).substr(0, 16).c_str());
    snapshot = vidx.snapshot();
    if (store) {
      auto published = store->publish(*snapshot, static_cast<std::uint32_t>(shards));
      std::printf("store: published epoch %llu to %s\n",
                  static_cast<unsigned long long>(snapshot->epoch()),
                  published.c_str());
    }
  }

  auto cloud_ctx = AccumulatorContext::public_side(AccumulatorParams{
      standard_accumulator_modulus(snapshot->config().modulus_bits).n,
      standard_qr_generator(snapshot->config().modulus_bits)});
  if (restored_fixed_base && restored_fixed_base->base == cloud_ctx.g()) {
    // Skip the fixed-base rebuild squarings CloudService::publish would
    // otherwise pay on every cold start.
    cloud_ctx.adopt_fixed_base(*restored_fixed_base);
    std::printf("store: adopted persisted fixed-base table (%zu-bit capacity)\n",
                restored_fixed_base->capacity_bits);
  }
  ThreadPool pool;
  CloudService cloud(snapshot, cloud_ctx, cloud_key, owner_key.verify_key(), &pool,
                     scheme, shards);
  if (async_publish) {
    // Per-shard publish workers from here on; the boot snapshot is staged
    // once so its warm stage runs off the serving path.
    cloud.enable_async_publish(PublishConfig{.warm_budget_bytes = warm_budget_bytes});
    std::printf("async publish pipeline: %zu shard worker(s), warm budget %llu MB\n",
                shards, static_cast<unsigned long long>(warm_budget_mb));
  }
  HttpFrontend frontend(cloud, port, &pool, max_inflight);
  frontend.start();

  // Background compaction: fold long delta chains back into full snapshots
  // off the serving path.  The worker only ever writes a side file; this
  // process keeps serving its current overlay and the *next* open (restart
  // or publish_from) picks up the compacted snapshot.
  std::optional<store::CompactionWorker> compactor;
  std::uint32_t compact_chain = static_cast<std::uint32_t>(
      std::strtoul(arg_value(argc, argv, "--compact-chain", "4"), nullptr, 10));
  if (store && compact_chain > 0) {
    compactor.emplace(*store,
                      store::CompactionWorker::Options{
                          .max_chain_length = compact_chain,
                          .open = store::OpenOptions{.degrade_tier_on_corruption = true}});
    compactor->start();
    std::printf("store: background compaction at chain length %u\n", compact_chain);
  }
  std::printf("serving %s scheme on http://127.0.0.1:%u "
              "(POST /search, GET /stats, GET /metrics, GET /traces) "
              "epoch=%llu shards=%zu max-inflight=%zu slow-ms=%llu\n",
              scheme_name(scheme), frontend.port(),
              static_cast<unsigned long long>(snapshot->epoch()), shards, max_inflight,
              static_cast<unsigned long long>(collector.slow_threshold_ns() / 1'000'000ull));

  std::fflush(stdout);
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf("shutting down after %llu queries\n",
              static_cast<unsigned long long>(cloud.queries_served()));
  if (compactor) compactor->stop();
  frontend.stop();  // graceful drain: in-flight searches finish first
  if (profile) {
    std::printf("\n--- profile (registry snapshot) ---\n%s",
                obs::render_profile(obs::MetricsRegistry::global()).c_str());
    std::printf("\n--- top 10 slowest sampled traces ---\n%s",
                obs::render_slowest_table(collector, 10).c_str());
    std::fflush(stdout);
  }
  return 0;
}
