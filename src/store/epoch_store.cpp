#include "store/epoch_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "obs/metrics.hpp"
#include "support/stopwatch.hpp"

namespace vc::store {

namespace fs = std::filesystem;

namespace {

obs::Counter& epochs_published() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_store_epochs_published_total", "", "Epochs atomically published to disk");
  return c;
}
obs::Counter& delta_publishes() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_store_delta_publishes_total", "",
      "Delta records atomically published to disk");
  return c;
}
obs::Counter& noop_publishes() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_store_noop_publishes_total", "",
      "publish() calls skipped because CURRENT already held the epoch");
  return c;
}
obs::Counter& delta_opens() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_store_delta_opens_total", "", "Delta records resolved during epoch opens");
  return c;
}
obs::Gauge& chain_length_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "vc_store_chain_length", "",
      "Deltas stacked on the base snapshot at the last epoch open");
  return g;
}
obs::Counter& compaction_runs() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_compaction_runs_total", "", "Delta chains folded into full snapshots");
  return c;
}
obs::Counter& compaction_failures() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "vc_compaction_failures_total", "", "Compaction attempts that threw");
  return c;
}
obs::TimeCounter& compaction_seconds() {
  static obs::TimeCounter& t = obs::MetricsRegistry::global().time_counter(
      "vc_compaction_seconds", "", "Wall time spent folding delta chains");
  return t;
}
obs::Histogram& compaction_stage() {
  static obs::Histogram& h = obs::MetricsRegistry::global().stage("store_compaction");
  return h;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw StoreError(what + ": " + std::strerror(errno));
}

// Crash-point hook for the cold-restart harness: when VC_STORE_CRASH_POINT
// names the point we just reached, die like a SIGKILL would — no unwinding,
// no flushing beyond what the durability protocol already fsynced.
void maybe_crash(const char* point) {
  const char* env = std::getenv("VC_STORE_CRASH_POINT");
  if (env != nullptr && std::strcmp(env, point) == 0) {
    std::fprintf(stderr, "store: crash point %s\n", point);
    std::fflush(stderr);
    ::_exit(137);
  }
}

// Durably writes `data` to `path`: write + fsync + close.  The atomicity
// comes from the caller's rename; this only guarantees the bytes are on
// the platter before the rename makes them reachable.
void write_file_synced(const fs::path& path, std::span<const std::uint8_t> data) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("cannot create " + path.string());
  std::size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      errno = err;
      throw_errno("cannot write " + path.string());
    }
    done += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    errno = err;
    throw_errno("cannot fsync " + path.string());
  }
  ::close(fd);
}

// fsyncs a directory so the entries renamed into it survive a crash.
void sync_dir(const fs::path& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw_errno("cannot open directory " + dir.string());
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    errno = err;
    throw_errno("cannot fsync directory " + dir.string());
  }
  ::close(fd);
}

// "epoch-<20 decimal digits>" -> epoch number, or nullopt.
std::optional<std::uint64_t> parse_epoch_dir(const std::string& name) {
  constexpr std::string_view kPrefix = "epoch-";
  if (name.size() != kPrefix.size() + 20 || name.compare(0, kPrefix.size(), kPrefix) != 0) {
    return std::nullopt;
  }
  std::uint64_t v = 0;
  for (std::size_t i = kPrefix.size(); i < name.size(); ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

}  // namespace

// --- chain overlay -----------------------------------------------------------
//
// The overlay snapshot's term list is the base's with every delta applied
// oldest→newest (touched terms upserted, removed terms dropped); each term
// remembers which layer serves it.  Entry loads dispatch to the newest
// delta that touched the term (lazy parse of its mapped blob) or fall back
// to the base snapshot's own lazy find() — so an
// overlay open stays O(terms) string work, exactly like a plain snapshot
// open, and stacking one more delta on held layers is one linear merge.

struct ChainLayers {
  struct Provider {
    int delta = -1;        // -1: base snapshot; otherwise index into deltas
    std::size_t rank = 0;  // rank within that delta's touched_terms
  };

  fs::path root;           // the store the layers were opened from
  Digest fingerprint{};    // param fingerprint every layer carries
  OpenedEpoch base;        // the full snapshot the chain bottoms out at
  std::vector<std::shared_ptr<const OpenedDelta>> deltas;  // oldest → newest
  std::vector<Provider> providers;  // parallel to the head snapshot's terms
};

namespace {

using Provider = ChainLayers::Provider;

class OverlayEntrySource final : public EntrySource {
 public:
  explicit OverlayEntrySource(std::shared_ptr<const ChainLayers> layers)
      : layers_(std::move(layers)) {}

  [[nodiscard]] std::shared_ptr<const IndexEntry> load(
      std::size_t rank, std::string_view term) const override {
    const Provider& p = layers_->providers[rank];
    if (p.delta >= 0) {
      return layers_->deltas[static_cast<std::size_t>(p.delta)]->source->load(p.rank, term);
    }
    const SnapshotPtr& base = layers_->base.snapshot;
    const IndexEntry* e = base->find(term);
    if (e == nullptr) {
      throw StoreCorruptError("chain base lost term " + std::string(term));
    }
    // Alias the base snapshot's cached entry; the overlay keeps the base
    // alive, so no copy and no second parse.
    return {base, e};
  }

 private:
  std::shared_ptr<const ChainLayers> layers_;
};

// Applies one delta (layer index `layer`) to a sorted term list and its
// providers in one linear merge: touched terms are upserted, removed terms
// dropped.
void merge_delta(std::vector<std::string>& terms, std::vector<Provider>& providers,
                 const OpenedDelta& d, int layer) {
  const std::vector<std::string>& touched = d.touched_terms;
  const std::vector<std::string>& removed = d.removed_terms;
  std::vector<std::string> out_terms;
  std::vector<Provider> out_providers;
  out_terms.reserve(terms.size() + touched.size());
  out_providers.reserve(terms.size() + touched.size());
  std::size_t i = 0, j = 0, k = 0;
  while (i < terms.size() || j < touched.size()) {
    const bool from_delta = i == terms.size() || (j < touched.size() && touched[j] <= terms[i]);
    const std::string& term = from_delta ? touched[j] : terms[i];
    while (k < removed.size() && removed[k] < term) ++k;
    const bool keep = k == removed.size() || removed[k] != term;
    if (from_delta) {
      if (i < terms.size() && terms[i] == term) ++i;  // upsert replaces the older layer
      if (keep) {
        out_terms.push_back(term);
        out_providers.push_back(Provider{layer, j});
      }
      ++j;
    } else {
      if (keep) {
        out_terms.push_back(std::move(terms[i]));
        out_providers.push_back(providers[i]);
      }
      ++i;
    }
  }
  terms = std::move(out_terms);
  providers = std::move(out_providers);
}

// Prime lookups consult the delta sections newest-first, then the base
// epoch's mapped sections.  Representatives are deterministic, so overlap
// between layers is harmless — the first hit wins.
class ChainedPrimeBacking final : public PrimeBacking {
 public:
  explicit ChainedPrimeBacking(std::vector<std::shared_ptr<const PrimeBacking>> tiers)
      : tiers_(std::move(tiers)) {}

  [[nodiscard]] bool lookup(std::uint64_t element, Bigint& out) const override {
    for (const auto& t : tiers_) {
      if (t != nullptr && t->lookup(element, out)) return true;
    }
    return false;
  }

  void for_each(
      const std::function<void(std::uint64_t, const Bigint&)>& fn) const override {
    for (const auto& t : tiers_) {
      if (t != nullptr) t->for_each(fn);
    }
  }

 private:
  std::vector<std::shared_ptr<const PrimeBacking>> tiers_;
};

// Serves the surviving subset of the base epoch's witness tier: tables load
// through the base tier's own lazy path and are shared via aliasing
// pointers.  Terms a delta touched or removed are filtered out before
// construction — their persisted witnesses are stale — which is the
// per-term degradation the chain wants instead of dropping the tier whole.
class SubsetTierSource final : public TierSource {
 public:
  explicit SubsetTierSource(std::shared_ptr<const WitnessTier> base) : base_(std::move(base)) {}

  [[nodiscard]] std::shared_ptr<const TermWitnessTable> load(
      std::size_t /*rank*/, std::string_view term) const override {
    const TermWitnessTable* t = base_->find(term);
    if (t == nullptr) {
      throw StoreCorruptError("base witness tier lost term " + std::string(term));
    }
    return {base_, t};
  }

 private:
  std::shared_ptr<const WitnessTier> base_;
};

}  // namespace

EpochStore::EpochStore(fs::path root) : root_(std::move(root)) {
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec) throw StoreError("cannot create store root " + root_.string() + ": " + ec.message());
}

std::string EpochStore::epoch_dir_name(std::uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "epoch-%020llu", static_cast<unsigned long long>(epoch));
  return buf;
}

fs::path EpochStore::epoch_file(std::uint64_t epoch) const {
  return root_ / epoch_dir_name(epoch) / kSnapshotFile;
}

fs::path EpochStore::delta_file(std::uint64_t epoch) const {
  return root_ / epoch_dir_name(epoch) / kDeltaFile;
}

void EpochStore::advance_current(const std::string& dir_name) {
  const fs::path current_tmp = root_ / (std::string(kCurrentFile) + ".tmp");
  const std::string pointer = dir_name + "\n";
  write_file_synced(current_tmp,
                    {reinterpret_cast<const std::uint8_t*>(pointer.data()), pointer.size()});
  std::error_code ec;
  fs::rename(current_tmp, root_ / kCurrentFile, ec);
  if (ec) throw StoreError("cannot advance CURRENT: " + ec.message());
  sync_dir(root_);
}

fs::path EpochStore::publish(const IndexSnapshot& snap, std::uint32_t shard_count,
                             const TierArtifacts* tier) {
  const std::string dir_name = epoch_dir_name(snap.epoch());
  const fs::path target = root_ / dir_name;

  if (fs::exists(target / kSnapshotFile) && has_current()) {
    // True no-op: the epoch is durable and CURRENT already points at it —
    // re-serializing an identical file buys nothing.  A stale or damaged
    // pointer falls through to the normal path, which repairs it.
    try {
      if (read_current_name() == dir_name) {
        noop_publishes().inc();
        return target;
      }
    } catch (const StoreError&) {
    }
  }

  if (!fs::exists(target / kSnapshotFile)) {
    Bytes data = encode_snapshot(snap, shard_count, tier);
    // Stage in a hidden temp directory; the pid suffix keeps concurrent
    // publishers (two owner processes on one store) from colliding.
    const fs::path tmp =
        root_ / (".tmp-" + dir_name + "-" + std::to_string(::getpid()));
    fs::remove_all(tmp);
    fs::create_directories(tmp);
    write_file_synced(tmp / kSnapshotFile, data);
    sync_dir(tmp);
    std::error_code ec;
    fs::rename(tmp, target, ec);
    if (ec) {
      // Lost a race to another publisher of the same epoch: their complete
      // directory is as good as ours.
      if (!fs::exists(target / kSnapshotFile)) {
        throw StoreError("cannot publish " + target.string() + ": " + ec.message());
      }
      fs::remove_all(tmp);
    }
    sync_dir(root_);
  }

  // Advance CURRENT via the same write-then-rename dance.
  advance_current(dir_name);
  epochs_published().inc();
  return target;
}

fs::path EpochStore::publish_delta(const IndexDelta& delta, std::uint32_t shard_count) {
  // A delta that cannot resolve would brick CURRENT: its base must already
  // be on disk (as a snapshot or as an earlier delta).
  if (!fs::exists(epoch_file(delta.base_epoch)) && !fs::exists(delta_file(delta.base_epoch))) {
    throw StoreChainError("base epoch " + std::to_string(delta.base_epoch) +
                          " is not in " + root_.string());
  }
  const std::string dir_name = epoch_dir_name(delta.epoch);
  const fs::path target = root_ / dir_name;

  if (!fs::exists(target / kDeltaFile) && !fs::exists(target / kSnapshotFile)) {
    Bytes data = encode_delta(delta, shard_count);
    const fs::path tmp =
        root_ / (".tmp-" + dir_name + "-" + std::to_string(::getpid()));
    fs::remove_all(tmp);
    fs::create_directories(tmp);
    write_file_synced(tmp / kDeltaFile, data);
    sync_dir(tmp);
    maybe_crash("delta-staged");
    std::error_code ec;
    fs::rename(tmp, target, ec);
    if (ec) {
      if (!fs::exists(target / kDeltaFile) && !fs::exists(target / kSnapshotFile)) {
        throw StoreError("cannot publish delta " + target.string() + ": " + ec.message());
      }
      fs::remove_all(tmp);
    }
    sync_dir(root_);
  }

  maybe_crash("delta-current");
  advance_current(dir_name);
  delta_publishes().inc();
  return target;
}

bool EpochStore::has_current() const { return fs::exists(root_ / kCurrentFile); }

std::string EpochStore::read_current_name() const {
  std::ifstream in(root_ / kCurrentFile);
  if (!in) throw StoreCurrentError("missing in " + root_.string());
  std::string name;
  std::getline(in, name);
  if (!parse_epoch_dir(name)) {
    throw StoreCurrentError("malformed content \"" + name + "\"");
  }
  if (!fs::exists(root_ / name / kSnapshotFile) && !fs::exists(root_ / name / kDeltaFile)) {
    throw StoreCurrentError("stale: names missing epoch " + name);
  }
  return name;
}

std::optional<std::uint64_t> EpochStore::current_epoch() const {
  if (!has_current()) return std::nullopt;
  return parse_epoch_dir(read_current_name());
}

std::vector<std::uint64_t> EpochStore::epochs() const {
  std::vector<std::uint64_t> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    if (!entry.is_directory()) continue;
    if (auto e = parse_epoch_dir(entry.path().filename().string())) {
      if (fs::exists(entry.path() / kSnapshotFile) || fs::exists(entry.path() / kDeltaFile)) {
        out.push_back(*e);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

OpenedEpoch EpochStore::open_current(const Digest* expected_fingerprint) const {
  return open_current(OpenOptions{.expected_fingerprint = expected_fingerprint});
}

OpenedEpoch EpochStore::open_epoch(std::uint64_t epoch,
                                   const Digest* expected_fingerprint) const {
  return open_epoch(epoch, OpenOptions{.expected_fingerprint = expected_fingerprint});
}

OpenedEpoch EpochStore::open_current(const OpenOptions& options,
                                     const OpenedEpoch* held) const {
  // read_current_name() has already checked that the epoch is on disk.
  return resolve_chain(*parse_epoch_dir(read_current_name()), options, held);
}

OpenedEpoch EpochStore::open_epoch(std::uint64_t epoch, const OpenOptions& options) const {
  if (!fs::exists(epoch_file(epoch)) && !fs::exists(delta_file(epoch))) {
    throw StoreError("epoch " + std::to_string(epoch) + " is not in " + root_.string());
  }
  return resolve_chain(epoch, options, nullptr);
}

OpenedEpoch EpochStore::resolve_chain(std::uint64_t head, const OpenOptions& options,
                                      const OpenedEpoch* held) const {
  const ChainLayers* prev = held != nullptr ? held->layers.get() : nullptr;
  if (prev != nullptr && prev->root != root_) prev = nullptr;
  const std::uint64_t prev_head = prev != nullptr ? held->snapshot->epoch() : 0;

  // Walk base links down to a full snapshot — or to the held head — newest
  // delta first.  Every layer must carry the same param fingerprint as the
  // head; the walk must strictly descend and stay under the length cap.
  std::vector<std::shared_ptr<const OpenedDelta>> fresh;
  Digest chain_fp{};
  OpenOptions layer_options = options;
  // Warming the base snapshot would prime entries the overlay may shadow;
  // the overlay itself is warmed once, below.
  layer_options.warm_budget_bytes = 0;
  bool stacked = false;
  std::uint64_t epoch = head;
  for (;;) {
    if (prev != nullptr && epoch == prev_head) {
      // Stack on the held layers unless the held head was compacted since
      // (a held plain snapshot is its own base), the stacked chain would
      // pass the cap, or the parameters differ.
      const Digest& want = fresh.empty() ? prev->fingerprint : chain_fp;
      stacked = (prev->deltas.empty() || !fs::exists(epoch_file(epoch))) &&
                prev->deltas.size() + fresh.size() <= kMaxChainLength &&
                prev->fingerprint == want &&
                (options.expected_fingerprint == nullptr ||
                 *options.expected_fingerprint == prev->fingerprint);
      if (stacked) break;
      prev = nullptr;
    }
    if (fs::exists(epoch_file(epoch))) break;
    const fs::path path = delta_file(epoch);
    if (!fs::exists(path)) {
      throw StoreChainError("epoch " + std::to_string(epoch) +
                            " is missing (chain head " + std::to_string(head) + ")");
    }
    if (fresh.size() >= kMaxChainLength) {
      throw StoreChainError("chain from epoch " + std::to_string(head) + " exceeds " +
                            std::to_string(kMaxChainLength) + " deltas");
    }
    OpenedDelta d = open_delta(std::make_shared<const MappedFile>(path), layer_options);
    delta_opens().inc();
    if (d.epoch != epoch) {
      throw StoreCorruptError("delta in " + epoch_dir_name(epoch) + " claims epoch " +
                              std::to_string(d.epoch));
    }
    if (fresh.empty()) {
      chain_fp = d.fingerprint;
      // Deeper layers (and the base) must match the head's parameters even
      // when the caller did not pin a fingerprint.
      if (layer_options.expected_fingerprint == nullptr) {
        layer_options.expected_fingerprint = &chain_fp;
      }
    }
    epoch = d.base_epoch;  // open_delta guarantees base_epoch < epoch
    fresh.push_back(std::make_shared<const OpenedDelta>(std::move(d)));
  }
  std::reverse(fresh.begin(), fresh.end());  // oldest → newest

  if (stacked && fresh.empty()) {
    chain_length_gauge().set(held->chain_length);
    return *held;  // CURRENT has not moved past the held epoch
  }

  // Start from the held layers, or from the base snapshot with every term
  // served by it; then merge the freshly opened deltas in, oldest first.
  auto layers = std::make_shared<ChainLayers>();
  layers->root = root_;
  if (stacked) {
    layers->fingerprint = prev->fingerprint;
    layers->base = prev->base;
    layers->deltas = prev->deltas;
    layers->providers = prev->providers;
  } else {
    auto base_file = std::make_shared<const MappedFile>(epoch_file(epoch));
    layers->base = open_snapshot(std::move(base_file), fresh.empty() ? options : layer_options);
    layers->fingerprint =
        fresh.empty() ? param_fingerprint(layers->base.snapshot->config()) : chain_fp;
    layers->providers.assign(layers->base.snapshot->term_count(), Provider{});
    if (fresh.empty()) {
      // A plain snapshot head: the base itself, carrying its layers for the
      // next open to stack on.
      OpenedEpoch out = layers->base;
      out.layers = std::move(layers);
      chain_length_gauge().set(0);
      return out;
    }
  }
  const OpenedEpoch& base = layers->base;
  const OpenedEpoch& below = stacked ? *held : base;
  std::vector<std::string> terms;
  terms.reserve(below.snapshot->term_count());
  for (const auto& [term, unused] : below.snapshot->entries()) terms.push_back(term);
  for (const auto& d : fresh) {
    merge_delta(terms, layers->providers, *d, static_cast<int>(layers->deltas.size()));
    layers->deltas.push_back(d);
  }
  // Witness tier: keep the base's tables for terms no delta touched or
  // removed — their sets are unchanged, so the persisted witnesses are
  // still the unique residues.  Touched terms degrade to the compute path.
  std::vector<std::string> tier_terms;
  if (below.tier != nullptr) tier_terms = below.tier->terms();
  std::erase_if(tier_terms, [&](const std::string& term) {
    return std::any_of(fresh.begin(), fresh.end(), [&](const auto& d) {
      return std::binary_search(d->touched_terms.begin(), d->touched_terms.end(), term) ||
             std::binary_search(d->removed_terms.begin(), d->removed_terms.end(), term);
    });
  });

  // Newest-first prime resolution: delta sections, then the base mapping.
  std::vector<std::shared_ptr<const PrimeBacking>> tuple_tiers, doc_tiers;
  for (auto it = layers->deltas.rbegin(); it != layers->deltas.rend(); ++it) {
    tuple_tiers.push_back((*it)->tuple_primes);
    doc_tiers.push_back((*it)->doc_primes);
  }
  tuple_tiers.push_back(base.snapshot->tuple_primes().backing());
  doc_tiers.push_back(base.snapshot->doc_primes().backing());
  const VerifiableIndexConfig& config = base.snapshot->config();
  auto tuple_primes = std::make_shared<PrimeCache>(config.tuple_prime_config());
  tuple_primes->set_backing(std::make_shared<const ChainedPrimeBacking>(std::move(tuple_tiers)));
  auto doc_primes = std::make_shared<PrimeCache>(config.doc_prime_config());
  doc_primes->set_backing(std::make_shared<const ChainedPrimeBacking>(std::move(doc_tiers)));

  // Dictionary: the newest delta that rebuilt it, else the base's (aliased —
  // the base snapshot keeps it alive).
  std::shared_ptr<const DictionaryIntervals> dict;
  std::shared_ptr<const DictAttestation> dict_att;
  for (auto it = layers->deltas.rbegin(); it != layers->deltas.rend(); ++it) {
    if ((*it)->dict_changed) {
      dict = (*it)->dict;
      dict_att = (*it)->dict_attestation;
      break;
    }
  }
  if (dict == nullptr) {
    dict = {base.snapshot, &base.snapshot->dictionary()};
    dict_att = {base.snapshot, &base.snapshot->dict_attestation()};
  }

  const OpenedDelta& newest = *layers->deltas.back();
  OpenedEpoch out;
  out.snapshot = std::make_shared<const IndexSnapshot>(
      config, head, std::move(terms), std::make_shared<const OverlayEntrySource>(layers),
      newest.max_posting_count, std::move(dict), std::move(dict_att),
      std::move(tuple_primes), std::move(doc_primes));
  out.tier_degraded = base.tier_degraded;
  if (base.tier != nullptr) {
    if (!tier_terms.empty()) {
      out.tier = std::make_shared<const WitnessTier>(
          std::move(tier_terms), std::make_shared<const SubsetTierSource>(base.tier),
          base.tier->table_bytes());
      out.snapshot->attach_tier(out.tier);
    }
    out.fixed_base = base.fixed_base;
  }
  out.shard_count = newest.shard_count;
  out.file = base.file;
  out.base_epoch = base.snapshot->epoch();
  out.chain_length = static_cast<std::uint32_t>(layers->deltas.size());
  out.layers = std::move(layers);
  chain_length_gauge().set(static_cast<std::int64_t>(out.chain_length));
  if (options.warm_budget_bytes > 0 && out.tier != nullptr) {
    warm_epoch(*out.snapshot, out.tier.get(), out.tier->terms(),
               options.warm_budget_bytes);
  }
  return out;
}

std::optional<std::uint64_t> EpochStore::compact(std::uint32_t min_chain_length,
                                                 const OpenOptions& options) {
  if (!has_current()) return std::nullopt;
  OpenedEpoch head = open_current(options);
  if (head.chain_length < std::max<std::uint32_t>(1, min_chain_length)) return std::nullopt;

  Stopwatch timer;
  obs::Span span(compaction_stage(), "store_compaction");
  // Materialize the overlay into one full snapshot.  The surviving witness
  // tier and the base's fixed-base table ride along (format v2) so the
  // compacted epoch keeps its zero-modexp hot path.
  TierArtifacts arts;
  const TierArtifacts* tier = nullptr;
  if (head.tier != nullptr && head.fixed_base != nullptr) {
    arts.tier = head.tier;
    arts.fixed_base = *head.fixed_base;
    tier = &arts;
  }
  Bytes data = encode_snapshot(*head.snapshot, head.shard_count, tier);

  // File-level atomic: stage next to the target and rename.  CURRENT never
  // moves; the open path simply starts preferring the snapshot over the
  // chain.  A crash before the rename leaves a .tmp nothing reads and the
  // chain still resolves.
  const std::uint64_t epoch = head.snapshot->epoch();
  const fs::path dir = root_ / epoch_dir_name(epoch);
  const fs::path tmp = dir / (std::string(kSnapshotFile) + ".tmp-" +
                              std::to_string(::getpid()));
  write_file_synced(tmp, data);
  maybe_crash("compact-staged");
  std::error_code ec;
  fs::rename(tmp, dir / kSnapshotFile, ec);
  if (ec) {
    std::error_code ignore;
    fs::remove(tmp, ignore);
    throw StoreError("cannot install compacted snapshot " + (dir / kSnapshotFile).string() +
                     ": " + ec.message());
  }
  sync_dir(dir);
  compaction_runs().inc();
  compaction_seconds().add(timer.seconds());
  return epoch;
}

std::vector<EpochStore::ChainLink> EpochStore::current_chain() const {
  std::vector<ChainLink> out;
  std::uint64_t epoch = *parse_epoch_dir(read_current_name());
  while (true) {
    const fs::path snap = epoch_file(epoch);
    const fs::path delta = delta_file(epoch);
    if (fs::exists(snap)) {
      out.push_back(ChainLink{.epoch = epoch, .is_delta = false,
                              .compacted = fs::exists(delta), .file = snap});
      return out;
    }
    if (!fs::exists(delta)) {
      throw StoreChainError("epoch " + std::to_string(epoch) + " is missing");
    }
    if (out.size() >= kMaxChainLength) {
      throw StoreChainError("chain exceeds " + std::to_string(kMaxChainLength) + " deltas");
    }
    out.push_back(ChainLink{.epoch = epoch, .is_delta = true, .file = delta});
    StoreFileInfo info = inspect_file(MappedFile(delta));
    if (info.delta_base_epoch == 0 || info.delta_base_epoch >= epoch) {
      throw StoreChainError("delta in " + epoch_dir_name(epoch) +
                            " has unreadable or non-descending base epoch");
    }
    epoch = info.delta_base_epoch;
  }
}

// --- background compaction ---------------------------------------------------

CompactionWorker::CompactionWorker(EpochStore& store, Options options)
    : store_(store), options_(options) {}

CompactionWorker::~CompactionWorker() { stop(); }

void CompactionWorker::start() {
  std::lock_guard lock(mu_);
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this] { loop(); });
}

void CompactionWorker::stop() {
  {
    std::lock_guard lock(mu_);
    if (!thread_.joinable()) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

std::optional<std::uint64_t> CompactionWorker::run_once() {
  try {
    auto compacted = store_.compact(options_.max_chain_length, options_.open);
    if (compacted.has_value()) runs_.fetch_add(1, std::memory_order_relaxed);
    return compacted;
  } catch (const std::exception& e) {
    compaction_failures().inc();
    std::fprintf(stderr, "store: compaction failed: %s\n", e.what());
    return std::nullopt;
  }
}

void CompactionWorker::loop() {
  std::unique_lock lock(mu_);
  while (!stop_) {
    if (cv_.wait_for(lock, std::chrono::milliseconds(options_.poll_interval_ms),
                     [this] { return stop_; })) {
      return;
    }
    lock.unlock();
    run_once();
    lock.lock();
  }
}

}  // namespace vc::store
