// Persistent, crash-safe store of published epochs.
//
// Directory layout under the store root:
//
//   root/
//     CURRENT                      -> "epoch-00000000000000000042\n"
//     epoch-00000000000000000042/
//       snapshot.vcs               (format v1/v2: full snapshot)
//     epoch-00000000000000000043/
//       delta.vcd                  (format v3: journal of one mutation)
//     epoch-00000000000000000044/
//       delta.vcd
//       snapshot.vcs               (written later by compaction)
//
// Publication is atomic at two levels.  The epoch file is written into a
// hidden temp directory, fsynced, and the whole directory rename(2)d into
// place — a crash mid-write leaves only a temp directory that no reader
// ever looks at.  The CURRENT pointer is then replaced by writing
// CURRENT.tmp and renaming it over CURRENT — readers see either the old
// epoch or the new one, never a torn pointer.  A cold restart therefore
// always finds a complete, checksummed epoch (or an empty store).
//
// Log-structured deltas: publish_delta() ships one mutation's touched terms
// as a format-v3 record chained to its base epoch, so publish cost is
// O(touched) instead of O(index).  open_current()/open_epoch() resolve a
// delta head transparently — walk base_epoch links down to a full snapshot
// (strictly descending, length-capped) and serve a lazy overlay
// IndexSnapshot whose per-term lookups dispatch to the newest delta that
// touched the term, falling back to the base mapping.  Given the epoch it
// already serves, an open stops at that epoch and stacks only the newer
// deltas on it.  compact() folds a chain back into a full snapshot written
// *into the head epoch's directory* (file-level atomic rename; CURRENT
// never moves), which the open path then prefers over re-walking the chain
// — crash-safe because until the rename lands, resolution still works off
// the intact chain.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "store/delta_codec.hpp"
#include "store/snapshot_codec.hpp"

namespace vc::store {

class EpochStore {
 public:
  // Opens (creating if needed) the store rooted at `root`.
  explicit EpochStore(std::filesystem::path root);

  [[nodiscard]] const std::filesystem::path& root() const { return root_; }

  // Serializes `snap` and atomically publishes it as its epoch, advancing
  // CURRENT.  Re-publishing an epoch that is already on disk only advances
  // the pointer (the existing file is trusted — it was fsynced before its
  // rename), and when CURRENT already points at it the call is a true no-op
  // (counted in vc_store_noop_publishes_total).  A non-null `tier` persists
  // the materialized witness tier and fixed-base table alongside (format
  // v2; see snapshot_codec.hpp).  Returns the epoch directory.
  std::filesystem::path publish(const IndexSnapshot& snap, std::uint32_t shard_count,
                                const TierArtifacts* tier = nullptr);

  // Atomically publishes one delta record (IndexBuilder::publish_delta) and
  // advances CURRENT to it.  The base epoch must already be on disk — a
  // dangling delta would brick the pointer.  Same staging/fsync/rename
  // protocol as publish().  Returns the epoch directory.
  std::filesystem::path publish_delta(const IndexDelta& delta, std::uint32_t shard_count);

  // True when CURRENT exists (the store has at least one published epoch).
  [[nodiscard]] bool has_current() const;

  // Epoch number CURRENT points at; nullopt when the store is empty.
  // Throws StoreCurrentError when CURRENT exists but is malformed or names
  // a directory that is not on disk (a stale pointer).
  [[nodiscard]] std::optional<std::uint64_t> current_epoch() const;

  // All epochs present on disk, ascending (published or not yet pointed
  // at; full snapshots and delta records alike).
  [[nodiscard]] std::vector<std::uint64_t> epochs() const;

  // Opens the epoch CURRENT points at / a specific epoch, fully validated
  // (see open_snapshot), resolving a delta chain into an overlay snapshot
  // when the epoch is a delta head.  Throws StoreCurrentError when the
  // pointer is missing or stale, StoreChainError when a chain cannot be
  // resolved.
  [[nodiscard]] OpenedEpoch open_current(const Digest* expected_fingerprint = nullptr) const;
  [[nodiscard]] OpenedEpoch open_epoch(std::uint64_t epoch,
                                       const Digest* expected_fingerprint = nullptr) const;
  // Full-option forms (max_format_version, tier degradation; see OpenOptions).
  //
  // `held`, when non-null, is an epoch an earlier open of this store
  // returned (the serving core's current one, opened with the same
  // options).  The walk down from the new head then stops at the held head:
  // only the delta records published since are opened and CRC-checked, and
  // they are stacked onto the held layers — O(delta), not O(index).  The
  // walk goes on to a full resolve instead when the held head has since been
  // compacted (re-base: the held chain never outgrows the store's), when
  // stacking would pass kMaxChainLength, or when the held epoch comes from
  // another store or parameter set.  Either way the result is the epoch a
  // cold open returns.
  [[nodiscard]] OpenedEpoch open_current(const OpenOptions& options,
                                         const OpenedEpoch* held = nullptr) const;
  [[nodiscard]] OpenedEpoch open_epoch(std::uint64_t epoch, const OpenOptions& options) const;

  // Folds CURRENT's delta chain into a full snapshot when it is at least
  // `min_chain_length` deltas long, writing snapshot.vcs into the head
  // epoch's directory (file-level atomic; CURRENT untouched; serving is
  // never blocked — readers keep resolving the chain until the rename
  // lands, and both routes produce byte-identical proofs).  Returns the
  // compacted epoch, or nullopt when there was nothing to do.
  std::optional<std::uint64_t> compact(std::uint32_t min_chain_length = 1,
                                       const OpenOptions& options = {});

  // One link of CURRENT's chain, head first, base last (tooling; see
  // vcsearch-inspect --store).  A compacted head carries both files and
  // terminates the walk as a snapshot link with `compacted` set.
  struct ChainLink {
    std::uint64_t epoch = 0;
    bool is_delta = false;   // resolved as a delta record
    bool compacted = false;  // snapshot link whose directory also holds a delta
    std::filesystem::path file;
  };
  [[nodiscard]] std::vector<ChainLink> current_chain() const;

  // Paths of an epoch's files (existing or not).
  [[nodiscard]] std::filesystem::path epoch_file(std::uint64_t epoch) const;
  [[nodiscard]] std::filesystem::path delta_file(std::uint64_t epoch) const;

  static constexpr const char* kSnapshotFile = "snapshot.vcs";
  static constexpr const char* kDeltaFile = "delta.vcd";
  static constexpr const char* kCurrentFile = "CURRENT";
  // Deltas applied on top of a base snapshot before resolution refuses.
  static constexpr std::uint32_t kMaxChainLength = 64;
  // Zero-padded so lexicographic directory order is epoch order.
  static std::string epoch_dir_name(std::uint64_t epoch);

 private:
  [[nodiscard]] std::string read_current_name() const;  // throws if missing/bad
  void advance_current(const std::string& dir_name);
  [[nodiscard]] OpenedEpoch resolve_chain(std::uint64_t head, const OpenOptions& options,
                                          const OpenedEpoch* held) const;

  std::filesystem::path root_;
};

// Background compaction: polls the store and folds CURRENT's chain into a
// full snapshot whenever it reaches `max_chain_length` deltas.  Runs off
// the serving path — vcsearch-serve owns one next to its query threads; the
// worker only ever writes a side file and readers swap to it on their next
// open, so serving is never blocked.
class CompactionWorker {
 public:
  struct Options {
    std::uint32_t max_chain_length = 4;          // compact at this many deltas
    std::uint64_t poll_interval_ms = 2000;
    OpenOptions open;                            // degrade flags etc.
  };

  CompactionWorker(EpochStore& store, Options options);
  ~CompactionWorker();  // stops the thread

  void start();
  void stop();

  // One synchronous compaction check (tests and tools); returns the epoch
  // compacted, nullopt when the chain is below threshold.  Errors are
  // swallowed into vc_compaction_failures_total — compaction is an
  // optimization, never a correctness dependency.
  std::optional<std::uint64_t> run_once();

  [[nodiscard]] std::uint64_t runs() const { return runs_; }

 private:
  void loop();

  EpochStore& store_;
  Options options_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<std::uint64_t> runs_{0};
};

}  // namespace vc::store
