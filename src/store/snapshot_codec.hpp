// Serialization of IndexSnapshot to/from the epoch-file layout (format.hpp).
//
// encode_snapshot() flattens a frozen snapshot — per-term entries, the
// dictionary gap structure, both prime caches — into one self-describing
// buffer.  open_snapshot() is the other direction, but deliberately NOT a
// full parse: it validates the header, section CRCs and param fingerprint,
// eagerly decodes only the small sections (config, dictionary, term
// directory), and hands back a lazy IndexSnapshot whose per-term entries
// and prime representatives materialize from the mapping on first touch.
// Cold-start cost is therefore O(terms) string table + O(touched terms)
// entry parses, not O(index bytes).
#pragma once

#include <memory>
#include <vector>

#include "hash/sha256.hpp"
#include "store/format.hpp"
#include "store/mapped_file.hpp"
#include "vindex/index_snapshot.hpp"
#include "vindex/witness_tier.hpp"

namespace vc::store {

// SHA-256 of the canonical VerifiableIndexConfig encoding; stamped into the
// header so mixing epochs across parameter sets fails before any payload
// parse.
Digest param_fingerprint(const VerifiableIndexConfig& config);

// Publish-time witness-tier payloads riding along with a snapshot.  Their
// presence switches the file to format v2 (sections 7–9); a null tier keeps
// the file at v1, byte-identical to a tier-unaware writer.
struct TierArtifacts {
  std::shared_ptr<const WitnessTier> tier;
  FixedBaseSnapshot fixed_base;
};

// Serializes `snap` into the epoch-file byte layout.  `shard_count` records
// the serving topology the epoch was published under (informational; the
// serving side may re-shard).
Bytes encode_snapshot(const IndexSnapshot& snap, std::uint32_t shard_count,
                      const TierArtifacts* tier = nullptr);

// The layers an EpochStore open resolved: base snapshot, opened delta
// records and which layer serves each term (defined in epoch_store.cpp).
struct ChainLayers;

// A validated, opened epoch.  The snapshot holds the mapping alive through
// shared_ptr, so the OpenedEpoch struct itself may be discarded.
struct OpenedEpoch {
  SnapshotPtr snapshot;
  std::uint32_t shard_count = 0;
  std::shared_ptr<const MappedFile> file;
  // v2 files only: the lazy mapped witness tier (already attached to the
  // snapshot) and the persisted fixed-base table for the serving context to
  // adopt instead of rebuilding.  Shared, not copied, by every epoch stacked
  // on the same base.
  std::shared_ptr<const WitnessTier> tier;
  std::shared_ptr<const FixedBaseSnapshot> fixed_base;
  // True when tier sections were dropped under degrade_tier_on_corruption.
  bool tier_degraded = false;
  // Chain provenance (EpochStore::open_*): the full snapshot the resolution
  // bottomed out at and the number of delta records applied on top of it.
  // A directly opened snapshot file has base_epoch == snapshot->epoch() and
  // chain_length == 0.
  std::uint64_t base_epoch = 0;
  std::uint32_t chain_length = 0;
  // Set by EpochStore opens only: what a later open of a descendant epoch
  // stacks its new delta records on (EpochStore::open_current's `held`).
  std::shared_ptr<const ChainLayers> layers;
};

struct OpenOptions {
  // Non-null: the file's param fingerprint must match (StoreParamMismatchError).
  const Digest* expected_fingerprint = nullptr;
  // Reject files newer than this (tests use it to emulate a pre-v2 reader;
  // a real old binary takes the same StoreCorruptError path).
  std::uint32_t max_format_version = kMaxFormatVersion;
  // On a tier-section CRC failure, serve the epoch untiered (compute path)
  // instead of failing the open — the tier is a cache, the base sections
  // are the data.  Base-section corruption still throws.
  bool degrade_tier_on_corruption = false;
  // Warm-on-open: pre-materialize tiered terms' witness tables and index
  // entries (hottest-first per the tier's publish-time order) until this
  // many bytes are resident, so a cold restart's first queries skip the
  // lazy call_once path.  0 disables.  Warming is an optimization — it
  // never affects what the open returns, only when the decode cost is paid.
  std::uint64_t warm_budget_bytes = 0;
};

// Pre-materializes tier tables and entries of `warm_terms` (in order) from
// an already-opened epoch until `budget_bytes` of stored payload is
// resident; returns the terms warmed.  Shared by the open path above and
// CloudService's publish-pipeline warm stage.
std::size_t warm_epoch(const IndexSnapshot& snap, const WitnessTier* tier,
                       const std::vector<std::string>& warm_terms,
                       std::uint64_t budget_bytes);

// Validates every structural invariant (magic, version, size, table CRC,
// section bounds, per-section CRCs, fingerprint-vs-config) and returns the
// lazy snapshot.  Throws the distinct StoreError subclasses on rejection;
// when `expected_fingerprint` is non-null it must additionally match the
// file's (StoreParamMismatchError otherwise).
OpenedEpoch open_snapshot(std::shared_ptr<const MappedFile> file, OpenOptions options);
inline OpenedEpoch open_snapshot(std::shared_ptr<const MappedFile> file,
                                 const Digest* expected_fingerprint = nullptr) {
  return open_snapshot(std::move(file),
                       OpenOptions{.expected_fingerprint = expected_fingerprint});
}

// Header/section dump for tooling (vcsearch-inspect).  Checks structure and
// CRCs but never decodes payloads; `crc_ok` is per-section.
struct SectionInfo {
  SectionId id{};
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
  bool crc_ok = false;
};
struct StoreFileInfo {
  std::uint32_t format_version = 0;
  std::uint64_t epoch = 0;
  std::uint32_t shard_count = 0;
  Digest param_fingerprint{};
  std::uint64_t file_bytes = 0;
  std::vector<SectionInfo> sections;
  // v2 files with an intact tier directory: tiered term count and the total
  // encoded witness-table bytes it declares.
  std::uint64_t tier_terms = 0;
  std::uint64_t tier_table_bytes = 0;
  // v3 delta records with intact meta/directory sections: the chain
  // predecessor and the per-record touched/removed term counts.
  std::uint64_t delta_base_epoch = 0;
  std::uint64_t delta_touched_terms = 0;
  std::uint64_t delta_removed_terms = 0;
};
StoreFileInfo inspect_file(const MappedFile& file);

}  // namespace vc::store
