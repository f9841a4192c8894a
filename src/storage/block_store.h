// Per-node storage: every node keeps all headers (cheap) plus the block
// bodies it is responsible for. Accounting is byte-accurate over the wire
// encodings — the quantity the paper's storage experiments compare.
//
// Bodies live behind a pluggable StorageBackend (storage/backend.h): the
// default MemBackend shares one immutable Block object across the fleet
// with zero IO; the DiskBackend persists bodies in append-only segment
// files behind an async write queue (docs/STORAGE.md). The store's byte
// accounting is backend-independent — it reflects what a real node would
// persist either way.
//
// The write API is one entry point: put(StoredBlock&&), where a StoredBlock
// is either header-only or carries a body wrapped in a HashedBlock (hash
// computed exactly once, at wrap time). Reads hand out BlockRef — a handle
// that works for in-memory and disk-backed storage and reports the
// simulated IO cost the caller should charge before acting on the bytes.
// Serve paths take a `const BlockStore&`: reads only.
//
// Headers are interned in a HeaderIndex — by default a private one (so a
// standalone store behaves exactly as before), but the network facades pass
// every node's store one SHARED index, so a fleet of N nodes holding B
// headers costs B header objects plus N tiny occupancy bitmaps instead of
// N x B map entries. header_bytes() still reports what THIS node persists.
//
// Accounting scalars (body bytes, header count) live in a NodeStorageTally
// slot — private by default, or one row of the facade's FleetTally when
// bind_tally() was called (struct-of-arrays; see fleet_tally.h).
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "chain/block.h"
#include "storage/backend.h"
#include "storage/fleet_tally.h"
#include "storage/header_index.h"
#include "storage/mem_backend.h"

namespace ici {

/// A body plus its precomputed hash — the single point on the storage path
/// where block hashing happens. Callers that already know the hash (codec,
/// bulk-load, sync) pass it through; the others pay SHA-256 exactly once.
class HashedBlock {
 public:
  explicit HashedBlock(std::shared_ptr<const Block> block)
      : hash_(block->hash()), block_(std::move(block)) {}
  HashedBlock(std::shared_ptr<const Block> block, const Hash256& hash)
      : hash_(hash), block_(std::move(block)) {}
  explicit HashedBlock(const Block& block)
      : HashedBlock(std::make_shared<const Block>(block)) {}
  HashedBlock(const Block& block, const Hash256& hash)
      : hash_(hash), block_(std::make_shared<const Block>(block)) {}

  [[nodiscard]] const Hash256& hash() const { return hash_; }
  [[nodiscard]] const std::shared_ptr<const Block>& body() const { return block_; }
  [[nodiscard]] std::shared_ptr<const Block> take() && { return std::move(block_); }

 private:
  Hash256 hash_;
  std::shared_ptr<const Block> block_;
};

/// What one BlockStore::put admits: a header (always recorded) plus an
/// optional body. Build with StoredBlock::header_only(...) or implicitly
/// from a HashedBlock — there is no constructor taking a bare Block, so a
/// hash can never be recomputed behind the caller's back.
struct StoredBlock {
  BlockHeader header;
  Hash256 hash;
  std::shared_ptr<const Block> body;  // null = header-only

  // NOLINTNEXTLINE(google-explicit-constructor): put(HashedBlock{...}) is the API.
  StoredBlock(HashedBlock hb)
      : header(hb.body()->header()), hash(hb.hash()), body(std::move(hb).take()) {}

  [[nodiscard]] static StoredBlock header_only(const BlockHeader& h) {
    return StoredBlock(h, h.hash());
  }
  [[nodiscard]] static StoredBlock header_only(const BlockHeader& h, const Hash256& hash) {
    return StoredBlock(h, hash);
  }

 private:
  StoredBlock(const BlockHeader& h, const Hash256& hs) : header(h), hash(hs) {}
};

/// Read handle for one body lookup. Works for in-memory and disk-backed
/// stores: `cold`/`io_delay_us` report whether the bytes came off
/// persistent media and the simulated IO delay the caller should charge
/// (always 0 for MemBackend, so mem runs stay event-identical to the
/// pre-backend layout).
struct BlockRef {
  std::shared_ptr<const Block> block;
  bool cold = false;
  std::uint64_t io_delay_us = 0;

  [[nodiscard]] const Block* get() const { return block.get(); }
  [[nodiscard]] const Block& operator*() const { return *block; }
  [[nodiscard]] const Block* operator->() const { return block.get(); }
  explicit operator bool() const { return block != nullptr; }
  /// Ownership-sharing escape hatch (the old block_ptr); keeps the body
  /// alive past the store, e.g. inside a response message.
  [[nodiscard]] std::shared_ptr<const Block> share() const { return block; }
};

class BlockStore {
 public:
  /// Standalone store with its own private header index.
  BlockStore() : index_(std::make_shared<HeaderIndex>()) {}
  /// Store sharing a fleet-wide header index (facade-constructed nodes).
  explicit BlockStore(std::shared_ptr<HeaderIndex> index) : index_(std::move(index)) {}

  /// Routes the accounting scalars into `fleet`'s slot (migrating any
  /// already-recorded bytes). `fleet` must outlive this store.
  void bind_tally(FleetTally* fleet, std::size_t slot);

  /// Swaps the body backend in (facades call this at node construction,
  /// before any put). Null keeps the default MemBackend. Throws if bodies
  /// are already stored — backends don't migrate.
  void set_backend(std::unique_ptr<StorageBackend> backend);
  [[nodiscard]] StorageBackend& backend() { return *backend_; }
  [[nodiscard]] const StorageBackend& backend() const { return *backend_; }

  /// THE write entry point: records the header (idempotent; tip tracking)
  /// and, when a body is attached, admits it to the backend (idempotent;
  /// byte tally charged exactly when the backend accepts a first copy).
  void put(StoredBlock&& sb);

  [[nodiscard]] std::optional<BlockHeader> header_by_hash(const Hash256& hash) const;
  [[nodiscard]] std::optional<BlockHeader> header_at(std::uint64_t height) const;
  [[nodiscard]] std::size_t header_count() const { return tally().header_count; }
  /// Highest header height this node holds — what it advertises in a
  /// frontier exchange. nullopt for an empty store. Pruning a body never
  /// moves the tip: the header stays.
  [[nodiscard]] std::optional<std::uint64_t> tip_height() const {
    if (!has_tip_) return std::nullopt;
    return tip_height_;
  }

  [[nodiscard]] bool has_block(const Hash256& hash) const {
    return backend_->contains(hash);
  }
  [[nodiscard]] BlockRef block_by_hash(const Hash256& hash) const;
  [[nodiscard]] BlockRef block_at(std::uint64_t height) const;
  [[nodiscard]] std::size_t block_count() const { return backend_->count(); }

  /// Drops a body (header retained, so tip_height()/header_count() are
  /// unchanged — the prune-then-re-put regression contract). Returns the
  /// serialized bytes freed, 0 if absent; a later re-put of the same block
  /// restores body_bytes() to the exact pre-prune value.
  std::uint64_t prune_block(const Hash256& hash);

  /// Bytes of stored bodies.
  [[nodiscard]] std::uint64_t body_bytes() const { return tally().body_bytes; }
  /// Bytes of stored headers (what this node persists, not what the shared
  /// index holds).
  [[nodiscard]] std::uint64_t header_bytes() const {
    return static_cast<std::uint64_t>(tally().header_count) * BlockHeader::kWireSize;
  }
  /// Total footprint (bodies + headers).
  [[nodiscard]] std::uint64_t total_bytes() const { return body_bytes() + header_bytes(); }

  /// Hashes of all stored bodies (unordered).
  [[nodiscard]] std::vector<Hash256> stored_hashes() const;

  /// Retires queued writes and persists backend recovery state (no-op for
  /// MemBackend). Harness context only.
  void flush() { backend_->flush(); }

  /// The header table this store interns into (shared across a fleet, or
  /// private for standalone stores).
  [[nodiscard]] const std::shared_ptr<HeaderIndex>& header_index() const { return index_; }

 private:
  [[nodiscard]] NodeStorageTally& tally() {
    return fleet_ != nullptr ? fleet_->slot(fleet_slot_) : own_;
  }
  [[nodiscard]] const NodeStorageTally& tally() const {
    return fleet_ != nullptr ? fleet_->slot(fleet_slot_) : own_;
  }
  [[nodiscard]] bool have_slot(std::uint32_t slot) const {
    const std::size_t word = slot >> 6;
    return word < have_.size() && (have_[word] >> (slot & 63)) & 1u;
  }
  void mark_slot(std::uint32_t slot) {
    const std::size_t word = slot >> 6;
    if (word >= have_.size()) have_.resize(word + 1, 0);
    have_[word] |= std::uint64_t{1} << (slot & 63);
  }

  std::shared_ptr<HeaderIndex> index_;
  std::vector<std::uint64_t> have_;  // occupancy bitmap over index slots
  // Never null: MemBackend unless a facade swapped a backend in.
  std::unique_ptr<StorageBackend> backend_ = std::make_unique<MemBackend>();
  FleetTally* fleet_ = nullptr;
  std::size_t fleet_slot_ = 0;
  NodeStorageTally own_;
  bool has_tip_ = false;
  std::uint64_t tip_height_ = 0;
};

}  // namespace ici
