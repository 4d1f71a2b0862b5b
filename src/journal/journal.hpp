// Write-ahead metadata commit journal (format + transaction buffering).
//
// NEXUS metadata updates become durable in two steps. First, every
// StoreMeta/RemoveMeta an operation (or an explicit batch of operations)
// performs is deferred into a pending transaction inside the enclave. On
// commit, the transaction is sealed into the journal's one object, the
// anchor ("nxj/anchor" on the untrusted backend), as its tail: one store
// makes the batch atomic and durable. A checkpoint then applies the
// committed ops to the main "nx/" objects; mount-time recovery re-applies
// the anchor's tail, version-guarded, since it may already be (partly)
// applied.
//
// Integrity model: the anchor is AES-GCM sealed under a per-volume journal
// key derived from the rootkey, with the volume UUID in its AAD, so the
// untrusted store cannot forge, splice or cross-volume transplant a tail.
// A torn or tampered anchor fails to open and fails the mount.
//
// This header is enclave-side code: decoders run on attacker-controlled
// bytes and every read is bounds-checked (common/serial.hpp).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/uuid.hpp"
#include "crypto/rng.hpp"

namespace nexus::journal {

using JournalKey = Key128;

/// Derives the per-volume journal sealing key from the volume rootkey.
JournalKey DeriveJournalKey(const Key128& rootkey);

enum class OpKind : std::uint8_t { kPut = 1, kRemove = 2 };

/// One deferred metadata mutation. `blob` is the already-encrypted
/// metadata object (the journal never sees plaintext bodies).
struct Op {
  OpKind kind = OpKind::kPut;
  Uuid uuid;
  Bytes blob; // empty for kRemove
};

/// The anchor's name inside the journal namespace ("nxj/anchor").
inline constexpr const char* kAnchorName = "anchor";

// ---- anchor codec -----------------------------------------------------------

/// Seals `tail`, the committed transaction (empty once it is applied),
/// into the anchor object.
Result<Bytes> EncodeAnchor(const std::vector<Op>& tail, const JournalKey& key,
                           const Uuid& volume_uuid, crypto::Rng& rng);
/// Verifies and opens an anchor, returning its tail. Fails
/// (kIntegrityViolation) if the anchor is torn, tampered with, or sealed
/// for another volume or key.
Result<std::vector<Op>> DecodeAnchor(ByteSpan blob, const JournalKey& key,
                                     const Uuid& volume_uuid);

// ---- transaction buffer -----------------------------------------------------

/// An ordered set of deferred mutations with last-wins dedup per object:
/// re-storing a metadata object that is already pending replaces the
/// buffered blob in place, so a batch touching the same dirnode N times
/// journals (and later checkpoints) it once.
class TxnBuffer {
 public:
  void Put(const Uuid& uuid, Bytes blob);
  void Remove(const Uuid& uuid);
  /// Applies an op of either kind (used when merging transactions).
  void Apply(Op op);

  /// The buffered op for `uuid`, or nullptr.
  [[nodiscard]] const Op* Find(const Uuid& uuid) const;

  [[nodiscard]] bool empty() const noexcept { return ops_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return ops_.size(); }
  [[nodiscard]] const std::vector<Op>& ops() const noexcept { return ops_; }
  /// How many buffered mutations were collapsed by dedup so far.
  [[nodiscard]] std::uint64_t deduped() const noexcept { return deduped_; }

  /// Moves the ops out and resets the buffer (dedup counter included).
  std::vector<Op> TakeOps();
  void Clear();

 private:
  std::vector<Op> ops_;
  std::unordered_map<Uuid, std::size_t> index_;
  std::uint64_t deduped_ = 0;
};

/// Commit/checkpoint/recovery counters (surfaced via ProfileSnapshot).
struct Stats {
  std::uint64_t records_committed = 0; // commits: one anchor store each
  std::uint64_t ops_committed = 0;
  std::uint64_t ops_deduped = 0; // mutations absorbed by in-buffer dedup
  std::uint64_t checkpoints = 0;
  std::uint64_t ops_checkpointed = 0;
  std::uint64_t ops_replayed = 0;

  friend Stats operator-(const Stats& a, const Stats& b) {
    return Stats{
        a.records_committed - b.records_committed,
        a.ops_committed - b.ops_committed,
        a.ops_deduped - b.ops_deduped,
        a.checkpoints - b.checkpoints,
        a.ops_checkpointed - b.ops_checkpointed,
        a.ops_replayed - b.ops_replayed,
    };
  }
};

} // namespace nexus::journal
