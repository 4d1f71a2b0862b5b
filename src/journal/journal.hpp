// Write-ahead metadata commit journal (format + transaction buffering).
//
// NEXUS metadata updates become durable in two steps. First, every
// StoreMeta/RemoveMeta an operation (or an explicit batch of operations)
// performs is deferred into a pending transaction inside the enclave. On
// commit, the whole transaction is sealed into ONE AES-GCM object stored
// on the untrusted backend under the "nxj/" namespace, making the batch
// atomic and durable in a single round trip. When the commit is
// checkpointed right away (the default), that object is the anchor
// itself, carrying the transaction as its tail; when checkpoints are
// deferred it is a sequence-numbered record. A checkpoint applies the
// committed ops to the main "nx/" objects; mount-time recovery re-applies
// the anchor's tail, replays complete records and discards torn tails.
//
// Integrity model: each record's AAD binds its sequence number, the
// SHA-256 of the previous record (a rolling hash chain) and the volume
// UUID, all under a per-volume journal key derived from the rootkey. The
// untrusted store therefore cannot reorder, drop, splice or cross-volume
// transplant records without breaking the chain; recovery stops at the
// first record that fails to authenticate. A torn tail (crash mid-commit)
// is indistinguishable from — and handled identically to — a truncated
// chain: everything from the first bad record on is discarded.
//
// The anchor object ("nxj/anchor", same sealing) pins where the live
// chain starts after a truncation: the next expected sequence number and
// the hash of the last checkpointed record. Recovery treats records below
// the anchor as already-applied garbage. Its tail is the last transaction
// committed through the anchor; it may already be (partly) applied, so
// recovery applies it version-guarded and before any record.
//
// This header is enclave-side code: decoders run on attacker-controlled
// bytes and every read is bounds-checked (common/serial.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
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

/// Truncation point of the journal chain, plus the last transaction
/// committed through the anchor while it may still need applying.
struct Anchor {
  std::uint64_t next_seq = 0;   // first live sequence number
  ByteArray<32> chain_hash{};   // hash of the last checkpointed record
  std::vector<Op> tail;         // ops that precede every record >= next_seq
};

// ---- object naming ("nxj/<name>" on the store) -----------------------------

inline constexpr const char* kAnchorName = "anchor";

/// Fixed-width hex so lexicographic order == numeric order.
std::string ObjectName(std::uint64_t seq);
/// Parses a record object name; nullopt for the anchor or foreign names.
std::optional<std::uint64_t> ParseObjectName(const std::string& name);

// ---- record / anchor codec --------------------------------------------------

/// Seals one transaction's ops into a journal record object.
Result<Bytes> EncodeRecord(std::uint64_t seq, const ByteArray<32>& prev_hash,
                           const std::vector<Op>& ops, const JournalKey& key,
                           const Uuid& volume_uuid, crypto::Rng& rng);

/// Verifies and opens a record. Fails (kIntegrityViolation) if the record
/// is torn, tampered with, carries the wrong sequence number, or does not
/// extend `prev_hash` — the caller treats any failure as end-of-chain.
Result<std::vector<Op>> DecodeRecord(ByteSpan blob, std::uint64_t expected_seq,
                                     const ByteArray<32>& expected_prev,
                                     const JournalKey& key,
                                     const Uuid& volume_uuid);

/// The chain hash a successor record's AAD must bind.
ByteArray<32> ChainHash(ByteSpan record_blob);

Result<Bytes> EncodeAnchor(const Anchor& anchor, const JournalKey& key,
                           const Uuid& volume_uuid, crypto::Rng& rng);
Result<Anchor> DecodeAnchor(ByteSpan blob, const JournalKey& key,
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
  /// Applies an op of either kind (used when merging committed records).
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
  std::uint64_t records_committed = 0;
  std::uint64_t ops_committed = 0;
  std::uint64_t ops_deduped = 0; // mutations absorbed by in-buffer dedup
  std::uint64_t checkpoints = 0;
  std::uint64_t ops_checkpointed = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t ops_replayed = 0;
  std::uint64_t torn_records_discarded = 0;

  friend Stats operator-(const Stats& a, const Stats& b) {
    return Stats{
        a.records_committed - b.records_committed,
        a.ops_committed - b.ops_committed,
        a.ops_deduped - b.ops_deduped,
        a.checkpoints - b.checkpoints,
        a.ops_checkpointed - b.ops_checkpointed,
        a.records_replayed - b.records_replayed,
        a.ops_replayed - b.ops_replayed,
        a.torn_records_discarded - b.torn_records_discarded,
    };
  }
};

} // namespace nexus::journal
