#include "journal/journal.hpp"

#include <utility>

#include "common/serial.hpp"
#include "crypto/gcm.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace nexus::journal {
namespace {

constexpr std::uint32_t kRecordMagic = 0x4c4a584e; // "NXJL"
constexpr std::uint32_t kAnchorMagic = 0x414a584e; // "NXJA"
constexpr std::size_t kMaxOpsPerRecord = 1 << 20;

Bytes RecordAad(std::uint64_t seq, const ByteArray<32>& prev_hash,
                const Uuid& volume_uuid) {
  Writer w;
  w.U32(kRecordMagic);
  w.U64(seq);
  w.Raw(prev_hash);
  w.Id(volume_uuid);
  return std::move(w).Take();
}

Bytes AnchorAad(const Uuid& volume_uuid) {
  Writer w;
  w.U32(kAnchorMagic);
  w.Id(volume_uuid);
  return std::move(w).Take();
}

// Op list shared by records and the anchor's tail: count, then per op its
// kind, object UUID and (puts only) the sealed metadata blob.
void WriteOps(Writer& w, const std::vector<Op>& ops) {
  w.U32(static_cast<std::uint32_t>(ops.size()));
  for (const Op& op : ops) {
    w.U8(static_cast<std::uint8_t>(op.kind));
    w.Id(op.uuid);
    if (op.kind == OpKind::kPut) w.Var(op.blob);
  }
}

Result<std::vector<Op>> ReadOps(Reader& r) {
  NEXUS_ASSIGN_OR_RETURN(const std::uint32_t count, r.U32());
  if (count > kMaxOpsPerRecord) {
    return Error(ErrorCode::kIntegrityViolation, "bad journal op count");
  }
  std::vector<Op> ops;
  ops.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Op op;
    NEXUS_ASSIGN_OR_RETURN(const std::uint8_t kind, r.U8());
    if (kind != static_cast<std::uint8_t>(OpKind::kPut) &&
        kind != static_cast<std::uint8_t>(OpKind::kRemove)) {
      return Error(ErrorCode::kIntegrityViolation, "bad journal op kind");
    }
    op.kind = static_cast<OpKind>(kind);
    NEXUS_ASSIGN_OR_RETURN(op.uuid, r.Id());
    if (op.kind == OpKind::kPut) {
      NEXUS_ASSIGN_OR_RETURN(op.blob, r.Var());
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

} // namespace

JournalKey DeriveJournalKey(const Key128& rootkey) {
  const Bytes key =
      crypto::Hkdf(/*salt=*/{}, rootkey, AsBytes("nexus-journal-key"),
                   sizeof(JournalKey));
  return ToArray<sizeof(JournalKey)>(key);
}

std::string ObjectName(std::uint64_t seq) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[seq & 0xf];
    seq >>= 4;
  }
  return out;
}

std::optional<std::uint64_t> ParseObjectName(const std::string& name) {
  if (name.size() != 16) return std::nullopt;
  std::uint64_t seq = 0;
  for (char c : name) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      return std::nullopt;
    }
    seq = (seq << 4) | digit;
  }
  return seq;
}

Result<Bytes> EncodeRecord(std::uint64_t seq, const ByteArray<32>& prev_hash,
                           const std::vector<Op>& ops, const JournalKey& key,
                           const Uuid& volume_uuid, crypto::Rng& rng) {
  if (ops.empty()) {
    return Error(ErrorCode::kInvalidArgument, "journal record with no ops");
  }
  Writer payload;
  WriteOps(payload, ops);

  NEXUS_ASSIGN_OR_RETURN(crypto::Aes aes, crypto::Aes::Create(key));
  const Bytes iv = rng.Generate(crypto::kGcmIvSize);
  NEXUS_ASSIGN_OR_RETURN(
      Bytes sealed, crypto::GcmSeal(aes, iv, RecordAad(seq, prev_hash,
                                                       volume_uuid),
                                    payload.bytes()));

  Writer out;
  out.U32(kRecordMagic);
  out.U64(seq);
  out.Raw(iv);
  out.Raw(sealed);
  return std::move(out).Take();
}

Result<std::vector<Op>> DecodeRecord(ByteSpan blob, std::uint64_t expected_seq,
                                     const ByteArray<32>& expected_prev,
                                     const JournalKey& key,
                                     const Uuid& volume_uuid) {
  Reader r(blob);
  NEXUS_ASSIGN_OR_RETURN(const std::uint32_t magic, r.U32());
  if (magic != kRecordMagic) {
    return Error(ErrorCode::kIntegrityViolation, "bad journal record magic");
  }
  NEXUS_ASSIGN_OR_RETURN(const std::uint64_t seq, r.U64());
  if (seq != expected_seq) {
    return Error(ErrorCode::kIntegrityViolation,
                 "journal record sequence mismatch (reordered or spliced?)");
  }
  NEXUS_ASSIGN_OR_RETURN(const Bytes iv, r.Raw(crypto::kGcmIvSize));
  NEXUS_ASSIGN_OR_RETURN(const Bytes sealed, r.Raw(r.Remaining()));

  NEXUS_ASSIGN_OR_RETURN(crypto::Aes aes, crypto::Aes::Create(key));
  // The AAD binds seq + previous-record hash + volume: a record lifted from
  // elsewhere in the chain (or from another volume) fails authentication.
  NEXUS_ASSIGN_OR_RETURN(
      const Bytes payload,
      crypto::GcmOpen(aes, iv, RecordAad(expected_seq, expected_prev,
                                         volume_uuid),
                      sealed));

  Reader pr(payload);
  NEXUS_ASSIGN_OR_RETURN(std::vector<Op> ops, ReadOps(pr));
  if (ops.empty()) {
    return Error(ErrorCode::kIntegrityViolation, "journal record with no ops");
  }
  if (!pr.AtEnd()) {
    return Error(ErrorCode::kIntegrityViolation,
                 "trailing bytes in journal record");
  }
  return ops;
}

ByteArray<32> ChainHash(ByteSpan record_blob) {
  return crypto::Sha256::Hash(record_blob);
}

Result<Bytes> EncodeAnchor(const Anchor& anchor, const JournalKey& key,
                           const Uuid& volume_uuid, crypto::Rng& rng) {
  Writer payload;
  payload.U64(anchor.next_seq);
  payload.Raw(anchor.chain_hash);
  WriteOps(payload, anchor.tail);

  NEXUS_ASSIGN_OR_RETURN(crypto::Aes aes, crypto::Aes::Create(key));
  const Bytes iv = rng.Generate(crypto::kGcmIvSize);
  NEXUS_ASSIGN_OR_RETURN(Bytes sealed,
                         crypto::GcmSeal(aes, iv, AnchorAad(volume_uuid),
                                         payload.bytes()));

  Writer out;
  out.U32(kAnchorMagic);
  out.Raw(iv);
  out.Raw(sealed);
  return std::move(out).Take();
}

Result<Anchor> DecodeAnchor(ByteSpan blob, const JournalKey& key,
                            const Uuid& volume_uuid) {
  Reader r(blob);
  NEXUS_ASSIGN_OR_RETURN(const std::uint32_t magic, r.U32());
  if (magic != kAnchorMagic) {
    return Error(ErrorCode::kIntegrityViolation, "bad journal anchor magic");
  }
  NEXUS_ASSIGN_OR_RETURN(const Bytes iv, r.Raw(crypto::kGcmIvSize));
  NEXUS_ASSIGN_OR_RETURN(const Bytes sealed, r.Raw(r.Remaining()));

  NEXUS_ASSIGN_OR_RETURN(crypto::Aes aes, crypto::Aes::Create(key));
  NEXUS_ASSIGN_OR_RETURN(
      const Bytes payload,
      crypto::GcmOpen(aes, iv, AnchorAad(volume_uuid), sealed));

  Reader pr(payload);
  Anchor anchor;
  NEXUS_ASSIGN_OR_RETURN(anchor.next_seq, pr.U64());
  NEXUS_ASSIGN_OR_RETURN(const Bytes hash, pr.Raw(32));
  anchor.chain_hash = ToArray<32>(hash);
  NEXUS_ASSIGN_OR_RETURN(anchor.tail, ReadOps(pr));
  if (!pr.AtEnd()) {
    return Error(ErrorCode::kIntegrityViolation,
                 "trailing bytes in journal anchor");
  }
  return anchor;
}

void TxnBuffer::Put(const Uuid& uuid, Bytes blob) {
  Apply(Op{OpKind::kPut, uuid, std::move(blob)});
}

void TxnBuffer::Remove(const Uuid& uuid) {
  Apply(Op{OpKind::kRemove, uuid, {}});
}

void TxnBuffer::Apply(Op op) {
  // Last-wins per object: ops on distinct objects are order-independent
  // (each op carries the full blob), so replacing in place is sound.
  const auto it = index_.find(op.uuid);
  if (it != index_.end()) {
    ops_[it->second] = std::move(op);
    ++deduped_;
    return;
  }
  index_.emplace(op.uuid, ops_.size());
  ops_.push_back(std::move(op));
}

const Op* TxnBuffer::Find(const Uuid& uuid) const {
  const auto it = index_.find(uuid);
  return it == index_.end() ? nullptr : &ops_[it->second];
}

std::vector<Op> TxnBuffer::TakeOps() {
  std::vector<Op> out = std::move(ops_);
  Clear();
  return out;
}

void TxnBuffer::Clear() {
  ops_.clear();
  index_.clear();
  deduped_ = 0;
}

} // namespace nexus::journal
