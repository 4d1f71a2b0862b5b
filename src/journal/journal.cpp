#include "journal/journal.hpp"

#include <utility>

#include "common/serial.hpp"
#include "crypto/gcm.hpp"
#include "crypto/hmac.hpp"

namespace nexus::journal {
namespace {

constexpr std::uint32_t kAnchorMagic = 0x414a584e; // "NXJA"
constexpr std::size_t kMaxOps = 1 << 20;

Bytes AnchorAad(const Uuid& volume_uuid) {
  Writer w;
  w.U32(kAnchorMagic);
  w.Id(volume_uuid);
  return std::move(w).Take();
}

// The anchor's tail: count, then per op its kind, object UUID and (puts
// only) the sealed metadata blob.
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
  if (count > kMaxOps) {
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

Result<Bytes> EncodeAnchor(const std::vector<Op>& tail, const JournalKey& key,
                           const Uuid& volume_uuid, crypto::Rng& rng) {
  Writer payload;
  WriteOps(payload, tail);

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

Result<std::vector<Op>> DecodeAnchor(ByteSpan blob, const JournalKey& key,
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
  NEXUS_ASSIGN_OR_RETURN(std::vector<Op> tail, ReadOps(pr));
  if (!pr.AtEnd()) {
    return Error(ErrorCode::kIntegrityViolation,
                 "trailing bytes in journal anchor");
  }
  return tail;
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
