// Authentication (§IV-B), access-control administration (§IV-C) and the
// attested rootkey-exchange protocol (§IV-B1, Fig. 4).
#include <algorithm>

#include "common/serial.hpp"
#include "crypto/aes.hpp"
#include "crypto/gcm.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"
#include "enclave/nexus_enclave.hpp"

namespace nexus::enclave {
namespace {

// Derives the rootkey-wrapping AEAD key from an ECDH shared secret.
Key128 KeyFromSharedSecret(const ByteArray<32>& shared) {
  const Bytes okm = crypto::Hkdf({}, shared, AsBytes("nexus-rootkey-exchange"), 16);
  return ToArray<16>(okm);
}

} // namespace

// ---- authentication ---------------------------------------------------------

Result<ByteArray<16>> NexusEnclave::EcallAuthChallenge(
    const ByteArray<32>& user_public_key, ByteSpan sealed_rootkey,
    const Uuid& volume_uuid) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  if (session_.has_value()) {
    return Error(ErrorCode::kInvalidArgument, "a volume is already mounted");
  }
  // Unsealing proves the rootkey was sealed by this enclave on this CPU.
  NEXUS_ASSIGN_OR_RETURN(Bytes rootkey, runtime_.Unseal(sealed_rootkey));
  if (rootkey.size() != 16) {
    return Error(ErrorCode::kIntegrityViolation, "sealed rootkey has bad size");
  }

  PendingAuth pending;
  pending.user_public_key = user_public_key;
  pending.rootkey = ToArray<16>(rootkey);
  SecureZero(rootkey);
  pending.volume_uuid = volume_uuid;
  pending.nonce = runtime_.rng().Array<16>();

  // Crash recovery happens here — after the rootkey is proven, before the
  // supernode is fetched — so an uncheckpointed supernode update from a
  // crashed session is replayed onto the store before authentication reads
  // it. Recovery is unconditional (even with write-journaling configured
  // off): committed transactions must never be lost.
  auto recovered = RecoverJournal(pending.rootkey, pending.volume_uuid);
  if (!recovered.ok()) return recovered.status();
  pending.journal_tail_on_store = *recovered;

  pending_auth_ = pending;
  return pending.nonce;
}

Status NexusEnclave::EcallAuthResponse(const ByteArray<64>& signature) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  if (!pending_auth_.has_value()) {
    return Error(ErrorCode::kInvalidArgument, "no authentication in progress");
  }
  PendingAuth pending = *pending_auth_;
  pending_auth_.reset();

  // Fetch the encrypted supernode; the user signed over exactly these bytes
  // (nonce || encrypted-supernode), binding the response to volume state.
  NEXUS_ASSIGN_OR_RETURN(ObjectBlob blob, FetchMetaO(pending.volume_uuid));
  const Bytes signed_payload = Concat(pending.nonce, *blob.data);
  if (!crypto::Ed25519Verify(pending.user_public_key, signed_payload, signature)) {
    return Error(ErrorCode::kPermissionDenied, "authentication signature invalid");
  }

  NEXUS_ASSIGN_OR_RETURN(
      DecodedMeta meta,
      DecodeMetadata(*blob.data, pending.rootkey, MetaType::kSupernode,
                     pending.volume_uuid));
  NEXUS_RETURN_IF_ERROR(
      CheckAndRecordVersion(pending.volume_uuid, meta.preamble.version));
  NEXUS_ASSIGN_OR_RETURN(Supernode supernode, Supernode::Deserialize(meta.body));

  // The key must belong to an authorized user of this volume.
  const UserRecord* user = supernode.FindUserByKey(pending.user_public_key);
  if (user == nullptr) {
    return Error(ErrorCode::kPermissionDenied,
                 "public key not in the volume user table");
  }

  Session session;
  session.rootkey = pending.rootkey;
  session.user = user->id;
  session.volume_uuid = pending.volume_uuid;
  session.supernode = std::move(supernode);
  session.supernode_storage_version = blob.storage_version;
  session_ = std::move(session);
  if (journal_enabled_) {
    EngageJournal(pending.journal_tail_on_store);
  }
  return Status::Ok();
}

// ---- administration (§IV-C) ----------------------------------------------------

Status NexusEnclave::EcallAddUser(const std::string& name,
                                  const ByteArray<32>& public_key) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  NEXUS_RETURN_IF_ERROR(RequireMounted());
  if (!IsOwner()) {
    return Error(ErrorCode::kPermissionDenied, "only the owner manages users");
  }
  NEXUS_RETURN_IF_ERROR(LockMetaO(session_->volume_uuid));
  auto result = [&]() -> Status {
    NEXUS_RETURN_IF_ERROR(ReloadSupernode());
    Supernode& sn = session_->supernode;
    if (sn.FindUserByName(name) != nullptr || sn.FindUserByKey(public_key) != nullptr) {
      return Error(ErrorCode::kAlreadyExists, "user already present: " + name);
    }
    sn.users.push_back(UserRecord{sn.next_user_id++, name, public_key});
    const std::uint64_t version = ++min_versions_[session_->volume_uuid];
    NEXUS_ASSIGN_OR_RETURN(
        Bytes blob,
        EncodeAndStoreMeta(MetaType::kSupernode, session_->volume_uuid, version,
                           sn.Serialize(), &session_->supernode_storage_version));
    (void)blob;
    return Status::Ok();
  }();
  result = FinishMutation(result);
  const Status unlock = UnlockMetaO(session_->volume_uuid);
  return result.ok() ? unlock : result;
}

Status NexusEnclave::EcallRemoveUser(const std::string& name) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  NEXUS_RETURN_IF_ERROR(RequireMounted());
  if (!IsOwner()) {
    return Error(ErrorCode::kPermissionDenied, "only the owner manages users");
  }
  NEXUS_RETURN_IF_ERROR(LockMetaO(session_->volume_uuid));
  auto result = [&]() -> Status {
    NEXUS_RETURN_IF_ERROR(ReloadSupernode());
    Supernode& sn = session_->supernode;
    const UserRecord* user = sn.FindUserByName(name);
    if (user == nullptr) {
      return Error(ErrorCode::kNotFound, "no such user: " + name);
    }
    if (user->id == kOwnerUserId) {
      return Error(ErrorCode::kInvalidArgument, "the owner is immutable");
    }
    // Revocation = one metadata re-encryption (§IV-C). The removed user's
    // sealed rootkey becomes useless: mounting re-checks the user table.
    sn.users.erase(std::remove_if(sn.users.begin(), sn.users.end(),
                                  [&](const UserRecord& u) { return u.name == name; }),
                   sn.users.end());
    const std::uint64_t version = ++min_versions_[session_->volume_uuid];
    NEXUS_ASSIGN_OR_RETURN(
        Bytes blob,
        EncodeAndStoreMeta(MetaType::kSupernode, session_->volume_uuid, version,
                           sn.Serialize(), &session_->supernode_storage_version));
    (void)blob;
    return Status::Ok();
  }();
  result = FinishMutation(result);
  const Status unlock = UnlockMetaO(session_->volume_uuid);
  return result.ok() ? unlock : result;
}

Result<std::vector<UserRecord>> NexusEnclave::EcallListUsers() {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  NEXUS_RETURN_IF_ERROR(RequireMounted());
  NEXUS_RETURN_IF_ERROR(ReloadSupernode());
  return session_->supernode.users;
}

Status NexusEnclave::EcallSetAcl(const std::string& dirpath,
                                 const std::string& username,
                                 std::uint8_t perms) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  NEXUS_RETURN_IF_ERROR(RequireMounted());
  if (!IsOwner()) {
    return Error(ErrorCode::kPermissionDenied, "only the owner manages ACLs");
  }
  NEXUS_RETURN_IF_ERROR(ReloadSupernode());
  const UserRecord* user = session_->supernode.FindUserByName(username);
  if (user == nullptr) {
    return Error(ErrorCode::kNotFound, "no such user: " + username);
  }

  NEXUS_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(dirpath));
  NEXUS_ASSIGN_OR_RETURN(ResolvedDir dir_uuid_rd, ResolveDir(parts));
  const Uuid dir_uuid = dir_uuid_rd.uuid;

  NEXUS_RETURN_IF_ERROR(LockMetaO(dir_uuid));
  auto result = [&]() -> Status {
        const Uuid parent = dir_uuid_rd.parent;
    NEXUS_ASSIGN_OR_RETURN(DirnodeState* dir,
                           LoadDirnode(dir_uuid, parent));
    dir->main.SetAcl(user->id, perms);
    // Only the main object is re-encrypted: revocation cost is independent
    // of the amount of file data underneath (§VII-E).
    return FlushDirnode(*dir, {});
  }();
  result = FinishMutation(result);
  const Status unlock = UnlockMetaO(dir_uuid);
  return result.ok() ? unlock : result;
}

// ---- attested rootkey exchange (Fig. 4) ------------------------------------------

// Identity blob layout: [quote(var)] [ecdh_public(32)]
// Grant blob layout:    [recipient_ecdh_pub(32)] [eph_pub(32)] [iv(12)]
//                       [wrapped_rootkey(var)]

Result<Bytes> NexusEnclave::EcallExportIdentity() {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  // The quote binds the enclave ECDH public key as report data: a verifier
  // learns "this exact key lives inside a genuine NEXUS enclave".
  ByteArray<sgx::kReportDataSize> report{};
  std::copy(ecdh_public_.begin(), ecdh_public_.end(), report.begin());
  const sgx::Quote quote = runtime_.CreateQuote(report);

  Writer w;
  w.Var(quote.Serialize());
  w.Raw(ecdh_public_);
  return std::move(w).Take();
}

Result<Bytes> NexusEnclave::EcallGrantRootkey(
    ByteSpan peer_identity_blob, const ByteArray<64>& peer_signature,
    const ByteArray<32>& peer_identity_key) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  NEXUS_RETURN_IF_ERROR(RequireMounted());

  // The peer signed their identity blob with their (externally trusted)
  // user key — SSH-style key distribution (§IV-B1).
  if (!crypto::Ed25519Verify(peer_identity_key, peer_identity_blob,
                             peer_signature)) {
    return Error(ErrorCode::kPermissionDenied,
                 "peer identity signature invalid");
  }

  Reader r(peer_identity_blob);
  NEXUS_ASSIGN_OR_RETURN(Bytes quote_bytes, r.Var(4096));
  NEXUS_ASSIGN_OR_RETURN(Bytes peer_pub_raw, r.Raw(32));
  if (!r.AtEnd()) {
    return Error(ErrorCode::kInvalidArgument, "trailing identity bytes");
  }
  const auto peer_ecdh_pub = ToArray<32>(peer_pub_raw);

  // Remote attestation: only a genuine NEXUS enclave may receive the key.
  NEXUS_ASSIGN_OR_RETURN(sgx::Quote quote, sgx::Quote::Deserialize(quote_bytes));
  NEXUS_RETURN_IF_ERROR(
      sgx::VerifyQuote(quote, intel_root_public_key_, runtime_.measurement()));
  // The quoted report data must bind exactly the ECDH key we were handed.
  if (!std::equal(peer_ecdh_pub.begin(), peer_ecdh_pub.end(),
                  quote.report_data.begin())) {
    return Error(ErrorCode::kIntegrityViolation,
                 "ECDH key not bound by the quote");
  }

  // Ephemeral ECDH: the private half never leaves this scope.
  ByteArray<32> eph_private = crypto::X25519ClampScalar(runtime_.rng().Array<32>());
  const ByteArray<32> eph_public = crypto::X25519BasePoint(eph_private);
  const ByteArray<32> shared = crypto::X25519(eph_private, peer_ecdh_pub);
  SecureZero(eph_private);

  Key128 wrap_key = KeyFromSharedSecret(shared);
  NEXUS_ASSIGN_OR_RETURN(crypto::Aes aes, crypto::Aes::Create(wrap_key));
  SecureZero(wrap_key);
  const Bytes iv = runtime_.rng().Generate(crypto::kGcmIvSize);
  // AAD ties the grant to the exact recipient key and volume.
  const Bytes aad = Concat(peer_ecdh_pub, session_->volume_uuid.span());
  NEXUS_ASSIGN_OR_RETURN(Bytes wrapped,
                         crypto::GcmSeal(aes, iv, aad, session_->rootkey));

  Writer w;
  w.Raw(peer_ecdh_pub);
  w.Id(session_->volume_uuid);
  w.Raw(eph_public);
  w.Raw(iv);
  w.Var(wrapped);
  return std::move(w).Take();
}

Result<Bytes> NexusEnclave::EcallAcceptRootkey(
    ByteSpan grant_blob, const ByteArray<64>& grant_signature,
    const ByteArray<32>& granter_identity_key) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);

  if (!crypto::Ed25519Verify(granter_identity_key, grant_blob, grant_signature)) {
    return Error(ErrorCode::kPermissionDenied, "grant signature invalid");
  }

  Reader r(grant_blob);
  NEXUS_ASSIGN_OR_RETURN(Bytes recipient_raw, r.Raw(32));
  NEXUS_ASSIGN_OR_RETURN(Uuid volume_uuid, r.Id());
  NEXUS_ASSIGN_OR_RETURN(Bytes eph_raw, r.Raw(32));
  NEXUS_ASSIGN_OR_RETURN(Bytes iv, r.Raw(crypto::kGcmIvSize));
  NEXUS_ASSIGN_OR_RETURN(Bytes wrapped, r.Var(256));
  if (!r.AtEnd()) {
    return Error(ErrorCode::kInvalidArgument, "trailing grant bytes");
  }

  // The grant must be addressed to *this* enclave's ECDH key.
  const auto recipient = ToArray<32>(recipient_raw);
  if (recipient != ecdh_public_) {
    return Error(ErrorCode::kPermissionDenied,
                 "grant addressed to a different enclave");
  }

  // Only this enclave holds the matching private key (quote-bound), so
  // only genuine NEXUS enclaves can reach this derivation.
  const ByteArray<32> shared = crypto::X25519(ecdh_private_, ToArray<32>(eph_raw));
  Key128 wrap_key = KeyFromSharedSecret(shared);
  NEXUS_ASSIGN_OR_RETURN(crypto::Aes aes, crypto::Aes::Create(wrap_key));
  SecureZero(wrap_key);
  const Bytes aad = Concat(ecdh_public_, volume_uuid.span());
  auto rootkey = crypto::GcmOpen(aes, iv, aad, wrapped);
  if (!rootkey.ok() || rootkey->size() != 16) {
    return Error(ErrorCode::kIntegrityViolation, "grant decryption failed");
  }

  // Seal to the local machine; the caller stores it and mounts via the
  // normal authentication protocol.
  NEXUS_ASSIGN_OR_RETURN(Bytes sealed, runtime_.Seal(*rootkey));
  SecureZero(*rootkey);
  return sealed;
}


// ---- synchronous mutual-attestation exchange (SVI-B, PFS variant) -------------

// Offer blob:  [quote(var)] [eph_pub_r(32)]
// Grant blob:  [recipient_eph_pub(32)] [volume(16)] [quote(var)]
//              [eph_pub_g(32)] [iv(12)] [wrapped_rootkey(var)]

Result<Bytes> NexusEnclave::EcallEphemeralOffer() {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  ByteArray<32> eph_priv = crypto::X25519ClampScalar(runtime_.rng().Array<32>());
  const ByteArray<32> eph_pub = crypto::X25519BasePoint(eph_priv);
  ephemeral_private_ = eph_priv;
  SecureZero(eph_priv);

  ByteArray<sgx::kReportDataSize> report{};
  std::copy(eph_pub.begin(), eph_pub.end(), report.begin());
  const sgx::Quote quote = runtime_.CreateQuote(report);

  Writer w;
  w.Var(quote.Serialize());
  w.Raw(eph_pub);
  return std::move(w).Take();
}

Result<Bytes> NexusEnclave::EcallEphemeralGrant(
    ByteSpan offer_blob, const ByteArray<64>& offer_signature,
    const ByteArray<32>& peer_identity_key) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  NEXUS_RETURN_IF_ERROR(RequireMounted());

  if (!crypto::Ed25519Verify(peer_identity_key, offer_blob, offer_signature)) {
    return Error(ErrorCode::kPermissionDenied, "offer signature invalid");
  }
  Reader r(offer_blob);
  NEXUS_ASSIGN_OR_RETURN(Bytes quote_bytes, r.Var(4096));
  NEXUS_ASSIGN_OR_RETURN(Bytes peer_pub_raw, r.Raw(32));
  if (!r.AtEnd()) {
    return Error(ErrorCode::kInvalidArgument, "trailing offer bytes");
  }
  const auto peer_eph_pub = ToArray<32>(peer_pub_raw);

  NEXUS_ASSIGN_OR_RETURN(sgx::Quote quote, sgx::Quote::Deserialize(quote_bytes));
  NEXUS_RETURN_IF_ERROR(
      sgx::VerifyQuote(quote, intel_root_public_key_, runtime_.measurement()));
  if (!std::equal(peer_eph_pub.begin(), peer_eph_pub.end(),
                  quote.report_data.begin())) {
    return Error(ErrorCode::kIntegrityViolation,
                 "ephemeral key not bound by the quote");
  }

  // Our own fresh ephemeral key, quoted for mutual attestation, destroyed
  // as soon as the shared secret is derived -- this is what buys PFS.
  ByteArray<32> eph_priv = crypto::X25519ClampScalar(runtime_.rng().Array<32>());
  const ByteArray<32> eph_pub = crypto::X25519BasePoint(eph_priv);
  ByteArray<sgx::kReportDataSize> report{};
  std::copy(eph_pub.begin(), eph_pub.end(), report.begin());
  const sgx::Quote own_quote = runtime_.CreateQuote(report);

  const ByteArray<32> shared = crypto::X25519(eph_priv, peer_eph_pub);
  SecureZero(eph_priv);

  Key128 wrap_key = KeyFromSharedSecret(shared);
  NEXUS_ASSIGN_OR_RETURN(crypto::Aes aes, crypto::Aes::Create(wrap_key));
  SecureZero(wrap_key);
  const Bytes iv = runtime_.rng().Generate(crypto::kGcmIvSize);
  const Bytes aad = Concat(peer_eph_pub, session_->volume_uuid.span());
  NEXUS_ASSIGN_OR_RETURN(Bytes wrapped,
                         crypto::GcmSeal(aes, iv, aad, session_->rootkey));

  Writer w;
  w.Raw(peer_eph_pub);
  w.Id(session_->volume_uuid);
  w.Var(own_quote.Serialize());
  w.Raw(eph_pub);
  w.Raw(iv);
  w.Var(wrapped);
  return std::move(w).Take();
}

Result<Bytes> NexusEnclave::EcallEphemeralAccept(
    ByteSpan grant_blob, const ByteArray<64>& grant_signature,
    const ByteArray<32>& granter_identity_key) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  if (!ephemeral_private_.has_value()) {
    return Error(ErrorCode::kInvalidArgument, "no ephemeral offer pending");
  }

  if (!crypto::Ed25519Verify(granter_identity_key, grant_blob, grant_signature)) {
    return Error(ErrorCode::kPermissionDenied, "grant signature invalid");
  }
  Reader r(grant_blob);
  NEXUS_ASSIGN_OR_RETURN(Bytes recipient_raw, r.Raw(32));
  NEXUS_ASSIGN_OR_RETURN(Uuid volume_uuid, r.Id());
  NEXUS_ASSIGN_OR_RETURN(Bytes quote_bytes, r.Var(4096));
  NEXUS_ASSIGN_OR_RETURN(Bytes granter_pub_raw, r.Raw(32));
  NEXUS_ASSIGN_OR_RETURN(Bytes iv, r.Raw(crypto::kGcmIvSize));
  NEXUS_ASSIGN_OR_RETURN(Bytes wrapped, r.Var(256));
  if (!r.AtEnd()) {
    return Error(ErrorCode::kInvalidArgument, "trailing grant bytes");
  }

  const ByteArray<32> my_eph_pub = crypto::X25519BasePoint(*ephemeral_private_);
  if (ToArray<32>(recipient_raw) != my_eph_pub) {
    return Error(ErrorCode::kPermissionDenied,
                 "grant addressed to a different offer");
  }

  // Mutual attestation: the granter's ephemeral key must also come from a
  // genuine NEXUS enclave.
  const auto granter_eph_pub = ToArray<32>(granter_pub_raw);
  NEXUS_ASSIGN_OR_RETURN(sgx::Quote quote, sgx::Quote::Deserialize(quote_bytes));
  NEXUS_RETURN_IF_ERROR(
      sgx::VerifyQuote(quote, intel_root_public_key_, runtime_.measurement()));
  if (!std::equal(granter_eph_pub.begin(), granter_eph_pub.end(),
                  quote.report_data.begin())) {
    return Error(ErrorCode::kIntegrityViolation,
                 "granter key not bound by the quote");
  }

  const ByteArray<32> shared =
      crypto::X25519(*ephemeral_private_, granter_eph_pub);
  // One-shot: the offer is consumed whatever happens next.
  SecureZero(*ephemeral_private_);
  ephemeral_private_.reset();

  Key128 wrap_key = KeyFromSharedSecret(shared);
  NEXUS_ASSIGN_OR_RETURN(crypto::Aes aes, crypto::Aes::Create(wrap_key));
  SecureZero(wrap_key);
  const Bytes aad = Concat(my_eph_pub, volume_uuid.span());
  auto rootkey = crypto::GcmOpen(aes, iv, aad, wrapped);
  if (!rootkey.ok() || rootkey->size() != 16) {
    return Error(ErrorCode::kIntegrityViolation, "grant decryption failed");
  }
  NEXUS_ASSIGN_OR_RETURN(Bytes sealed, runtime_.Seal(*rootkey));
  SecureZero(*rootkey);
  return sealed;
}

// ---- sealed version table (SVI-C) ---------------------------------------------

Result<Bytes> NexusEnclave::EcallSealVersionTable() {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  Writer w;
  w.U32(static_cast<std::uint32_t>(min_versions_.size()));
  for (const auto& [uuid, version] : min_versions_) {
    w.Id(uuid);
    w.U64(version);
  }
  return runtime_.Seal(w.bytes());
}

Status NexusEnclave::EcallLoadVersionTable(ByteSpan sealed) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  NEXUS_ASSIGN_OR_RETURN(Bytes raw, runtime_.Unseal(sealed));
  Reader r(raw);
  NEXUS_ASSIGN_OR_RETURN(std::uint32_t n, r.U32());
  for (std::uint32_t i = 0; i < n; ++i) {
    NEXUS_ASSIGN_OR_RETURN(Uuid uuid, r.Id());
    NEXUS_ASSIGN_OR_RETURN(std::uint64_t version, r.U64());
    auto [it, inserted] = min_versions_.try_emplace(uuid, version);
    if (!inserted) it->second = std::max(it->second, version);
  }
  if (!r.AtEnd()) {
    return Error(ErrorCode::kIntegrityViolation, "trailing version-table bytes");
  }
  return Status::Ok();
}

Result<Bytes> NexusEnclave::EcallSealIdentityKey() {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  return runtime_.Seal(ecdh_private_);
}

Status NexusEnclave::EcallLoadIdentityKey(ByteSpan sealed) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  NEXUS_ASSIGN_OR_RETURN(Bytes priv, runtime_.Unseal(sealed));
  if (priv.size() != 32) {
    return Error(ErrorCode::kIntegrityViolation, "bad sealed identity key");
  }
  ecdh_private_ = ToArray<32>(priv);
  SecureZero(priv);
  ecdh_public_ = crypto::X25519BasePoint(ecdh_private_);
  return Status::Ok();
}

} // namespace nexus::enclave
