#include "core/nexus_client.hpp"

#include "common/clock.hpp"
#include "common/serial.hpp"

namespace nexus::core {

NexusClient::NexusClient(sgx::EnclaveRuntime& runtime,
                         storage::AfsClient& afs,
                         const ByteArray<32>& intel_root_public_key)
    : afs_(afs),
      store_(afs),
      enclave_(std::make_unique<enclave::NexusEnclave>(runtime, store_,
                                                       intel_root_public_key)),
      runtime_(runtime) {}

template <typename F>
auto NexusClient::TimedEcall(const char* name, F&& f) {
  trace::Span span(name, "ecall");
  const std::uint64_t t0 = MonotonicNanos();
  auto result = f();
  // Enclave runtime is *real* compute time, accumulated separately from
  // the virtual I/O clock so a benchmark can combine wall time and
  // simulated I/O without double counting (§VII-A breakdown).
  double seconds = static_cast<double>(MonotonicNanos() - t0) * 1e-9;
  // When the chunk-crypto pool ran on a host with fewer cores than
  // workers, the wall time above serialized work that an adequately
  // provisioned machine would overlap. The enclave reports that surplus
  // (wall − per-batch critical path, measured via thread-CPU time); on a
  // host with enough cores it is ~0 and this is a no-op.
  seconds -= enclave_->TakeParallelSavedSeconds();
  const double adjusted = seconds > 0 ? seconds : 0;
  enclave_seconds_ += adjusted;
  // Per-ecall latency distributions, cheap enough to be always on. The
  // aggregate feeds ProfileSnapshot.ecall_latency; the named one lets
  // tests and tools drill into a single operation.
  static trace::Histogram& all_ecalls = trace::GlobalHistogram("ecall");
  all_ecalls.RecordSeconds(adjusted);
  trace::GlobalHistogram(name).RecordSeconds(adjusted);
  return result;
}

// ---- lifecycle -----------------------------------------------------------------

Result<NexusClient::VolumeHandle> NexusClient::CreateVolume(
    const UserKey& owner, const enclave::VolumeConfig& config) {
  NEXUS_ASSIGN_OR_RETURN(
      enclave::NexusEnclave::CreateVolumeResult result,
      TimedEcall("ecall:create_volume", [&] {
        return enclave_->EcallCreateVolume(owner.name, owner.public_key(), config);
      }));
  return VolumeHandle{result.volume_uuid, std::move(result.sealed_rootkey)};
}

Status NexusClient::Mount(const UserKey& user, const Uuid& volume_uuid,
                          ByteSpan sealed_rootkey) {
  // Step 1-2: present key + sealed rootkey, receive nonce.
  NEXUS_ASSIGN_OR_RETURN(ByteArray<16> nonce, TimedEcall("ecall:auth_challenge", [&] {
    return enclave_->EcallAuthChallenge(user.public_key(), sealed_rootkey,
                                        volume_uuid);
  }));
  // Step 3 (outside the enclave): the user signs nonce || encrypted
  // supernode with their private key.
  NEXUS_ASSIGN_OR_RETURN(Bytes supernode_blob,
                         afs_.Fetch(store_.MetaPath(volume_uuid)));
  const ByteArray<64> signature = user.Sign(Concat(nonce, supernode_blob));
  // Steps 4-5: the enclave verifies and mounts.
  return TimedEcall("ecall:auth_response", [&] { return enclave_->EcallAuthResponse(signature); });
}

Status NexusClient::Unmount() {
  return TimedEcall("ecall:unmount", [&] { return enclave_->EcallUnmount(); });
}

// ---- filesystem ------------------------------------------------------------------

Status NexusClient::Touch(const std::string& path) {
  return TimedEcall("ecall:touch", [&] {
    return enclave_->EcallTouch(path, enclave::EntryType::kFile);
  });
}

Status NexusClient::CreateFile(const std::string& path, ByteSpan content) {
  return TimedEcall("ecall:create_file", [&] {
    return enclave_->EcallCreateFile(path, content);
  });
}

Status NexusClient::Mkdir(const std::string& path) {
  return TimedEcall("ecall:mkdir", [&] {
    return enclave_->EcallTouch(path, enclave::EntryType::kDirectory);
  });
}

Status NexusClient::Remove(const std::string& path) {
  return TimedEcall("ecall:remove", [&] { return enclave_->EcallRemove(path); });
}

Result<enclave::Attributes> NexusClient::Lookup(const std::string& path) {
  return TimedEcall("ecall:lookup", [&] { return enclave_->EcallLookup(path); });
}

Result<std::vector<enclave::DirEntry>> NexusClient::ListDir(
    const std::string& path) {
  return TimedEcall("ecall:filldir", [&] { return enclave_->EcallFilldir(path); });
}

Status NexusClient::Symlink(const std::string& target,
                            const std::string& linkpath) {
  return TimedEcall("ecall:symlink", [&] { return enclave_->EcallSymlink(target, linkpath); });
}

Status NexusClient::Hardlink(const std::string& existing,
                             const std::string& linkpath) {
  return TimedEcall("ecall:hardlink", [&] { return enclave_->EcallHardlink(existing, linkpath); });
}

Result<std::string> NexusClient::Readlink(const std::string& path) {
  return TimedEcall("ecall:readlink", [&] { return enclave_->EcallReadlink(path); });
}

Status NexusClient::Rename(const std::string& from, const std::string& to) {
  return TimedEcall("ecall:rename", [&] { return enclave_->EcallRename(from, to); });
}

Status NexusClient::WriteFile(const std::string& path, ByteSpan content) {
  auto attrs = TimedEcall("ecall:lookup", [&] { return enclave_->EcallLookup(path); });
  if (!attrs.ok()) {
    if (attrs.status().code() != ErrorCode::kNotFound) return attrs.status();
    return CreateFile(path, content);
  }
  if (attrs->type != enclave::EntryType::kFile) {
    return Error(ErrorCode::kInvalidArgument, "not a file: " + path);
  }
  return TimedEcall("ecall:encrypt", [&] { return enclave_->EcallEncrypt(path, content); });
}

Status NexusClient::WriteFileRange(const std::string& path, ByteSpan content,
                                   std::uint64_t dirty_offset,
                                   std::uint64_t dirty_len) {
  return TimedEcall("ecall:encrypt_range", [&] {
    return enclave_->EcallEncryptRange(path, content, dirty_offset, dirty_len);
  });
}

Result<Bytes> NexusClient::ReadFile(const std::string& path) {
  return TimedEcall("ecall:decrypt", [&] { return enclave_->EcallDecrypt(path); });
}

// ---- access control ---------------------------------------------------------------

Status NexusClient::AddUser(const std::string& name,
                            const ByteArray<32>& public_key) {
  return TimedEcall("ecall:add_user", [&] { return enclave_->EcallAddUser(name, public_key); });
}

Status NexusClient::RemoveUser(const std::string& name) {
  return TimedEcall("ecall:remove_user", [&] { return enclave_->EcallRemoveUser(name); });
}

Result<std::vector<enclave::UserRecord>> NexusClient::ListUsers() {
  return TimedEcall("ecall:list_users", [&] { return enclave_->EcallListUsers(); });
}

Status NexusClient::SetAcl(const std::string& dirpath,
                           const std::string& username, std::uint8_t perms) {
  return TimedEcall("ecall:set_acl", [&] {
    return enclave_->EcallSetAcl(dirpath, username, perms);
  });
}

// ---- write-ahead journal ------------------------------------------------------------

Status NexusClient::ConfigureJournal(bool enabled,
                                     std::uint64_t checkpoint_interval_ops) {
  if (checkpoint_interval_ops != 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "journal checkpoints cannot be deferred");
  }
  return TimedEcall("ecall:configure_journal",
                    [&] { return enclave_->EcallConfigureJournal(enabled); });
}

Status NexusClient::BeginBatch() {
  return TimedEcall("ecall:begin_batch", [&] { return enclave_->EcallBeginBatch(); });
}

Status NexusClient::CommitBatch() {
  return TimedEcall("ecall:commit_batch", [&] { return enclave_->EcallCommitBatch(); });
}

// ---- key exchange -------------------------------------------------------------------

std::string NexusClient::IdentityPath(const std::string& user) {
  return "keyx/" + user + ".id";
}

std::string NexusClient::GrantPath(const std::string& granter,
                                   const std::string& recipient) {
  return "keyx/" + granter + "~" + recipient + ".grant";
}

Status NexusClient::PublishIdentity(const UserKey& user) {
  NEXUS_ASSIGN_OR_RETURN(Bytes identity,
                         TimedEcall("ecall:export_identity", [&] { return enclave_->EcallExportIdentity(); }));
  // m1 = SIGN(sk_user, quote-blob) | blob — the signature is produced
  // outside the enclave with the user's identity key.
  const ByteArray<64> signature = user.Sign(identity);
  Writer w;
  w.Var(identity);
  w.Raw(signature);
  return afs_.Store(IdentityPath(user.name), w.bytes());
}

Status NexusClient::GrantAccess(const UserKey& granter,
                                const std::string& recipient_name,
                                const ByteArray<32>& recipient_public_key) {
  // Pull the recipient's published identity off the shared store.
  NEXUS_ASSIGN_OR_RETURN(Bytes published, afs_.Fetch(IdentityPath(recipient_name)));
  Reader r(published);
  NEXUS_ASSIGN_OR_RETURN(Bytes identity, r.Var(8192));
  NEXUS_ASSIGN_OR_RETURN(Bytes sig_raw, r.Raw(64));
  if (!r.AtEnd()) {
    return Error(ErrorCode::kInvalidArgument, "trailing identity-file bytes");
  }

  // The enclave verifies signature + quote and produces the wrapped key.
  NEXUS_ASSIGN_OR_RETURN(Bytes grant, TimedEcall("ecall:grant_rootkey", [&] {
    return enclave_->EcallGrantRootkey(identity, ToArray<64>(sig_raw),
                                       recipient_public_key);
  }));

  const ByteArray<64> grant_sig = granter.Sign(grant);
  Writer w;
  w.Var(grant);
  w.Raw(grant_sig);
  NEXUS_RETURN_IF_ERROR(afs_.Store(GrantPath(granter.name, recipient_name),
                                   w.bytes()));

  // Authorize the identity in the supernode user table.
  return AddUser(recipient_name, recipient_public_key);
}

Result<NexusClient::VolumeHandle> NexusClient::AcceptGrant(
    const UserKey& user, const std::string& granter_name,
    const ByteArray<32>& granter_public_key, const Uuid& volume_uuid) {
  NEXUS_ASSIGN_OR_RETURN(Bytes published,
                         afs_.Fetch(GrantPath(granter_name, user.name)));
  Reader r(published);
  NEXUS_ASSIGN_OR_RETURN(Bytes grant, r.Var(8192));
  NEXUS_ASSIGN_OR_RETURN(Bytes sig_raw, r.Raw(64));
  if (!r.AtEnd()) {
    return Error(ErrorCode::kInvalidArgument, "trailing grant-file bytes");
  }

  NEXUS_ASSIGN_OR_RETURN(Bytes sealed_rootkey, TimedEcall("ecall:accept_rootkey", [&] {
    return enclave_->EcallAcceptRootkey(grant, ToArray<64>(sig_raw),
                                        granter_public_key);
  }));
  return VolumeHandle{volume_uuid, std::move(sealed_rootkey)};
}

// ---- synchronous PFS exchange (§VI-B) ----------------------------------------

namespace {
std::string OfferPath(const std::string& user) { return "keyx/" + user + ".offer"; }
std::string EphemeralGrantPath(const std::string& granter,
                               const std::string& recipient) {
  return "keyx/" + granter + "~" + recipient + ".pfs-grant";
}
} // namespace

Status NexusClient::PublishEphemeralOffer(const UserKey& user) {
  NEXUS_ASSIGN_OR_RETURN(Bytes offer,
                         TimedEcall("ecall:ephemeral_offer", [&] { return enclave_->EcallEphemeralOffer(); }));
  const ByteArray<64> signature = user.Sign(offer);
  Writer w;
  w.Var(offer);
  w.Raw(signature);
  return afs_.Store(OfferPath(user.name), w.bytes());
}

Status NexusClient::GrantAccessEphemeral(
    const UserKey& granter, const std::string& recipient_name,
    const ByteArray<32>& recipient_public_key) {
  NEXUS_ASSIGN_OR_RETURN(Bytes published, afs_.Fetch(OfferPath(recipient_name)));
  Reader r(published);
  NEXUS_ASSIGN_OR_RETURN(Bytes offer, r.Var(8192));
  NEXUS_ASSIGN_OR_RETURN(Bytes sig_raw, r.Raw(64));
  if (!r.AtEnd()) {
    return Error(ErrorCode::kInvalidArgument, "trailing offer-file bytes");
  }

  NEXUS_ASSIGN_OR_RETURN(Bytes grant, TimedEcall("ecall:ephemeral_grant", [&] {
    return enclave_->EcallEphemeralGrant(offer, ToArray<64>(sig_raw),
                                         recipient_public_key);
  }));
  const ByteArray<64> grant_sig = granter.Sign(grant);
  Writer w;
  w.Var(grant);
  w.Raw(grant_sig);
  NEXUS_RETURN_IF_ERROR(
      afs_.Store(EphemeralGrantPath(granter.name, recipient_name), w.bytes()));
  return AddUser(recipient_name, recipient_public_key);
}

Result<NexusClient::VolumeHandle> NexusClient::AcceptEphemeralGrant(
    const UserKey& user, const std::string& granter_name,
    const ByteArray<32>& granter_public_key, const Uuid& volume_uuid) {
  NEXUS_ASSIGN_OR_RETURN(Bytes published,
                         afs_.Fetch(EphemeralGrantPath(granter_name, user.name)));
  Reader r(published);
  NEXUS_ASSIGN_OR_RETURN(Bytes grant, r.Var(8192));
  NEXUS_ASSIGN_OR_RETURN(Bytes sig_raw, r.Raw(64));
  if (!r.AtEnd()) {
    return Error(ErrorCode::kInvalidArgument, "trailing grant-file bytes");
  }
  NEXUS_ASSIGN_OR_RETURN(Bytes sealed_rootkey, TimedEcall("ecall:ephemeral_accept", [&] {
    return enclave_->EcallEphemeralAccept(grant, ToArray<64>(sig_raw),
                                          granter_public_key);
  }));
  return VolumeHandle{volume_uuid, std::move(sealed_rootkey)};
}

Result<Bytes> NexusClient::ExportSealedVersionTable() {
  return TimedEcall("ecall:seal_version_table", [&] { return enclave_->EcallSealVersionTable(); });
}

Status NexusClient::ImportSealedVersionTable(ByteSpan sealed) {
  return TimedEcall("ecall:load_version_table", [&] { return enclave_->EcallLoadVersionTable(sealed); });
}

void NexusClient::DropAllCaches() {
  enclave_->EcallDropCaches();
  afs_.FlushCache();
}

} // namespace nexus::core
