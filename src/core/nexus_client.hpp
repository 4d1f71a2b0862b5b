// NexusClient: the untrusted host-side facade — the public API of the
// library.
//
// One NexusClient corresponds to the paper's userspace daemon on one
// machine: it owns the ocall bridge to the storage service, forwards
// requests into the enclave, orchestrates the out-of-enclave halves of the
// authentication and key-exchange protocols (the user's identity key never
// enters the enclave), and accounts enclave compute time on the virtual
// clock for the evaluation harness.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "core/metadata_store.hpp"
#include "core/profiler.hpp"
#include "core/user_key.hpp"
#include "enclave/nexus_enclave.hpp"
#include "storage/afs.hpp"
#include "trace/trace.hpp"

namespace nexus::core {

class NexusClient {
 public:
  /// `intel_root_public_key` — the attestation root used to verify peers'
  /// quotes (baked into the enclave in a real deployment).
  NexusClient(sgx::EnclaveRuntime& runtime, storage::AfsClient& afs,
              const ByteArray<32>& intel_root_public_key);

  // ---- volume lifecycle ----------------------------------------------------

  struct VolumeHandle {
    Uuid volume_uuid;
    Bytes sealed_rootkey; // machine-bound; persist locally
  };

  /// Creates a volume owned by `owner`; leaves it mounted.
  Result<VolumeHandle> CreateVolume(const UserKey& owner,
                                    const enclave::VolumeConfig& config = {});

  /// Runs the §IV-B challenge-response protocol and mounts the volume.
  Status Mount(const UserKey& user, const Uuid& volume_uuid,
               ByteSpan sealed_rootkey);
  Status Unmount();
  [[nodiscard]] bool mounted() const { return enclave_->mounted(); }

  // ---- filesystem operations (Table I) --------------------------------------

  Status Touch(const std::string& path);
  /// Creates `path` with `content` as its first content: one transaction
  /// that publishes the name and the content together. Fails
  /// kAlreadyExists when the name exists.
  Status CreateFile(const std::string& path, ByteSpan content);
  Status Mkdir(const std::string& path);
  Status Remove(const std::string& path);
  Result<enclave::Attributes> Lookup(const std::string& path);
  Result<std::vector<enclave::DirEntry>> ListDir(const std::string& path);
  Status Symlink(const std::string& target, const std::string& linkpath);
  Status Hardlink(const std::string& existing, const std::string& linkpath);
  Result<std::string> Readlink(const std::string& path);
  Status Rename(const std::string& from, const std::string& to);

  /// Whole-file write; a missing file is created with this content in
  /// one transaction (CreateFile).
  Status WriteFile(const std::string& path, ByteSpan content);
  /// Write where only [dirty_offset, dirty_offset+dirty_len) changed:
  /// the enclave re-encrypts and ships only the affected chunks.
  Status WriteFileRange(const std::string& path, ByteSpan content,
                        std::uint64_t dirty_offset, std::uint64_t dirty_len);
  Result<Bytes> ReadFile(const std::string& path);

  // ---- access control --------------------------------------------------------

  Status AddUser(const std::string& name, const ByteArray<32>& public_key);
  Status RemoveUser(const std::string& name);
  Result<std::vector<enclave::UserRecord>> ListUsers();
  Status SetAcl(const std::string& dirpath, const std::string& username,
                std::uint8_t perms);

  // ---- write-ahead journal / group commit -------------------------------------

  /// Enables or disables write-ahead journaling of metadata stores. Every
  /// commit is checkpointed at once, so `checkpoint_interval_ops` must be
  /// 0 (anything else is kInvalidArgument); the parameter goes with the
  /// next change to the full-stack benchmark, which passes it. Recovery of
  /// a committed-but-unapplied anchor tail still runs at every mount even
  /// when journaling is disabled.
  Status ConfigureJournal(bool enabled, std::uint64_t checkpoint_interval_ops);

  /// Opens an explicit batch: metadata writes from subsequent operations
  /// accumulate in the enclave and become durable as ONE anchor store at
  /// CommitBatch (group commit). The batch is all-or-nothing under crashes.
  /// Requires journaling to be enabled; single writer per volume while a
  /// batch is open.
  Status BeginBatch();
  /// Seals and commits every metadata write since BeginBatch.
  Status CommitBatch();

  // ---- in-band attested key exchange (§IV-B1) --------------------------------
  // All blobs travel as files on the shared storage service; the two users
  // never need to be online simultaneously.

  /// Setup: publishes this enclave's signed identity (quote + ECDH key)
  /// at "keyx/<user>.id".
  Status PublishIdentity(const UserKey& user);

  /// Exchange: grants `recipient_name` (whose identity blob is on the
  /// store, and whose user public key the granter trusts out-of-band)
  /// access to the mounted volume. Writes the grant file and adds the user
  /// to the supernode.
  Status GrantAccess(const UserKey& granter, const std::string& recipient_name,
                     const ByteArray<32>& recipient_public_key);

  /// Extraction: consumes a grant addressed to `user`, returning the
  /// volume handle (sealed rootkey) to mount with.
  Result<VolumeHandle> AcceptGrant(const UserKey& user,
                                   const std::string& granter_name,
                                   const ByteArray<32>& granter_public_key,
                                   const Uuid& volume_uuid);

  // ---- synchronous PFS variant (§VI-B) --------------------------------------
  // Same in-band transport, but both parties are online and every exchange
  // uses fresh quoted ephemeral keys on both sides (forward secrecy).

  /// Recipient: publishes a one-shot signed ephemeral offer at
  /// "keyx/<user>.offer".
  Status PublishEphemeralOffer(const UserKey& user);
  /// Granter: consumes the recipient's offer, publishes the ephemeral
  /// grant and authorizes the user in the supernode.
  Status GrantAccessEphemeral(const UserKey& granter,
                              const std::string& recipient_name,
                              const ByteArray<32>& recipient_public_key);
  /// Recipient: consumes the granter's ephemeral grant.
  Result<VolumeHandle> AcceptEphemeralGrant(const UserKey& user,
                                            const std::string& granter_name,
                                            const ByteArray<32>& granter_public_key,
                                            const Uuid& volume_uuid);

  // ---- persistent local state (§VI-C) ----------------------------------------

  /// Seals the enclave's rollback-defence version table for local storage;
  /// reload it after a restart to extend rollback detection across
  /// sessions.
  Result<Bytes> ExportSealedVersionTable();
  Status ImportSealedVersionTable(ByteSpan sealed);

  // ---- instrumentation ---------------------------------------------------------

  [[nodiscard]] enclave::NexusEnclave& enclave() noexcept { return *enclave_; }
  [[nodiscard]] storage::AfsClient& afs() noexcept { return afs_; }
  [[nodiscard]] ProfileSnapshot Profile() const {
    const storage::SimClock& clock = afs_.server().clock();
    ProfileSnapshot snap;
    snap.io_seconds = clock.Now();
    snap.enclave_seconds = enclave_seconds_;
    snap.metadata_io_seconds = clock.Account(kMetaIoAccount);
    snap.data_io_seconds = clock.Account(kDataIoAccount);
    snap.journal_io_seconds = clock.Account(kJournalIoAccount);
    snap.journal = enclave_->journal_stats();
    snap.parallel = enclave_->parallel_stats();
    {
      const trace::Histogram& ecalls = trace::GlobalHistogram("ecall");
      snap.ecall_latency = LatencySummary{
          ecalls.Count(), ecalls.PercentileMs(0.50), ecalls.PercentileMs(0.99)};
      const trace::Histogram& commits =
          trace::GlobalHistogram("journal.commit");
      snap.journal_commit_latency =
          LatencySummary{commits.Count(), commits.PercentileMs(0.50),
                         commits.PercentileMs(0.99)};
    }
    snap.trace_spans = trace::CompletedSpanCount();
    return snap;
  }

  /// Reconfigures the enclave's crypto worker pool (0 = serial path).
  Status SetCryptoWorkers(std::size_t workers) {
    return enclave_->EcallSetCryptoWorkers(workers);
  }
  /// Drops the in-enclave and AFS caches (cold-start measurements).
  void DropAllCaches();

 private:
  /// Runs an ecall, folding its real compute time into the virtual clock
  /// under the "enclave" account, recording it in the per-ecall latency
  /// histograms, and opening a trace span named after the operation.
  template <typename F>
  auto TimedEcall(const char* name, F&& f);

  static std::string IdentityPath(const std::string& user);
  static std::string GrantPath(const std::string& granter,
                               const std::string& recipient);

  storage::AfsClient& afs_;
  AfsMetadataStore store_;
  std::unique_ptr<enclave::NexusEnclave> enclave_;
  sgx::EnclaveRuntime& runtime_;
  double enclave_seconds_ = 0;
};

} // namespace nexus::core
