// The trusted NEXUS enclave (paper §IV).
//
// All cryptographic material — the volume rootkey, metadata body keys,
// file chunk keys, the enclave ECDH identity — lives only inside this
// class, behind the simulated EENTER boundary (sgx::EnclaveRuntime). The
// public Ecall* methods are the enclave interface: Table I's filesystem
// API plus volume lifecycle, the §IV-B authentication protocol, the
// §IV-B1 attested key exchange, and §IV-C access control administration.
//
// Paths are '/'-separated and relative to the volume root ("docs/a.txt").
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/uuid.hpp"
#include "crypto/ed25519.hpp"
#include "enclave/metadata.hpp"
#include "enclave/metadata_codec.hpp"
#include "enclave/ocalls.hpp"
#include "enclave/types.hpp"
#include "journal/journal.hpp"
#include "parallel/thread_pool.hpp"
#include "sgx/enclave.hpp"

namespace nexus::enclave {

class NexusEnclave {
 public:
  /// `intel_root_public_key` is the attestation root baked into the enclave
  /// image (used to verify peers' quotes during key exchange).
  NexusEnclave(sgx::EnclaveRuntime& runtime, StorageOcalls& storage,
               const ByteArray<32>& intel_root_public_key);

  NexusEnclave(const NexusEnclave&) = delete;
  NexusEnclave& operator=(const NexusEnclave&) = delete;

  // ---- volume lifecycle ---------------------------------------------------

  struct CreateVolumeResult {
    Uuid volume_uuid;
    Bytes sealed_rootkey;
  };

  /// Creates a new volume owned by `owner_name`/`owner_public_key`: fresh
  /// rootkey, supernode and empty root directory, all stored via ocalls.
  /// The enclave is left mounted as the owner.
  Result<CreateVolumeResult> EcallCreateVolume(
      const std::string& owner_name, const ByteArray<32>& owner_public_key,
      const VolumeConfig& config);

  // ---- authentication (§IV-B challenge-response) --------------------------

  /// Step 1-2: caller presents a public key and the sealed rootkey; the
  /// enclave unseals and returns a fresh nonce.
  Result<ByteArray<16>> EcallAuthChallenge(const ByteArray<32>& user_public_key,
                                           ByteSpan sealed_rootkey,
                                           const Uuid& volume_uuid);

  /// Steps 3-5: caller signs (nonce || encrypted-supernode-blob) with the
  /// private key; on success the volume is mounted as that user.
  Status EcallAuthResponse(const ByteArray<64>& signature);

  [[nodiscard]] bool mounted() const noexcept { return session_.has_value(); }
  [[nodiscard]] Result<UserId> EcallCurrentUser() const;

  /// Drops session state and zeroizes the rootkey.
  Status EcallUnmount();

  // ---- Table I filesystem API ---------------------------------------------

  Status EcallTouch(const std::string& path, EntryType type);
  /// Creates the file `path` with `plaintext` as its first content in one
  /// transaction: one directory lock, one data store (none when empty) and
  /// one journal commit that publishes the name, the filenode and the
  /// content together. EcallTouch of a file is this with no content.
  Status EcallCreateFile(const std::string& path, ByteSpan plaintext);
  Status EcallRemove(const std::string& path);
  Result<Attributes> EcallLookup(const std::string& path);
  Result<std::vector<DirEntry>> EcallFilldir(const std::string& path);
  Status EcallSymlink(const std::string& target, const std::string& linkpath);
  Status EcallHardlink(const std::string& existing, const std::string& linkpath);
  Status EcallRename(const std::string& from, const std::string& to);
  Result<std::string> EcallReadlink(const std::string& path);

  /// Whole-file content store: encrypts `plaintext` in chunks with fresh
  /// keys and uploads data + filenode. When the caller knows only
  /// [dirty_offset, dirty_offset+dirty_len) changed (plus any size change),
  /// only the affected chunks are re-keyed, re-encrypted and shipped —
  /// this is what makes fsync-heavy workloads pay per dirty chunk, not per
  /// file (§IV-A1 chunking).
  Status EcallEncrypt(const std::string& path, ByteSpan plaintext);
  Status EcallEncryptRange(const std::string& path, ByteSpan plaintext,
                           std::uint64_t dirty_offset, std::uint64_t dirty_len);
  /// Whole-file content load: fetches, verifies and decrypts. A missing
  /// name is kNotFound; a directory or symlink is kInvalidArgument, so
  /// an open-for-read needs no Lookup ecall first.
  Result<Bytes> EcallDecrypt(const std::string& path);

  // ---- access-control administration (§IV-C, owner only) ------------------

  Status EcallAddUser(const std::string& name, const ByteArray<32>& public_key);
  Status EcallRemoveUser(const std::string& name);
  Result<std::vector<UserRecord>> EcallListUsers();
  /// perms == kPermNone removes the entry (revocation); costs one metadata
  /// re-encryption, never file re-encryption.
  Status EcallSetAcl(const std::string& dirpath, const std::string& username,
                     std::uint8_t perms);

  // ---- attested rootkey exchange (§IV-B1, Fig. 4) --------------------------

  /// Setup: exports this enclave's identity blob (SGX quote binding the
  /// enclave ECDH public key). The *caller* signs it with the user's
  /// identity key before publishing, as in the paper.
  Result<Bytes> EcallExportIdentity();

  /// Exchange (run by the granter): verifies the peer's signed identity
  /// blob (signature + quote + measurement), then returns a grant blob
  /// containing the rootkey encrypted under an ephemeral ECDH secret.
  /// The caller signs the grant blob with the granter's identity key.
  Result<Bytes> EcallGrantRootkey(ByteSpan peer_identity_blob,
                                  const ByteArray<64>& peer_signature,
                                  const ByteArray<32>& peer_identity_key);

  /// Extraction (run by the recipient): verifies the granter's signature,
  /// derives the ECDH secret, recovers the rootkey and returns it sealed
  /// to this machine. Mount afterwards via the normal auth protocol.
  Result<Bytes> EcallAcceptRootkey(ByteSpan grant_blob,
                                   const ByteArray<64>& grant_signature,
                                   const ByteArray<32>& granter_identity_key);

  /// Persists / restores the enclave ECDH identity across enclave restarts
  /// (sealed; only this enclave on this CPU can load it).
  Result<Bytes> EcallSealIdentityKey();
  Status EcallLoadIdentityKey(ByteSpan sealed);

  // ---- synchronous mutual-attestation exchange (SVI-B) ---------------------
  // The asynchronous protocol above keeps long-term enclave ECDH keys on
  // the store and therefore lacks perfect forward secrecy. This variant --
  // the mitigation SVI-B proposes -- has both parties online: each side
  // generates a fresh ephemeral ECDH key per exchange, quoted and then
  // discarded, so a future compromise of any long-term key cannot decrypt
  // a recorded grant.

  /// Recipient, step 1: produce an ephemeral offer (quote-bound fresh ECDH
  /// key). The ephemeral private key lives only until Accept or the next
  /// Offer. Caller signs the blob with the user identity key.
  Result<Bytes> EcallEphemeralOffer();

  /// Granter, step 2: verify the signed offer (signature, quote,
  /// measurement), then return a grant blob carrying our own quoted
  /// ephemeral key and the rootkey encrypted under the ECDH secret. Our
  /// ephemeral private key is destroyed before returning.
  Result<Bytes> EcallEphemeralGrant(ByteSpan offer_blob,
                                    const ByteArray<64>& offer_signature,
                                    const ByteArray<32>& peer_identity_key);

  /// Recipient, step 3: verify the signed grant (signature, quote,
  /// measurement), derive the secret with the pending ephemeral key,
  /// recover the rootkey and return it sealed. Consumes the pending offer.
  Result<Bytes> EcallEphemeralAccept(ByteSpan grant_blob,
                                     const ByteArray<64>& grant_signature,
                                     const ByteArray<32>& granter_identity_key);

  // ---- sealed version table (SVI-C rollback defence, persistent) ----------
  // The enclave records every metadata object's highest seen version; these
  // calls seal/restore that table across enclave restarts, extending
  // rollback detection beyond a single session.

  Result<Bytes> EcallSealVersionTable();
  /// Merges (taking the max per object) -- safe to load an older table.
  Status EcallLoadVersionTable(ByteSpan sealed);

  // ---- volume audit (fsck) --------------------------------------------------

  struct VolumeAudit {
    std::uint64_t directories = 0; // including the root
    std::uint64_t files = 0;
    std::uint64_t symlinks = 0;
    std::uint64_t buckets = 0;
    std::uint64_t plaintext_bytes = 0;
    /// Every object the volume references (for orphan detection outside).
    std::vector<Uuid> reachable_meta;
    std::vector<Uuid> reachable_data;
  };

  /// Walks the entire volume from the supernode, verifying every metadata
  /// object (decryption, parent pointers, bucket MACs, versions). With
  /// `deep`, additionally fetches and verifies every file's data chunks.
  /// Fails with kIntegrityViolation at the first inconsistency.
  Result<VolumeAudit> EcallVerifyVolume(bool deep);

  // ---- maintenance ---------------------------------------------------------

  /// Drops the in-enclave decrypted metadata caches (used by benchmarks to
  /// measure cold paths, and by tests after adversarial server edits).
  void EcallDropCaches();

  struct CacheStats {
    std::uint64_t dirnode_hits = 0;
    std::uint64_t dirnode_misses = 0;
    std::uint64_t filenode_hits = 0;
    std::uint64_t filenode_misses = 0;
  };
  [[nodiscard]] const CacheStats& cache_stats() const noexcept {
    return cache_stats_;
  }

  /// Bounds the decrypted metadata caches (the EPC is small — the paper's
  /// enclave fits in ~96 MB of reserved memory, so cached state must be
  /// bounded). Entries least recently used by a *previous* operation are
  /// evicted; state touched by the current operation is never dropped.
  void EcallSetCacheLimits(std::size_t max_dirnodes, std::size_t max_filenodes);

  [[nodiscard]] std::size_t cached_dirnodes() const noexcept {
    return dirnode_cache_.size();
  }
  [[nodiscard]] std::size_t cached_filenodes() const noexcept {
    return filenode_cache_.size();
  }

  // ---- write-ahead metadata journal (group commit + crash recovery) --------
  // When journaling is on (the default), every metadata store/remove an
  // operation performs is deferred into an in-enclave pending transaction
  // and made durable by ONE store of the sealed journal anchor per
  // operation — or per explicit batch — carrying the transaction as its
  // tail, then checkpointed back onto the main "nx/" objects right away.
  // Mount-time recovery re-applies the anchor's tail, so a crash can never
  // leave a half-applied operation.

  /// Turns journaling on or off. Disabling while mounted flushes (commit +
  /// checkpoint) first, enabling runs recovery first; when that fails the
  /// call fails and journaling stays as it was.
  Status EcallConfigureJournal(bool enabled);

  /// Opens an explicit batch: subsequent operations accumulate in the
  /// pending transaction instead of committing individually. Single-writer
  /// only — other clients do not see batched updates until CommitBatch.
  Status EcallBeginBatch();
  /// Seals the whole batch into one anchor store (atomic group commit),
  /// then checkpoints it.
  Status EcallCommitBatch();

  [[nodiscard]] bool journal_enabled() const noexcept {
    return journal_enabled_;
  }
  [[nodiscard]] const journal::Stats& journal_stats() const noexcept {
    return journal_stats_;
  }

  // ---- parallel chunk-crypto engine ----------------------------------------
  // Per-chunk AES-GCM with independent keys (§IV-A1) makes the data path
  // embarrassingly parallel: EcallEncrypt/EcallDecrypt dispatch one task
  // per chunk onto a work-stealing pool and join the batch. The ecall
  // thread makes the one data ocall: a read's FetchData before the batch,
  // a write's StoreData after it. Worker threads run pure compute only —
  // they never cross the (single-threaded) enclave boundary and never
  // touch enclave state beyond their disjoint ciphertext slices. For a
  // fixed RNG seed the output is byte-identical to the serial path:
  // key/IV draws happen serially in ascending chunk order before any task
  // is dispatched.

  /// Sets the crypto worker count. 0 = serial: no pool, every chunk task
  /// runs inline. The count picks where chunk tasks run, never which
  /// ocalls run. Takes effect on the next encrypt/decrypt; an existing
  /// pool of a different size is torn down first.
  Status EcallSetCryptoWorkers(std::size_t workers);
  [[nodiscard]] std::size_t crypto_workers() const noexcept {
    return crypto_workers_;
  }

  /// Counters of the parallel chunk-crypto engine. The timing fields are
  /// thread-CPU seconds: `worker_busy_seconds` sums every crypto task,
  /// `critical_path_seconds` sums each batch's slowest worker — the batch
  /// wall time an unloaded machine with as many cores as workers would
  /// observe. `saved_seconds` is the surplus of pool batches (measured
  /// wall − critical path, at most busy − critical path)
  /// already subtracted from NexusClient's enclave seconds, i.e. how much
  /// the worker pool shortened the modeled enclave runtime.
  struct ParallelStats {
    std::uint64_t chunks_encrypted = 0;
    std::uint64_t chunks_decrypted = 0;
    std::uint64_t parallel_batches = 0; // dispatched chunk batches
    std::uint64_t tasks_stolen = 0;
    std::uint64_t peak_queue_depth = 0; // gauge
    double worker_busy_seconds = 0;
    double critical_path_seconds = 0;
    double saved_seconds = 0;

    friend ParallelStats operator-(const ParallelStats& a,
                                   const ParallelStats& b) {
      return ParallelStats{
          a.chunks_encrypted - b.chunks_encrypted,
          a.chunks_decrypted - b.chunks_decrypted,
          a.parallel_batches - b.parallel_batches,
          a.tasks_stolen - b.tasks_stolen,
          a.peak_queue_depth, // a gauge keeps the later sample's peak
          a.worker_busy_seconds - b.worker_busy_seconds,
          a.critical_path_seconds - b.critical_path_seconds,
          a.saved_seconds - b.saved_seconds,
      };
    }
  };
  [[nodiscard]] const ParallelStats& parallel_stats() const noexcept {
    return parallel_stats_;
  }

  /// Drains the not-yet-consumed modeled savings: real seconds by which
  /// parallel execution shortens the batch relative to the wall time this
  /// (possibly core-starved) host measured. NexusClient subtracts it from
  /// the measured ecall wall time so the virtual clock reflects the
  /// critical path — on a machine with enough cores the wall time already
  /// is the critical path and the drained value is ~0.
  [[nodiscard]] double TakeParallelSavedSeconds() noexcept {
    const double saved = pending_saved_seconds_;
    pending_saved_seconds_ = 0;
    return saved;
  }

 private:
  // ---- in-enclave decrypted caches ---------------------------------------

  struct DirnodeState {
    Dirnode main;
    std::vector<DirBucket> buckets; // parallel to main.buckets
    std::uint64_t meta_version = 0;
    std::uint64_t storage_version = 0;
    std::uint64_t last_used = 0; // op tick, for LRU eviction
  };

  struct FilenodeState {
    Filenode node;
    std::uint64_t meta_version = 0;
    std::uint64_t storage_version = 0;
    std::uint64_t last_used = 0;
  };

  struct Session {
    RootKey rootkey{};
    UserId user = kOwnerUserId;
    Uuid volume_uuid;
    Supernode supernode;
    std::uint64_t supernode_storage_version = 0;
  };

  struct PendingAuth {
    ByteArray<32> user_public_key{};
    RootKey rootkey{};
    Uuid volume_uuid;
    ByteArray<16> nonce{};
    // Whether the anchor recovery left on the store still carries a tail,
    // handed to the session once authentication completes.
    bool journal_tail_on_store = false;
  };

  /// Per-session journal state: the sealing key, the pending (uncommitted)
  /// transaction and the committed-but-not-yet-checkpointed set, plus data
  /// objects whose removal is deferred until the transaction that stops
  /// referencing them has committed.
  struct JournalState {
    journal::JournalKey key{};
    journal::TxnBuffer pending;
    journal::TxnBuffer committed;
    std::vector<Uuid> deferred_data_removes;
    bool explicit_batch = false;
    bool tail_on_store = false; // the stored anchor carries a transaction
  };

  // ---- ocall wrappers (transition accounting) -----------------------------
  Result<ObjectBlob> FetchMetaO(const Uuid& uuid);
  Status StoreMetaO(const Uuid& uuid, ByteSpan data, std::uint64_t* version_out);
  Status RemoveMetaO(const Uuid& uuid);
  Result<ObjectBlob> FetchDataO(const Uuid& uuid);
  Status StoreDataO(const Uuid& uuid, SharedBytes data,
                    std::uint64_t changed_bytes);
  Status RemoveDataO(const Uuid& uuid);
  Status LockMetaO(const Uuid& uuid);
  Status UnlockMetaO(const Uuid& uuid);
  bool CacheFreshO(const Uuid& uuid, std::uint64_t storage_version);
  Result<Bytes> FetchJournalO(const std::string& name);
  Status StoreJournalO(const std::string& name, ByteSpan data);

  // Journal-bypassing variants used by checkpoint apply and recovery
  // replay; everything else must go through StoreMetaO/RemoveMetaO.
  Status StoreMetaDirect(const Uuid& uuid, ByteSpan data,
                         std::uint64_t* version_out);
  Status RemoveMetaDirect(const Uuid& uuid);

  // ---- journal internals ---------------------------------------------------

  /// Looks up `uuid` in the pending then committed buffers.
  [[nodiscard]] const journal::Op* JournalFind(const Uuid& uuid) const;

  /// Engages journaling for the current session; `tail_on_store` says
  /// whether the anchor on the store carries a tail.
  void EngageJournal(bool tail_on_store);

  /// Seals `tail` into the journal's anchor object and stores it.
  Status StoreAnchorO(const std::vector<journal::Op>& tail,
                      const journal::JournalKey& key, const Uuid& volume_uuid);

  /// Commits the pending transaction with one anchor store whose tail is
  /// the committed set merged with it (last wins), merges it into the
  /// committed set, executes deferred data removes and checkpoints. The
  /// commit is a no-op when the transaction is empty.
  Status CommitPending();

  /// Applies the committed set onto the main objects.
  Status CheckpointJournal();

  /// Commits and checkpoints everything, then replaces a tail-carrying
  /// anchor with a tail-free one. Run before journaling stops (unmount,
  /// disable), so only a session that dies leaves a tail behind.
  Status FlushJournal();

  /// Per-operation epilogue for every mutating ecall: in auto mode commits
  /// (and checkpoints) what the operation deferred; in explicit
  /// batch mode leaves it pending. Partial state from a failed operation is
  /// still committed — exactly the durability the non-journaled write-through
  /// path had — so the version table never runs ahead of the store.
  Status FinishMutation(Status result);

  /// After a checkpoint stored `uuid` for real, stamps the true storage
  /// version into any cache entry still carrying the journal sentinel.
  void PatchCachedStorageVersion(const Uuid& uuid, std::uint64_t version);

  /// Recovery apply of the anchor's tail: a put is stored only when the
  /// stored object is missing or carries a lower authenticated version, a
  /// remove only when the object is still there. Returns how many ops
  /// changed the store.
  Result<std::size_t> ReplayOps(const std::vector<journal::Op>& ops,
                                const RootKey& rootkey);

  /// Mount-time recovery: applies the anchor's tail and, if that changed
  /// anything, stores a tail-free anchor. Returns whether the anchor on
  /// the store still carries a tail (kept when applying it changed
  /// nothing).
  Result<bool> RecoverJournal(const RootKey& rootkey, const Uuid& volume_uuid);

  // ---- internals -----------------------------------------------------------
  Status RequireMounted() const;
  [[nodiscard]] bool IsOwner() const;
  Status CheckDirAccess(const Dirnode& dir, std::uint8_t needed) const;

  /// Rollback defence: rejects metadata older than the locally recorded
  /// version; records the newest seen/written version.
  Status CheckAndRecordVersion(const Uuid& uuid, std::uint64_t version);

  Result<Bytes> EncodeAndStoreMeta(MetaType type, const Uuid& uuid,
                                   std::uint64_t version, ByteSpan body,
                                   std::uint64_t* storage_version_out);

  /// Loads (with caching) a dirnode + all its buckets; verifies the parent
  /// pointer and bucket MACs.
  Result<DirnodeState*> LoadDirnode(const Uuid& uuid, const Uuid& expected_parent);
  Result<FilenodeState*> LoadFilenode(const Uuid& uuid, const Uuid& expected_parent);
  Status ReloadSupernode();

  /// Writes back a mutated dirnode: dirty buckets first (recomputing MACs),
  /// then the main object.
  Status FlushDirnode(DirnodeState& state, const std::vector<std::size_t>& dirty_buckets);
  Status FlushFilenode(FilenodeState& state);

  /// Appends `entry` to the last bucket with room, or to a new bucket (nil
  /// UUID until FlushDirnode first stores it). Returns the bucket index,
  /// which the caller must flush.
  std::size_t AppendEntry(DirnodeState& dir, DirEntry entry);

  /// Splits `path` into components; rejects empty/'.'/'..' components.
  static Result<std::vector<std::string>> SplitPath(const std::string& path);

  /// A resolved directory: its own UUID plus its parent's (needed for the
  /// §IV-A3 parent-pointer verification when (re)loading it).
  struct ResolvedDir {
    Uuid uuid;
    Uuid parent;
  };

  /// Walks from the root to the directory identified by `components`,
  /// enforcing read access at every level.
  Result<ResolvedDir> ResolveDir(const std::vector<std::string>& components);

  struct EntryLocation {
    DirnodeState* dir = nullptr; // parent directory state
    std::size_t bucket_index = 0;
    std::size_t entry_index = 0;
  };
  /// Finds `name` within the (already loaded) directory.
  static const DirEntry* FindEntry(const DirnodeState& dir, const std::string& name,
                                   EntryLocation* loc = nullptr);

  /// The one create path: files (with their first content), directories
  /// and symlinks.
  Status CreateEntry(const std::string& path, EntryType type,
                     const std::string& symlink_target, ByteSpan content);

  /// Lays `plaintext` out in `node`'s chunks (its size already set): a
  /// chunk `reseal` selects gets fresh key material, drawn serially in
  /// ascending chunk order, and is sealed on the crypto pool; any other
  /// keeps its key, and its ciphertext is copied from `old_ciphertext`.
  /// Returns the whole ciphertext; adds the sealed chunks' bytes to
  /// `changed_bytes`.
  Result<Bytes> SealChunks(Filenode& node, ByteSpan plaintext,
                           const std::function<bool(std::size_t)>& reseal,
                           const Bytes* old_ciphertext,
                           std::uint64_t& changed_bytes);
  Status AuditDirectory(const Uuid& dir_uuid, const Uuid& parent, bool deep,
                        VolumeAudit& audit);

  /// Evicts LRU cache entries above the limits; never touches entries used
  /// by the operation currently in flight (their last_used == op_tick_).
  void EvictColdCacheEntries();

  // ---- parallel crypto internals -------------------------------------------

  /// The worker pool, created lazily on the first parallel batch (and after
  /// every EcallSetCryptoWorkers change). Null when crypto_workers_ == 0.
  /// Pre-warms the AES-NI dispatch decision and the AES sbox tables on the
  /// calling thread so workers never race a magic-static initialisation.
  parallel::ThreadPool* EnsurePool();

  /// Folds one finished TaskGroup batch into parallel_stats_ and the
  /// modeled-savings accumulator. `batch_wall_seconds` is the measured wall
  /// time of dispatch+join on this host; no ocall runs inside it. Only a
  /// batch that ran on the pool is credited.
  void RecordParallelBatch(const parallel::TaskGroup& group,
                           double batch_wall_seconds);

  /// Pre-checks removability (directory emptiness) without mutating state.
  Status CheckRemovable(const DirEntry& entry, const Uuid& parent_uuid);
  /// Deletes/updates an entry's backing objects; must only run after the
  /// parent dirnode no longer references the entry (crash => orphans, not
  /// dangling references).
  Status ReleaseEntryObjects(const DirEntry& entry, const Uuid& parent_uuid);

  sgx::EnclaveRuntime& runtime_;
  StorageOcalls& storage_;
  ByteArray<32> intel_root_public_key_{};

  // Enclave ECDH identity for the key-exchange protocol.
  ByteArray<32> ecdh_private_{};
  ByteArray<32> ecdh_public_{};
  // Pending ephemeral key for the synchronous (PFS) exchange variant.
  std::optional<ByteArray<32>> ephemeral_private_;

  std::optional<PendingAuth> pending_auth_;
  std::optional<Session> session_;

  std::unordered_map<Uuid, DirnodeState> dirnode_cache_;
  std::unordered_map<Uuid, FilenodeState> filenode_cache_;
  std::unordered_map<Uuid, std::uint64_t> min_versions_;

  std::optional<JournalState> journal_;
  bool journal_enabled_ = true;
  journal::Stats journal_stats_;

  CacheStats cache_stats_;
  std::size_t max_cached_dirnodes_ = 4096;
  std::size_t max_cached_filenodes_ = 16384;
  mutable std::uint64_t op_tick_ = 0;

  // Parallel chunk-crypto engine (0 workers = serial path, no pool).
  std::size_t crypto_workers_;
  std::unique_ptr<parallel::ThreadPool> pool_;
  ParallelStats parallel_stats_;
  double pending_saved_seconds_ = 0;
};

} // namespace nexus::enclave
