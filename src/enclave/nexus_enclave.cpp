// Core enclave implementation: lifecycle, metadata caching, traversal and
// the Table I filesystem operations. Authentication, administration and the
// key-exchange protocol live in nexus_enclave_sharing.cpp.
#include "enclave/nexus_enclave.hpp"

#include <algorithm>
#include <thread>

#include "common/clock.hpp"
#include "common/env.hpp"
#include "trace/trace.hpp"
#include "common/serial.hpp"
#include "crypto/aes.hpp"
#include "crypto/aesni.hpp"
#include "crypto/gcm.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"

namespace nexus::enclave {

namespace {

// AAD binding a data chunk to its file and position, so ciphertext cannot
// be transplanted across files or shuffled within one. Lengths/truncation
// are enforced by the (authenticated) filenode's size and chunk table, and
// every content update re-keys the touched chunks, so a stale data object
// fails their tags. Deliberately excludes the file size: surviving chunks
// must stay decryptable across partial updates that change the size.
Bytes ChunkAad(const Uuid& file_uuid, std::uint32_t index) {
  Writer w;
  w.Id(file_uuid);
  w.U32(index);
  return std::move(w).Take();
}

// Crypto worker count: NEXUS_CRYPTO_WORKERS env override (0 = serial),
// default min(4, hardware threads). The paper's enclave runs on desktop
// SGX parts with 4 hyperthreads; more workers than that only adds queue
// contention for the 1 MiB-granular tasks.
std::size_t DefaultCryptoWorkers() {
  const std::uint64_t v = EnvUnsigned("NEXUS_CRYPTO_WORKERS", ~0ull);
  if (v <= 64) return static_cast<std::size_t>(v);
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(4, hw == 0 ? 1 : hw);
}

} // namespace

NexusEnclave::NexusEnclave(sgx::EnclaveRuntime& runtime, StorageOcalls& storage,
                           const ByteArray<32>& intel_root_public_key)
    : runtime_(runtime),
      storage_(storage),
      intel_root_public_key_(intel_root_public_key),
      crypto_workers_(DefaultCryptoWorkers()) {
  // Enclave ECDH identity (key-exchange "Setup", §IV-B1). Generated fresh;
  // persisted across restarts via EcallSealIdentityKey.
  ecdh_private_ = crypto::X25519ClampScalar(runtime_.rng().Array<32>());
  ecdh_public_ = crypto::X25519BasePoint(ecdh_private_);
}

// ---- parallel chunk-crypto engine -------------------------------------------

Status NexusEnclave::EcallSetCryptoWorkers(std::size_t workers) {
  if (workers > 64) {
    return Error(ErrorCode::kInvalidArgument, "too many crypto workers");
  }
  if (workers != crypto_workers_) {
    pool_.reset(); // joins the old workers before the count changes
    crypto_workers_ = workers;
  }
  return Status::Ok();
}

parallel::ThreadPool* NexusEnclave::EnsurePool() {
  if (crypto_workers_ == 0) return nullptr;
  if (pool_ == nullptr) {
    // Resolve the AES-NI dispatch decision (a magic static guarding a
    // self-test KAT) and warm the AES key-schedule path on this thread,
    // so no worker ever races the one-time initialisation.
    (void)crypto::HasAesHardware();
    const ByteArray<16> warm_key{};
    if (auto aes = crypto::Aes::Create(warm_key); aes.ok()) {
      std::uint8_t block[16] = {};
      aes->EncryptBlock(block, block);
    }
    pool_ = std::make_unique<parallel::ThreadPool>(crypto_workers_);
  }
  return pool_.get();
}

void NexusEnclave::RecordParallelBatch(const parallel::TaskGroup& group,
                                       double batch_wall_seconds) {
  // The batch already ran; record it as a completed span ending now.
  if (trace::Enabled() && batch_wall_seconds > 0) {
    const auto wall_ns =
        static_cast<std::uint64_t>(batch_wall_seconds * 1e9 + 0.5);
    const std::uint64_t now = MonotonicNanos();
    trace::CompleteSpan("parallel:batch", "parallel",
                        now > wall_ns ? now - wall_ns : 0, wall_ns);
  }
  ++parallel_stats_.parallel_batches;
  parallel_stats_.worker_busy_seconds += group.busy_seconds();
  parallel_stats_.critical_path_seconds += group.critical_path_seconds();
  if (group.pool() != nullptr) {
    // Modeled multi-core scaling: on a host with fewer cores than workers
    // the batch's wall time degenerates to the serial sum, but the
    // critical path (max per-worker CPU seconds) is what an unloaded
    // N-core machine would measure. The surplus is drained by the client
    // profiler from the measured ecall wall time. On a real N-core host
    // wall ≈ critical path and the surplus is ~0 — no double counting.
    // A batch that ran inline had no pool to save anything. Nor can the
    // credit exceed busy − critical path, the most that running the tasks
    // side by side can save: the rest of the window is queueing and
    // wake-up latency (a 1-worker pool saves nothing).
    const double saved =
        std::min(batch_wall_seconds - group.critical_path_seconds(),
                 group.busy_seconds() - group.critical_path_seconds());
    if (saved > 0) {
      parallel_stats_.saved_seconds += saved;
      pending_saved_seconds_ += saved;
    }
    const parallel::PoolStats ps = group.pool()->stats();
    parallel_stats_.tasks_stolen = ps.tasks_stolen;
    parallel_stats_.peak_queue_depth =
        std::max(parallel_stats_.peak_queue_depth, ps.peak_queue_depth);
  }
}

// ---- ocall wrappers ---------------------------------------------------------
// When a journal session is engaged, metadata stores/removes are deferred
// into the pending transaction instead of crossing the enclave boundary;
// fetches are answered from the transaction buffers first so the enclave
// reads its own uncommitted writes. Bulk data and locks always pass through.

namespace {
// storage_version stamped on journaled (not yet checkpointed) objects.
// Real stamps start at 1 and increment, so this value is unreachable.
constexpr std::uint64_t kJournaledStorageVersion = ~0ull;
} // namespace

Result<ObjectBlob> NexusEnclave::FetchMetaO(const Uuid& uuid) {
  if (const journal::Op* op = JournalFind(uuid)) {
    if (op->kind == journal::OpKind::kRemove) {
      return Error(ErrorCode::kNotFound, "object removed in pending transaction");
    }
    return ObjectBlob{Share(op->blob), kJournaledStorageVersion};
  }
  trace::Span ocall_span("ocall:fetch_meta", "ocall");
  sgx::EnclaveRuntime::OcallScope scope(runtime_);
  return storage_.FetchMeta(uuid);
}

Status NexusEnclave::StoreMetaO(const Uuid& uuid, ByteSpan data,
                                std::uint64_t* version_out) {
  if (journal_.has_value()) {
    journal_->pending.Put(uuid, ToBytes(data));
    if (version_out != nullptr) *version_out = kJournaledStorageVersion;
    return Status::Ok();
  }
  return StoreMetaDirect(uuid, data, version_out);
}

Status NexusEnclave::RemoveMetaO(const Uuid& uuid) {
  if (journal_.has_value()) {
    journal_->pending.Remove(uuid);
    return Status::Ok();
  }
  return RemoveMetaDirect(uuid);
}

Status NexusEnclave::StoreMetaDirect(const Uuid& uuid, ByteSpan data,
                                     std::uint64_t* version_out) {
  trace::Span ocall_span("ocall:store_meta", "ocall");
  sgx::EnclaveRuntime::OcallScope scope(runtime_);
  NEXUS_ASSIGN_OR_RETURN(std::uint64_t version, storage_.StoreMeta(uuid, data));
  if (version_out != nullptr) *version_out = version;
  return Status::Ok();
}

Status NexusEnclave::RemoveMetaDirect(const Uuid& uuid) {
  trace::Span ocall_span("ocall:remove_meta", "ocall");
  sgx::EnclaveRuntime::OcallScope scope(runtime_);
  return storage_.RemoveMeta(uuid);
}

Result<ObjectBlob> NexusEnclave::FetchDataO(const Uuid& uuid) {
  trace::Span ocall_span("ocall:fetch_data", "ocall");
  sgx::EnclaveRuntime::OcallScope scope(runtime_);
  return storage_.FetchData(uuid);
}

Status NexusEnclave::StoreDataO(const Uuid& uuid, SharedBytes data,
                                std::uint64_t changed_bytes) {
  trace::Span ocall_span("ocall:store_data", "ocall");
  sgx::EnclaveRuntime::OcallScope scope(runtime_);
  return storage_.StoreData(uuid, std::move(data), changed_bytes);
}

Status NexusEnclave::RemoveDataO(const Uuid& uuid) {
  if (journal_.has_value()) {
    // Defer the delete until the transaction that stopped referencing the
    // object has committed: until then the on-store filenode still points
    // at it, and a crash must leave that state fully readable.
    journal_->deferred_data_removes.push_back(uuid);
    return Status::Ok();
  }
  trace::Span ocall_span("ocall:remove_data", "ocall");
  sgx::EnclaveRuntime::OcallScope scope(runtime_);
  return storage_.RemoveData(uuid);
}

Status NexusEnclave::LockMetaO(const Uuid& uuid) {
  trace::Span ocall_span("ocall:lock_meta", "ocall");
  sgx::EnclaveRuntime::OcallScope scope(runtime_);
  return storage_.LockMeta(uuid);
}

Status NexusEnclave::UnlockMetaO(const Uuid& uuid) {
  trace::Span ocall_span("ocall:unlock_meta", "ocall");
  sgx::EnclaveRuntime::OcallScope scope(runtime_);
  return storage_.UnlockMeta(uuid);
}

bool NexusEnclave::CacheFreshO(const Uuid& uuid, std::uint64_t storage_version) {
  if (const journal::Op* op = JournalFind(uuid)) {
    // A cached decrypt is fresh iff it was decoded from the journaled blob
    // (sentinel stamp). A pending remove can never validate a cache entry.
    return op->kind == journal::OpKind::kPut &&
           storage_version == kJournaledStorageVersion;
  }
  trace::Span ocall_span("ocall:cache_fresh", "ocall");
  sgx::EnclaveRuntime::OcallScope scope(runtime_);
  return storage_.CacheFresh(uuid, storage_version);
}

Result<Bytes> NexusEnclave::FetchJournalO(const std::string& name) {
  trace::Span ocall_span("ocall:fetch_journal", "ocall");
  sgx::EnclaveRuntime::OcallScope scope(runtime_);
  return storage_.FetchJournal(name);
}

Status NexusEnclave::StoreJournalO(const std::string& name, ByteSpan data) {
  trace::Span ocall_span("ocall:store_journal", "ocall");
  sgx::EnclaveRuntime::OcallScope scope(runtime_);
  return storage_.StoreJournal(name, data);
}

// ---- write-ahead journal ----------------------------------------------------

const journal::Op* NexusEnclave::JournalFind(const Uuid& uuid) const {
  if (!journal_.has_value()) return nullptr;
  // Pending shadows committed: within one transaction the newest write wins.
  if (const journal::Op* op = journal_->pending.Find(uuid)) return op;
  return journal_->committed.Find(uuid);
}

void NexusEnclave::EngageJournal(bool tail_on_store) {
  JournalState state;
  state.key = journal::DeriveJournalKey(session_->rootkey);
  state.tail_on_store = tail_on_store;
  journal_ = std::move(state);
}

Status NexusEnclave::StoreAnchorO(const std::vector<journal::Op>& tail,
                                  const journal::JournalKey& key,
                                  const Uuid& volume_uuid) {
  NEXUS_ASSIGN_OR_RETURN(
      Bytes blob, journal::EncodeAnchor(tail, key, volume_uuid, runtime_.rng()));
  return StoreJournalO(journal::kAnchorName, blob);
}

Status NexusEnclave::CommitPending() {
  if (!journal_.has_value()) return Status::Ok();
  JournalState& j = *journal_;
  if (!j.pending.empty()) {
    trace::Span commit_span("journal:commit", "journal");
    const std::uint64_t commit_t0 = MonotonicNanos();
    // The single durability point of the whole transaction: one store of
    // the anchor, carrying the transaction as its tail. Until it succeeds
    // everything stays pending (retryable). Ops an earlier commit left
    // unapplied (its checkpoint failed) ride along, merged last-wins, so
    // the anchor alone always holds everything the main objects may lack.
    const std::vector<journal::Op>* tail = &j.pending.ops();
    journal::TxnBuffer merged;
    if (!j.committed.empty()) {
      merged = j.committed;
      for (const journal::Op& op : j.pending.ops()) merged.Apply(op);
      tail = &merged.ops();
    }
    NEXUS_RETURN_IF_ERROR(StoreAnchorO(*tail, j.key, session_->volume_uuid));
    j.tail_on_store = true;
    // Encode -> durable-store wall time of the commit (group commit cost).
    trace::GlobalHistogram("journal.commit")
        .Record(MonotonicNanos() - commit_t0);
    journal_stats_.ops_deduped += j.pending.deduped();
    journal_stats_.ops_committed += j.pending.size();
    ++journal_stats_.records_committed;
    for (journal::Op& op : j.pending.TakeOps()) j.committed.Apply(std::move(op));
  }
  // Data objects unreferenced by this transaction are now safe to delete.
  for (const Uuid& uuid : j.deferred_data_removes) {
    trace::Span ocall_span("ocall:remove_data", "ocall");
    sgx::EnclaveRuntime::OcallScope scope(runtime_);
    (void)storage_.RemoveData(uuid); // best effort: an orphan is harmless
  }
  j.deferred_data_removes.clear();
  return CheckpointJournal();
}

Status NexusEnclave::CheckpointJournal() {
  if (!journal_.has_value()) return Status::Ok();
  JournalState& j = *journal_;
  if (j.committed.empty()) return Status::Ok();
  trace::Span checkpoint_span("journal:checkpoint", "journal");

  // Apply committed ops onto the main objects. Order across objects is
  // irrelevant (each op carries the whole blob); a crash mid-apply is fine
  // because the anchor's tail holds every committed op until it is
  // replaced, so mount-time recovery re-applies the remainder.
  for (const journal::Op& op : j.committed.ops()) {
    if (op.kind == journal::OpKind::kPut) {
      std::uint64_t version = 0;
      NEXUS_RETURN_IF_ERROR(StoreMetaDirect(op.uuid, op.blob, &version));
      PatchCachedStorageVersion(op.uuid, version);
    } else {
      // A missing object is Ok: it may never have been checkpointed
      // (created and deleted within the journaled window) or a previous
      // partial checkpoint already removed it.
      NEXUS_RETURN_IF_ERROR(RemoveMetaDirect(op.uuid));
    }
  }
  journal_stats_.ops_checkpointed += j.committed.size();
  j.committed.Clear();
  // The (now applied) tail may stay on the store: recovery re-applies it
  // version-guarded, which changes nothing.
  ++journal_stats_.checkpoints;
  return Status::Ok();
}

Status NexusEnclave::FinishMutation(Status result) {
  if (!journal_.has_value()) return result;
  if (journal_->explicit_batch) return result;
  // Commit even when the operation failed: whatever it already stored is
  // exactly what the non-journaled write-through path would have made
  // durable, and the version table has already recorded those writes.
  const Status committed = CommitPending();
  return result.ok() ? committed : result;
}

void NexusEnclave::PatchCachedStorageVersion(const Uuid& uuid,
                                             std::uint64_t version) {
  if (const auto it = dirnode_cache_.find(uuid); it != dirnode_cache_.end() &&
      it->second.storage_version == kJournaledStorageVersion) {
    it->second.storage_version = version;
  }
  if (const auto it = filenode_cache_.find(uuid); it != filenode_cache_.end() &&
      it->second.storage_version == kJournaledStorageVersion) {
    it->second.storage_version = version;
  }
  if (session_.has_value() && uuid == session_->volume_uuid &&
      session_->supernode_storage_version == kJournaledStorageVersion) {
    session_->supernode_storage_version = version;
  }
}

Result<std::size_t> NexusEnclave::ReplayOps(const std::vector<journal::Op>& ops,
                                            const RootKey& rootkey) {
  std::size_t applied = 0;
  for (const journal::Op& op : ops) {
    // Recovery only reads until it finds something to change: the ops may
    // all have been applied before the crash (always so for the anchor's
    // tail after a clean commit).
    auto stored = FetchMetaO(op.uuid);
    if (!stored.ok() && stored.status().code() != ErrorCode::kNotFound) {
      return stored.status();
    }
    if (op.kind == journal::OpKind::kRemove) {
      if (!stored.ok()) continue;
      NEXUS_RETURN_IF_ERROR(RemoveMetaDirect(op.uuid));
    } else {
      // Version guard: a put lands only on a missing object or one whose
      // authenticated version is lower — a later unjournaled session may
      // have moved the object past the journaled state. The journaled blob
      // came out of a sealed journal object, so its preamble is authentic
      // as is. A stored object that does not authenticate is left alone
      // for the next load to report.
      if (stored.ok()) {
        NEXUS_ASSIGN_OR_RETURN(const Preamble mine, PeekPreamble(op.blob));
        const auto theirs =
            DecodeMetadata(*stored->data, rootkey, mine.type, op.uuid);
        if (!theirs.ok() || theirs->preamble.version >= mine.version) continue;
      }
      NEXUS_RETURN_IF_ERROR(StoreMetaDirect(op.uuid, op.blob, nullptr));
    }
    ++applied;
  }
  journal_stats_.ops_replayed += applied;
  return applied;
}

Result<bool> NexusEnclave::RecoverJournal(const RootKey& rootkey,
                                          const Uuid& volume_uuid) {
  auto anchor_blob = FetchJournalO(journal::kAnchorName);
  if (!anchor_blob.ok()) {
    if (anchor_blob.status().code() == ErrorCode::kNotFound) return false;
    return anchor_blob.status();
  }
  const journal::JournalKey key = journal::DeriveJournalKey(rootkey);
  NEXUS_ASSIGN_OR_RETURN(const std::vector<journal::Op> tail,
                         journal::DecodeAnchor(*anchor_blob, key, volume_uuid));
  NEXUS_ASSIGN_OR_RETURN(const std::size_t applied, ReplayOps(tail, rootkey));
  // A tail that changed nothing (the common case after a clean commit)
  // stays where it is and costs no store.
  if (applied == 0) return !tail.empty();
  NEXUS_RETURN_IF_ERROR(StoreAnchorO({}, key, volume_uuid));
  return false;
}

Status NexusEnclave::EcallConfigureJournal(bool enabled) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  if (journal_.has_value() && journal_->explicit_batch) {
    return Error(ErrorCode::kInvalidArgument,
                 "cannot reconfigure journal inside an open batch");
  }
  if (session_.has_value()) {
    if (enabled && !journal_.has_value()) {
      // Engaging mid-session: fold any on-store journal leftovers in first.
      NEXUS_ASSIGN_OR_RETURN(
          const bool tail_on_store,
          RecoverJournal(session_->rootkey, session_->volume_uuid));
      EngageJournal(tail_on_store);
    } else if (!enabled && journal_.has_value()) {
      NEXUS_RETURN_IF_ERROR(FlushJournal());
      journal_.reset();
    }
  }
  // Set last: after a failed flush or recovery the journal is still as it
  // was, and the flag must keep saying so.
  journal_enabled_ = enabled;
  return Status::Ok();
}

Status NexusEnclave::FlushJournal() {
  NEXUS_RETURN_IF_ERROR(CommitPending());
  NEXUS_RETURN_IF_ERROR(CheckpointJournal());
  JournalState& j = *journal_;
  if (!j.tail_on_store) return Status::Ok();
  NEXUS_RETURN_IF_ERROR(StoreAnchorO({}, j.key, session_->volume_uuid));
  j.tail_on_store = false;
  return Status::Ok();
}

Status NexusEnclave::EcallBeginBatch() {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  NEXUS_RETURN_IF_ERROR(RequireMounted());
  if (!journal_.has_value()) {
    return Error(ErrorCode::kInvalidArgument,
                 "journaling is disabled; no batch mode");
  }
  if (journal_->explicit_batch) {
    return Error(ErrorCode::kInvalidArgument, "a batch is already open");
  }
  journal_->explicit_batch = true;
  return Status::Ok();
}

Status NexusEnclave::EcallCommitBatch() {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  NEXUS_RETURN_IF_ERROR(RequireMounted());
  if (!journal_.has_value() || !journal_->explicit_batch) {
    return Error(ErrorCode::kInvalidArgument, "no batch is open");
  }
  journal_->explicit_batch = false;
  return CommitPending();
}

// ---- internals ----------------------------------------------------------------

Status NexusEnclave::RequireMounted() const {
  if (!session_.has_value()) {
    return Error(ErrorCode::kPermissionDenied, "volume not mounted");
  }
  // Every mounted operation passes through here exactly once at its start:
  // advance the LRU clock so cache entries touched by *this* operation are
  // distinguishable from older ones (see EvictColdCacheEntries).
  ++op_tick_;
  return Status::Ok();
}

void NexusEnclave::EvictColdCacheEntries() {
  auto evict = [&](auto& cache, std::size_t limit) {
    while (cache.size() > limit) {
      auto victim = cache.end();
      for (auto it = cache.begin(); it != cache.end(); ++it) {
        if (it->second.last_used >= op_tick_) continue; // in use right now
        if (victim == cache.end() ||
            it->second.last_used < victim->second.last_used) {
          victim = it;
        }
      }
      if (victim == cache.end()) return; // everything is pinned
      cache.erase(victim);
    }
  };
  evict(dirnode_cache_, max_cached_dirnodes_);
  evict(filenode_cache_, max_cached_filenodes_);
}

void NexusEnclave::EcallSetCacheLimits(std::size_t max_dirnodes,
                                       std::size_t max_filenodes) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  max_cached_dirnodes_ = std::max<std::size_t>(1, max_dirnodes);
  max_cached_filenodes_ = std::max<std::size_t>(1, max_filenodes);
  ++op_tick_;
  EvictColdCacheEntries();
}

bool NexusEnclave::IsOwner() const {
  return session_.has_value() && session_->user == kOwnerUserId;
}

Status NexusEnclave::CheckDirAccess(const Dirnode& dir, std::uint8_t needed) const {
  // Owner retains full administrative control (§IV-C).
  if (IsOwner()) return Status::Ok();
  const AclEntry* entry = dir.FindAcl(session_->user);
  if (entry == nullptr || (entry->perms & needed) != needed) {
    return Error(ErrorCode::kPermissionDenied, "access denied by directory ACL");
  }
  return Status::Ok();
}

Status NexusEnclave::CheckAndRecordVersion(const Uuid& uuid,
                                           std::uint64_t version) {
  auto [it, inserted] = min_versions_.try_emplace(uuid, version);
  if (!inserted) {
    if (version < it->second) {
      return Error(ErrorCode::kIntegrityViolation,
                   "stale metadata version (rollback attack?)");
    }
    it->second = version;
  }
  return Status::Ok();
}

Result<Bytes> NexusEnclave::EncodeAndStoreMeta(MetaType type, const Uuid& uuid,
                                               std::uint64_t version,
                                               ByteSpan body,
                                               std::uint64_t* storage_version_out) {
  Preamble preamble{type, uuid, version};
  NEXUS_ASSIGN_OR_RETURN(
      Bytes blob, EncodeMetadata(preamble, body, session_->rootkey, runtime_.rng()));
  // Record the version locally *before* upload (§VI-C).
  NEXUS_RETURN_IF_ERROR(CheckAndRecordVersion(uuid, version));
  NEXUS_RETURN_IF_ERROR(StoreMetaO(uuid, blob, storage_version_out));
  return blob;
}

Result<NexusEnclave::DirnodeState*> NexusEnclave::LoadDirnode(
    const Uuid& uuid, const Uuid& expected_parent) {
  const auto cached = dirnode_cache_.find(uuid);
  if (cached != dirnode_cache_.end() &&
      CacheFreshO(uuid, cached->second.storage_version)) {
    ++cache_stats_.dirnode_hits;
    if (cached->second.main.parent != expected_parent) {
      return Error(ErrorCode::kIntegrityViolation,
                   "dirnode parent mismatch (file-swapping attack?)");
    }
    cached->second.last_used = op_tick_;
    return &cached->second;
  }
  ++cache_stats_.dirnode_misses;

  NEXUS_ASSIGN_OR_RETURN(ObjectBlob blob, FetchMetaO(uuid));
  NEXUS_ASSIGN_OR_RETURN(
      DecodedMeta meta,
      DecodeMetadata(*blob.data, session_->rootkey, MetaType::kDirnodeMain, uuid));
  NEXUS_RETURN_IF_ERROR(CheckAndRecordVersion(uuid, meta.preamble.version));

  DirnodeState state;
  NEXUS_ASSIGN_OR_RETURN(state.main, Dirnode::Deserialize(meta.body));
  state.meta_version = meta.preamble.version;
  state.storage_version = blob.storage_version;

  if (state.main.uuid != uuid) {
    return Error(ErrorCode::kIntegrityViolation, "dirnode self-uuid mismatch");
  }
  if (state.main.parent != expected_parent) {
    // The §IV-A3 parent-pointer check: an authentic dirnode served at the
    // wrong place in the hierarchy is rejected.
    return Error(ErrorCode::kIntegrityViolation,
                 "dirnode parent mismatch (file-swapping attack?)");
  }

  // Load all buckets, verifying each against the MAC pinned in the main
  // object (bucket-level rollback defence, §V-B).
  state.buckets.reserve(state.main.buckets.size());
  for (const BucketRef& ref : state.main.buckets) {
    NEXUS_ASSIGN_OR_RETURN(ObjectBlob bucket_blob, FetchMetaO(ref.uuid));
    if (crypto::Sha256::Hash(*bucket_blob.data) != ref.mac) {
      return Error(ErrorCode::kIntegrityViolation,
                   "dirnode bucket MAC mismatch (bucket rollback?)");
    }
    NEXUS_ASSIGN_OR_RETURN(
        DecodedMeta bucket_meta,
        DecodeMetadata(*bucket_blob.data, session_->rootkey,
                       MetaType::kDirnodeBucket, ref.uuid));
    NEXUS_ASSIGN_OR_RETURN(DirBucket bucket,
                           DirBucket::Deserialize(bucket_meta.body, uuid));
    bucket.uuid = ref.uuid;
    if (bucket.entries.size() != ref.entry_count) {
      return Error(ErrorCode::kIntegrityViolation, "bucket entry count mismatch");
    }
    state.buckets.push_back(std::move(bucket));
  }

  state.last_used = op_tick_;
  auto [it, _] = dirnode_cache_.insert_or_assign(uuid, std::move(state));
  EvictColdCacheEntries();
  return &it->second;
}

Result<NexusEnclave::FilenodeState*> NexusEnclave::LoadFilenode(
    const Uuid& uuid, const Uuid& expected_parent) {
  const auto cached = filenode_cache_.find(uuid);
  if (cached != filenode_cache_.end() &&
      CacheFreshO(uuid, cached->second.storage_version)) {
    ++cache_stats_.filenode_hits;
    cached->second.last_used = op_tick_;
    return &cached->second;
  }
  ++cache_stats_.filenode_misses;

  NEXUS_ASSIGN_OR_RETURN(ObjectBlob blob, FetchMetaO(uuid));
  NEXUS_ASSIGN_OR_RETURN(
      DecodedMeta meta,
      DecodeMetadata(*blob.data, session_->rootkey, MetaType::kFilenode, uuid));
  NEXUS_RETURN_IF_ERROR(CheckAndRecordVersion(uuid, meta.preamble.version));

  FilenodeState state;
  NEXUS_ASSIGN_OR_RETURN(state.node, Filenode::Deserialize(meta.body));
  state.meta_version = meta.preamble.version;
  state.storage_version = blob.storage_version;

  if (state.node.uuid != uuid) {
    return Error(ErrorCode::kIntegrityViolation, "filenode self-uuid mismatch");
  }
  // Hardlinked filenodes (link_count > 1) have a nil parent; otherwise the
  // parent pointer must match the directory we arrived from.
  if (!state.node.parent.IsNil() && state.node.parent != expected_parent) {
    return Error(ErrorCode::kIntegrityViolation,
                 "filenode parent mismatch (file-swapping attack?)");
  }

  state.last_used = op_tick_;
  auto [it, _] = filenode_cache_.insert_or_assign(uuid, std::move(state));
  EvictColdCacheEntries();
  return &it->second;
}

Status NexusEnclave::ReloadSupernode() {
  if (CacheFreshO(session_->volume_uuid, session_->supernode_storage_version)) {
    return Status::Ok();
  }
  NEXUS_ASSIGN_OR_RETURN(ObjectBlob blob, FetchMetaO(session_->volume_uuid));
  NEXUS_ASSIGN_OR_RETURN(
      DecodedMeta meta,
      DecodeMetadata(*blob.data, session_->rootkey, MetaType::kSupernode,
                     session_->volume_uuid));
  NEXUS_RETURN_IF_ERROR(
      CheckAndRecordVersion(session_->volume_uuid, meta.preamble.version));
  NEXUS_ASSIGN_OR_RETURN(session_->supernode, Supernode::Deserialize(meta.body));
  session_->supernode_storage_version = blob.storage_version;

  // Revocation takes effect immediately: if our user was removed from the
  // user table, the session dies here.
  if (session_->supernode.FindUserById(session_->user) == nullptr) {
    const Status revoked =
        Error(ErrorCode::kPermissionDenied, "user revoked from volume");
    (void)EcallUnmount();
    return revoked;
  }
  return Status::Ok();
}

Status NexusEnclave::FlushDirnode(DirnodeState& state,
                                  const std::vector<std::size_t>& dirty_buckets) {
  // Crash-consistent update order: dirty buckets are written COPY-ON-WRITE
  // under fresh UUIDs, then the main object (whose bucket table carries the
  // new UUIDs + MACs) is stored, and only then are the superseded bucket
  // objects deleted. A crash at any point leaves either the old or the new
  // state fully readable — never a main/bucket MAC mismatch; at worst an
  // orphaned bucket object remains (found by EcallVerifyVolume).
  std::vector<Uuid> superseded;
  for (const std::size_t i : dirty_buckets) {
    DirBucket& bucket = state.buckets[i];
    BucketRef& ref = state.main.buckets[i];
    if (!ref.uuid.IsNil()) superseded.push_back(ref.uuid); // nil: never stored
    const Uuid fresh_uuid = runtime_.rng().NewUuid();
    Preamble preamble{MetaType::kDirnodeBucket, fresh_uuid, /*version=*/1};
    NEXUS_ASSIGN_OR_RETURN(
        Bytes blob,
        EncodeMetadata(preamble, bucket.Serialize(state.main.uuid),
                       session_->rootkey, runtime_.rng()));
    NEXUS_RETURN_IF_ERROR(CheckAndRecordVersion(fresh_uuid, 1));
    NEXUS_RETURN_IF_ERROR(StoreMetaO(fresh_uuid, blob, nullptr));
    bucket.uuid = fresh_uuid;
    ref.uuid = fresh_uuid;
    ref.entry_count = static_cast<std::uint32_t>(bucket.entries.size());
    ref.mac = crypto::Sha256::Hash(blob);
  }
  ++state.meta_version;
  NEXUS_ASSIGN_OR_RETURN(
      Bytes main_blob,
      EncodeAndStoreMeta(MetaType::kDirnodeMain, state.main.uuid,
                         state.meta_version, state.main.Serialize(),
                         &state.storage_version));
  (void)main_blob;
  for (const Uuid& old : superseded) {
    (void)RemoveMetaO(old); // best effort: an orphan is harmless
    min_versions_.erase(old);
  }
  return Status::Ok();
}

std::size_t NexusEnclave::AppendEntry(DirnodeState& dir, DirEntry entry) {
  const std::uint32_t bucket_cap = session_->supernode.config.dirnode_bucket_size;
  if (dir.buckets.empty() || dir.buckets.back().entries.size() >= bucket_cap) {
    dir.buckets.emplace_back();
    dir.main.buckets.emplace_back();
  }
  dir.buckets.back().entries.push_back(std::move(entry));
  return dir.buckets.size() - 1;
}

Status NexusEnclave::FlushFilenode(FilenodeState& state) {
  ++state.meta_version;
  NEXUS_ASSIGN_OR_RETURN(
      Bytes blob,
      EncodeAndStoreMeta(MetaType::kFilenode, state.node.uuid,
                         state.meta_version, state.node.Serialize(),
                         &state.storage_version));
  (void)blob;
  return Status::Ok();
}

Result<std::vector<std::string>> NexusEnclave::SplitPath(const std::string& path) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= path.size()) {
    std::size_t end = path.find('/', start);
    if (end == std::string::npos) end = path.size();
    const std::string part = path.substr(start, end - start);
    if (!part.empty()) {
      if (part == "." || part == "..") {
        return Error(ErrorCode::kInvalidArgument,
                     "'.'/'..' path components not supported");
      }
      parts.push_back(part);
    }
    start = end + 1;
  }
  return parts;
}

Result<NexusEnclave::ResolvedDir> NexusEnclave::ResolveDir(
    const std::vector<std::string>& components) {
  Uuid current = session_->supernode.root_dir;
  Uuid parent; // root's parent is nil
  for (const std::string& name : components) {
    NEXUS_ASSIGN_OR_RETURN(DirnodeState* dir, LoadDirnode(current, parent));
    NEXUS_RETURN_IF_ERROR(CheckDirAccess(dir->main, kPermRead));
    const DirEntry* entry = FindEntry(*dir, name);
    if (entry == nullptr) {
      return Error(ErrorCode::kNotFound, "no such directory: " + name);
    }
    if (entry->type != EntryType::kDirectory) {
      return Error(ErrorCode::kInvalidArgument, "not a directory: " + name);
    }
    parent = current;
    current = entry->uuid;
  }
  return ResolvedDir{current, parent};
}

const DirEntry* NexusEnclave::FindEntry(const DirnodeState& dir,
                                        const std::string& name,
                                        EntryLocation* loc) {
  for (std::size_t b = 0; b < dir.buckets.size(); ++b) {
    const auto& entries = dir.buckets[b].entries;
    for (std::size_t e = 0; e < entries.size(); ++e) {
      if (entries[e].name == name) {
        if (loc != nullptr) {
          loc->bucket_index = b;
          loc->entry_index = e;
        }
        return &entries[e];
      }
    }
  }
  return nullptr;
}

// ---- volume creation -----------------------------------------------------------

Result<NexusEnclave::CreateVolumeResult> NexusEnclave::EcallCreateVolume(
    const std::string& owner_name, const ByteArray<32>& owner_public_key,
    const VolumeConfig& config) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  if (session_.has_value()) {
    return Error(ErrorCode::kInvalidArgument, "a volume is already mounted");
  }
  if (config.chunk_size == 0 || config.dirnode_bucket_size == 0) {
    return Error(ErrorCode::kInvalidArgument, "invalid volume config");
  }

  Session session;
  session.rootkey = runtime_.rng().Array<16>();
  session.user = kOwnerUserId;
  session.volume_uuid = runtime_.rng().NewUuid();

  Supernode supernode;
  supernode.volume_uuid = session.volume_uuid;
  supernode.root_dir = runtime_.rng().NewUuid();
  supernode.config = config;
  supernode.users.push_back(UserRecord{kOwnerUserId, owner_name, owner_public_key});
  supernode.next_user_id = 1;
  session.supernode = supernode;
  session_ = std::move(session);
  if (journal_enabled_) {
    EngageJournal(/*tail_on_store=*/false); // fresh volume: no anchor yet
  }

  // Empty root directory.
  Dirnode root;
  root.uuid = supernode.root_dir;
  root.parent = Uuid(); // nil
  auto root_stored = EncodeAndStoreMeta(MetaType::kDirnodeMain, root.uuid,
                                        /*version=*/1, root.Serialize(), nullptr);
  if (!root_stored.ok()) {
    session_.reset();
    journal_.reset();
    return root_stored.status();
  }
  DirnodeState root_state;
  root_state.main = root;
  root_state.meta_version = 1;
  dirnode_cache_.insert_or_assign(root.uuid, std::move(root_state));

  std::uint64_t supernode_sv = 0;
  auto super_stored =
      EncodeAndStoreMeta(MetaType::kSupernode, session_->volume_uuid,
                         /*version=*/1, supernode.Serialize(), &supernode_sv);
  if (!super_stored.ok()) {
    session_.reset();
    journal_.reset();
    return super_stored.status();
  }
  session_->supernode_storage_version = supernode_sv;

  // A new volume must exist concretely on the store before the sealed
  // rootkey is handed out: commit and fully checkpoint the creation.
  if (journal_.has_value()) {
    const Status flushed = [&] {
      NEXUS_RETURN_IF_ERROR(CommitPending());
      return CheckpointJournal();
    }();
    if (!flushed.ok()) {
      session_.reset();
      journal_.reset();
      return flushed;
    }
  }

  NEXUS_ASSIGN_OR_RETURN(Bytes sealed_rootkey, runtime_.Seal(session_->rootkey));
  return CreateVolumeResult{session_->volume_uuid, std::move(sealed_rootkey)};
}

// ---- Table I operations ----------------------------------------------------------

Status NexusEnclave::CreateEntry(const std::string& path, EntryType type,
                                 const std::string& symlink_target,
                                 ByteSpan content) {
  NEXUS_RETURN_IF_ERROR(RequireMounted());
  NEXUS_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  if (parts.empty()) {
    return Error(ErrorCode::kInvalidArgument, "cannot create the root");
  }
  const std::string name = parts.back();
  parts.pop_back();
  NEXUS_ASSIGN_OR_RETURN(ResolvedDir dir_uuid_rd, ResolveDir(parts));
  const Uuid dir_uuid = dir_uuid_rd.uuid;

  // Serialize concurrent updates through the storage service's lock (§V-A);
  // re-fetch under the lock so we mutate the latest version.
  NEXUS_RETURN_IF_ERROR(LockMetaO(dir_uuid));
  auto result = [&]() -> Status {
    NEXUS_ASSIGN_OR_RETURN(DirnodeState* dir,
                           LoadDirnode(dir_uuid, dir_uuid_rd.parent));
    NEXUS_RETURN_IF_ERROR(CheckDirAccess(dir->main, kPermWrite));
    if (FindEntry(*dir, name) != nullptr) {
      return Error(ErrorCode::kAlreadyExists, "entry exists: " + name);
    }

    DirEntry entry;
    entry.name = name;
    entry.type = type;
    entry.symlink_target = symlink_target;

    if (type == EntryType::kFile) {
      // The name, the filenode and the first content commit together:
      // the data object goes first under its fresh UUID (a crash before
      // the anchor leaves it an orphan, never a dangling reference), then
      // the filenode and the dirnode ride the one journal commit.
      entry.uuid = runtime_.rng().NewUuid();
      Filenode node;
      node.uuid = entry.uuid;
      node.parent = dir_uuid;
      node.data_uuid = runtime_.rng().NewUuid();
      node.chunk_size = session_->supernode.config.chunk_size;
      node.size = content.size();
      if (!content.empty()) {
        std::uint64_t changed_bytes = 0;
        NEXUS_ASSIGN_OR_RETURN(
            Bytes ciphertext,
            SealChunks(node, content, [](std::size_t) { return true; },
                       nullptr, changed_bytes));
        NEXUS_RETURN_IF_ERROR(StoreDataO(
            node.data_uuid, Share(std::move(ciphertext)), changed_bytes));
      }
      NEXUS_ASSIGN_OR_RETURN(
          Bytes blob, EncodeAndStoreMeta(MetaType::kFilenode, node.uuid,
                                         /*version=*/1, node.Serialize(), nullptr));
      (void)blob;
      FilenodeState fstate;
      fstate.node = std::move(node);
      fstate.meta_version = 1;
      filenode_cache_.insert_or_assign(entry.uuid, std::move(fstate));
    } else if (type == EntryType::kDirectory) {
      entry.uuid = runtime_.rng().NewUuid();
      Dirnode child;
      child.uuid = entry.uuid;
      child.parent = dir_uuid;
      NEXUS_ASSIGN_OR_RETURN(
          Bytes blob, EncodeAndStoreMeta(MetaType::kDirnodeMain, child.uuid,
                                         /*version=*/1, child.Serialize(), nullptr));
      (void)blob;
      DirnodeState dstate;
      dstate.main = std::move(child);
      dstate.meta_version = 1;
      dirnode_cache_.insert_or_assign(entry.uuid, std::move(dstate));
    }
    // Symlinks live entirely in the dirent (no metadata object).

    return FlushDirnode(*dir, {AppendEntry(*dir, std::move(entry))});
  }();
  // Commit the deferred metadata writes while still holding the directory
  // lock, so no other client can read-modify-write the pre-commit state.
  result = FinishMutation(result);
  const Status unlock = UnlockMetaO(dir_uuid);
  return result.ok() ? unlock : result;
}

Status NexusEnclave::EcallTouch(const std::string& path, EntryType type) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  if (type == EntryType::kSymlink) {
    return Error(ErrorCode::kInvalidArgument, "use EcallSymlink for symlinks");
  }
  return CreateEntry(path, type, "", {});
}

Status NexusEnclave::EcallCreateFile(const std::string& path,
                                     ByteSpan plaintext) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  return CreateEntry(path, EntryType::kFile, "", plaintext);
}

Status NexusEnclave::EcallSymlink(const std::string& target,
                                  const std::string& linkpath) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  return CreateEntry(linkpath, EntryType::kSymlink, target, {});
}

Status NexusEnclave::CheckRemovable(const DirEntry& entry,
                                    const Uuid& parent_uuid) {
  if (entry.type != EntryType::kDirectory) return Status::Ok();
  NEXUS_ASSIGN_OR_RETURN(DirnodeState* child,
                         LoadDirnode(entry.uuid, parent_uuid));
  if (child->main.TotalEntries() != 0) {
    return Error(ErrorCode::kInvalidArgument, "directory not empty");
  }
  return Status::Ok();
}

Status NexusEnclave::ReleaseEntryObjects(const DirEntry& entry,
                                         const Uuid& parent_uuid) {
  // Called AFTER the parent dirnode stopped referencing the entry: a crash
  // in here leaks orphaned objects (harmless, EcallVerifyVolume reports
  // them) but never leaves a dangling reference.
  switch (entry.type) {
    case EntryType::kFile: {
      NEXUS_ASSIGN_OR_RETURN(FilenodeState* file,
                             LoadFilenode(entry.uuid, parent_uuid));
      if (file->node.link_count > 1) {
        --file->node.link_count;
        return FlushFilenode(*file);
      }
      const Uuid data_uuid = file->node.data_uuid;
      filenode_cache_.erase(entry.uuid);
      min_versions_.erase(entry.uuid);
      NEXUS_RETURN_IF_ERROR(RemoveMetaO(entry.uuid));
      // A never-written file has no data object yet.
      (void)RemoveDataO(data_uuid);
      return Status::Ok();
    }
    case EntryType::kDirectory: {
      NEXUS_ASSIGN_OR_RETURN(DirnodeState* child,
                             LoadDirnode(entry.uuid, parent_uuid));
      std::vector<Uuid> buckets;
      for (const BucketRef& ref : child->main.buckets) buckets.push_back(ref.uuid);
      dirnode_cache_.erase(entry.uuid);
      min_versions_.erase(entry.uuid);
      NEXUS_RETURN_IF_ERROR(RemoveMetaO(entry.uuid));
      for (const Uuid& uuid : buckets) {
        (void)RemoveMetaO(uuid);
        min_versions_.erase(uuid);
      }
      return Status::Ok();
    }
    case EntryType::kSymlink:
      return Status::Ok();
  }
  return Error(ErrorCode::kInternal, "unknown entry type");
}

Status NexusEnclave::EcallRemove(const std::string& path) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  NEXUS_RETURN_IF_ERROR(RequireMounted());
  NEXUS_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  if (parts.empty()) {
    return Error(ErrorCode::kInvalidArgument, "cannot remove the root");
  }
  const std::string name = parts.back();
  parts.pop_back();
  NEXUS_ASSIGN_OR_RETURN(ResolvedDir dir_uuid_rd, ResolveDir(parts));
  const Uuid dir_uuid = dir_uuid_rd.uuid;

  NEXUS_RETURN_IF_ERROR(LockMetaO(dir_uuid));
  auto result = [&]() -> Status {
        const Uuid parent = dir_uuid_rd.parent;
    NEXUS_ASSIGN_OR_RETURN(DirnodeState* dir,
                           LoadDirnode(dir_uuid, parent));
    NEXUS_RETURN_IF_ERROR(CheckDirAccess(dir->main, kPermWrite));

    EntryLocation loc;
    const DirEntry* entry = FindEntry(*dir, name, &loc);
    if (entry == nullptr) {
      return Error(ErrorCode::kNotFound, "no such entry: " + name);
    }
    NEXUS_RETURN_IF_ERROR(CheckRemovable(*entry, dir_uuid));
    const DirEntry removed = *entry;

    auto& entries = dir->buckets[loc.bucket_index].entries;
    entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(loc.entry_index));

    // Drop a now-empty trailing bucket to keep the main object compact;
    // the object itself is deleted only after the main flush commits.
    std::vector<std::size_t> dirty = {loc.bucket_index};
    Uuid dropped_bucket;
    if (entries.empty() && loc.bucket_index == dir->buckets.size() - 1) {
      dropped_bucket = dir->buckets.back().uuid;
      dir->buckets.pop_back();
      dir->main.buckets.pop_back();
      dirty.clear();
    }
    NEXUS_RETURN_IF_ERROR(FlushDirnode(*dir, dirty));
    if (!dropped_bucket.IsNil()) {
      (void)RemoveMetaO(dropped_bucket);
      min_versions_.erase(dropped_bucket);
    }
    return ReleaseEntryObjects(removed, dir_uuid);
  }();
  result = FinishMutation(result);
  const Status unlock = UnlockMetaO(dir_uuid);
  return result.ok() ? unlock : result;
}

Result<Attributes> NexusEnclave::EcallLookup(const std::string& path) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  NEXUS_RETURN_IF_ERROR(RequireMounted());
  NEXUS_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  if (parts.empty()) {
    return Attributes{EntryType::kDirectory, 0, session_->supernode.root_dir};
  }
  const std::string name = parts.back();
  parts.pop_back();
  NEXUS_ASSIGN_OR_RETURN(ResolvedDir dir_uuid_rd, ResolveDir(parts));
  const Uuid dir_uuid = dir_uuid_rd.uuid;

    const Uuid parent = dir_uuid_rd.parent;
  NEXUS_ASSIGN_OR_RETURN(DirnodeState* dir, LoadDirnode(dir_uuid, parent));
  NEXUS_RETURN_IF_ERROR(CheckDirAccess(dir->main, kPermRead));

  const DirEntry* entry = FindEntry(*dir, name);
  if (entry == nullptr) {
    return Error(ErrorCode::kNotFound, "no such entry: " + name);
  }
  Attributes attrs;
  attrs.type = entry->type;
  attrs.uuid = entry->uuid;
  if (entry->type == EntryType::kFile) {
    NEXUS_ASSIGN_OR_RETURN(FilenodeState* file, LoadFilenode(entry->uuid, dir_uuid));
    attrs.size = file->node.size;
  } else if (entry->type == EntryType::kSymlink) {
    attrs.size = entry->symlink_target.size();
  }
  return attrs;
}

Result<std::vector<DirEntry>> NexusEnclave::EcallFilldir(const std::string& path) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  NEXUS_RETURN_IF_ERROR(RequireMounted());
  NEXUS_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  NEXUS_ASSIGN_OR_RETURN(ResolvedDir dir_uuid_rd, ResolveDir(parts));
  const Uuid dir_uuid = dir_uuid_rd.uuid;

    const Uuid parent = dir_uuid_rd.parent;
  NEXUS_ASSIGN_OR_RETURN(DirnodeState* dir, LoadDirnode(dir_uuid, parent));
  NEXUS_RETURN_IF_ERROR(CheckDirAccess(dir->main, kPermRead));

  std::vector<DirEntry> out;
  out.reserve(dir->main.TotalEntries());
  for (const DirBucket& bucket : dir->buckets) {
    out.insert(out.end(), bucket.entries.begin(), bucket.entries.end());
  }
  return out;
}

Result<std::string> NexusEnclave::EcallReadlink(const std::string& path) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  NEXUS_RETURN_IF_ERROR(RequireMounted());
  NEXUS_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  if (parts.empty()) {
    return Error(ErrorCode::kInvalidArgument, "root is not a symlink");
  }
  const std::string name = parts.back();
  parts.pop_back();
  NEXUS_ASSIGN_OR_RETURN(ResolvedDir dir_uuid_rd, ResolveDir(parts));
  const Uuid dir_uuid = dir_uuid_rd.uuid;
    const Uuid parent = dir_uuid_rd.parent;
  NEXUS_ASSIGN_OR_RETURN(DirnodeState* dir, LoadDirnode(dir_uuid, parent));
  NEXUS_RETURN_IF_ERROR(CheckDirAccess(dir->main, kPermRead));
  const DirEntry* entry = FindEntry(*dir, name);
  if (entry == nullptr || entry->type != EntryType::kSymlink) {
    return Error(ErrorCode::kNotFound, "not a symlink: " + name);
  }
  return entry->symlink_target;
}

Status NexusEnclave::EcallHardlink(const std::string& existing,
                                   const std::string& linkpath) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  NEXUS_RETURN_IF_ERROR(RequireMounted());

  NEXUS_ASSIGN_OR_RETURN(std::vector<std::string> src_parts, SplitPath(existing));
  if (src_parts.empty()) {
    return Error(ErrorCode::kInvalidArgument, "cannot hardlink the root");
  }
  const std::string src_name = src_parts.back();
  src_parts.pop_back();
  NEXUS_ASSIGN_OR_RETURN(ResolvedDir src_dir_uuid_rd, ResolveDir(src_parts));
  const Uuid src_dir_uuid = src_dir_uuid_rd.uuid;
    const Uuid src_parent = src_dir_uuid_rd.parent;
  NEXUS_ASSIGN_OR_RETURN(DirnodeState* src_dir, LoadDirnode(src_dir_uuid, src_parent));
  NEXUS_RETURN_IF_ERROR(CheckDirAccess(src_dir->main, kPermRead));
  const DirEntry* src_entry = FindEntry(*src_dir, src_name);
  if (src_entry == nullptr) {
    return Error(ErrorCode::kNotFound, "no such entry: " + src_name);
  }
  if (src_entry->type != EntryType::kFile) {
    return Error(ErrorCode::kInvalidArgument, "hardlinks apply to files only");
  }
  const Uuid file_uuid = src_entry->uuid;

  NEXUS_ASSIGN_OR_RETURN(std::vector<std::string> dst_parts, SplitPath(linkpath));
  if (dst_parts.empty()) {
    return Error(ErrorCode::kInvalidArgument, "bad link path");
  }
  const std::string dst_name = dst_parts.back();
  dst_parts.pop_back();
  NEXUS_ASSIGN_OR_RETURN(ResolvedDir dst_dir_uuid_rd, ResolveDir(dst_parts));
  const Uuid dst_dir_uuid = dst_dir_uuid_rd.uuid;

  NEXUS_RETURN_IF_ERROR(LockMetaO(dst_dir_uuid));
  auto result = [&]() -> Status {
        const Uuid dst_parent = dst_dir_uuid_rd.parent;
    NEXUS_ASSIGN_OR_RETURN(DirnodeState* dst_dir,
                           LoadDirnode(dst_dir_uuid, dst_parent));
    NEXUS_RETURN_IF_ERROR(CheckDirAccess(dst_dir->main, kPermWrite));
    if (FindEntry(*dst_dir, dst_name) != nullptr) {
      return Error(ErrorCode::kAlreadyExists, "entry exists: " + dst_name);
    }

    // Bump the link count; the filenode becomes multi-parent (nil parent).
    NEXUS_ASSIGN_OR_RETURN(FilenodeState* file, LoadFilenode(file_uuid, src_dir_uuid));
    ++file->node.link_count;
    file->node.parent = Uuid();
    NEXUS_RETURN_IF_ERROR(FlushFilenode(*file));

    DirEntry entry;
    entry.name = dst_name;
    entry.uuid = file_uuid;
    entry.type = EntryType::kFile;

    return FlushDirnode(*dst_dir, {AppendEntry(*dst_dir, std::move(entry))});
  }();
  result = FinishMutation(result);
  const Status unlock = UnlockMetaO(dst_dir_uuid);
  return result.ok() ? unlock : result;
}

Status NexusEnclave::EcallRename(const std::string& from, const std::string& to) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  NEXUS_RETURN_IF_ERROR(RequireMounted());

  NEXUS_ASSIGN_OR_RETURN(std::vector<std::string> from_parts, SplitPath(from));
  NEXUS_ASSIGN_OR_RETURN(std::vector<std::string> to_parts, SplitPath(to));
  if (from_parts.empty() || to_parts.empty()) {
    return Error(ErrorCode::kInvalidArgument, "cannot rename the root");
  }
  if (from_parts == to_parts) {
    // POSIX: renaming a path onto itself succeeds and does nothing.
    NEXUS_ASSIGN_OR_RETURN(std::vector<std::string> probe, SplitPath(from));
    probe.pop_back();
    NEXUS_ASSIGN_OR_RETURN(ResolvedDir rd, ResolveDir(probe));
    NEXUS_ASSIGN_OR_RETURN(DirnodeState* dir, LoadDirnode(rd.uuid, rd.parent));
    if (FindEntry(*dir, from_parts.back()) == nullptr) {
      return Error(ErrorCode::kNotFound, "no such entry: " + from_parts.back());
    }
    return Status::Ok();
  }
  const std::string from_name = from_parts.back();
  from_parts.pop_back();
  const std::string to_name = to_parts.back();
  to_parts.pop_back();

  NEXUS_ASSIGN_OR_RETURN(ResolvedDir src_uuid_rd, ResolveDir(from_parts));
  const Uuid src_uuid = src_uuid_rd.uuid;
  NEXUS_ASSIGN_OR_RETURN(ResolvedDir dst_uuid_rd, ResolveDir(to_parts));
  const Uuid dst_uuid = dst_uuid_rd.uuid;

  // Lock in UUID order so two concurrent renames cannot deadlock.
  std::vector<Uuid> locks = {src_uuid};
  if (dst_uuid != src_uuid) locks.push_back(dst_uuid);
  std::sort(locks.begin(), locks.end());
  for (const Uuid& u : locks) NEXUS_RETURN_IF_ERROR(LockMetaO(u));

  auto result = [&]() -> Status {
        const Uuid src_parent = src_uuid_rd.parent;
    NEXUS_ASSIGN_OR_RETURN(DirnodeState* src_dir,
                           LoadDirnode(src_uuid, src_parent));
    NEXUS_RETURN_IF_ERROR(CheckDirAccess(src_dir->main, kPermWrite));

    DirnodeState* dst_dir = src_dir;
    if (dst_uuid != src_uuid) {
            const Uuid dst_parent = dst_uuid_rd.parent;
      NEXUS_ASSIGN_OR_RETURN(dst_dir,
                             LoadDirnode(dst_uuid, dst_parent));
      NEXUS_RETURN_IF_ERROR(CheckDirAccess(dst_dir->main, kPermWrite));
    }

    EntryLocation src_loc;
    const DirEntry* src_entry_ptr = FindEntry(*src_dir, from_name, &src_loc);
    if (src_entry_ptr == nullptr) {
      return Error(ErrorCode::kNotFound, "no such entry: " + from_name);
    }
    DirEntry moved = *src_entry_ptr;

    // POSIX rename semantics: silently replace an existing target. Its
    // backing objects are released only after the dirnode flushes commit.
    EntryLocation dst_loc;
    std::vector<std::size_t> dst_dirty;
    std::optional<DirEntry> replaced;
    if (const DirEntry* existing = FindEntry(*dst_dir, to_name, &dst_loc)) {
      if (existing->type == EntryType::kDirectory && moved.type != EntryType::kDirectory) {
        return Error(ErrorCode::kInvalidArgument, "cannot replace directory");
      }
      NEXUS_RETURN_IF_ERROR(CheckRemovable(*existing, dst_uuid));
      replaced = *existing;
      auto& entries = dst_dir->buckets[dst_loc.bucket_index].entries;
      entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(dst_loc.entry_index));
      dst_dirty.push_back(dst_loc.bucket_index);
      // Deleting may invalidate src_loc within the same directory: re-find.
      if (dst_dir == src_dir) {
        if (FindEntry(*src_dir, from_name, &src_loc) == nullptr) {
          return Error(ErrorCode::kInternal, "entry vanished during rename");
        }
      }
    }

    // Remove from source.
    auto& src_entries = src_dir->buckets[src_loc.bucket_index].entries;
    src_entries.erase(src_entries.begin() +
                      static_cast<std::ptrdiff_t>(src_loc.entry_index));

    // Re-pin the child's parent pointer when moving across directories.
    if (dst_uuid != src_uuid) {
      if (moved.type == EntryType::kDirectory) {
        NEXUS_ASSIGN_OR_RETURN(DirnodeState* child, LoadDirnode(moved.uuid, src_uuid));
        child->main.parent = dst_uuid;
        NEXUS_RETURN_IF_ERROR(FlushDirnode(*child, {}));
      } else if (moved.type == EntryType::kFile) {
        NEXUS_ASSIGN_OR_RETURN(FilenodeState* child, LoadFilenode(moved.uuid, src_uuid));
        if (!child->node.parent.IsNil()) {
          child->node.parent = dst_uuid;
          NEXUS_RETURN_IF_ERROR(FlushFilenode(*child));
        }
      }
    }

    // Insert into destination.
    moved.name = to_name;
    dst_dirty.push_back(AppendEntry(*dst_dir, std::move(moved)));

    if (dst_dir == src_dir) {
      dst_dirty.push_back(src_loc.bucket_index);
      std::sort(dst_dirty.begin(), dst_dirty.end());
      dst_dirty.erase(std::unique(dst_dirty.begin(), dst_dirty.end()),
                      dst_dirty.end());
      NEXUS_RETURN_IF_ERROR(FlushDirnode(*dst_dir, dst_dirty));
    } else {
      NEXUS_RETURN_IF_ERROR(FlushDirnode(*src_dir, {src_loc.bucket_index}));
      std::sort(dst_dirty.begin(), dst_dirty.end());
      dst_dirty.erase(std::unique(dst_dirty.begin(), dst_dirty.end()),
                      dst_dirty.end());
      NEXUS_RETURN_IF_ERROR(FlushDirnode(*dst_dir, dst_dirty));
    }
    if (replaced.has_value()) {
      NEXUS_RETURN_IF_ERROR(ReleaseEntryObjects(*replaced, dst_uuid));
    }
    return Status::Ok();
  }();
  result = FinishMutation(result);

  for (const Uuid& u : locks) (void)UnlockMetaO(u);
  return result;
}

// ---- file content (encrypt/decrypt) -----------------------------------------------

Result<Bytes> NexusEnclave::SealChunks(
    Filenode& node, ByteSpan plaintext,
    const std::function<bool(std::size_t)>& reseal, const Bytes* old_ciphertext,
    std::uint64_t& changed_bytes) {
  const std::size_t cs = node.chunk_size;
  const std::size_t chunk_count = node.ChunkCount();
  node.chunks.resize(chunk_count);

  // Ciphertext layout: chunk i at offset i*(cs+tag), so slices are
  // disjoint and chunk tasks can write them concurrently.
  const std::size_t ct_stride = cs + crypto::kGcmTagSize;
  Bytes ciphertext(plaintext.size() + chunk_count * crypto::kGcmTagSize);

  // Draw fresh key material serially, in ascending chunk order. RNG draw
  // order is part of the deterministic contract: parallel and serial
  // schedules must produce byte-identical filenodes and ciphertext for a
  // fixed seed, so nothing key-related may depend on task timing.
  std::vector<std::size_t> rekey;
  rekey.reserve(chunk_count);
  for (std::size_t i = 0; i < chunk_count; ++i) {
    const std::size_t pt_len =
        std::min<std::size_t>(cs, plaintext.size() - i * cs);
    const std::size_t ct_len = pt_len + crypto::kGcmTagSize;

    if (!reseal(i)) {
      // Untouched chunk: identical plaintext extent, identical layout
      // offset (every preceding chunk is full-sized).
      const std::size_t old_off = i * ct_stride;
      if (old_ciphertext == nullptr ||
          old_off + ct_len > old_ciphertext->size()) {
        return Error(ErrorCode::kIntegrityViolation,
                     "data object shorter than filenode describes");
      }
      std::copy_n(old_ciphertext->data() + old_off, ct_len,
                  ciphertext.data() + i * ct_stride);
      continue;
    }

    ChunkContext ctx;
    ctx.key = runtime_.rng().Array<16>();
    ctx.iv = runtime_.rng().Array<12>();
    node.chunks[i] = ctx;
    rekey.push_back(i);
    changed_bytes += ct_len;
  }

  // Seal the re-keyed chunks: one task per chunk, each writing a
  // disjoint ciphertext slice. Workers are pure compute — the caller's
  // store stays on the ecall thread. A batch of one task has nothing to
  // run in parallel, so it runs inline on this thread.
  parallel::ThreadPool* pool = EnsurePool();
  std::vector<Status> seal_status(rekey.size(), Status::Ok());
  const std::uint64_t batch_t0 = MonotonicNanos();
  {
    parallel::TaskGroup group(rekey.size() > 1 ? pool : nullptr);
    for (std::size_t r = 0; r < rekey.size(); ++r) {
      const std::size_t i = rekey[r];
      const std::size_t pt_len =
          std::min<std::size_t>(cs, plaintext.size() - i * cs);
      const ChunkContext ctx = node.chunks[i];
      Bytes aad = ChunkAad(node.uuid, static_cast<std::uint32_t>(i));
      const ByteSpan pt = plaintext.subspan(i * cs, pt_len);
      const MutableByteSpan out(ciphertext.data() + i * ct_stride,
                                pt_len + crypto::kGcmTagSize);
      group.Submit([r, ctx, aad = std::move(aad), pt, out,
                    &seal_status](parallel::WorkerContext&) {
        auto aes = crypto::Aes::Create(ctx.key);
        if (!aes.ok()) {
          seal_status[r] = aes.status();
          return;
        }
        seal_status[r] = crypto::GcmSealInto(*aes, ctx.iv, aad, pt, out);
      });
    }
    group.WaitAll();
    parallel_stats_.chunks_encrypted += rekey.size();
    RecordParallelBatch(
        group, static_cast<double>(MonotonicNanos() - batch_t0) * 1e-9);
  }
  for (const Status& s : seal_status) {
    if (!s.ok()) return s;
  }
  return ciphertext;
}

Status NexusEnclave::EcallEncrypt(const std::string& path, ByteSpan plaintext) {
  return EcallEncryptRange(path, plaintext, 0, plaintext.size());
}

Status NexusEnclave::EcallEncryptRange(const std::string& path,
                                       ByteSpan plaintext,
                                       std::uint64_t dirty_offset,
                                       std::uint64_t dirty_len) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  NEXUS_RETURN_IF_ERROR(RequireMounted());
  NEXUS_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  if (parts.empty()) {
    return Error(ErrorCode::kInvalidArgument, "not a file");
  }
  const std::string name = parts.back();
  parts.pop_back();
  NEXUS_ASSIGN_OR_RETURN(ResolvedDir rd, ResolveDir(parts));
  NEXUS_ASSIGN_OR_RETURN(DirnodeState* dir, LoadDirnode(rd.uuid, rd.parent));
  NEXUS_RETURN_IF_ERROR(CheckDirAccess(dir->main, kPermWrite));
  const DirEntry* entry = FindEntry(*dir, name);
  if (entry == nullptr || entry->type != EntryType::kFile) {
    return Error(ErrorCode::kNotFound, "no such file: " + name);
  }
  const Uuid file_uuid = entry->uuid;
  const Uuid dir_uuid = rd.uuid;

  NEXUS_RETURN_IF_ERROR(LockMetaO(file_uuid));
  auto result = [&]() -> Status {
    NEXUS_ASSIGN_OR_RETURN(FilenodeState* file,
                           LoadFilenode(file_uuid, dir_uuid));
    // Work on a copy: the cached filenode takes the new size, keys and
    // data object only once the store has them, so a failed write leaves
    // the session reading the previous content.
    Filenode node = file->node;
    const Uuid old_data_uuid = node.data_uuid;
    const std::uint64_t old_size = node.size;
    const std::size_t old_chunk_count = node.chunks.size();
    const std::size_t cs = node.chunk_size;
    node.size = plaintext.size();
    const std::size_t chunk_count = node.ChunkCount();

    // Which chunks must be re-keyed and re-encrypted (SVI-A: fresh keys on
    // every content update, at chunk granularity)?
    //  * chunks overlapping the caller's dirty byte range,
    //  * brand-new chunks past the old end,
    //  * everything from the old final (possibly short) chunk onward when
    //    the file size changed - their plaintext extents shifted.
    auto needs_reencrypt = [&](std::size_t i) {
      const std::uint64_t chunk_begin = static_cast<std::uint64_t>(i) * cs;
      const std::uint64_t chunk_end = chunk_begin + cs;
      if (i >= old_chunk_count) return true;
      // On any size change the final chunk of BOTH layouts shifts extent:
      // the old short tail (growth) or the new short tail (shrink).
      if (node.size != old_size && old_chunk_count > 0 && chunk_count > 0 &&
          i >= std::min(old_chunk_count, chunk_count) - 1) {
        return true;
      }
      return dirty_len > 0 && dirty_offset < chunk_end &&
             dirty_offset + dirty_len > chunk_begin;
    };

    // Untouched chunks keep their ciphertext: splice it from the current
    // data object (a cache hit on the AFS client in the common case).
    std::size_t surviving = 0;
    for (std::size_t i = 0; i < chunk_count; ++i) {
      if (!needs_reencrypt(i)) ++surviving;
    }
    SharedBytes old_ciphertext; // null unless a chunk survives
    if (surviving > 0) {
      NEXUS_ASSIGN_OR_RETURN(ObjectBlob blob, FetchDataO(old_data_uuid));
      old_ciphertext = std::move(blob.data);
    }

    std::uint64_t changed_bytes = 0;
    NEXUS_ASSIGN_OR_RETURN(
        Bytes ciphertext,
        SealChunks(node, plaintext, needs_reencrypt, old_ciphertext.get(),
                   changed_bytes));

    // Full rewrites are copy-on-write: the new ciphertext goes to a fresh
    // UUID, the filenode flips to it atomically (journaled with everything
    // else this operation touched), and the superseded object is deleted
    // only after that commit — a crash at any prefix leaves the on-store
    // filenode pointing at a data object that still fully matches it.
    // Partial updates stay in place so only the dirty chunks ship (§VII's
    // bandwidth property); their torn-write window is confined to the
    // rewritten chunks and the old keys stay valid until commit.
    const bool full_rewrite = (surviving == 0);
    if (full_rewrite) {
      node.data_uuid = runtime_.rng().NewUuid();
    }

    // One store per written file, full rewrite or partial update: the
    // transport makes it one StoreData RPC, atomic at the store. The
    // sealed buffer is handed over whole, never copied.
    NEXUS_RETURN_IF_ERROR(StoreDataO(node.data_uuid,
                                     Share(std::move(ciphertext)),
                                     changed_bytes));
    file->node = std::move(node);
    NEXUS_RETURN_IF_ERROR(FlushFilenode(*file));
    if (full_rewrite && old_size > 0) {
      (void)RemoveDataO(old_data_uuid); // deferred until commit when journaled
    }
    return Status::Ok();
  }();
  result = FinishMutation(result);
  const Status unlock = UnlockMetaO(file_uuid);
  return result.ok() ? unlock : result;
}

Result<Bytes> NexusEnclave::EcallDecrypt(const std::string& path) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  NEXUS_RETURN_IF_ERROR(RequireMounted());
  NEXUS_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  if (parts.empty()) {
    return Error(ErrorCode::kInvalidArgument, "not a file");
  }
  const std::string name = parts.back();
  parts.pop_back();
  NEXUS_ASSIGN_OR_RETURN(ResolvedDir dir_uuid_rd, ResolveDir(parts));
  const Uuid dir_uuid = dir_uuid_rd.uuid;
    const Uuid parent = dir_uuid_rd.parent;
  NEXUS_ASSIGN_OR_RETURN(DirnodeState* dir, LoadDirnode(dir_uuid, parent));
  NEXUS_RETURN_IF_ERROR(CheckDirAccess(dir->main, kPermRead));
  const DirEntry* entry = FindEntry(*dir, name);
  if (entry == nullptr) {
    return Error(ErrorCode::kNotFound, "no such file: " + name);
  }
  if (entry->type != EntryType::kFile) {
    return Error(ErrorCode::kInvalidArgument, "not a file: " + name);
  }

  NEXUS_ASSIGN_OR_RETURN(FilenodeState* file, LoadFilenode(entry->uuid, dir_uuid));
  const Filenode& node = file->node;
  if (node.size == 0) return Bytes{};
  if (node.chunks.size() != node.ChunkCount()) {
    return Error(ErrorCode::kIntegrityViolation,
                 "filenode chunk table inconsistent with size");
  }

  const std::size_t cs = node.chunk_size;
  const std::size_t chunk_count = node.chunks.size();
  const std::size_t ct_stride = cs + crypto::kGcmTagSize;
  // The (authenticated) chunk table pins the exact data-object size, so
  // the output buffer is sized once up front and every chunk decrypts
  // straight into its slice — no quadratic append-and-regrow.
  const std::uint64_t expected_ct =
      node.size + chunk_count * crypto::kGcmTagSize;
  Bytes plaintext(node.size);

  auto open_chunk = [&](std::size_t i, const std::uint8_t* ct,
                        std::size_t ct_len, std::size_t pt_len) -> Status {
    const ChunkContext& ctx = node.chunks[i];
    auto aes = crypto::Aes::Create(ctx.key);
    if (!aes.ok()) return aes.status();
    return crypto::GcmOpenInto(
        *aes, ctx.iv, ChunkAad(node.uuid, static_cast<std::uint32_t>(i)),
        ByteSpan(ct, ct_len),
        MutableByteSpan(plaintext.data() + i * cs, pt_len));
  };

  // AFS transfers whole files, so the read is one fetch, checked against
  // the size the chunk table pins before any chunk opens.
  NEXUS_ASSIGN_OR_RETURN(ObjectBlob blob, FetchDataO(node.data_uuid));
  if (blob.data->size() != expected_ct) {
    return Error(ErrorCode::kIntegrityViolation,
                 blob.data->size() < expected_ct
                     ? "data object truncated"
                     : "data object has trailing bytes");
  }

  // One task per chunk. A one-chunk file opens inline on this thread: a
  // batch of one task has nothing to run in parallel.
  parallel::ThreadPool* pool = EnsurePool();
  std::vector<Status> open_status(chunk_count, Status::Ok());
  const std::uint64_t batch_t0 = MonotonicNanos();
  {
    parallel::TaskGroup group(chunk_count > 1 ? pool : nullptr);
    for (std::size_t i = 0; i < chunk_count; ++i) {
      const std::size_t pt_len = std::min<std::size_t>(cs, node.size - i * cs);
      const std::uint8_t* ct = blob.data->data() + i * ct_stride;
      group.Submit([&open_chunk, &open_status, i, ct,
                    pt_len](parallel::WorkerContext&) {
        open_status[i] =
            open_chunk(i, ct, pt_len + crypto::kGcmTagSize, pt_len);
      });
    }
    group.WaitAll();
    parallel_stats_.chunks_decrypted += chunk_count;
    RecordParallelBatch(
        group, static_cast<double>(MonotonicNanos() - batch_t0) * 1e-9);
  }
  for (const Status& s : open_status) {
    if (!s.ok()) {
      return Error(ErrorCode::kIntegrityViolation,
                   "file chunk verification failed (tampering?)");
    }
  }
  return plaintext;
}


// ---- volume audit (fsck) -----------------------------------------------------

Status NexusEnclave::AuditDirectory(const Uuid& dir_uuid, const Uuid& parent,
                                    bool deep, VolumeAudit& audit) {
  NEXUS_ASSIGN_OR_RETURN(DirnodeState* dir, LoadDirnode(dir_uuid, parent));
  ++audit.directories;
  audit.reachable_meta.push_back(dir_uuid);
  audit.buckets += dir->buckets.size();
  for (const BucketRef& ref : dir->main.buckets) {
    audit.reachable_meta.push_back(ref.uuid);
  }

  // Copy the listing: recursion below may evict `dir` from the cache.
  std::vector<DirEntry> entries;
  for (const DirBucket& bucket : dir->buckets) {
    entries.insert(entries.end(), bucket.entries.begin(), bucket.entries.end());
  }

  for (const DirEntry& entry : entries) {
    switch (entry.type) {
      case EntryType::kDirectory:
        NEXUS_RETURN_IF_ERROR(
            AuditDirectory(entry.uuid, dir_uuid, deep, audit));
        break;
      case EntryType::kSymlink:
        ++audit.symlinks;
        break;
      case EntryType::kFile: {
        NEXUS_ASSIGN_OR_RETURN(FilenodeState* file,
                               LoadFilenode(entry.uuid, dir_uuid));
        ++audit.files;
        audit.plaintext_bytes += file->node.size;
        audit.reachable_meta.push_back(entry.uuid);
        audit.reachable_data.push_back(file->node.data_uuid);
        if (deep && file->node.size > 0) {
          const Filenode node = file->node; // stable copy across the fetch
          NEXUS_ASSIGN_OR_RETURN(ObjectBlob blob, FetchDataO(node.data_uuid));
          std::size_t pos = 0;
          for (std::size_t i = 0; i < node.chunks.size(); ++i) {
            const std::size_t pt_len = std::min<std::size_t>(
                node.chunk_size, node.size - i * node.chunk_size);
            const std::size_t ct_len = pt_len + crypto::kGcmTagSize;
            if (pos + ct_len > blob.data->size()) {
              return Error(ErrorCode::kIntegrityViolation,
                           "audit: data object truncated");
            }
            NEXUS_ASSIGN_OR_RETURN(crypto::Aes aes,
                                   crypto::Aes::Create(node.chunks[i].key));
            auto chunk = crypto::GcmOpen(
                aes, node.chunks[i].iv,
                ChunkAad(node.uuid, static_cast<std::uint32_t>(i)),
                ByteSpan(blob.data->data() + pos, ct_len));
            if (!chunk.ok()) {
              return Error(ErrorCode::kIntegrityViolation,
                           "audit: file chunk verification failed");
            }
            pos += ct_len;
          }
          if (pos != blob.data->size()) {
            return Error(ErrorCode::kIntegrityViolation,
                         "audit: data object has trailing bytes");
          }
        }
        break;
      }
    }
  }
  return Status::Ok();
}

Result<NexusEnclave::VolumeAudit> NexusEnclave::EcallVerifyVolume(bool deep) {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  NEXUS_RETURN_IF_ERROR(RequireMounted());
  NEXUS_RETURN_IF_ERROR(ReloadSupernode());
  VolumeAudit audit;
  audit.reachable_meta.push_back(session_->volume_uuid);
  NEXUS_RETURN_IF_ERROR(AuditDirectory(session_->supernode.root_dir, Uuid(),
                                       deep, audit));
  return audit;
}

// ---- maintenance -----------------------------------------------------------------

void NexusEnclave::EcallDropCaches() {
  sgx::EnclaveRuntime::EcallScope scope(runtime_);
  dirnode_cache_.clear();
  filenode_cache_.clear();
}

Status NexusEnclave::EcallUnmount() {
  if (!session_.has_value()) {
    return Error(ErrorCode::kInvalidArgument, "not mounted");
  }
  // Called both as a top-level ecall and internally (revocation path, where
  // we are already inside the enclave) — enter only if not already in.
  std::optional<sgx::EnclaveRuntime::EcallScope> scope;
  if (!runtime_.inside()) scope.emplace(runtime_);
  if (journal_.has_value()) {
    // Best-effort flush: commit whatever is pending, checkpoint it all and
    // drop the anchor's tail. On failure the tail stays behind and the
    // next mount's recovery finishes the job.
    journal_->explicit_batch = false;
    (void)FlushJournal();
    journal_.reset();
  }
  SecureZero(session_->rootkey);
  session_.reset();
  dirnode_cache_.clear();
  filenode_cache_.clear();
  return Status::Ok();
}

Result<UserId> NexusEnclave::EcallCurrentUser() const {
  NEXUS_RETURN_IF_ERROR(RequireMounted());
  return session_->user;
}

} // namespace nexus::enclave
