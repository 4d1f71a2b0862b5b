// Journal integration tests at the client level: a commit is one anchor
// store and the journal never holds anything but the anchor, per-op round
// trips are pinned, a data store that fails mid-stream publishes nothing,
// group commit makes a whole batch one anchor store, a second session
// replays a commit whose checkpoint never ran, a commit after a failed
// checkpoint carries both transactions, recovery never rolls a newer
// object back to the anchor's tail, a reconfiguration that fails leaves
// journaling as it was, and through a lease-mode cache every operation
// is on the daemon's store when it returns.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "cache/cached_backend.hpp"
#include "cluster/cluster_backend.hpp"
#include "core/fsck.hpp"
#include "net/remote_backend.hpp"
#include "net/server.hpp"
#include "test_env.hpp"

namespace nexus {
namespace {

class JournalRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = &world_.AddMachine("owen");
    auto handle = machine_->nexus->CreateVolume(machine_->user);
    ASSERT_TRUE(handle.ok());
    handle_ = std::move(handle).value();
  }

  /// Journal objects other than the anchor on the store, as "a,b,c" so
  /// assertion failures name them.
  std::string JournalDebris() {
    std::string joined;
    const std::vector<std::string> names = machine_->afs->List("nxj/").value();
    for (const auto& name : names) {
      if (name == "nxj/anchor") continue;
      if (!joined.empty()) joined += ",";
      joined += name;
    }
    return joined;
  }

  std::size_t AnchorSize() {
    return world_.server().AdversaryRead("nxj/anchor").value().size();
  }

  /// Runs `op` while every checkpoint store fails: the op's anchor lands
  /// and the checkpoint after it does not, so the session holds a commit
  /// the main objects lack, as if it had died right after the anchor.
  /// Returns the op's status, which is the failed checkpoint's.
  template <typename Op>
  Status DieAfterAnchor(const Op& op) {
    store_->FailPuts("nx/");
    const Status status = op();
    store_->Heal();
    return status;
  }

  /// A second session on the machine, mounted after the first one's cache
  /// is dropped, so it sees only what reached the store.
  std::unique_ptr<core::NexusClient> MountFresh(bool journaling = true) {
    machine_->afs->FlushCache();
    auto client = std::make_unique<core::NexusClient>(
        *machine_->runtime, *machine_->afs, world_.intel().root_public_key());
    EXPECT_TRUE(client->ConfigureJournal(journaling, 0).ok());
    EXPECT_TRUE(client
                    ->Mount(machine_->user, handle_.volume_uuid,
                            handle_.sealed_rootkey)
                    .ok());
    return client;
  }

  test::FaultyBackend* store_ =
      new test::FaultyBackend(std::make_unique<storage::MemBackend>());
  test::World world_{"world", std::unique_ptr<storage::StorageBackend>(store_)};
  test::Machine* machine_ = nullptr;
  core::NexusClient::VolumeHandle handle_;
};

TEST_F(JournalRecoveryTest, PerOpCommitsCheckpointImmediately) {
  auto& nexus = *machine_->nexus;
  const auto before = nexus.Profile();
  ASSERT_TRUE(nexus.Mkdir("d").ok());
  ASSERT_TRUE(nexus.WriteFile("d/f", Bytes(100, 1)).ok());
  const auto delta = nexus.Profile() - before;

  // Default configuration: every operation is its own transaction and is
  // checkpointed as soon as it commits, so the journal stays truncated.
  EXPECT_GE(delta.journal.records_committed, 2u);
  EXPECT_EQ(delta.journal.checkpoints, delta.journal.records_committed);
  EXPECT_EQ(JournalDebris(), "");
  EXPECT_GT(delta.journal_io_seconds, 0.0);
}

// Exact AFS round trips of default-configuration operations. A commit is
// one anchor store carrying the transaction; the checkpoint then writes
// the main objects and stops, with no record to store or delete.
TEST_F(JournalRecoveryTest, PerOpRoundTripBudgets) {
  auto& nexus = *machine_->nexus;
  auto& server = world_.server();
  const auto rpcs = [&](const auto& op) {
    const std::uint64_t before = server.rpc_count();
    EXPECT_TRUE(op().ok());
    return server.rpc_count() - before;
  };
  // Lock, revalidate the cached dirnode (taking the lock drops its
  // callback), anchor, filenode, bucket, dirnode main, unlock. This create
  // opens the root's first bucket, which supersedes nothing.
  EXPECT_EQ(rpcs([&] { return nexus.Touch("first"); }), 7u);
  // The same plus the remove of the bucket it rewrote.
  EXPECT_EQ(rpcs([&] { return nexus.Touch("f"); }), 8u);
  // First small write: lock, revalidate the cached filenode, one data
  // store, anchor, filenode, unlock.
  EXPECT_EQ(rpcs([&] { return nexus.WriteFile("f", Bytes(100, 1)); }), 6u);
  // A rewrite also deletes the superseded data object after the commit.
  EXPECT_EQ(rpcs([&] { return nexus.WriteFile("f", Bytes(100, 2)); }), 7u);
  EXPECT_EQ(nexus.ReadFile("f").value(), Bytes(100, 2));
  // A three-chunk first write is still one data store.
  ASSERT_TRUE(nexus.Touch("h").ok());
  EXPECT_EQ(rpcs([&] { return nexus.WriteFile("h", Bytes(3 << 20, 4)); }), 6u);

  // No record object was ever written: only the anchor lives in nxj/.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(nexus.WriteFile("g" + std::to_string(i), Bytes(10, 3)).ok());
  }
  ASSERT_TRUE(nexus.Mkdir("d").ok());
  ASSERT_TRUE(nexus.Remove("g0").ok());
  EXPECT_EQ(machine_->afs->List("nxj/").value(),
            std::vector<std::string>{"nxj/anchor"});
}

// A data store whose backend stream fails mid-way fails the write and
// publishes nothing: the file still reads its previous content, in this
// session and in a fresh one, and the next write succeeds.
TEST_F(JournalRecoveryTest, DataStreamFailingMidWayKeepsPreviousContent) {
  auto& nexus = *machine_->nexus;
  const Bytes before(2 << 20, 1); // two chunks: two stream segments
  ASSERT_TRUE(nexus.WriteFile("f", before).ok());

  store_->FailStreamAppend("nxd/", 2);
  EXPECT_FALSE(nexus.WriteFile("f", Bytes(2 << 20, 2)).ok());
  store_->Heal();
  auto same_session = nexus.ReadFile("f");
  ASSERT_TRUE(same_session.ok()) << same_session.status().ToString();
  EXPECT_EQ(same_session.value(), before);
  auto fresh = MountFresh()->ReadFile("f");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh.value(), before);

  const Bytes after(2 << 20, 3);
  ASSERT_TRUE(nexus.WriteFile("f", after).ok());
  EXPECT_EQ(nexus.ReadFile("f").value(), after);
}

// A journaled session dies without unmounting, so the anchor keeps its
// (fully applied) tail. A journaling-disabled session then rewrites the
// same file straight to the main objects. The next mount's recovery must
// see that the stored filenode is newer than the tail's and leave it.
TEST_F(JournalRecoveryTest, RecoveryNeverRollsBackPastTheTail) {
  auto& nexus = *machine_->nexus;
  ASSERT_TRUE(nexus.WriteFile("g", Bytes(64, 1)).ok());
  ASSERT_TRUE(nexus.WriteFile("g", Bytes(64, 2)).ok());
  const Bytes anchor = world_.server().AdversaryRead("nxj/anchor").value();

  machine_->afs->FlushCache();
  core::NexusClient direct(*machine_->runtime, *machine_->afs,
                           world_.intel().root_public_key());
  ASSERT_TRUE(direct.ConfigureJournal(false, 0).ok());
  ASSERT_TRUE(
      direct.Mount(machine_->user, handle_.volume_uuid, handle_.sealed_rootkey)
          .ok());
  ASSERT_TRUE(direct.WriteFile("g", Bytes(64, 3)).ok());
  ASSERT_TRUE(direct.Unmount().ok());
  // Nothing in the tail needed applying, so the tail is still there.
  EXPECT_EQ(world_.server().AdversaryRead("nxj/anchor").value(), anchor);

  machine_->afs->FlushCache();
  core::NexusClient third(*machine_->runtime, *machine_->afs,
                          world_.intel().root_public_key());
  ASSERT_TRUE(
      third.Mount(machine_->user, handle_.volume_uuid, handle_.sealed_rootkey)
          .ok());
  EXPECT_EQ(third.Profile().journal.ops_replayed, 0u);
  EXPECT_EQ(third.ReadFile("g").value(), Bytes(64, 3));
  ASSERT_TRUE(third.Unmount().ok());
}

// A clean unmount, like disabling journaling mid-session, leaves a
// tail-free anchor behind: only a session that dies leaves a tail.
TEST_F(JournalRecoveryTest, UnmountAndDisablingDropTheTail) {
  auto& nexus = *machine_->nexus;
  const auto anchor_size = [&] {
    return world_.server().AdversaryRead("nxj/anchor").value().size();
  };
  ASSERT_TRUE(nexus.Unmount().ok());
  const std::size_t tail_free = anchor_size();
  ASSERT_TRUE(
      nexus.Mount(machine_->user, handle_.volume_uuid, handle_.sealed_rootkey)
          .ok());
  ASSERT_TRUE(nexus.WriteFile("g", Bytes(64, 1)).ok());
  EXPECT_GT(anchor_size(), tail_free);
  ASSERT_TRUE(nexus.Unmount().ok());
  EXPECT_EQ(anchor_size(), tail_free);

  ASSERT_TRUE(
      nexus.Mount(machine_->user, handle_.volume_uuid, handle_.sealed_rootkey)
          .ok());
  ASSERT_TRUE(nexus.WriteFile("g", Bytes(64, 2)).ok());
  EXPECT_GT(anchor_size(), tail_free);
  ASSERT_TRUE(nexus.ConfigureJournal(false, 0).ok());
  EXPECT_EQ(anchor_size(), tail_free);
  ASSERT_TRUE(nexus.WriteFile("g", Bytes(64, 3)).ok());
  ASSERT_TRUE(nexus.Unmount().ok());
  ASSERT_TRUE(nexus.ConfigureJournal(true, 0).ok());
  ASSERT_TRUE(
      nexus.Mount(machine_->user, handle_.volume_uuid, handle_.sealed_rootkey)
          .ok());
  EXPECT_EQ(nexus.ReadFile("g").value(), Bytes(64, 3));
}

TEST_F(JournalRecoveryTest, GroupCommitProducesOneRecordForTheWholeBatch) {
  auto& nexus = *machine_->nexus;
  const auto before = nexus.Profile();
  const std::size_t anchors_before = store_->PutCount("nxj/");
  ASSERT_TRUE(nexus.BeginBatch().ok());
  ASSERT_TRUE(nexus.Mkdir("batch").ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        nexus.WriteFile("batch/f" + std::to_string(i), Bytes(64, 3)).ok());
  }
  // The checkpoint fails, so the batch lives only in the anchor.
  EXPECT_FALSE(DieAfterAnchor([&] { return nexus.CommitBatch(); }).ok());
  const auto delta = nexus.Profile() - before;

  EXPECT_EQ(delta.journal.records_committed, 1u);
  EXPECT_GT(delta.journal.ops_committed, 8u); // dirnode + bucket + filenodes
  EXPECT_EQ(delta.journal.checkpoints, 0u);
  EXPECT_EQ(store_->PutCount("nxj/") - anchors_before, 1u);
  EXPECT_EQ(JournalDebris(), "");

  // The state the main objects still lack is fully readable through the
  // journal overlay, and a deep fsck sees a consistent volume.
  EXPECT_EQ(nexus.ReadFile("batch/f3").value(), Bytes(64, 3));
  auto fsck = core::RunFsck(*machine_->nexus, /*deep=*/true);
  ASSERT_TRUE(fsck.ok()) << fsck.status().ToString();
  EXPECT_EQ(fsck->audit.files, 8u);
  EXPECT_TRUE(fsck->orphaned_objects.empty());

  // Unmount flushes: the checkpoint applies the batch and the anchor
  // drops its tail.
  const std::size_t with_tail = AnchorSize();
  ASSERT_TRUE(nexus.Unmount().ok());
  EXPECT_LT(AnchorSize(), with_tail);
  ASSERT_TRUE(
      nexus.Mount(machine_->user, handle_.volume_uuid, handle_.sealed_rootkey)
          .ok());
  EXPECT_EQ(nexus.ReadFile("batch/f7").value(), Bytes(64, 3));
}

TEST_F(JournalRecoveryTest, BatchDedupCollapsesRepeatedMetadataStores) {
  auto& nexus = *machine_->nexus;
  const auto before = nexus.Profile();
  ASSERT_TRUE(nexus.BeginBatch().ok());
  // Every create rewrites the same parent dirnode: without dedup the
  // anchor would hold one dirnode copy per file.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(nexus.Touch("f" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(nexus.CommitBatch().ok());
  const auto delta = nexus.Profile() - before;
  EXPECT_GT(delta.journal.ops_deduped, 0u);
  // The anchor holds one op per distinct object, not one per store call.
  EXPECT_LT(delta.journal.ops_committed, 6u + delta.journal.ops_deduped);
}

TEST_F(JournalRecoveryTest, SecondSessionReplaysCommittedRecordsAtMount) {
  auto& nexus = *machine_->nexus;
  ASSERT_TRUE(nexus.BeginBatch().ok());
  ASSERT_TRUE(nexus.Mkdir("d").ok());
  ASSERT_TRUE(nexus.WriteFile("d/replayed", Bytes(32, 9)).ok());
  EXPECT_FALSE(DieAfterAnchor([&] { return nexus.CommitBatch(); }).ok());
  const std::size_t with_tail = AnchorSize();

  const auto second = MountFresh();
  EXPECT_GE(second->Profile().journal.ops_replayed, 2u);
  EXPECT_EQ(second->ReadFile("d/replayed").value(), Bytes(32, 9));
  // Replay applied the tail, so the anchor no longer carries it.
  EXPECT_LT(AnchorSize(), with_tail);
  EXPECT_EQ(JournalDebris(), "");
  ASSERT_TRUE(second->Unmount().ok());
}

TEST_F(JournalRecoveryTest, RecoveryRunsEvenWithJournalingDisabled) {
  auto& nexus = *machine_->nexus;
  ASSERT_TRUE(nexus.BeginBatch().ok());
  ASSERT_TRUE(nexus.Mkdir("d").ok());
  ASSERT_TRUE(nexus.WriteFile("d/precrash", Bytes(16, 4)).ok());
  EXPECT_FALSE(DieAfterAnchor([&] { return nexus.CommitBatch(); }).ok());

  // Journaling off for the new session — but the committed transaction on
  // the store must still be applied, or durable writes would be lost.
  const auto second = MountFresh(/*journaling=*/false);
  EXPECT_GE(second->Profile().journal.ops_replayed, 2u);
  EXPECT_EQ(second->ReadFile("d/precrash").value(), Bytes(16, 4));

  // With journaling off, subsequent writes go straight to the main
  // objects: no commits, no journal stores.
  const auto before = second->Profile();
  const std::size_t anchors_before = store_->PutCount("nxj/");
  ASSERT_TRUE(second->WriteFile("direct", Bytes(16, 5)).ok());
  const auto delta = second->Profile() - before;
  EXPECT_EQ(delta.journal.records_committed, 0u);
  EXPECT_EQ(store_->PutCount("nxj/"), anchors_before);
  EXPECT_EQ(JournalDebris(), "");
  ASSERT_TRUE(second->Unmount().ok());
}

// A checkpoint that fails leaves its commit unapplied. The next commit's
// anchor carries both transactions, merged, in one store: the journal
// never holds anything but the anchor, and a session that dies right
// after that anchor loses neither.
TEST_F(JournalRecoveryTest, CommitAfterFailedCheckpointCarriesBothInOneAnchor) {
  auto& nexus = *machine_->nexus;
  EXPECT_FALSE(DieAfterAnchor([&] { return nexus.Mkdir("first"); }).ok());
  EXPECT_EQ(JournalDebris(), "");

  const auto before = nexus.Profile();
  const std::size_t anchors_before = store_->PutCount("nxj/");
  EXPECT_FALSE(DieAfterAnchor([&] { return nexus.Mkdir("second"); }).ok());
  EXPECT_EQ((nexus.Profile() - before).journal.records_committed, 1u);
  EXPECT_EQ(store_->PutCount("nxj/") - anchors_before, 1u);
  EXPECT_EQ(JournalDebris(), "");

  const auto fresh = MountFresh();
  const auto entries = fresh->ListDir("");
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  std::vector<std::string> names;
  for (const auto& e : *entries) names.push_back(e.name);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"first", "second"}));
  EXPECT_EQ(JournalDebris(), "");
  ASSERT_TRUE(fresh->Unmount().ok());
}

// With the store healed, the commit after a failed checkpoint is one anchor
// store and its checkpoint applies both transactions.
TEST_F(JournalRecoveryTest, CheckpointAfterAFailedOneAppliesBoth) {
  auto& nexus = *machine_->nexus;
  EXPECT_FALSE(DieAfterAnchor([&] { return nexus.Mkdir("first"); }).ok());

  const auto before = nexus.Profile();
  const std::size_t anchors_before = store_->PutCount("nxj/");
  ASSERT_TRUE(nexus.Mkdir("second").ok());
  const auto delta = nexus.Profile() - before;
  EXPECT_EQ(delta.journal.records_committed, 1u);
  EXPECT_EQ(delta.journal.checkpoints, 1u);
  EXPECT_EQ(store_->PutCount("nxj/") - anchors_before, 1u);
  EXPECT_EQ(JournalDebris(), "");

  // A session that starts now reads both from the main objects alone:
  // the tail it finds changes nothing.
  const auto fresh = MountFresh();
  EXPECT_EQ(fresh->Profile().journal.ops_replayed, 0u);
  EXPECT_TRUE(fresh->ListDir("first").ok());
  EXPECT_TRUE(fresh->ListDir("second").ok());
  ASSERT_TRUE(fresh->Unmount().ok());
}

// A reconfiguration that fails changes nothing. Disabling flushes first;
// while the store cannot take the flush, journaling stays on and engaged.
TEST_F(JournalRecoveryTest, FailedDisableLeavesJournalingOn) {
  auto& nexus = *machine_->nexus;
  ASSERT_TRUE(nexus.WriteFile("g", Bytes(64, 1)).ok()); // anchor has a tail
  store_->FailPuts("");
  EXPECT_FALSE(nexus.ConfigureJournal(false, 0).ok());
  EXPECT_TRUE(nexus.enclave().journal_enabled());
  store_->Heal();
  ASSERT_TRUE(nexus.BeginBatch().ok()); // the journal is still engaged
  ASSERT_TRUE(nexus.CommitBatch().ok());

  ASSERT_TRUE(nexus.ConfigureJournal(false, 0).ok());
  EXPECT_FALSE(nexus.enclave().journal_enabled());
  EXPECT_FALSE(nexus.BeginBatch().ok());
}

// Every commit is checkpointed at once; asking for deferral is an error,
// not a setting that is silently ignored.
TEST_F(JournalRecoveryTest, DeferredCheckpointsAreRejected) {
  auto& nexus = *machine_->nexus;
  EXPECT_EQ(nexus.ConfigureJournal(true, 5).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(nexus.ConfigureJournal(false, 1).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_TRUE(nexus.enclave().journal_enabled());
}

TEST_F(JournalRecoveryTest, BatchRequiresJournalingEnabled) {
  auto& nexus = *machine_->nexus;
  ASSERT_TRUE(nexus.ConfigureJournal(false, 0).ok());
  EXPECT_FALSE(nexus.BeginBatch().ok());
  ASSERT_TRUE(nexus.ConfigureJournal(true, 0).ok());
  ASSERT_TRUE(nexus.BeginBatch().ok());
  EXPECT_FALSE(nexus.BeginBatch().ok()); // no nesting
  ASSERT_TRUE(nexus.CommitBatch().ok());
}

// A cluster shard over a MemBackend the test keeps a handle on, so it can
// inspect the raw replica envelopes.
class SharedShard final : public storage::StorageBackend {
 public:
  explicit SharedShard(std::shared_ptr<storage::MemBackend> mem)
      : mem_(std::move(mem)) {}
  Result<Bytes> Get(const std::string& name) override { return mem_->Get(name); }
  Status Put(const std::string& name, ByteSpan data) override {
    return mem_->Put(name, data);
  }
  Status Delete(const std::string& name) override { return mem_->Delete(name); }
  bool Exists(const std::string& name) override { return mem_->Exists(name); }
  std::vector<std::string> List(const std::string& prefix) override {
    return mem_->List(prefix);
  }

 private:
  std::shared_ptr<storage::MemBackend> mem_;
};

// A 3-shard R=2 cluster over MemBackends; `shards` (optional) receives
// the shard stores.
std::unique_ptr<cluster::ClusterBackend> ThreeShardCluster(
    std::vector<std::shared_ptr<storage::MemBackend>>* shards = nullptr) {
  std::vector<cluster::ShardSpec> specs;
  for (int i = 0; i < 3; ++i) {
    auto mem = std::make_shared<storage::MemBackend>();
    if (shards != nullptr) shards->push_back(mem);
    specs.push_back(cluster::ShardSpec{
        "shard-" + std::to_string(i),
        [mem]() -> Result<std::unique_ptr<storage::StorageBackend>> {
          return std::unique_ptr<storage::StorageBackend>(
              std::make_unique<SharedShard>(mem));
        },
        /*revive=*/{}});
  }
  cluster::ClusterOptions options;
  options.replication = 2;
  options.writer_id = 7;
  options.background_rebalance = false;
  return cluster::ClusterBackend::Create(std::move(specs), options).value();
}

// On a cluster every delete is a quorum-written tombstone that is never
// collected. Default-configuration commits delete no journal object, so a
// run of operations leaves no tombstone under nxj/.
TEST(JournalClusterTest, DefaultCommitsLeaveNoJournalTombstones) {
  std::vector<std::shared_ptr<storage::MemBackend>> shards;
  std::unique_ptr<cluster::ClusterBackend> backend = ThreeShardCluster(&shards);
  cluster::ClusterBackend* cluster = backend.get();

  test::World world("cluster-journal", std::move(backend));
  test::Machine& machine = world.AddMachine("owen");
  auto handle = machine.nexus->CreateVolume(machine.user);
  ASSERT_TRUE(handle.ok());
  auto& nexus = *machine.nexus;
  ASSERT_TRUE(nexus.Mkdir("d").ok());
  for (int i = 0; i < 8; ++i) {
    const std::string path = "d/f" + std::to_string(i);
    ASSERT_TRUE(nexus.WriteFile(path, Bytes(32, 1)).ok());
    ASSERT_TRUE(nexus.WriteFile(path, Bytes(32, 2)).ok());
  }
  ASSERT_TRUE(nexus.Remove("d/f0").ok());
  ASSERT_TRUE(nexus.Unmount().ok());
  EXPECT_GT(cluster->counters().tombstones_written, 0u); // data + buckets

  std::size_t journal_replicas = 0;
  for (const auto& shard : shards) {
    for (const std::string& name : shard->List("nxj/")) {
      EXPECT_EQ(name, "nxj/anchor");
      const auto env = cluster::DecodeEnvelope(shard->Get(name).value());
      ASSERT_TRUE(env.ok());
      EXPECT_FALSE(env->tombstone) << name;
      ++journal_replicas;
    }
  }
  EXPECT_EQ(journal_replicas, 2u); // the anchor, on its R=2 replicas

  ASSERT_TRUE(nexus.Mount(machine.user, handle->volume_uuid,
                          handle->sealed_rootkey)
                  .ok());
  EXPECT_EQ(nexus.ReadFile("d/f7").value(), Bytes(32, 2));
}

// The whole client stack (NexusClient -> CachedBackend -> ClusterBackend
// over three shards, R=2), as the full-stack benchmark builds it. A
// rewrite of an existing file is the data stream, the anchor, the
// filenode and the superseded data object's tombstone, each on two
// replicas: 8 shard RPCs and no quorum read.
TEST(JournalClusterTest, RewriteCostsEightShardRpcsAndNoQuorumRead) {
  std::unique_ptr<cluster::ClusterBackend> backend = ThreeShardCluster();
  cluster::ClusterBackend* cluster = backend.get();
  test::World world("cluster-budget",
                    std::make_unique<cache::CachedBackend>(std::move(backend)));
  test::Machine& machine = world.AddMachine("owen");
  ASSERT_TRUE(machine.nexus->CreateVolume(machine.user).ok());
  auto& nexus = *machine.nexus;
  ASSERT_TRUE(nexus.ConfigureJournal(true, 0).ok());
  ASSERT_TRUE(nexus.WriteFile("f", Bytes(100, 1)).ok());

  for (std::uint8_t fill = 2; fill < 5; ++fill) {
    const cluster::ClusterCounters before = cluster->counters();
    ASSERT_TRUE(nexus.WriteFile("f", Bytes(100, fill)).ok());
    const cluster::ClusterCounters delta = cluster->counters() - before;
    EXPECT_EQ(delta.shard_rpcs, 8u) << int{fill};
    EXPECT_EQ(delta.quorum_reads, 0u) << int{fill};
    EXPECT_EQ(delta.tombstones_written, 1u) << int{fill};
  }
  EXPECT_EQ(nexus.ReadFile("f").value(), Bytes(100, 4));
}

// Every object on `store` with its bytes.
std::map<std::string, Bytes> StoreContents(storage::MemBackend& store) {
  std::map<std::string, Bytes> contents;
  for (const std::string& name : store.List("")) {
    contents[name] = store.Get(name).value();
  }
  return contents;
}

// Names whose presence or bytes differ between two store snapshots, as
// "a,b,c" so assertion failures name them.
std::string ChangedNames(const std::map<std::string, Bytes>& a,
                         const std::map<std::string, Bytes>& b) {
  std::string joined;
  auto note = [&joined](const std::string& name) {
    if (!joined.empty()) joined += ",";
    joined += name;
  };
  for (const auto& [name, bytes] : a) {
    const auto it = b.find(name);
    if (it == b.end() || it->second != bytes) note(name);
  }
  for (const auto& [name, bytes] : b) {
    if (!a.contains(name)) note(name);
  }
  return joined;
}

// The client stack over a live loopback nexusd: NexusClient (journaled)
// -> CachedBackend in lease mode -> RemoteBackend. Each operation's
// writes, the anchor and the checkpointed metadata after it included,
// are on the daemon's store when the operation returns: tearing the
// client down afterwards changes nothing on the store.
TEST(JournalLeaseCacheTest, EveryOpIsOnTheStoreWhenItReturns) {
  storage::MemBackend store;
  auto server = net::NexusdServer::Start(store).value();
  auto remote = net::RemoteBackend::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  auto owned = std::make_unique<cache::CachedBackend>(std::move(remote).value());
  ASSERT_TRUE(owned->lease_mode());
  std::map<std::string, Bytes> last = StoreContents(store);
  {
    test::World world("lease-cache", std::move(owned));
    test::Machine& machine = world.AddMachine("owen");
    ASSERT_TRUE(machine.nexus->CreateVolume(machine.user).ok());
    auto& nexus = *machine.nexus;
    ASSERT_TRUE(nexus.ConfigureJournal(true, 0).ok());

    auto expect_on_store = [&](const std::string& op) {
      const std::map<std::string, Bytes> returned = StoreContents(store);
      EXPECT_NE(ChangedNames(last, returned), "") << op;
      last = returned;
    };
    ASSERT_TRUE(nexus.Mkdir("d").ok());
    expect_on_store("mkdir d");
    ASSERT_TRUE(nexus.WriteFile("d/f", Bytes(100, 1)).ok());
    expect_on_store("create d/f");
    ASSERT_TRUE(nexus.WriteFile("d/f", Bytes(300, 2)).ok());
    expect_on_store("rewrite d/f");
    ASSERT_TRUE(nexus.WriteFile("d/g", Bytes(10, 3)).ok());
    expect_on_store("create d/g");
    ASSERT_TRUE(nexus.Remove("d/f").ok());
    expect_on_store("remove d/f");
    EXPECT_EQ(nexus.ReadFile("d/g").value(), Bytes(10, 3));
    last = StoreContents(store);
  }
  EXPECT_EQ(ChangedNames(last, StoreContents(store)), "");
  server->Stop();
}

} // namespace
} // namespace nexus
