// Journal integration tests at the client level: a default commit is one
// anchor store with no record left behind, per-op round trips are pinned,
// group commit batches many operations into one record, checkpoints
// truncate the journal, a second session replays committed-but-
// uncheckpointed records at mount, recovery never rolls a newer object
// back to the anchor's tail, and fsck surfaces the journal's state.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "cluster/cluster_backend.hpp"
#include "core/fsck.hpp"
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

  /// Journal record objects currently on the store (anchor excluded),
  /// as "a,b,c" so assertion failures name the leftovers.
  std::string RecordsOnStore() {
    std::string joined;
    const std::vector<std::string> names = machine_->afs->List("nxj/").value();
    for (const auto& name : names) {
      if (name == "nxj/anchor") continue;
      if (!joined.empty()) joined += ",";
      joined += name;
    }
    return joined;
  }

  std::size_t RecordCount() {
    const std::string joined = RecordsOnStore();
    return joined.empty()
               ? 0
               : 1 + static_cast<std::size_t>(
                         std::count(joined.begin(), joined.end(), ','));
  }

  test::World world_;
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
  EXPECT_EQ(RecordsOnStore(), "");
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
  // First small write: lock, revalidate the cached filenode, data stream
  // open and commit, anchor, filenode, unlock.
  EXPECT_EQ(rpcs([&] { return nexus.WriteFile("f", Bytes(100, 1)); }), 7u);
  // A rewrite also deletes the superseded data object after the commit.
  EXPECT_EQ(rpcs([&] { return nexus.WriteFile("f", Bytes(100, 2)); }), 8u);
  EXPECT_EQ(nexus.ReadFile("f").value(), Bytes(100, 2));

  // No record object was ever written: only the anchor lives in nxj/.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(nexus.WriteFile("g" + std::to_string(i), Bytes(10, 3)).ok());
  }
  ASSERT_TRUE(nexus.Mkdir("d").ok());
  ASSERT_TRUE(nexus.Remove("g0").ok());
  EXPECT_EQ(machine_->afs->List("nxj/").value(),
            std::vector<std::string>{"nxj/anchor"});
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
  // Large checkpoint interval keeps the committed record on the store so
  // we can observe it before any checkpoint applies it.
  ASSERT_TRUE(nexus.ConfigureJournal(true, 1 << 20).ok());

  const auto before = nexus.Profile();
  ASSERT_TRUE(nexus.BeginBatch().ok());
  ASSERT_TRUE(nexus.Mkdir("batch").ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        nexus.WriteFile("batch/f" + std::to_string(i), Bytes(64, 3)).ok());
  }
  ASSERT_TRUE(nexus.CommitBatch().ok());
  const auto delta = nexus.Profile() - before;

  EXPECT_EQ(delta.journal.records_committed, 1u);
  EXPECT_GT(delta.journal.ops_committed, 8u); // dirnode + bucket + filenodes
  EXPECT_EQ(delta.journal.checkpoints, 0u);
  EXPECT_EQ(RecordCount(), 1u) << RecordsOnStore();

  // The uncommitted-to-main state is fully readable through the journal
  // overlay, and a deep fsck sees a consistent volume plus the pending
  // record.
  EXPECT_EQ(nexus.ReadFile("batch/f3").value(), Bytes(64, 3));
  auto fsck = core::RunFsck(*machine_->nexus, /*deep=*/true);
  ASSERT_TRUE(fsck.ok()) << fsck.status().ToString();
  EXPECT_EQ(fsck->audit.files, 8u);
  EXPECT_TRUE(fsck->orphaned_objects.empty());
  EXPECT_EQ(fsck->uncheckpointed_records, 1u);

  // Unmount flushes: checkpoint applies the record and truncates.
  ASSERT_TRUE(nexus.Unmount().ok());
  EXPECT_EQ(RecordsOnStore(), "");
  ASSERT_TRUE(
      nexus.Mount(machine_->user, handle_.volume_uuid, handle_.sealed_rootkey)
          .ok());
  EXPECT_EQ(nexus.ReadFile("batch/f7").value(), Bytes(64, 3));
}

TEST_F(JournalRecoveryTest, BatchDedupCollapsesRepeatedMetadataStores) {
  auto& nexus = *machine_->nexus;
  ASSERT_TRUE(nexus.ConfigureJournal(true, 1 << 20).ok());
  const auto before = nexus.Profile();
  ASSERT_TRUE(nexus.BeginBatch().ok());
  // Every create rewrites the same parent dirnode: without dedup the
  // record would hold one dirnode copy per file.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(nexus.Touch("f" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(nexus.CommitBatch().ok());
  const auto delta = nexus.Profile() - before;
  EXPECT_GT(delta.journal.ops_deduped, 0u);
  // The record holds one op per distinct object, not one per store call.
  EXPECT_LT(delta.journal.ops_committed, 6u + delta.journal.ops_deduped);
}

TEST_F(JournalRecoveryTest, SecondSessionReplaysCommittedRecordsAtMount) {
  auto& nexus = *machine_->nexus;
  ASSERT_TRUE(nexus.ConfigureJournal(true, 1 << 20).ok());
  ASSERT_TRUE(nexus.BeginBatch().ok());
  ASSERT_TRUE(nexus.Mkdir("d").ok());
  ASSERT_TRUE(nexus.WriteFile("d/replayed", Bytes(32, 9)).ok());
  ASSERT_TRUE(nexus.CommitBatch().ok());
  ASSERT_EQ(RecordCount(), 1u) << RecordsOnStore();
  // The first session now "dies" without unmounting (no checkpoint).

  machine_->afs->FlushCache();
  core::NexusClient second(*machine_->runtime, *machine_->afs,
                           world_.intel().root_public_key());
  ASSERT_TRUE(
      second.Mount(machine_->user, handle_.volume_uuid, handle_.sealed_rootkey)
          .ok());
  const auto profile = second.Profile();
  EXPECT_GE(profile.journal.records_replayed, 1u);
  EXPECT_GE(profile.journal.ops_replayed, 2u);
  EXPECT_EQ(second.ReadFile("d/replayed").value(), Bytes(32, 9));
  // Replay checkpointed the chain: the journal is truncated again.
  EXPECT_EQ(RecordsOnStore(), "");
  ASSERT_TRUE(second.Unmount().ok());
}

TEST_F(JournalRecoveryTest, RecoveryRunsEvenWithJournalingDisabled) {
  auto& nexus = *machine_->nexus;
  ASSERT_TRUE(nexus.ConfigureJournal(true, 1 << 20).ok());
  ASSERT_TRUE(nexus.BeginBatch().ok());
  ASSERT_TRUE(nexus.WriteFile("precrash", Bytes(16, 4)).ok());
  ASSERT_TRUE(nexus.CommitBatch().ok());
  ASSERT_EQ(RecordCount(), 1u) << RecordsOnStore();

  machine_->afs->FlushCache();
  core::NexusClient second(*machine_->runtime, *machine_->afs,
                           world_.intel().root_public_key());
  // Journaling off for the new session — but the committed transaction on
  // the store must still be applied, or durable writes would be lost.
  ASSERT_TRUE(second.ConfigureJournal(false, 0).ok());
  ASSERT_TRUE(
      second.Mount(machine_->user, handle_.volume_uuid, handle_.sealed_rootkey)
          .ok());
  EXPECT_EQ(second.ReadFile("precrash").value(), Bytes(16, 4));
  EXPECT_EQ(RecordsOnStore(), "");

  // With journaling off, subsequent writes go straight to the main
  // objects: no new records, no commits.
  const auto before = second.Profile();
  ASSERT_TRUE(second.WriteFile("direct", Bytes(16, 5)).ok());
  const auto delta = second.Profile() - before;
  EXPECT_EQ(delta.journal.records_committed, 0u);
  EXPECT_EQ(RecordsOnStore(), "");
  ASSERT_TRUE(second.Unmount().ok());
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

// On a cluster every delete is a quorum-written tombstone that is never
// collected. Default-configuration commits delete no journal object, so a
// run of operations leaves no tombstone under nxj/.
TEST(JournalClusterTest, DefaultCommitsLeaveNoJournalTombstones) {
  std::vector<std::shared_ptr<storage::MemBackend>> shards;
  std::vector<cluster::ShardSpec> specs;
  for (int i = 0; i < 3; ++i) {
    auto mem = std::make_shared<storage::MemBackend>();
    shards.push_back(mem);
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
  auto backend = cluster::ClusterBackend::Create(std::move(specs), options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  cluster::ClusterBackend* cluster = backend->get();

  test::World world("cluster-journal", std::move(backend).value());
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

} // namespace
} // namespace nexus
