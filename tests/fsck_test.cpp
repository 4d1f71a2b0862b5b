// Volume audit / fsck: integrity walk, orphan detection and reclamation.
#include <gtest/gtest.h>

#include "core/fsck.hpp"
#include "test_env.hpp"

namespace nexus::core {
namespace {

class FsckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = &world_.AddMachine("owen");
    auto handle = machine_->nexus->CreateVolume(machine_->user);
    ASSERT_TRUE(handle.ok());
    handle_ = std::move(handle).value();
    auto& fs = *machine_->nexus;
    ASSERT_TRUE(fs.Mkdir("a").ok());
    ASSERT_TRUE(fs.Mkdir("a/b").ok());
    ASSERT_TRUE(fs.WriteFile("a/f1", Bytes(1000, 1)).ok());
    ASSERT_TRUE(fs.WriteFile("a/b/f2", Bytes(5000, 2)).ok());
    ASSERT_TRUE(fs.Symlink("a/f1", "link").ok());
  }

  Status Remount() {
    NEXUS_RETURN_IF_ERROR(machine_->nexus->Unmount());
    return machine_->nexus->Mount(machine_->user, handle_.volume_uuid,
                                  handle_.sealed_rootkey);
  }

  test::World world_;
  test::Machine* machine_ = nullptr;
  NexusClient::VolumeHandle handle_;
};

TEST_F(FsckTest, HealthyVolumePasses) {
  const FsckReport report = RunFsck(*machine_->nexus, /*deep=*/true).value();
  EXPECT_EQ(report.audit.directories, 3u); // root, a, a/b
  EXPECT_EQ(report.audit.files, 2u);
  EXPECT_EQ(report.audit.symlinks, 1u);
  EXPECT_EQ(report.audit.plaintext_bytes, 6000u);
  EXPECT_TRUE(report.orphaned_objects.empty())
      << report.orphaned_objects.front();
}

TEST_F(FsckTest, EveryStoredObjectIsReachableOrOrphan) {
  // The reachable set + orphans must exactly cover the store.
  const FsckReport report = RunFsck(*machine_->nexus, false).value();
  const auto meta = machine_->afs->List("nx/").value();
  const auto data = machine_->afs->List("nxd/").value();
  EXPECT_EQ(report.audit.reachable_meta.size() + report.audit.reachable_data.size() +
                report.orphaned_objects.size(),
            meta.size() + data.size());
}

TEST_F(FsckTest, DetectsOrphansAndReclaimsThem) {
  // Plant garbage the way a crashed operation would: unreferenced objects.
  ASSERT_TRUE(world_.server()
                  .AdversaryWrite("nx/deadbeefdeadbeefdeadbeefdeadbeef",
                                  Bytes(100, 1))
                  .ok());
  ASSERT_TRUE(world_.server()
                  .AdversaryWrite("nxd/feedfacefeedfacefeedfacefeedface",
                                  Bytes(100, 2))
                  .ok());

  FsckReport report = RunFsck(*machine_->nexus, false).value();
  ASSERT_EQ(report.orphaned_objects.size(), 2u);

  EXPECT_EQ(ReclaimOrphans(*machine_->nexus, report).value(), 2u);
  report = RunFsck(*machine_->nexus, false).value();
  EXPECT_TRUE(report.orphaned_objects.empty());
  // The volume itself is untouched.
  EXPECT_EQ(machine_->nexus->ReadFile("a/b/f2").value(), Bytes(5000, 2));
}

// The journal's one object is its anchor. Anything else under nxj/ — a
// record an older build left, or foreign garbage — is an orphan: a mount
// never reads it, and reclaiming it loses nothing.
TEST_F(FsckTest, JournalDebrisIsAnOrphan) {
  const std::string debris = "nxj/0000000000000001";
  ASSERT_TRUE(world_.server().AdversaryWrite(debris, Bytes(100, 3)).ok());
  ASSERT_TRUE(Remount().ok());

  FsckReport report = RunFsck(*machine_->nexus, false).value();
  EXPECT_EQ(report.orphaned_objects, std::vector<std::string>{debris});
  EXPECT_EQ(ReclaimOrphans(*machine_->nexus, report).value(), 1u);
  EXPECT_EQ(machine_->afs->List("nxj/").value(),
            std::vector<std::string>{"nxj/anchor"});
  EXPECT_TRUE(RunFsck(*machine_->nexus, false)->orphaned_objects.empty());

  ASSERT_TRUE(Remount().ok());
  EXPECT_EQ(machine_->nexus->ReadFile("a/b/f2").value(), Bytes(5000, 2));
}

TEST_F(FsckTest, ShallowMissesDataTamperDeepCatchesIt) {
  const auto names = machine_->afs->List("nxd/").value();
  ASSERT_FALSE(names.empty());
  Bytes blob = world_.server().AdversaryRead(names[0]).value();
  blob[blob.size() / 2] ^= 1;
  ASSERT_TRUE(world_.server().AdversaryWrite(names[0], blob).ok());
  machine_->nexus->DropAllCaches();

  // Shallow audit only checks metadata: passes.
  EXPECT_TRUE(RunFsck(*machine_->nexus, /*deep=*/false).ok());
  // Deep audit verifies every chunk: fails.
  const auto deep = RunFsck(*machine_->nexus, /*deep=*/true);
  EXPECT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), ErrorCode::kIntegrityViolation);
}

TEST_F(FsckTest, CatchesMetadataTamper) {
  const auto attrs = machine_->nexus->Lookup("a").value();
  const std::string obj = "nx/" + attrs.uuid.ToString();
  Bytes blob = world_.server().AdversaryRead(obj).value();
  blob[blob.size() - 1] ^= 1;
  ASSERT_TRUE(world_.server().AdversaryWrite(obj, blob).ok());
  machine_->nexus->DropAllCaches();

  const auto r = RunFsck(*machine_->nexus, false);
  EXPECT_FALSE(r.ok());
}

TEST_F(FsckTest, HardlinkedFileCountedOnce) {
  ASSERT_TRUE(machine_->nexus->Hardlink("a/f1", "a/f1-link").ok());
  const FsckReport report = RunFsck(*machine_->nexus, true).value();
  // Two dirents point to one filenode: files counts dirents, but the
  // reachable sets must still dedupe to consistent coverage.
  EXPECT_EQ(report.audit.files, 3u);
  EXPECT_TRUE(report.orphaned_objects.empty());
}

TEST_F(FsckTest, RequiresMountedVolume) {
  ASSERT_TRUE(machine_->nexus->Unmount().ok());
  EXPECT_FALSE(RunFsck(*machine_->nexus, false).ok());
}

} // namespace
} // namespace nexus::core
