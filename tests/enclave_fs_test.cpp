// End-to-end filesystem tests through the full stack: NexusClient ->
// enclave -> AFS simulator.
#include <gtest/gtest.h>

#include "core/metadata_store.hpp"
#include "test_env.hpp"

namespace nexus {
namespace {

using enclave::EntryType;

class FsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = &world_.AddMachine("owen");
    auto handle = machine_->nexus->CreateVolume(machine_->user);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handle_ = std::move(handle).value();
  }

  core::NexusClient& fs() { return *machine_->nexus; }

  test::World world_;
  test::Machine* machine_ = nullptr;
  core::NexusClient::VolumeHandle handle_;
};

TEST_F(FsTest, WriteAndReadBack) {
  const Bytes content = ToBytes(std::string_view("hello nexus"));
  ASSERT_TRUE(fs().WriteFile("a.txt", content).ok());
  EXPECT_EQ(fs().ReadFile("a.txt").value(), content);
}

TEST_F(FsTest, EmptyFile) {
  ASSERT_TRUE(fs().Touch("empty").ok());
  EXPECT_TRUE(fs().ReadFile("empty").value().empty());
  EXPECT_EQ(fs().Lookup("empty")->size, 0u);
}

TEST_F(FsTest, OverwriteChangesContentAndSize) {
  ASSERT_TRUE(fs().WriteFile("f", Bytes(100, 1)).ok());
  ASSERT_TRUE(fs().WriteFile("f", Bytes(5, 2)).ok());
  const Bytes back = fs().ReadFile("f").value();
  EXPECT_EQ(back, Bytes(5, 2));
  EXPECT_EQ(fs().Lookup("f")->size, 5u);
}

TEST_F(FsTest, MultiChunkFiles) {
  // Volume default chunk size is 1 MB; exercise exact/offset boundaries.
  crypto::HmacDrbg rng(AsBytes("chunks"));
  for (const std::size_t size :
       {std::size_t{1 << 20}, std::size_t{(1 << 20) + 1},
        std::size_t{(1 << 20) - 1}, std::size_t{3 << 20},
        std::size_t{(2 << 20) + 12345}}) {
    const Bytes content = rng.Generate(size);
    ASSERT_TRUE(fs().WriteFile("big", content).ok()) << size;
    EXPECT_EQ(fs().ReadFile("big").value(), content) << size;
  }
}

TEST_F(FsTest, NestedDirectories) {
  ASSERT_TRUE(fs().Mkdir("docs").ok());
  ASSERT_TRUE(fs().Mkdir("docs/work").ok());
  ASSERT_TRUE(fs().Mkdir("docs/work/deep").ok());
  ASSERT_TRUE(fs().WriteFile("docs/work/deep/cake.c", Bytes{1, 2}).ok());
  EXPECT_EQ(fs().ReadFile("docs/work/deep/cake.c").value(), (Bytes{1, 2}));

  const auto entries = fs().ListDir("docs/work").value();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "deep");
  EXPECT_EQ(entries[0].type, EntryType::kDirectory);
}

TEST_F(FsTest, LookupSemantics) {
  ASSERT_TRUE(fs().Mkdir("d").ok());
  ASSERT_TRUE(fs().WriteFile("d/f", Bytes(10, 1)).ok());

  EXPECT_EQ(fs().Lookup("")->type, EntryType::kDirectory); // root
  EXPECT_EQ(fs().Lookup("d")->type, EntryType::kDirectory);
  EXPECT_EQ(fs().Lookup("d/f")->type, EntryType::kFile);
  EXPECT_EQ(fs().Lookup("d/f")->size, 10u);
  EXPECT_EQ(fs().Lookup("missing").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs().Lookup("d/missing").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs().Lookup("missing/f").status().code(), ErrorCode::kNotFound);
}

TEST_F(FsTest, DuplicateCreateFails) {
  ASSERT_TRUE(fs().Touch("f").ok());
  EXPECT_EQ(fs().Touch("f").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(fs().Mkdir("f").code(), ErrorCode::kAlreadyExists);
}

TEST_F(FsTest, RemoveFileAndDirectory) {
  ASSERT_TRUE(fs().WriteFile("f", Bytes(10, 1)).ok());
  ASSERT_TRUE(fs().Mkdir("d").ok());
  ASSERT_TRUE(fs().Remove("f").ok());
  EXPECT_EQ(fs().Lookup("f").status().code(), ErrorCode::kNotFound);
  ASSERT_TRUE(fs().Remove("d").ok());
  EXPECT_EQ(fs().Remove("d").code(), ErrorCode::kNotFound);
}

TEST_F(FsTest, RemoveNonEmptyDirectoryFails) {
  ASSERT_TRUE(fs().Mkdir("d").ok());
  ASSERT_TRUE(fs().Touch("d/f").ok());
  EXPECT_FALSE(fs().Remove("d").ok());
  ASSERT_TRUE(fs().Remove("d/f").ok());
  EXPECT_TRUE(fs().Remove("d").ok());
}

TEST_F(FsTest, RenameWithinDirectory) {
  ASSERT_TRUE(fs().WriteFile("old", Bytes{7}).ok());
  ASSERT_TRUE(fs().Rename("old", "new").ok());
  EXPECT_EQ(fs().Lookup("old").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs().ReadFile("new").value(), Bytes{7});
}

TEST_F(FsTest, RenameAcrossDirectories) {
  ASSERT_TRUE(fs().Mkdir("a").ok());
  ASSERT_TRUE(fs().Mkdir("b").ok());
  ASSERT_TRUE(fs().WriteFile("a/f", Bytes{1}).ok());
  ASSERT_TRUE(fs().Rename("a/f", "b/g").ok());
  EXPECT_EQ(fs().ReadFile("b/g").value(), Bytes{1});
  EXPECT_TRUE(fs().ListDir("a").value().empty());
}

TEST_F(FsTest, RenameDirectoryRepinsParent) {
  ASSERT_TRUE(fs().Mkdir("a").ok());
  ASSERT_TRUE(fs().Mkdir("b").ok());
  ASSERT_TRUE(fs().Mkdir("a/sub").ok());
  ASSERT_TRUE(fs().WriteFile("a/sub/f", Bytes{5}).ok());
  ASSERT_TRUE(fs().Rename("a/sub", "b/sub").ok());
  // Traversal through the new location must pass the parent-uuid check.
  EXPECT_EQ(fs().ReadFile("b/sub/f").value(), Bytes{5});
  // Including after a cold restart of all caches.
  fs().DropAllCaches();
  EXPECT_EQ(fs().ReadFile("b/sub/f").value(), Bytes{5});
}

TEST_F(FsTest, RenameReplacesExistingTarget) {
  ASSERT_TRUE(fs().WriteFile("src", Bytes{1}).ok());
  ASSERT_TRUE(fs().WriteFile("dst", Bytes{2}).ok());
  ASSERT_TRUE(fs().Rename("src", "dst").ok());
  EXPECT_EQ(fs().ReadFile("dst").value(), Bytes{1});
  EXPECT_EQ(fs().Lookup("src").status().code(), ErrorCode::kNotFound);
}

TEST_F(FsTest, SymlinkRoundTrip) {
  ASSERT_TRUE(fs().WriteFile("target.txt", Bytes{1}).ok());
  ASSERT_TRUE(fs().Symlink("target.txt", "link").ok());
  EXPECT_EQ(fs().Lookup("link")->type, EntryType::kSymlink);
  EXPECT_EQ(fs().Readlink("link").value(), "target.txt");
  ASSERT_TRUE(fs().Remove("link").ok());
  // Removing the link does not touch the target.
  EXPECT_TRUE(fs().Lookup("target.txt").ok());
}

TEST_F(FsTest, HardlinkSharesContent) {
  ASSERT_TRUE(fs().WriteFile("f", Bytes{1, 2, 3}).ok());
  ASSERT_TRUE(fs().Hardlink("f", "g").ok());
  EXPECT_EQ(fs().ReadFile("g").value(), (Bytes{1, 2, 3}));

  // Content updates are visible through both names (same filenode).
  ASSERT_TRUE(fs().WriteFile("g", Bytes{9}).ok());
  EXPECT_EQ(fs().ReadFile("f").value(), Bytes{9});

  // Removing one name keeps the data alive; removing the last frees it.
  ASSERT_TRUE(fs().Remove("f").ok());
  EXPECT_EQ(fs().ReadFile("g").value(), Bytes{9});
  ASSERT_TRUE(fs().Remove("g").ok());
}

TEST_F(FsTest, LargeDirectorySpansBuckets) {
  // Default bucket size is 128; 300 entries need 3 buckets.
  ASSERT_TRUE(fs().Mkdir("big").ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(fs().Touch("big/file-" + std::to_string(i)).ok()) << i;
  }
  EXPECT_EQ(fs().ListDir("big").value().size(), 300u);
  EXPECT_TRUE(fs().Lookup("big/file-250").ok());

  // Survives a cold reload (buckets re-fetched and MAC-verified).
  fs().DropAllCaches();
  EXPECT_EQ(fs().ListDir("big").value().size(), 300u);

  // Delete down to zero; buckets must shrink away cleanly.
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(fs().Remove("big/file-" + std::to_string(i)).ok()) << i;
  }
  EXPECT_TRUE(fs().ListDir("big").value().empty());
  EXPECT_TRUE(fs().Remove("big").ok());
}

TEST_F(FsTest, PathValidation) {
  EXPECT_FALSE(fs().Touch("").ok());
  EXPECT_FALSE(fs().Touch("a/../b").ok());
  EXPECT_FALSE(fs().Touch("./a").ok());
  EXPECT_FALSE(fs().Remove("").ok());
  // Extra slashes are tolerated.
  ASSERT_TRUE(fs().Mkdir("d").ok());
  EXPECT_TRUE(fs().Touch("d//f").ok());
  EXPECT_TRUE(fs().Lookup("d/f").ok());
}

TEST_F(FsTest, NamesAndContentAreObfuscatedOnTheServer) {
  const std::string secret_name = "very-secret-name.doc";
  const std::string secret_content = "TOP SECRET PAYLOAD 1234567890";
  ASSERT_TRUE(fs().WriteFile(secret_name, AsBytes(secret_content)).ok());

  // Enumerate everything the server stores: no object name or byte stream
  // may reveal the plaintext filename or content.
  const auto names = machine_->afs->List("").value();
  ASSERT_FALSE(names.empty());
  for (const std::string& object_name : names) {
    EXPECT_EQ(object_name.find(secret_name), std::string::npos) << object_name;
    const Bytes stored = world_.server().AdversaryRead(object_name).value();
    const std::string raw(reinterpret_cast<const char*>(stored.data()),
                          stored.size());
    EXPECT_EQ(raw.find(secret_name), std::string::npos) << object_name;
    EXPECT_EQ(raw.find(secret_content), std::string::npos) << object_name;
  }
}

TEST_F(FsTest, PersistsAcrossEnclaveRestartAndRemount) {
  ASSERT_TRUE(fs().Mkdir("docs").ok());
  ASSERT_TRUE(fs().WriteFile("docs/f", Bytes{4, 5, 6}).ok());
  ASSERT_TRUE(fs().Unmount().ok());

  // Fresh enclave on the same machine: unseal + challenge-response mount.
  core::NexusClient fresh(*machine_->runtime, *machine_->afs,
                          world_.intel().root_public_key());
  ASSERT_TRUE(
      fresh.Mount(machine_->user, handle_.volume_uuid, handle_.sealed_rootkey)
          .ok());
  EXPECT_EQ(fresh.ReadFile("docs/f").value(), (Bytes{4, 5, 6}));
}

TEST_F(FsTest, OperationsRequireMount) {
  ASSERT_TRUE(fs().Unmount().ok());
  EXPECT_EQ(fs().Touch("f").code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(fs().ReadFile("f").status().code(), ErrorCode::kPermissionDenied);
  EXPECT_FALSE(fs().Unmount().ok());
}

TEST_F(FsTest, CacheStatsTrackHitsAndMisses) {
  ASSERT_TRUE(fs().Mkdir("d").ok());
  ASSERT_TRUE(fs().Touch("d/f").ok());
  const auto misses0 = fs().enclave().cache_stats().dirnode_misses;
  ASSERT_TRUE(fs().Lookup("d/f").ok());
  ASSERT_TRUE(fs().Lookup("d/f").ok());
  const auto& stats = fs().enclave().cache_stats();
  EXPECT_EQ(stats.dirnode_misses, misses0); // warm lookups hit the cache
  EXPECT_GT(stats.dirnode_hits, 0u);
}

// Object names are the store's on-disk and on-wire keys: the path builder
// must keep producing exactly prefix + "/" or "d/" + the 32 hex digits.
TEST_F(FsTest, MetadataObjectPathsKeepTheirFormat) {
  core::AfsMetadataStore store(*machine_->afs, "nx");
  const Uuid uuid(ByteArray<Uuid::kSize>{0x00, 0x01, 0x23, 0x45, 0x67, 0x89,
                                         0xab, 0xcd, 0xef, 0xfe, 0xdc, 0xba,
                                         0x98, 0x76, 0x54, 0x10});
  EXPECT_EQ(store.MetaPath(uuid), "nx/000123456789abcdeffedcba98765410");
  EXPECT_EQ(store.DataPath(uuid), "nxd/000123456789abcdeffedcba98765410");
  EXPECT_EQ(store.MetaPath(uuid), "nx/" + uuid.ToString());
  EXPECT_EQ(store.JournalPath("anchor"), "nxj/anchor");
}

} // namespace
} // namespace nexus
