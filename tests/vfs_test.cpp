// VFS conformance suite, parameterized over both mounts: the bare-AFS
// baseline and NEXUS must expose identical POSIX-like behaviour (they run
// the same workload streams in the evaluation).
#include <gtest/gtest.h>

#include <algorithm>

#include "test_env.hpp"
#include "vfs/afs_passthrough_fs.hpp"
#include "vfs/buffered_file.hpp"
#include "vfs/nexus_fs.hpp"

namespace nexus::vfs {
namespace {

enum class MountKind { kPassthrough, kNexus };

class VfsConformanceTest : public ::testing::TestWithParam<MountKind> {
 protected:
  void SetUp() override {
    machine_ = &world_.AddMachine("user");
    if (GetParam() == MountKind::kNexus) {
      auto handle = machine_->nexus->CreateVolume(machine_->user);
      ASSERT_TRUE(handle.ok());
      fs_ = std::make_unique<NexusFs>(*machine_->nexus);
    } else {
      fs_ = std::make_unique<AfsPassthroughFs>(*machine_->afs);
    }
  }

  FileSystem& fs() { return *fs_; }

  test::World world_;
  test::Machine* machine_ = nullptr;
  std::unique_ptr<FileSystem> fs_;
};

TEST_P(VfsConformanceTest, WholeFileRoundTrip) {
  const Bytes data = ToBytes(std::string_view("vfs round trip"));
  ASSERT_TRUE(fs().WriteWholeFile("f.txt", data).ok());
  EXPECT_EQ(fs().ReadWholeFile("f.txt").value(), data);
}

TEST_P(VfsConformanceTest, ReadMissingFails) {
  EXPECT_EQ(fs().ReadWholeFile("nope").status().code(), ErrorCode::kNotFound);
  EXPECT_FALSE(fs().Open("nope", OpenMode::kRead).ok());
}

TEST_P(VfsConformanceTest, OpenModes) {
  ASSERT_TRUE(fs().WriteWholeFile("f", Bytes(100, 1)).ok());
  // kWrite truncates.
  {
    auto f = fs().Open("f", OpenMode::kWrite).value();
    EXPECT_EQ(f->Size(), 0u);
    ASSERT_TRUE(f->Write(0, Bytes{2, 2}).ok());
    ASSERT_TRUE(f->Close().ok());
  }
  EXPECT_EQ(fs().ReadWholeFile("f").value(), (Bytes{2, 2}));
  // kReadWrite preserves and allows in-place update.
  {
    auto f = fs().Open("f", OpenMode::kReadWrite).value();
    EXPECT_EQ(f->Size(), 2u);
    ASSERT_TRUE(f->Write(1, Bytes{9}).ok());
    ASSERT_TRUE(f->Close().ok());
  }
  EXPECT_EQ(fs().ReadWholeFile("f").value(), (Bytes{2, 9}));
}

TEST_P(VfsConformanceTest, ReadsAtOffsets) {
  Bytes data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  ASSERT_TRUE(fs().WriteWholeFile("f", data).ok());
  auto f = fs().Open("f", OpenMode::kRead).value();
  Bytes buf(10);
  EXPECT_EQ(f->Read(500, buf).value(), 10u);
  EXPECT_EQ(buf[0], static_cast<std::uint8_t>(500));
  EXPECT_EQ(f->Read(995, buf).value(), 5u);    // short read at EOF
  EXPECT_EQ(f->Read(2000, buf).value(), 0u);   // past EOF
  ASSERT_TRUE(f->Close().ok());
}

TEST_P(VfsConformanceTest, AppendAndSync) {
  auto f = fs().Open("log", OpenMode::kWrite).value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(f->Append(Bytes(100, static_cast<std::uint8_t>(i))).ok());
    ASSERT_TRUE(f->Sync().ok());
  }
  ASSERT_TRUE(f->Close().ok());
  const Bytes back = fs().ReadWholeFile("log").value();
  ASSERT_EQ(back.size(), 1000u);
  EXPECT_EQ(back[950], 9);
}

TEST_P(VfsConformanceTest, SyncMakesContentDurable) {
  auto f = fs().Open("f", OpenMode::kWrite).value();
  ASSERT_TRUE(f->Write(0, Bytes{1, 2, 3}).ok());
  ASSERT_TRUE(f->Sync().ok());
  // Visible to a second reader before close.
  EXPECT_EQ(fs().ReadWholeFile("f").value(), (Bytes{1, 2, 3}));
  ASSERT_TRUE(f->Close().ok());
}

TEST_P(VfsConformanceTest, TruncateShrinksAndGrows) {
  ASSERT_TRUE(fs().WriteWholeFile("f", Bytes(100, 7)).ok());
  auto f = fs().Open("f", OpenMode::kReadWrite).value();
  ASSERT_TRUE(f->Truncate(10).ok());
  ASSERT_TRUE(f->Close().ok());
  EXPECT_EQ(fs().ReadWholeFile("f").value(), Bytes(10, 7));
}

TEST_P(VfsConformanceTest, EmptyFileFlushes) {
  auto f = fs().Open("empty", OpenMode::kWrite).value();
  ASSERT_TRUE(f->Close().ok());
  EXPECT_TRUE(fs().Exists("empty"));
  EXPECT_TRUE(fs().ReadWholeFile("empty").value().empty());
}

TEST_P(VfsConformanceTest, DirectoriesAndReadDir) {
  ASSERT_TRUE(fs().Mkdir("d").ok());
  ASSERT_TRUE(fs().Mkdir("d/sub").ok());
  ASSERT_TRUE(fs().WriteWholeFile("d/a", Bytes{1}).ok());
  ASSERT_TRUE(fs().WriteWholeFile("d/b", Bytes{2}).ok());

  auto entries = fs().ReadDir("d").value();
  ASSERT_EQ(entries.size(), 3u);
  int dirs = 0, files = 0;
  for (const auto& e : entries) {
    (e.type == FileType::kDirectory ? dirs : files) += 1;
  }
  EXPECT_EQ(dirs, 1);
  EXPECT_EQ(files, 2);

  EXPECT_FALSE(fs().ReadDir("missing").ok());
  EXPECT_EQ(fs().Mkdir("d").code(), ErrorCode::kAlreadyExists);
}

TEST_P(VfsConformanceTest, MkdirAll) {
  ASSERT_TRUE(fs().MkdirAll("a/b/c/d").ok());
  EXPECT_EQ(fs().Stat("a/b/c/d")->type, FileType::kDirectory);
  // Idempotent.
  EXPECT_TRUE(fs().MkdirAll("a/b/c/d").ok());
}

TEST_P(VfsConformanceTest, StatReportsTypeAndSize) {
  ASSERT_TRUE(fs().Mkdir("d").ok());
  ASSERT_TRUE(fs().WriteWholeFile("d/f", Bytes(42, 1)).ok());
  EXPECT_EQ(fs().Stat("d")->type, FileType::kDirectory);
  const auto st = fs().Stat("d/f").value();
  EXPECT_EQ(st.type, FileType::kFile);
  EXPECT_EQ(st.size, 42u);
  EXPECT_EQ(fs().Stat("ghost").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs().Stat("")->type, FileType::kDirectory); // root
}

TEST_P(VfsConformanceTest, RemoveSemantics) {
  ASSERT_TRUE(fs().WriteWholeFile("f", Bytes{1}).ok());
  ASSERT_TRUE(fs().Mkdir("d").ok());
  ASSERT_TRUE(fs().WriteWholeFile("d/inner", Bytes{1}).ok());

  EXPECT_TRUE(fs().Remove("f").ok());
  EXPECT_FALSE(fs().Exists("f"));
  EXPECT_FALSE(fs().Remove("d").ok()); // not empty
  ASSERT_TRUE(fs().Remove("d/inner").ok());
  EXPECT_TRUE(fs().Remove("d").ok());
  EXPECT_FALSE(fs().Remove("ghost").ok());
}

TEST_P(VfsConformanceTest, RenameFile) {
  ASSERT_TRUE(fs().WriteWholeFile("old", Bytes{5}).ok());
  ASSERT_TRUE(fs().Rename("old", "new").ok());
  EXPECT_FALSE(fs().Exists("old"));
  EXPECT_EQ(fs().ReadWholeFile("new").value(), Bytes{5});
}

TEST_P(VfsConformanceTest, RenameDirectorySubtree) {
  ASSERT_TRUE(fs().MkdirAll("src/deep").ok());
  ASSERT_TRUE(fs().WriteWholeFile("src/deep/f", Bytes{3}).ok());
  ASSERT_TRUE(fs().Rename("src", "dst").ok());
  EXPECT_EQ(fs().ReadWholeFile("dst/deep/f").value(), Bytes{3});
  EXPECT_FALSE(fs().Exists("src"));
}

TEST_P(VfsConformanceTest, SymlinkRoundTrip) {
  ASSERT_TRUE(fs().WriteWholeFile("target", Bytes{1}).ok());
  ASSERT_TRUE(fs().Symlink("target", "link").ok());
  EXPECT_EQ(fs().Readlink("link").value(), "target");
  EXPECT_EQ(fs().Symlink("target", "link").code(), ErrorCode::kAlreadyExists);
  EXPECT_TRUE(fs().Remove("link").ok());
  EXPECT_FALSE(fs().Readlink("link").ok());
  EXPECT_TRUE(fs().Exists("target"));
}

TEST_P(VfsConformanceTest, ClosedHandleRejectsUse) {
  auto f = fs().Open("f", OpenMode::kWrite).value();
  ASSERT_TRUE(f->Close().ok());
  EXPECT_FALSE(f->Write(0, Bytes{1}).ok());
  EXPECT_FALSE(f->Sync().ok());
  EXPECT_FALSE(f->Close().ok());
  Bytes buf(4);
  EXPECT_FALSE(f->Read(0, buf).ok());
}

TEST_P(VfsConformanceTest, LargeFileMultiMegabyte) {
  crypto::HmacDrbg rng(AsBytes("vfs-large"));
  const Bytes data = rng.Generate((3 << 20) + 777);
  ASSERT_TRUE(fs().WriteWholeFile("big", data).ok());
  EXPECT_EQ(fs().ReadWholeFile("big").value(), data);
}

TEST_P(VfsConformanceTest, PartialSyncChargesLessThanFullStore) {
  // A 4 MB file where one byte changes: fsync must ship roughly one AFS
  // chunk (or one NEXUS chunk), not the whole file.
  const Bytes data(4 << 20, 0xaa);
  ASSERT_TRUE(fs().WriteWholeFile("big", data).ok());

  auto& clock = world_.clock();
  auto f = fs().Open("big", OpenMode::kReadWrite).value();
  const double t0 = clock.Now();
  ASSERT_TRUE(f->Write(100, Bytes{0x55}).ok());
  ASSERT_TRUE(f->Sync().ok());
  const double partial_cost = clock.Now() - t0;
  ASSERT_TRUE(f->Close().ok());

  // Full store of the same file for comparison.
  const double t1 = clock.Now();
  ASSERT_TRUE(fs().WriteWholeFile("big2", data).ok());
  const double full_cost = clock.Now() - t1;

  EXPECT_LT(partial_cost, full_cost / 2) << "sync shipped too much data";
  // Content must still be correct.
  EXPECT_EQ(fs().ReadWholeFile("big").value()[100], 0x55);
}

// NexusFs-specific: an open for read is one ecall, and it still reports
// the errors the old Lookup-then-read pair did. A file opened for write
// that does not exist is created by its first flush, so until then only
// this mount sees it (the baseline stores nothing before that flush
// either, but has no second view to compare).
class NexusOpenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = &world_.AddMachine("user");
    auto handle = machine_->nexus->CreateVolume(machine_->user);
    ASSERT_TRUE(handle.ok());
    handle_ = std::move(handle).value();
    fs_ = std::make_unique<NexusFs>(*machine_->nexus);
  }

  /// Timed ecalls since `before`.
  std::uint64_t EcallsSince(const core::ProfileSnapshot& before) const {
    return (machine_->nexus->Profile() - before).ecall_latency.count;
  }

  test::World world_;
  test::Machine* machine_ = nullptr;
  core::NexusClient::VolumeHandle handle_;
  std::unique_ptr<NexusFs> fs_;
};

TEST_F(NexusOpenTest, WholeFileReadOfACachedFileIsOneEcall) {
  const Bytes data(3000, 0x5a);
  ASSERT_TRUE(fs_->Mkdir("d").ok());
  ASSERT_TRUE(fs_->WriteWholeFile("d/f", data).ok());
  ASSERT_EQ(fs_->ReadWholeFile("d/f").value(), data); // warm every cache

  const auto fetches = machine_->afs->stats().fetches;
  const auto before = machine_->nexus->Profile();
  EXPECT_EQ(fs_->ReadWholeFile("d/f").value(), data);
  EXPECT_EQ(EcallsSince(before), 1u);
  EXPECT_EQ(machine_->afs->stats().fetches, fetches); // served from cache
}

TEST_F(NexusOpenTest, OpenForReadKeepsItsErrorsInOneEcall) {
  ASSERT_TRUE(fs_->Mkdir("d").ok());
  ASSERT_TRUE(fs_->WriteWholeFile("d/f", Bytes{1, 2, 3}).ok());
  ASSERT_TRUE(fs_->Symlink("d/f", "link").ok());

  const std::pair<const char*, ErrorCode> cases[] = {
      {"d", ErrorCode::kInvalidArgument},
      {"link", ErrorCode::kInvalidArgument},
      {"/", ErrorCode::kInvalidArgument},
      {"nope", ErrorCode::kNotFound},
      {"d/nope", ErrorCode::kNotFound},
  };
  for (const auto& [path, code] : cases) {
    const auto before = machine_->nexus->Profile();
    EXPECT_EQ(fs_->Open(path, OpenMode::kRead).status().code(), code) << path;
    EXPECT_EQ(EcallsSince(before), 1u) << path;
  }
}

TEST_F(NexusOpenTest, OpeningANewFileStoresNothing) {
  ASSERT_TRUE(fs_->Mkdir("d").ok());
  const std::uint64_t rpcs = world_.server().rpc_count();
  auto file = fs_->Open("d/new", OpenMode::kWrite);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(world_.server().rpc_count(), rpcs);
  ASSERT_TRUE((*file)->Write(0, Bytes(10, 1)).ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(fs_->ReadWholeFile("d/new").value(), Bytes(10, 1));
}

TEST_F(NexusOpenTest, StatAndReadDirSeeANewFileBeforeItsFirstFlush) {
  ASSERT_TRUE(fs_->Mkdir("d").ok());
  auto a = fs_->Open("d/a", OpenMode::kWrite).value();
  ASSERT_TRUE(a->Write(0, Bytes(10, 1)).ok());
  auto st = fs_->Stat("d/a");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ(st->type, FileType::kFile);
  EXPECT_EQ(st->size, 10u);

  auto b = fs_->Open("d/b", OpenMode::kReadWrite).value();
  auto listing = fs_->ReadDir("d");
  ASSERT_TRUE(listing.ok());
  std::vector<std::string> names;
  for (const Dirent& e : *listing) names.push_back(e.name);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));

  // Writes after the create flush as updates of the existing file.
  ASSERT_TRUE(a->Append(Bytes(5, 2)).ok());
  ASSERT_TRUE(a->Close().ok());
  ASSERT_TRUE(b->Close().ok());
  Bytes want(10, 1);
  want.insert(want.end(), 5, 2);
  EXPECT_EQ(fs_->ReadWholeFile("d/a").value(), want);
  EXPECT_EQ(fs_->ReadWholeFile("d/b").value(), Bytes{});
}

TEST_F(NexusOpenTest, RemoveAndRenameSeeANewFileBeforeItsFirstFlush) {
  auto gone = fs_->Open("gone", OpenMode::kWrite).value();
  ASSERT_TRUE(gone->Write(0, Bytes(10, 3)).ok());
  ASSERT_TRUE(fs_->Remove("gone").ok());
  EXPECT_EQ(fs_->Stat("gone").status().code(), ErrorCode::kNotFound);
  ASSERT_TRUE(gone->Close().ok()); // its content was flushed by the remove
  EXPECT_FALSE(fs_->Exists("gone"));

  auto moved = fs_->Open("from", OpenMode::kWrite).value();
  ASSERT_TRUE(moved->Write(0, Bytes(10, 4)).ok());
  ASSERT_TRUE(fs_->Rename("from", "to").ok());
  ASSERT_TRUE(moved->Close().ok());
  EXPECT_FALSE(fs_->Exists("from"));
  EXPECT_EQ(fs_->ReadWholeFile("to").value(), Bytes(10, 4));
}

TEST_F(NexusOpenTest, AnotherClientSeesANewFileOnlyAfterClose) {
  core::NexusClient other(*machine_->runtime, *machine_->afs,
                          world_.intel().root_public_key());
  ASSERT_TRUE(
      other.Mount(machine_->user, handle_.volume_uuid, handle_.sealed_rootkey)
          .ok());
  auto file = fs_->Open("shared", OpenMode::kWrite).value();
  ASSERT_TRUE(file->Write(0, Bytes(10, 5)).ok());
  EXPECT_EQ(other.Lookup("shared").status().code(), ErrorCode::kNotFound);
  EXPECT_TRUE(other.ListDir("").value().empty());

  ASSERT_TRUE(file->Close().ok());
  EXPECT_EQ(other.ReadFile("shared").value(), Bytes(10, 5));
  ASSERT_TRUE(other.Unmount().ok());
}

TEST_F(NexusOpenTest, ANameAnotherClientCreatesFirstFailsTheFlush) {
  core::NexusClient other(*machine_->runtime, *machine_->afs,
                          world_.intel().root_public_key());
  ASSERT_TRUE(
      other.Mount(machine_->user, handle_.volume_uuid, handle_.sealed_rootkey)
          .ok());
  auto file = fs_->Open("raced", OpenMode::kWrite).value();
  ASSERT_TRUE(file->Write(0, Bytes(10, 7)).ok());
  ASSERT_TRUE(other.WriteFile("raced", Bytes(3, 8)).ok());
  EXPECT_EQ(file->Close().code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(fs_->ReadWholeFile("raced").value(), Bytes(3, 8));
  ASSERT_TRUE(other.Unmount().ok());
}

TEST_F(NexusOpenTest, OpenForWriteFailsAtOnceUnderAMissingParent) {
  ASSERT_TRUE(fs_->WriteWholeFile("file", Bytes{1}).ok());
  EXPECT_EQ(fs_->Open("missing/f", OpenMode::kWrite).status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(fs_->Open("missing/f", OpenMode::kReadWrite).status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(fs_->Open("file/f", OpenMode::kWrite).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(NexusOpenTest, HandleDestroyedWithoutCloseStillCreatesTheFile) {
  {
    auto file = fs_->Open("dropped", OpenMode::kWrite).value();
    ASSERT_TRUE(file->Write(0, Bytes(10, 6)).ok());
  }
  {
    auto empty = fs_->Open("dropped-empty", OpenMode::kWrite).value();
  }
  EXPECT_EQ(fs_->ReadWholeFile("dropped").value(), Bytes(10, 6));
  EXPECT_EQ(fs_->ReadWholeFile("dropped-empty").value(), Bytes{});
}

INSTANTIATE_TEST_SUITE_P(BothMounts, VfsConformanceTest,
                         ::testing::Values(MountKind::kPassthrough,
                                           MountKind::kNexus),
                         [](const auto& info) {
                           return info.param == MountKind::kPassthrough
                                      ? "OpenAfsBaseline"
                                      : "Nexus";
                         });

} // namespace
} // namespace nexus::vfs
