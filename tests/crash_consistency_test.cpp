// Crash-consistency sweep: a client "crashes" after its k-th storage
// mutation, for every k in the operation's mutation sequence. Whatever the
// crash point, a fresh victim session must find the volume fully readable
// — every directory listable, every committed file intact. At worst the
// in-flight operation is wholly absent (orphaned objects are allowed;
// dangling references and MAC mismatches are not).
#include <gtest/gtest.h>

#include "core/fsck.hpp"
#include "test_env.hpp"

namespace nexus {
namespace {

/// Wraps the real ocall bridge; after `fail_after` mutations every storage
/// operation fails (the process died — nothing further reaches the wire).
class CrashingStore final : public enclave::StorageOcalls {
 public:
  CrashingStore(storage::AfsClient& afs, int fail_after)
      : inner_(afs), fail_after_(fail_after) {}

  [[nodiscard]] int mutations() const noexcept { return mutations_; }
  [[nodiscard]] bool crashed() const noexcept { return crashed_; }

  Result<enclave::ObjectBlob> FetchMeta(const Uuid& uuid) override {
    if (crashed_) return Dead();
    return inner_.FetchMeta(uuid);
  }
  Result<std::uint64_t> StoreMeta(const Uuid& uuid, ByteSpan data) override {
    if (Mutate()) return Dead<std::uint64_t>();
    return inner_.StoreMeta(uuid, data);
  }
  Status RemoveMeta(const Uuid& uuid) override {
    if (Mutate()) return DeadStatus();
    return inner_.RemoveMeta(uuid);
  }
  Result<enclave::ObjectBlob> FetchData(const Uuid& uuid) override {
    if (crashed_) return Dead();
    return inner_.FetchData(uuid);
  }
  Status StoreData(const Uuid& uuid, SharedBytes data,
                   std::uint64_t changed_bytes) override {
    if (Mutate()) return DeadStatus();
    return inner_.StoreData(uuid, std::move(data), changed_bytes);
  }
  Status RemoveData(const Uuid& uuid) override {
    if (Mutate()) return DeadStatus();
    return inner_.RemoveData(uuid);
  }
  Status LockMeta(const Uuid& uuid) override {
    if (crashed_) return DeadStatus();
    return inner_.LockMeta(uuid);
  }
  Status UnlockMeta(const Uuid& uuid) override {
    if (crashed_) return DeadStatus();
    return inner_.UnlockMeta(uuid);
  }
  bool CacheFresh(const Uuid& uuid, std::uint64_t v) override {
    return !crashed_ && inner_.CacheFresh(uuid, v);
  }
  Result<Bytes> FetchJournal(const std::string& name) override {
    if (crashed_) return Dead<Bytes>();
    return inner_.FetchJournal(name);
  }
  Status StoreJournal(const std::string& name, ByteSpan data) override {
    if (Mutate()) return DeadStatus();
    return inner_.StoreJournal(name, data);
  }

 private:
  bool Mutate() {
    if (crashed_) return true;
    ++mutations_;
    if (fail_after_ >= 0 && mutations_ > fail_after_) crashed_ = true;
    return crashed_;
  }
  static Status DeadStatus() {
    return Error(ErrorCode::kIOError, "simulated crash");
  }
  template <typename T = enclave::ObjectBlob>
  static Result<T> Dead() {
    return Error(ErrorCode::kIOError, "simulated crash");
  }

  core::AfsMetadataStore inner_;
  int fail_after_;
  int mutations_ = 0;
  bool crashed_ = false;
};

class CrashConsistencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = &world_.AddMachine("owen");
    auto handle = machine_->nexus->CreateVolume(machine_->user);
    ASSERT_TRUE(handle.ok());
    handle_ = std::move(handle).value();

    // A volume with some committed state the crash must never corrupt.
    auto& fs = *machine_->nexus;
    ASSERT_TRUE(fs.Mkdir("stable").ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          fs.WriteFile("stable/f" + std::to_string(i), Bytes(100, 7)).ok());
    }
    ASSERT_TRUE(fs.Mkdir("work").ok());
    ASSERT_TRUE(fs.WriteFile("work/victim", Bytes(100, 9)).ok());
    ASSERT_TRUE(machine_->nexus->Unmount().ok());
    // Release any locks a failed run may hold? None yet.
  }

  /// Mounts a short-lived enclave over a CrashingStore and runs `op`.
  /// Returns the number of mutations the op performs when unobstructed.
  /// Every run gets a distinct RNG seed: a crashed run must never be able
  /// to masquerade as the committed run by regenerating identical keys,
  /// IVs, and object UUIDs.
  int RunWithCrash(int fail_after,
                   const std::function<void(enclave::NexusEnclave&)>& op) {
    CrashingStore store(*machine_->afs, fail_after);
    const std::string seed = "crash-run-" + std::to_string(run_counter_++);
    sgx::EnclaveRuntime runtime(*machine_->cpu, sgx::NexusEnclaveImage(),
                                AsBytes(seed));
    enclave::NexusEnclave enclave(runtime, store,
                                  world_.intel().root_public_key());
    // Manual mount (the helper client always uses the real store).
    auto nonce = enclave.EcallAuthChallenge(machine_->user.public_key(),
                                            handle_.sealed_rootkey,
                                            handle_.volume_uuid);
    EXPECT_TRUE(nonce.ok());
    const Bytes supernode =
        machine_->afs->Fetch("nx/" + handle_.volume_uuid.ToString()).value();
    const auto sig = machine_->user.Sign(Concat(*nonce, supernode));
    EXPECT_TRUE(enclave.EcallAuthResponse(sig).ok());

    op(enclave);
    // Crash: the enclave object is simply dropped; locks die with the
    // client in AFS (we release them here to model lease expiry).
    ReleaseAllLocks();
    return store.mutations();
  }

  void ReleaseAllLocks() {
    // Advisory locks are leases in AFS; model expiry by force-unlocking.
    const auto names = machine_->afs->List("nx").value();
    for (const auto& name : names) {
      (void)machine_->afs->Unlock(name);
    }
  }

  /// Full-volume readability check from a pristine session.
  void VerifyVolumeReadable(std::size_t min_stable_files) {
    machine_->afs->FlushCache();
    core::NexusClient fresh(*machine_->runtime, *machine_->afs,
                            world_.intel().root_public_key());
    ASSERT_TRUE(
        fresh.Mount(machine_->user, handle_.volume_uuid, handle_.sealed_rootkey)
            .ok());
    std::size_t files_seen = 0;
    std::function<void(const std::string&)> walk = [&](const std::string& dir) {
      auto entries = fresh.ListDir(dir);
      ASSERT_TRUE(entries.ok()) << dir << ": " << entries.status().ToString();
      for (const auto& e : *entries) {
        const std::string full = dir.empty() ? e.name : dir + "/" + e.name;
        if (e.type == enclave::EntryType::kDirectory) {
          walk(full);
        } else if (e.type == enclave::EntryType::kFile) {
          auto content = fresh.ReadFile(full);
          ASSERT_TRUE(content.ok()) << full << ": " << content.status().ToString();
          ++files_seen;
        }
      }
    };
    walk("");
    EXPECT_GE(files_seen, min_stable_files);
    ASSERT_TRUE(fresh.Unmount().ok());
  }

  /// Sweeps every crash point of `op` and verifies consistency after each.
  void SweepCrashPoints(const std::function<void(enclave::NexusEnclave&)>& op,
                        std::size_t min_stable_files) {
    const int total = RunWithCrash(-1, op); // unobstructed baseline
    ASSERT_GT(total, 0);
    VerifyVolumeReadable(min_stable_files);
    for (int k = 0; k < total; ++k) {
      SCOPED_TRACE("crash after mutation " + std::to_string(k));
      RunWithCrash(k, op);
      VerifyVolumeReadable(min_stable_files);
    }
  }

  /// Like VerifyVolumeReadable, but additionally asserts the two files of
  /// a batched transaction landed atomically: both present or both absent.
  void VerifyBatchAtomic(const std::string& a, const std::string& b,
                         std::size_t min_stable_files) {
    machine_->afs->FlushCache();
    core::NexusClient fresh(*machine_->runtime, *machine_->afs,
                            world_.intel().root_public_key());
    ASSERT_TRUE(
        fresh.Mount(machine_->user, handle_.volume_uuid, handle_.sealed_rootkey)
            .ok());
    const bool have_a = fresh.ReadFile(a).ok();
    const bool have_b = fresh.ReadFile(b).ok();
    EXPECT_EQ(have_a, have_b)
        << "torn batch: " << a << "=" << have_a << " " << b << "=" << have_b;
    ASSERT_TRUE(fresh.Unmount().ok());
    VerifyVolumeReadable(min_stable_files);
  }

  test::World world_;
  test::Machine* machine_ = nullptr;
  core::NexusClient::VolumeHandle handle_;
  int run_counter_ = 0;
};

TEST_F(CrashConsistencyTest, CreateFile) {
  SweepCrashPoints(
      [](enclave::NexusEnclave& e) {
        (void)e.EcallTouch("work/new-file", enclave::EntryType::kFile);
      },
      /*min_stable_files=*/6);
}

TEST_F(CrashConsistencyTest, CreateDirectory) {
  SweepCrashPoints(
      [](enclave::NexusEnclave& e) {
        (void)e.EcallTouch("work/new-dir", enclave::EntryType::kDirectory);
      },
      6);
}

TEST_F(CrashConsistencyTest, RemoveFile) {
  SweepCrashPoints(
      [](enclave::NexusEnclave& e) { (void)e.EcallRemove("work/victim"); }, 5);
}

TEST_F(CrashConsistencyTest, WriteContent) {
  SweepCrashPoints(
      [](enclave::NexusEnclave& e) {
        const Bytes content(5000, 0x42);
        (void)e.EcallEncrypt("work/victim", content);
      },
      5);
}

TEST_F(CrashConsistencyTest, RenameAcrossDirectories) {
  SweepCrashPoints(
      [](enclave::NexusEnclave& e) {
        (void)e.EcallRename("work/victim", "stable/moved");
      },
      5);
}

TEST_F(CrashConsistencyTest, RenameReplacingTarget) {
  SweepCrashPoints(
      [](enclave::NexusEnclave& e) {
        (void)e.EcallRename("work/victim", "stable/f0");
      },
      4); // f0 may legitimately be replaced mid-flight
}

// A batched transaction touches several files; the group-commit journal
// record makes the whole batch one durability point. Crashing after any
// prefix of the backend writes must leave either the entire batch or none
// of it — never a torn half-batch. Each crash run uses distinct file names
// so every run exercises a genuine full batch attempt rather than failing
// early against leftovers of the previous run.
TEST_F(CrashConsistencyTest, BatchedCommitAllOrNothing) {
  int run = 0;
  const auto make_op = [&run]() {
    const std::string a = "work/batch-" + std::to_string(run) + "-a";
    const std::string b = "work/batch-" + std::to_string(run) + "-b";
    ++run;
    return [a, b](enclave::NexusEnclave& e) {
      if (!e.EcallBeginBatch().ok()) return;
      (void)e.EcallTouch(a, enclave::EntryType::kFile);
      (void)e.EcallEncrypt(a, Bytes(256, 0x11));
      (void)e.EcallTouch(b, enclave::EntryType::kFile);
      (void)e.EcallEncrypt(b, Bytes(256, 0x22));
      (void)e.EcallCommitBatch();
    };
  };

  // Unobstructed baseline fixes the mutation count for the sweep.
  auto baseline = make_op();
  const std::string a0 = "work/batch-0-a";
  const std::string b0 = "work/batch-0-b";
  const int total = RunWithCrash(-1, baseline);
  ASSERT_GT(total, 0);
  VerifyBatchAtomic(a0, b0, /*min_stable_files=*/6);

  for (int k = 0; k < total; ++k) {
    SCOPED_TRACE("crash after mutation " + std::to_string(k));
    const std::string a = "work/batch-" + std::to_string(run) + "-a";
    const std::string b = "work/batch-" + std::to_string(run) + "-b";
    RunWithCrash(k, make_op());
    VerifyBatchAtomic(a, b, 6);
  }
}

// The journal must also be torn-proof for the implicit per-operation
// batches: crash immediately after the commit is durable but before any
// checkpoint write, then verify a remount applies it and the operation's
// effect is fully visible.
TEST_F(CrashConsistencyTest, ReplayAfterCrashBeforeCheckpoint) {
  // A journaled touch defers all metadata stores, so its first backend
  // mutation is the commit itself: the anchor carrying the transaction.
  // fail_after=1 lets that anchor land and kills the very next write —
  // the first checkpoint store.
  RunWithCrash(1, [](enclave::NexusEnclave& e) {
    (void)e.EcallTouch("work/replayed", enclave::EntryType::kFile);
  });
  machine_->afs->FlushCache();
  core::NexusClient fresh(*machine_->runtime, *machine_->afs,
                          world_.intel().root_public_key());
  ASSERT_TRUE(
      fresh.Mount(machine_->user, handle_.volume_uuid, handle_.sealed_rootkey)
          .ok());
  auto entries = fresh.ListDir("work");
  ASSERT_TRUE(entries.ok());
  bool found = false;
  for (const auto& e : *entries) found |= (e.name == "replayed");
  EXPECT_TRUE(found) << "journal commit was durable but not replayed";
  ASSERT_TRUE(fresh.Unmount().ok());
}

// Default configuration, every crash point: the anchor store is the one
// durability point of a create, so a remount shows the new file complete
// (listed and readable) from the first mutation on, and no trace of it
// before. Distinct names per run keep every run a genuine create.
TEST_F(CrashConsistencyTest, DefaultCreateIsAllOrNothing) {
  int run = 0;
  const auto name = [&run] { return "new-" + std::to_string(run); };
  const auto create = [&](enclave::NexusEnclave& e) {
    (void)e.EcallTouch("work/" + name(), enclave::EntryType::kFile);
  };
  const auto applied = [&] {
    machine_->afs->FlushCache();
    core::NexusClient fresh(*machine_->runtime, *machine_->afs,
                            world_.intel().root_public_key());
    EXPECT_TRUE(
        fresh.Mount(machine_->user, handle_.volume_uuid, handle_.sealed_rootkey)
            .ok());
    const auto entries = fresh.ListDir("work");
    EXPECT_TRUE(entries.ok()) << entries.status().ToString();
    bool listed = false;
    if (entries.ok()) {
      for (const auto& e : *entries) listed |= (e.name == name());
    }
    if (listed) {
      auto content = fresh.ReadFile("work/" + name());
      EXPECT_TRUE(content.ok()) << "listed but unreadable: " << name();
      EXPECT_TRUE(content.ok() && content->empty());
    }
    EXPECT_TRUE(fresh.Unmount().ok());
    return listed;
  };

  const int total = RunWithCrash(-1, create);
  ASSERT_GT(total, 1);
  EXPECT_TRUE(applied());
  for (int k = 0; k < total; ++k) {
    SCOPED_TRACE("crash after mutation " + std::to_string(k));
    ++run;
    RunWithCrash(k, create);
    EXPECT_EQ(applied(), k >= 1);
    VerifyVolumeReadable(6);
  }
}

// Every crash point of a new two-chunk file's one create transaction. Its
// data object goes first, under a UUID nothing references yet, then the
// anchor publishes the name, the filenode and the content together. A
// remount therefore sees no entry before that anchor and the whole
// content from it on, and the audit finds at most the unpublished data
// object as an orphan. Distinct names per run keep every run a create.
TEST_F(CrashConsistencyTest, CreateWithContentIsAllOrNothing) {
  const Bytes content((1 << 20) + 4000, 0x5c); // two chunks
  int run = 0;
  const auto name = [&run] { return "work/full-" + std::to_string(run); };
  const auto create = [&](enclave::NexusEnclave& e) {
    (void)e.EcallCreateFile(name(), content);
  };
  const auto published = [&] {
    machine_->afs->FlushCache();
    core::NexusClient fresh(*machine_->runtime, *machine_->afs,
                            world_.intel().root_public_key());
    EXPECT_TRUE(
        fresh.Mount(machine_->user, handle_.volume_uuid, handle_.sealed_rootkey)
            .ok());
    const auto read = fresh.ReadFile(name());
    if (read.ok()) {
      EXPECT_EQ(read.value(), content) << "partial content: " << name();
    } else {
      EXPECT_EQ(read.status().code(), ErrorCode::kNotFound)
          << read.status().ToString();
    }
    const auto report = core::RunFsck(fresh, /*deep=*/true);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (report.ok()) {
      EXPECT_LE(report->orphaned_objects.size(), 1u);
      for (const std::string& orphan : report->orphaned_objects) {
        EXPECT_TRUE(orphan.starts_with("nxd/")) << orphan;
      }
      EXPECT_TRUE(core::ReclaimOrphans(fresh, *report).ok());
    }
    EXPECT_TRUE(fresh.Unmount().ok());
    return read.ok();
  };

  const int total = RunWithCrash(-1, create);
  ASSERT_GT(total, 2);
  EXPECT_TRUE(published());
  for (int k = 0; k < total; ++k) {
    SCOPED_TRACE("crash after mutation " + std::to_string(k));
    ++run;
    RunWithCrash(k, create);
    // Mutation 1 is the data store, mutation 2 the anchor.
    EXPECT_EQ(published(), k >= 2);
    VerifyVolumeReadable(6);
  }
}

// The same sweep for a default-configuration rewrite of a small file. The
// data object goes first (a fresh, unreferenced UUID), then the anchor:
// a remount reads exactly the previous content before that anchor and
// exactly the new content from it on, never anything else.
TEST_F(CrashConsistencyTest, DefaultWriteIsAllOrNothing) {
  const auto read_back = [&] {
    machine_->afs->FlushCache();
    core::NexusClient fresh(*machine_->runtime, *machine_->afs,
                            world_.intel().root_public_key());
    EXPECT_TRUE(
        fresh.Mount(machine_->user, handle_.volume_uuid, handle_.sealed_rootkey)
            .ok());
    auto content = fresh.ReadFile("work/victim");
    EXPECT_TRUE(content.ok()) << content.status().ToString();
    EXPECT_TRUE(fresh.Unmount().ok());
    return content.ok() ? std::move(content).value() : Bytes{};
  };

  const auto write = [](std::uint8_t fill) {
    return [fill](enclave::NexusEnclave& e) {
      (void)e.EcallEncrypt("work/victim", Bytes(500, fill));
    };
  };
  const int total = RunWithCrash(-1, write(0x40));
  ASSERT_GT(total, 2);
  Bytes previous = read_back();
  ASSERT_EQ(previous, Bytes(500, 0x40));
  for (int k = 0; k < total; ++k) {
    SCOPED_TRACE("crash after mutation " + std::to_string(k));
    const Bytes next(500, static_cast<std::uint8_t>(0x41 + k));
    RunWithCrash(k, write(next[0]));
    const Bytes seen = read_back();
    EXPECT_EQ(seen, k >= 2 ? next : previous);
    previous = seen;
  }
}

} // namespace
} // namespace nexus
