// Parallel chunk-crypto engine: the multi-threaded data path must be
// byte-for-byte indistinguishable from the serial one — same filenodes,
// same ciphertext, same object names — for a fixed world seed, across
// chunk-count shapes. Plus the AES-NI dispatch-verification satellite and
// a multithreaded stress run (TSan-clean under the sanitizer CI job).
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "crypto/aesni.hpp"
#include "crypto/gcm.hpp"
#include "test_env.hpp"

namespace nexus {
namespace {

constexpr std::uint32_t kChunk = 4096; // small chunks keep the sweep fast

Bytes Pattern(std::size_t n, std::uint8_t salt) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 131 + salt) & 0xFF);
  }
  return b;
}

/// Every object on a world's store, by name — the attacker-visible state.
std::map<std::string, Bytes> ServerState(test::World& world,
                                         test::Machine& machine) {
  std::map<std::string, Bytes> state;
  const std::vector<std::string> names = machine.afs->List("").value();
  for (const std::string& name : names) {
    state[name] = world.server().AdversaryRead(name).value();
  }
  return state;
}

/// One world writing `sizes`-shaped files with the given worker count.
struct Deployment {
  explicit Deployment(std::size_t workers)
      : world("parallel-identity"), machine(&world.AddMachine("alice")) {
    enclave::VolumeConfig config;
    config.chunk_size = kChunk;
    auto created = machine->nexus->CreateVolume(machine->user, config);
    EXPECT_TRUE(created.ok());
    if (created.ok()) handle = std::move(created).value();
    EXPECT_TRUE(machine->nexus->SetCryptoWorkers(workers).ok());
  }
  test::World world;
  test::Machine* machine;
  core::NexusClient::VolumeHandle handle;
};

/// The real AFS ocall bridge, counting whole-object data fetches and
/// data stores, and sleeping `store_sleep_ms` in each data store.
class ProbeStore final : public enclave::StorageOcalls {
 public:
  explicit ProbeStore(storage::AfsClient& afs) : inner_(afs) {}

  int store_sleep_ms = 0;
  int data_fetches = 0;
  int data_stores = 0;

  Result<enclave::ObjectBlob> FetchMeta(const Uuid& uuid) override {
    return inner_.FetchMeta(uuid);
  }
  Result<std::uint64_t> StoreMeta(const Uuid& uuid, ByteSpan data) override {
    return inner_.StoreMeta(uuid, data);
  }
  Status RemoveMeta(const Uuid& uuid) override {
    return inner_.RemoveMeta(uuid);
  }
  Result<enclave::ObjectBlob> FetchData(const Uuid& uuid) override {
    ++data_fetches;
    return inner_.FetchData(uuid);
  }
  Status StoreData(const Uuid& uuid, SharedBytes data,
                   std::uint64_t changed_bytes) override {
    ++data_stores;
    std::this_thread::sleep_for(std::chrono::milliseconds(store_sleep_ms));
    return inner_.StoreData(uuid, std::move(data), changed_bytes);
  }
  Status RemoveData(const Uuid& uuid) override {
    return inner_.RemoveData(uuid);
  }
  Status LockMeta(const Uuid& uuid) override { return inner_.LockMeta(uuid); }
  Status UnlockMeta(const Uuid& uuid) override {
    return inner_.UnlockMeta(uuid);
  }
  bool CacheFresh(const Uuid& uuid, std::uint64_t v) override {
    return inner_.CacheFresh(uuid, v);
  }
  Result<Bytes> FetchJournal(const std::string& name) override {
    return inner_.FetchJournal(name);
  }
  Status StoreJournal(const std::string& name, ByteSpan data) override {
    return inner_.StoreJournal(name, data);
  }

 private:
  core::AfsMetadataStore inner_;
};

/// A second enclave on the deployment's machine, mounted over `store`.
struct ProbedEnclave {
  ProbedEnclave(Deployment& d, ProbeStore& store, std::size_t workers)
      : runtime(*d.machine->cpu, sgx::NexusEnclaveImage(),
                AsBytes("probed-enclave")),
        enclave(runtime, store, d.world.intel().root_public_key()) {
    auto nonce = enclave.EcallAuthChallenge(d.machine->user.public_key(),
                                            d.handle.sealed_rootkey,
                                            d.handle.volume_uuid);
    EXPECT_TRUE(nonce.ok());
    const Bytes supernode =
        d.machine->afs->Fetch("nx/" + d.handle.volume_uuid.ToString()).value();
    const auto sig = d.machine->user.Sign(Concat(*nonce, supernode));
    EXPECT_TRUE(enclave.EcallAuthResponse(sig).ok());
    EXPECT_TRUE(enclave.EcallSetCryptoWorkers(workers).ok());
  }
  sgx::EnclaveRuntime runtime;
  enclave::NexusEnclave enclave;
};

// Chunk-count shapes: empty, exactly one, several, many, short tail.
const std::size_t kSizes[] = {0, kChunk, 7 * kChunk, 64 * kChunk,
                              5 * kChunk + 1234};

TEST(ParallelCryptoTest, SerialAndParallelProduceIdenticalServerState) {
  Deployment serial(0);
  Deployment parallel(4);

  for (std::size_t size : kSizes) {
    const std::string path = "f" + std::to_string(size);
    const Bytes content = Pattern(size, 7);
    ASSERT_TRUE(serial.machine->nexus->WriteFile(path, content).ok());
    ASSERT_TRUE(parallel.machine->nexus->WriteFile(path, content).ok());
    EXPECT_EQ(serial.machine->nexus->ReadFile(path).value(), content);
    EXPECT_EQ(parallel.machine->nexus->ReadFile(path).value(), content);
  }

  const auto a = ServerState(serial.world, *serial.machine);
  const auto b = ServerState(parallel.world, *parallel.machine);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [name, bytes] : a) {
    auto it = b.find(name);
    ASSERT_NE(it, b.end()) << "object missing in parallel world: " << name;
    EXPECT_EQ(bytes, it->second) << "ciphertext diverged: " << name;
  }

  // The parallel run actually went through the engine.
  const auto profile = parallel.machine->nexus->Profile();
  EXPECT_GT(profile.parallel.chunks_encrypted, 0u);
  EXPECT_GT(profile.parallel.parallel_batches, 0u);

  // Each file reached the store as one whole data object: its chunks'
  // ciphertext, tag after tag. A file created empty stores none.
  std::multiset<std::size_t> want;
  for (std::size_t size : kSizes) {
    if (size == 0) continue;
    want.insert(size + (size + kChunk - 1) / kChunk * crypto::kGcmTagSize);
  }
  std::multiset<std::size_t> stored;
  for (const auto& [name, bytes] : b) {
    if (name.starts_with("nxd/")) stored.insert(bytes.size());
  }
  EXPECT_EQ(stored, want);
}

TEST(ParallelCryptoTest, PartialRangeUpdatesStayByteIdentical) {
  Deployment serial(0);
  Deployment parallel(2);

  const Bytes initial = Pattern(10 * kChunk, 1);
  for (auto* d : {&serial, &parallel}) {
    ASSERT_TRUE(d->machine->nexus->WriteFile("f", initial).ok());
  }

  // Dirty two interior chunks; the rest must survive as spliced ciphertext.
  Bytes updated = initial;
  for (std::size_t i = 3 * kChunk; i < 5 * kChunk; ++i) updated[i] ^= 0x5A;
  for (auto* d : {&serial, &parallel}) {
    ASSERT_TRUE(d->machine->nexus
                    ->WriteFileRange("f", updated, 3 * kChunk, 2 * kChunk)
                    .ok());
    EXPECT_EQ(d->machine->nexus->ReadFile("f").value(), updated);
  }

  EXPECT_EQ(ServerState(serial.world, *serial.machine),
            ServerState(parallel.world, *parallel.machine));
}

// Both batch shapes of the parallel configuration are checked: a
// multi-chunk file opens on the pool, a one-chunk file on the ecall
// thread.
TEST(ParallelCryptoTest, ParallelDecryptDetectsTamperAndTruncation) {
  struct Shape {
    std::size_t size;
    std::size_t tampered_chunk;
  };
  for (const Shape shape :
       {Shape{9 * kChunk + 100, 4}, Shape{kChunk - 100, 0}}) {
    SCOPED_TRACE(shape.size);
    Deployment d(4);
    core::NexusClient& fs = *d.machine->nexus;
    ASSERT_TRUE(fs.WriteFile("f", Pattern(shape.size, 3)).ok());

    const auto names = d.machine->afs->List("nxd/").value();
    ASSERT_EQ(names.size(), 1u);
    Bytes blob = d.world.server().AdversaryRead(names[0]).value();

    // Flip one ciphertext byte in an interior chunk (the only one of a
    // one-chunk file).
    Bytes tampered = blob;
    tampered[shape.tampered_chunk * (kChunk + crypto::kGcmTagSize) + 10] ^=
        0x01;
    ASSERT_TRUE(d.world.server().AdversaryWrite(names[0], tampered).ok());
    fs.DropAllCaches();
    auto r = fs.ReadFile("f");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kIntegrityViolation);

    // Truncate the object below what the filenode's chunk table demands.
    Bytes truncated(blob.begin(), blob.begin() + blob.size() / 2);
    ASSERT_TRUE(d.world.server().AdversaryWrite(names[0], truncated).ok());
    fs.DropAllCaches();
    r = fs.ReadFile("f");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kIntegrityViolation);

    // Restore → readable again (the checks above were the detector, not
    // cached failure state).
    ASSERT_TRUE(d.world.server().AdversaryWrite(names[0], blob).ok());
    fs.DropAllCaches();
    EXPECT_TRUE(fs.ReadFile("f").ok());
  }
}

// A batch of one chunk has nothing to run in parallel, so its GCM seal
// or open stays on the ecall thread and never reaches the pool's queue;
// a multi-chunk batch still fans out.
TEST(ParallelCryptoTest, OneChunkBatchesStayOnTheEcallThread) {
  Deployment d(2);
  core::NexusClient& fs = *d.machine->nexus;
  const Bytes one = Pattern(kChunk, 5);
  ASSERT_TRUE(fs.WriteFile("one", one).ok());
  fs.DropAllCaches();
  EXPECT_EQ(fs.ReadFile("one").value(), one);
  auto profile = fs.Profile();
  EXPECT_EQ(profile.parallel.chunks_encrypted, 1u);
  EXPECT_EQ(profile.parallel.chunks_decrypted, 1u);
  EXPECT_EQ(profile.parallel.parallel_batches, 2u);
  EXPECT_EQ(profile.parallel.peak_queue_depth, 0u);

  ASSERT_TRUE(fs.WriteFile("three", Pattern(3 * kChunk, 6)).ok());
  profile = fs.Profile();
  EXPECT_GE(profile.parallel.peak_queue_depth, 1u);
}

// AFS transfers whole files, so a read is one data fetch whatever the
// worker count: the pool only decides where the chunks open.
TEST(ParallelCryptoTest, ColdReadIsOneDataFetch) {
  Deployment d(4);
  const Bytes content = Pattern(9 * kChunk, 12);
  ASSERT_TRUE(d.machine->nexus->WriteFile("f", content).ok());
  ProbeStore store(*d.machine->afs);
  ProbedEnclave probed(d, store, 4);
  EXPECT_EQ(probed.enclave.EcallDecrypt("f").value(), content);
  EXPECT_EQ(store.data_fetches, 1);
}

// A batch that ran inline had no pool to shorten it: one-chunk writes and
// reads credit no modeled parallel saving.
TEST(ParallelCryptoTest, InlineBatchesCreditNoParallelSaving) {
  Deployment d(2);
  core::NexusClient& fs = *d.machine->nexus;
  const Bytes one = Pattern(kChunk - 7, 8);
  ASSERT_TRUE(fs.WriteFile("one", one).ok());
  for (int i = 0; i < 200; ++i) ASSERT_EQ(fs.ReadFile("one").value(), one);
  const auto profile = fs.Profile();
  EXPECT_EQ(profile.parallel.chunks_decrypted, 200u);
  EXPECT_EQ(profile.parallel.saved_seconds, 0.0);
}

// One worker runs a batch's chunks one after another, exactly as the
// caller would: its busy time is its critical path, so the pool saves
// nothing and the queueing and wake-up latency in the batch window is
// not credited as a saving.
TEST(ParallelCryptoTest, OneWorkerPoolCreditsNoParallelSaving) {
  Deployment d(1);
  core::NexusClient& fs = *d.machine->nexus;
  const Bytes content = Pattern(16 * kChunk + 99, 10);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(fs.WriteFile("f", content).ok());
    fs.DropAllCaches();
    ASSERT_EQ(fs.ReadFile("f").value(), content);
  }
  const auto profile = fs.Profile();
  EXPECT_EQ(profile.parallel.chunks_decrypted, 20u * 17);
  EXPECT_GE(profile.parallel.peak_queue_depth, 1u); // the pool did run
  EXPECT_EQ(profile.parallel.saved_seconds, 0.0);
}

// A write's one StoreData ocall is the store's time, never credited to
// the pool.
TEST(ParallelCryptoTest, StoreOcallTimeIsNotCreditedAsParallelSaving) {
  Deployment d(2);
  ASSERT_TRUE(d.machine->nexus->WriteFile("f", Pattern(10, 1)).ok());
  ProbeStore store(*d.machine->afs);
  ProbedEnclave probed(d, store, 2);
  store.store_sleep_ms = 50;
  const Bytes content = Pattern(8 * kChunk, 4);
  ASSERT_TRUE(probed.enclave.EcallEncrypt("f", content).ok());
  EXPECT_EQ(probed.enclave.EcallDecrypt("f").value(), content);
  ASSERT_EQ(store.data_stores, 1); // 8 chunks, one store
  // Crediting the sleep would put the credit above 50 ms.
  EXPECT_LT(probed.enclave.parallel_stats().saved_seconds, 25e-3);
}

TEST(ParallelCryptoTest, WorkerCountIsReconfigurableMidVolume) {
  Deployment d(0);
  core::NexusClient& fs = *d.machine->nexus;
  const Bytes content = Pattern(6 * kChunk, 9);
  ASSERT_TRUE(fs.WriteFile("f", content).ok());
  for (std::size_t workers : {1u, 4u, 0u, 2u}) {
    ASSERT_TRUE(fs.SetCryptoWorkers(workers).ok());
    EXPECT_EQ(fs.ReadFile("f").value(), content);
    ASSERT_TRUE(fs.WriteFile("f", content).ok());
  }
  EXPECT_FALSE(fs.SetCryptoWorkers(65).ok());
}

// Two full deployments hammering encrypt/decrypt concurrently: exercises
// the pool, the data store path and the AES-NI dispatch under TSan.
TEST(ParallelCryptoStressTest, ConcurrentWorldsStayConsistent) {
  auto run = [](const char* user, std::uint8_t salt) {
    test::World world(std::string("stress-") + user);
    test::Machine& m = world.AddMachine(user);
    enclave::VolumeConfig config;
    config.chunk_size = kChunk;
    ASSERT_TRUE(m.nexus->CreateVolume(m.user, config).ok());
    ASSERT_TRUE(m.nexus->SetCryptoWorkers(4).ok());
    for (int round = 0; round < 8; ++round) {
      const Bytes content =
          Pattern((round + 1) * kChunk + round * 17, salt);
      ASSERT_TRUE(m.nexus->WriteFile("f", content).ok());
      m.nexus->DropAllCaches();
      ASSERT_EQ(m.nexus->ReadFile("f").value(), content);
    }
  };
  std::thread t1([&] { run("alice", 11); });
  std::thread t2([&] { run("bob", 23); });
  t1.join();
  t2.join();
}

// ---- AES-NI dispatch verification (satellite) -------------------------------

TEST(AesniDispatchTest, SelfTestPassesOnThisHost) {
  // Whatever the host supports, the KAT itself must be self-consistent:
  // it compares the accelerated kernels against the portable reference,
  // so it can only fail if dispatch picked a miscomputing path.
  EXPECT_TRUE(crypto::AesniSelfTest());
}

TEST(AesniDispatchTest, ForcedFallbackMatchesHardwarePath) {
  const ByteArray<16> key = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                             11, 12, 13, 14, 15, 16};
  const ByteArray<12> iv = {9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 0};
  const Bytes aad = Pattern(23, 42);
  const Bytes plaintext = Pattern(70000, 5); // multi-block + tail

  auto seal = [&]() {
    auto aes = crypto::Aes::Create(key);
    EXPECT_TRUE(aes.ok());
    return crypto::GcmSeal(*aes, iv, aad, plaintext).value();
  };

  const bool hw_before = crypto::HasAesHardware();
  const Bytes with_dispatch = seal();
  crypto::ForceAesFallbackForTesting(true);
  EXPECT_FALSE(crypto::HasAesHardware());
  const Bytes with_fallback = seal();
  crypto::ForceAesFallbackForTesting(false);
  EXPECT_EQ(crypto::HasAesHardware(), hw_before);

  // AES-GCM is deterministic: accelerated and portable kernels must agree
  // bit-for-bit or the dispatch is broken.
  EXPECT_EQ(with_dispatch, with_fallback);

  // And the fallback ciphertext opens under the (possibly accelerated)
  // dispatch path.
  auto aes = crypto::Aes::Create(key);
  ASSERT_TRUE(aes.ok());
  EXPECT_EQ(crypto::GcmOpen(*aes, iv, aad, with_fallback).value(), plaintext);
}

} // namespace
} // namespace nexus
