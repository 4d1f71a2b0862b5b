// Storage substrate tests: backend contract (parameterized over Mem, Disk,
// a 3-shard in-process cluster and a RemoteBackend talking to an
// in-process nexusd, plus a live daemon when NEXUS_REMOTE_ADDR points at
// one), AFS caching semantics, locking, cost accounting and the adversary
// API.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "cluster/cluster_backend.hpp"
#include "net/remote_backend.hpp"
#include "net/server.hpp"
#include "storage/afs.hpp"
#include "storage/backend.hpp"

namespace nexus::storage {
namespace {

// ---- backend contract, parameterized over implementations -------------------

enum class BackendKind { kMem, kDisk, kCluster, kRemote, kLiveRemote };

/// Mem, Disk, Cluster and Remote always run; LiveRemote joins when
/// NEXUS_REMOTE_ADDR=host:port names a live nexusd (the CI loopback smoke
/// step sets it).
std::vector<BackendKind> BackendsUnderTest() {
  std::vector<BackendKind> kinds = {BackendKind::kMem, BackendKind::kDisk,
                                    BackendKind::kCluster,
                                    BackendKind::kRemote};
  if (std::getenv("NEXUS_REMOTE_ADDR") != nullptr) {
    kinds.push_back(BackendKind::kLiveRemote);
  }
  return kinds;
}

class BackendContractTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    switch (GetParam()) {
      case BackendKind::kMem:
        backend_ = std::make_unique<MemBackend>();
        break;
      case BackendKind::kDisk:
        dir_ = std::filesystem::temp_directory_path() /
               ("nexus-test-" + std::to_string(::getpid()) + "-" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
        backend_ = std::make_unique<DiskBackend>(
            DiskBackend::Open(dir_.string()).value());
        break;
      case BackendKind::kCluster: {
        // Three in-process shards, R=2 with majority quorums.
        std::vector<cluster::ShardSpec> shards;
        for (int i = 0; i < 3; ++i) {
          shards.push_back(cluster::ShardSpec{
              "shard-" + std::to_string(i),
              []() -> Result<std::unique_ptr<StorageBackend>> {
                return std::unique_ptr<StorageBackend>(
                    std::make_unique<MemBackend>());
              },
              /*revive=*/{}});
        }
        cluster::ClusterOptions options;
        options.replication = 2;
        options.background_rebalance = false;
        auto cluster = cluster::ClusterBackend::Create(std::move(shards),
                                                       options);
        ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
        backend_ = std::move(cluster).value();
        break;
      }
      case BackendKind::kRemote: {
        auto server = net::NexusdServer::Start(served_);
        ASSERT_TRUE(server.ok()) << server.status().ToString();
        server_ = std::move(server).value();
        auto remote = net::RemoteBackend::Connect("127.0.0.1", server_->port());
        ASSERT_TRUE(remote.ok()) << remote.status().ToString();
        backend_ = std::move(remote).value();
        break;
      }
      case BackendKind::kLiveRemote: {
        const std::string addr = std::getenv("NEXUS_REMOTE_ADDR");
        const auto colon = addr.rfind(':');
        ASSERT_NE(colon, std::string::npos) << "NEXUS_REMOTE_ADDR=" << addr;
        auto remote = net::RemoteBackend::Connect(
            addr.substr(0, colon),
            static_cast<std::uint16_t>(std::stoi(addr.substr(colon + 1))));
        ASSERT_TRUE(remote.ok()) << remote.status().ToString();
        backend_ = std::move(remote).value();
        // The daemon's store outlives individual tests: start each from a
        // clean namespace.
        for (const auto& name : backend_->List("")) {
          ASSERT_TRUE(backend_->Delete(name).ok()) << name;
        }
        break;
      }
    }
  }
  void TearDown() override {
    backend_.reset();
    server_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  MemBackend served_; // the in-process nexusd's store (kRemote)
  std::unique_ptr<net::NexusdServer> server_;
  std::unique_ptr<StorageBackend> backend_;
  std::filesystem::path dir_;
};

TEST_P(BackendContractTest, PutGetRoundTrip) {
  const Bytes data = {1, 2, 3, 0, 255};
  ASSERT_TRUE(backend_->Put("obj", data).ok());
  EXPECT_EQ(backend_->Get("obj").value(), data);
}

TEST_P(BackendContractTest, GetMissingFails) {
  auto r = backend_->Get("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
}

TEST_P(BackendContractTest, OverwriteReplaces) {
  ASSERT_TRUE(backend_->Put("obj", Bytes{1}).ok());
  ASSERT_TRUE(backend_->Put("obj", Bytes{2, 3}).ok());
  EXPECT_EQ(backend_->Get("obj").value(), (Bytes{2, 3}));
}

TEST_P(BackendContractTest, DeleteRemoves) {
  ASSERT_TRUE(backend_->Put("obj", Bytes{1}).ok());
  EXPECT_TRUE(backend_->Exists("obj"));
  ASSERT_TRUE(backend_->Delete("obj").ok());
  EXPECT_FALSE(backend_->Exists("obj"));
  EXPECT_TRUE(backend_->Delete("obj").ok()); // a missing name is Ok
}

TEST_P(BackendContractTest, EmptyObjectAllowed) {
  ASSERT_TRUE(backend_->Put("empty", {}).ok());
  EXPECT_TRUE(backend_->Exists("empty"));
  EXPECT_TRUE(backend_->Get("empty").value().empty());
}

TEST_P(BackendContractTest, ListByPrefixSorted) {
  ASSERT_TRUE(backend_->Put("nx/b", Bytes{1}).ok());
  ASSERT_TRUE(backend_->Put("nx/a", Bytes{1}).ok());
  ASSERT_TRUE(backend_->Put("other/c", Bytes{1}).ok());
  const auto names = backend_->List("nx/");
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "nx/a");
  EXPECT_EQ(names[1], "nx/b");
}

TEST_P(BackendContractTest, AwkwardNamesSurvive) {
  for (const std::string name :
       {"with/slash", "with space", "uni\xc3\xa9", "%percent", "..dots"}) {
    ASSERT_TRUE(backend_->Put(name, Bytes{7}).ok()) << name;
    EXPECT_EQ(backend_->Get(name).value(), Bytes{7}) << name;
  }
}

// Regression pin for the name-unescaping bound: an escaped character at
// the very END of a name ("nx/" escapes to "nx%2f") must survive the
// Put → List round trip. The decode bound is i + 3 <= size, which admits
// a trailing %XX — this test keeps it that way.
TEST_P(BackendContractTest, TrailingEscapedCharacterRoundTrips) {
  for (const std::string name : {"nx/", "trailing%", "q?", "a/b/"}) {
    ASSERT_TRUE(backend_->Put(name, Bytes{9}).ok()) << name;
    EXPECT_EQ(backend_->Get(name).value(), Bytes{9}) << name;
    const auto listed = backend_->List(name);
    ASSERT_EQ(listed.size(), 1u) << name;
    EXPECT_EQ(listed[0], name);
  }
}

// Names containing a literal '%' round-trip: escaping re-encodes the '%'
// itself, so unescaping can never misread it as the start of an escape.
TEST_P(BackendContractTest, MalformedEscapesListVerbatim) {
  for (const std::string name : {"100%", "50%off", "a%zz"}) {
    ASSERT_TRUE(backend_->Put(name, Bytes{3}).ok()) << name;
    const auto listed = backend_->List(name);
    ASSERT_EQ(listed.size(), 1u) << name;
    EXPECT_EQ(listed[0], name);
  }
}

// A head read returns exactly min(max, size) leading bytes and the full
// size, whatever the backend; a missing object is kNotFound, as for Get.
TEST_P(BackendContractTest, GetHeadReturnsPrefixAndSize) {
  Bytes data(300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  ASSERT_TRUE(backend_->Put("obj", data).ok());

  auto head = backend_->GetHead("obj", 25);
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ(head.value().size, data.size());
  EXPECT_EQ(head.value().prefix, Bytes(data.begin(), data.begin() + 25));

  head = backend_->GetHead("obj", 0);
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ(head.value().size, data.size());
  EXPECT_TRUE(head.value().prefix.empty());

  head = backend_->GetHead("obj", 1000);
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ(head.value().size, data.size());
  EXPECT_EQ(head.value().prefix, data);

  ASSERT_TRUE(backend_->Put("empty", {}).ok());
  head = backend_->GetHead("empty", 25);
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ(head.value().size, 0u);
  EXPECT_TRUE(head.value().prefix.empty());

  EXPECT_EQ(backend_->GetHead("nope", 25).status().code(),
            ErrorCode::kNotFound);
}

// A PutStream is single-shot: after Commit or Abort the stream is dead and
// every further call fails kInvalidArgument instead of silently writing.
TEST_P(BackendContractTest, StreamDeadAfterCommit) {
  auto stream = backend_->OpenPutStream("s").value();
  ASSERT_TRUE(stream->Append(Bytes(10, 1)).ok());
  ASSERT_TRUE(stream->Commit().ok());
  EXPECT_EQ(stream->Append(Bytes{2}).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(stream->Commit().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(backend_->Get("s").value(), Bytes(10, 1)); // unchanged
}

TEST_P(BackendContractTest, StreamDeadAfterAbort) {
  auto stream = backend_->OpenPutStream("s").value();
  ASSERT_TRUE(stream->Append(Bytes(10, 1)).ok());
  stream->Abort();
  EXPECT_EQ(stream->Append(Bytes{2}).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(stream->Commit().code(), ErrorCode::kInvalidArgument);
  stream->Abort(); // double abort is harmless
  EXPECT_FALSE(backend_->Exists("s"));
}

// Whole-object calls are thread-safe per the StorageBackend contract; in
// particular concurrent same-name writers must serialize to one winner's
// complete content, never interleave.
TEST_P(BackendContractTest, ConcurrentSameNameWritersLeaveOneWinner) {
  constexpr int kWriters = 4;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([this, w] {
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(
            backend_->Put("contended", Bytes(512, static_cast<std::uint8_t>(w)))
                .ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  const Bytes final = backend_->Get("contended").value();
  ASSERT_EQ(final.size(), 512u);
  for (const auto byte : final) EXPECT_EQ(byte, final[0]); // no interleaving
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendContractTest,
                         ::testing::ValuesIn(BackendsUnderTest()),
                         [](const auto& info) {
                           switch (info.param) {
                             case BackendKind::kMem: return "Mem";
                             case BackendKind::kDisk: return "Disk";
                             case BackendKind::kCluster: return "Cluster";
                             case BackendKind::kRemote: return "Remote";
                             case BackendKind::kLiveRemote:
                               return "LiveRemote";
                           }
                           return "Unknown";
                         });

// ---- DiskBackend name escaping ----------------------------------------------

TEST(DiskNameEscaping, RoundTripsTrickyNames) {
  for (const std::string name :
       {"plain", "a/b/c", "100%", "%", "%%", "trailing%2f", "%2f", "a%zz",
        "uni\xc3\xa9\xe2\x82\xac", "with space", "..", ".", "?q=1&r=2"}) {
    const std::string escaped = EscapeName(name);
    EXPECT_EQ(UnescapeName(escaped), name) << name << " via " << escaped;
    // Escaped form is a safe flat filename: no separators, no traversal.
    EXPECT_EQ(escaped.find('/'), std::string::npos) << escaped;
    EXPECT_NE(escaped, "..") << name;
  }
}

TEST(DiskNameEscaping, EscapingIsInjectiveOnCollidingInputs) {
  // Pairs that would collide if '%' were not itself escaped.
  EXPECT_NE(EscapeName("a/b"), EscapeName("a%2fb"));
  EXPECT_NE(EscapeName("100%"), EscapeName("100%25"));
  EXPECT_NE(EscapeName("nx/"), EscapeName("nx%2f"));
}

TEST(DiskNameEscaping, ListPrefixMatchesLogicalNamesAcrossEscapedBoundaries) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("nexus-escape-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    DiskBackend backend = DiskBackend::Open(dir.string()).value();
    // "a/" and "a%" escape to different leaders ("a%2f" vs "a%25"): prefix
    // filtering happens on LOGICAL names, so "a/" must match only the
    // slash family even though both share the escaped prefix "a%2".
    for (const std::string name :
         {"a/x", "a/y", "a%x", "a%2fz", "ab", "a"}) {
      ASSERT_TRUE(backend.Put(name, Bytes{1}).ok()) << name;
    }
    const auto slash_family = backend.List("a/");
    ASSERT_EQ(slash_family.size(), 2u);
    EXPECT_EQ(slash_family[0], "a/x");
    EXPECT_EQ(slash_family[1], "a/y");

    const auto percent_family = backend.List("a%");
    ASSERT_EQ(percent_family.size(), 2u);
    EXPECT_EQ(percent_family[0], "a%2fz");
    EXPECT_EQ(percent_family[1], "a%x");

    EXPECT_EQ(backend.List("a").size(), 6u);
    EXPECT_EQ(backend.List("").size(), 6u);
  }
  std::filesystem::remove_all(dir);
}

TEST(DiskNameEscaping, ListSkipsForeignAndTemporaryFiles) {
  // The store directory is shared territory: crashed Puts leave temp
  // files, other tools keep dot-prefixed metadata beside a disk-backed
  // store, and operators drop stray files in by hand. List
  // must report exactly the canonical objects and nothing else.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("nexus-foreign-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    DiskBackend backend = DiskBackend::Open(dir.string()).value();
    ASSERT_TRUE(backend.Put("keep/me", Bytes{1}).ok());
    ASSERT_TRUE(backend.Put("keep2", Bytes{2}).ok());

    // Foreign droppings: a subdirectory, hidden metadata, an in-flight
    // temp file, a file with an invalid escape sequence, and a file whose
    // characters a writer would have escaped (non-canonical spelling).
    std::filesystem::create_directory(dir / "subdir");
    for (const std::string foreign :
         {".hidden-index", ".%tmp-123", "bad%zq", "not%2Gescaped"}) {
      std::ofstream(dir / foreign) << "junk";
    }
    std::ofstream(dir / "subdir" / "nested") << "junk";

    const auto names = backend.List("");
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "keep/me");
    EXPECT_EQ(names[1], "keep2");
  }
  std::filesystem::remove_all(dir);
}

// ---- DiskBackend atomic Put -------------------------------------------------

class DiskBackendAtomicityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("nexus-atomic-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    backend_ = std::make_unique<DiskBackend>(
        DiskBackend::Open(dir_.string()).value());
  }
  void TearDown() override {
    backend_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::size_t TempFileCount() const {
    std::size_t n = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().filename().string().starts_with(".%tmp-")) ++n;
    }
    return n;
  }

  std::unique_ptr<DiskBackend> backend_;
  std::filesystem::path dir_;
};

// Put goes through a same-directory temp file + rename; a completed Put
// must leave no temp behind (a leftover would mean the visible object
// could have been a torn direct write).
TEST_F(DiskBackendAtomicityTest, PutLeavesNoTempFiles) {
  ASSERT_TRUE(backend_->Put("nx/a", Bytes(100, 1)).ok());
  ASSERT_TRUE(backend_->Put("nx/a", Bytes(5000, 2)).ok()); // overwrite
  EXPECT_EQ(TempFileCount(), 0u);
  EXPECT_EQ(backend_->Get("nx/a").value(), Bytes(5000, 2));
}

// A temp file orphaned by a host crash mid-Put is invisible to the object
// namespace: List skips it, and it shadows nothing.
TEST_F(DiskBackendAtomicityTest, LeftoverTempFilesAreInvisible) {
  ASSERT_TRUE(backend_->Put("nx/real", Bytes{1}).ok());
  {
    std::ofstream junk(dir_ / ".%tmp-nx%2fghost", std::ios::binary);
    junk << "torn write";
  }
  const auto names = backend_->List("nx/");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "nx/real");
  EXPECT_FALSE(backend_->Exists("nx/ghost"));
  EXPECT_FALSE(backend_->Get("nx/ghost").ok());
}

// A streamed Put buffers in the same-directory temp file: nothing is
// visible mid-stream, the object appears atomically at Commit, and the
// temp is gone afterwards.
TEST_F(DiskBackendAtomicityTest, PutStreamInvisibleUntilCommit) {
  auto stream = backend_->OpenPutStream("nx/s").value();
  ASSERT_TRUE(stream->Append(Bytes(4096, 0x11)).ok());
  ASSERT_TRUE(stream->Append(Bytes(100, 0x22)).ok());
  EXPECT_FALSE(backend_->Exists("nx/s")); // mid-stream: not an object yet
  EXPECT_EQ(TempFileCount(), 1u);

  ASSERT_TRUE(stream->Commit().ok());
  EXPECT_EQ(TempFileCount(), 0u);
  Bytes want(4096, 0x11);
  want.insert(want.end(), 100, 0x22);
  EXPECT_EQ(backend_->Get("nx/s").value(), want);
}

// Abort (and destruction without Commit) must leave neither the object
// nor the temp file behind — including when it would have overwritten.
TEST_F(DiskBackendAtomicityTest, PutStreamAbortLeavesOldContent) {
  ASSERT_TRUE(backend_->Put("nx/s", Bytes{7}).ok());
  {
    auto stream = backend_->OpenPutStream("nx/s").value();
    ASSERT_TRUE(stream->Append(Bytes(1000, 0xEE)).ok());
    stream->Abort();
  }
  {
    auto dropped = backend_->OpenPutStream("nx/s").value();
    ASSERT_TRUE(dropped->Append(Bytes(10, 0xDD)).ok());
    // Destructor without Commit == Abort.
  }
  EXPECT_EQ(TempFileCount(), 0u);
  EXPECT_EQ(backend_->Get("nx/s").value(), Bytes{7});
}

// Delete of a missing name is Ok, but a filesystem error is not "missing":
// a non-empty directory sitting at an object's escaped path cannot be
// removed (ENOTEMPTY, even for root), and Delete reports kIOError.
TEST_F(DiskBackendAtomicityTest, DeleteReportsAFilesystemErrorAsIOError) {
  EXPECT_TRUE(backend_->Delete("nx/absent").ok());
  std::filesystem::create_directory(dir_ / "nx%2fdoomed");
  std::ofstream(dir_ / "nx%2fdoomed" / "inner") << "junk";
  EXPECT_EQ(backend_->Delete("nx/doomed").code(), ErrorCode::kIOError);
  EXPECT_TRUE(std::filesystem::exists(dir_ / "nx%2fdoomed" / "inner"));
}

// ---- AFS semantics ------------------------------------------------------------

// Counts the object bytes a backend hands back, whole or as a head.
class ByteCountingBackend final : public StorageBackend {
 public:
  explicit ByteCountingBackend(std::uint64_t* bytes_out)
      : bytes_out_(bytes_out) {}

  Result<Bytes> Get(const std::string& name) override {
    auto data = inner_.Get(name);
    if (data.ok()) *bytes_out_ += data.value().size();
    return data;
  }
  Result<Head> GetHead(const std::string& name,
                       std::size_t max_bytes) override {
    auto head = inner_.GetHead(name, max_bytes);
    if (head.ok()) *bytes_out_ += head.value().prefix.size();
    return head;
  }
  Status Put(const std::string& name, ByteSpan data) override {
    return inner_.Put(name, data);
  }
  Status Delete(const std::string& name) override {
    return inner_.Delete(name);
  }
  bool Exists(const std::string& name) override { return inner_.Exists(name); }
  std::vector<std::string> List(const std::string& prefix) override {
    return inner_.List(prefix);
  }

 private:
  MemBackend inner_;
  std::uint64_t* bytes_out_;
};

// Counts the Puts, PutStreams, appends and commits a backend receives.
// With `fail_append` set, every stream fails its fail_append-th Append
// (1-based) with kIOError.
class StreamCountingBackend final : public StorageBackend {
 public:
  int puts = 0;
  int streams = 0;
  int appends = 0;
  int commits = 0;
  int fail_append = 0;

  Result<Bytes> Get(const std::string& name) override {
    return inner_.Get(name);
  }
  Status Put(const std::string& name, ByteSpan data) override {
    ++puts;
    return inner_.Put(name, data);
  }
  Status Delete(const std::string& name) override {
    return inner_.Delete(name);
  }
  bool Exists(const std::string& name) override { return inner_.Exists(name); }
  std::vector<std::string> List(const std::string& prefix) override {
    return inner_.List(prefix);
  }
  Result<std::unique_ptr<PutStream>> OpenPutStream(
      const std::string& name) override {
    NEXUS_ASSIGN_OR_RETURN(std::unique_ptr<PutStream> inner,
                           inner_.OpenPutStream(name));
    ++streams;
    return std::unique_ptr<PutStream>(
        std::make_unique<Stream>(*this, std::move(inner)));
  }

 private:
  class Stream final : public PutStream {
   public:
    Stream(StreamCountingBackend& owner, std::unique_ptr<PutStream> inner)
        : owner_(owner), inner_(std::move(inner)) {}
    Status Append(ByteSpan data) override {
      if (++appended_ == owner_.fail_append) {
        return Error(ErrorCode::kIOError, "injected append failure");
      }
      ++owner_.appends;
      return inner_->Append(data);
    }
    Status Commit() override {
      ++owner_.commits;
      return inner_->Commit();
    }
    void Abort() override { inner_->Abort(); }

   private:
    StreamCountingBackend& owner_;
    std::unique_ptr<PutStream> inner_;
    int appended_ = 0;
  };

  MemBackend inner_;
};

class AfsTest : public ::testing::Test {
 protected:
  SimClock clock_;
  AfsServer server_{std::make_unique<MemBackend>(), clock_};
  AfsClient alice_{server_, "alice"};
  AfsClient bob_{server_, "bob"};
};

// FetchStatus learns the size from a zero-byte head read: a stat of a
// 1 MiB object moves no payload out of the store.
TEST_F(AfsTest, StatOfALargeObjectMovesNoPayload) {
  std::uint64_t bytes_out = 0;
  SimClock clock;
  AfsServer server(std::make_unique<ByteCountingBackend>(&bytes_out), clock);
  AfsClient client(server, "alice");
  ASSERT_TRUE(client.Store("big", Bytes(1 << 20, 0x5a)).ok());
  bytes_out = 0;

  auto stat = client.Stat("big");
  ASSERT_TRUE(stat.ok()) << stat.status().ToString();
  EXPECT_TRUE(stat.value().exists);
  EXPECT_EQ(stat.value().size, 1u << 20);
  stat = client.Stat("missing");
  ASSERT_TRUE(stat.ok()) << stat.status().ToString();
  EXPECT_FALSE(stat.value().exists);
  EXPECT_LE(bytes_out, 64u);
}

TEST_F(AfsTest, StoreFetchRoundTrip) {
  const Bytes data(1000, 0xab);
  ASSERT_TRUE(alice_.Store("f", data).ok());
  EXPECT_EQ(bob_.Fetch("f").value(), data);
}

TEST_F(AfsTest, FetchMissingFails) {
  EXPECT_EQ(alice_.Fetch("nope").status().code(), ErrorCode::kNotFound);
}

TEST_F(AfsTest, CacheHitIsFree) {
  ASSERT_TRUE(alice_.Store("f", Bytes(1 << 20, 1)).ok());
  ASSERT_TRUE(alice_.Fetch("f").ok()); // warm (own store already cached it)
  const double t0 = clock_.Now();
  ASSERT_TRUE(alice_.Fetch("f").ok());
  EXPECT_EQ(clock_.Now(), t0); // zero cost: callback held
  EXPECT_GT(alice_.stats().cache_hits, 0u);
}

TEST_F(AfsTest, RemoteWriteInvalidatesCallback) {
  ASSERT_TRUE(alice_.Store("f", Bytes{1}).ok());
  ASSERT_TRUE(bob_.Fetch("f").ok());
  // Alice updates; Bob's cached copy must be refetched.
  ASSERT_TRUE(alice_.Store("f", Bytes{2}).ok());
  const auto before = bob_.stats().fetches;
  EXPECT_EQ(bob_.Fetch("f").value(), Bytes{2});
  EXPECT_EQ(bob_.stats().fetches, before + 1);
}

TEST_F(AfsTest, FlushCacheForcesRefetch) {
  ASSERT_TRUE(alice_.Store("f", Bytes{1}).ok());
  alice_.FlushCache();
  const double t0 = clock_.Now();
  ASSERT_TRUE(alice_.Fetch("f").ok());
  EXPECT_GT(clock_.Now(), t0);
}

TEST_F(AfsTest, TransferCostScalesWithSize) {
  ASSERT_TRUE(alice_.Store("small", Bytes(1024, 1)).ok());
  const double t0 = clock_.Now();
  ASSERT_TRUE(alice_.Store("big", Bytes(10 << 20, 1)).ok());
  const double big_cost = clock_.Now() - t0;
  const CostModel& cost = server_.cost();
  EXPECT_NEAR(big_cost, cost.RpcSeconds(10 << 20), 1e-9);
  EXPECT_GT(big_cost, cost.RpcSeconds(1024));
}

TEST_F(AfsTest, LockExclusion) {
  ASSERT_TRUE(alice_.Store("f", Bytes{1}).ok());
  ASSERT_TRUE(alice_.Lock("f").ok());
  EXPECT_EQ(bob_.Lock("f").code(), ErrorCode::kConflict);
  ASSERT_TRUE(alice_.Unlock("f").ok());
  EXPECT_TRUE(bob_.Lock("f").ok());
  EXPECT_TRUE(bob_.Unlock("f").ok());
}

TEST_F(AfsTest, UnlockRequiresHolder) {
  ASSERT_TRUE(alice_.Lock("f").ok());
  EXPECT_FALSE(bob_.Unlock("f").ok());
  EXPECT_TRUE(alice_.Unlock("f").ok());
  EXPECT_FALSE(alice_.Unlock("f").ok()); // double unlock
}

TEST_F(AfsTest, LockForcesRevalidation) {
  ASSERT_TRUE(alice_.Store("f", Bytes{1}).ok());
  ASSERT_TRUE(alice_.Fetch("f").ok());
  ASSERT_TRUE(alice_.Lock("f").ok());
  // After taking the lock, the cached copy is no longer trusted.
  const auto before = alice_.stats().fetches;
  ASSERT_TRUE(alice_.Fetch("f").ok());
  EXPECT_EQ(alice_.stats().fetches, before + 1);
  ASSERT_TRUE(alice_.Unlock("f").ok());
}

TEST_F(AfsTest, VersionsIncrement) {
  const auto v1 = alice_.StoreVersioned("f", Bytes{1}).value();
  const auto v2 = alice_.StoreVersioned("f", Bytes{2}).value();
  EXPECT_GT(v2, v1);
  EXPECT_TRUE(alice_.CacheFresh("f", v2));
  EXPECT_FALSE(alice_.CacheFresh("f", v1));
}

TEST_F(AfsTest, AdversaryTamperIsInvisibleAtTransport) {
  ASSERT_TRUE(alice_.Store("f", Bytes{1, 2, 3}).ok());
  ASSERT_TRUE(server_.AdversaryWrite("f", Bytes{9, 9, 9}).ok());
  // Alice's callback was NOT broken: she sees her stale cache...
  EXPECT_EQ(alice_.Fetch("f").value(), (Bytes{1, 2, 3}));
  // ...but a cold client sees the tampered bytes with no transport error.
  EXPECT_EQ(bob_.Fetch("f").value(), (Bytes{9, 9, 9}));
}

TEST_F(AfsTest, AdversaryRollbackAndSwap) {
  ASSERT_TRUE(alice_.Store("a", Bytes{1}).ok());
  ASSERT_TRUE(alice_.Store("b", Bytes{2}).ok());
  const Bytes snapshot = server_.AdversarySnapshot("a").value();
  ASSERT_TRUE(alice_.Store("a", Bytes{3}).ok());
  ASSERT_TRUE(server_.AdversaryRollback("a", snapshot).ok());
  EXPECT_EQ(bob_.Fetch("a").value(), Bytes{1}); // old state served

  ASSERT_TRUE(server_.AdversarySwap("a", "b").ok());
  EXPECT_EQ(bob_.Fetch("b").value(), Bytes{1});
}

TEST_F(AfsTest, RpcCountsAccumulate) {
  const auto rpcs0 = server_.rpc_count();
  ASSERT_TRUE(alice_.Store("f", Bytes{1}).ok());
  ASSERT_TRUE(bob_.Fetch("f").ok());
  EXPECT_EQ(server_.rpc_count(), rpcs0 + 2);
}


TEST_F(AfsTest, PartialStoreChargesOnlyChangedBytes) {
  const Bytes big(10 << 20, 1);
  ASSERT_TRUE(alice_.StoreData("f", big, big.size()).ok());
  const double t0 = clock_.Now();
  ASSERT_TRUE(alice_.StoreData("f", big, 4096).ok());
  const double partial = clock_.Now() - t0;
  EXPECT_NEAR(partial, server_.cost().RpcSeconds(4096), 1e-9);
  // Content is still fully replaced.
  EXPECT_EQ(bob_.Fetch("f").value().size(), big.size());
}

// ---- file-content stores (StoreData) -----------------------------------------

// A whole and a partial store are each one RPC charged for the changed
// bytes only: there is no separate control round trip.
TEST_F(AfsTest, StoreDataCostsOneRpcOfChangedBytes) {
  const std::size_t total = 4 << 20;
  const CostModel& cost = server_.cost();
  const auto rpcs0 = server_.rpc_count();
  const double t0 = clock_.Now();
  ASSERT_TRUE(alice_.StoreData("s", Bytes(total, 2), total).ok());
  EXPECT_EQ(server_.rpc_count(), rpcs0 + 1);
  EXPECT_NEAR(clock_.Now() - t0, cost.RpcSeconds(total), 1e-9);

  const double t1 = clock_.Now();
  ASSERT_TRUE(alice_.StoreData("s", Bytes(total, 3), 1 << 20).ok());
  EXPECT_EQ(server_.rpc_count(), rpcs0 + 2);
  EXPECT_NEAR(clock_.Now() - t1, cost.RpcSeconds(1 << 20), 1e-9);
}

// The object reaches the backend as one PutStream in kStoreSegmentBytes
// segments and applies at its commit: version bump, callback breaks and
// the writer's cache entry together.
TEST_F(AfsTest, StreamedStoreAppliesAtomicallyAtCommit) {
  auto* backend = new StreamCountingBackend;
  SimClock clock;
  AfsServer server{std::unique_ptr<StorageBackend>(backend), clock};
  AfsClient alice(server, "alice");
  AfsClient bob(server, "bob");
  ASSERT_TRUE(alice.StoreData("f", Bytes{1}, 1).ok());
  ASSERT_TRUE(bob.Fetch("f").ok()); // bob holds a callback

  Bytes want(3 * kStoreSegmentBytes, 0xAA); // 3 MiB + 48 B
  want.back() = 0xBB;
  const int streams0 = backend->streams;
  const int appends0 = backend->appends;
  const int commits0 = backend->commits;
  ASSERT_TRUE(alice.StoreData("f", want, want.size()).ok());
  EXPECT_EQ(backend->streams - streams0, 1);
  EXPECT_EQ(backend->appends - appends0, 3);
  EXPECT_EQ(backend->commits - commits0, 1);
  EXPECT_EQ(backend->puts, 0); // file content never goes through Put

  EXPECT_FALSE(server.CallbackValid("bob", "f"));
  EXPECT_EQ(bob.Fetch("f").value(), want);
  // Alice's own cache holds what she stored.
  const double t0 = clock.Now();
  EXPECT_EQ(alice.Fetch("f").value(), want);
  EXPECT_EQ(clock.Now(), t0); // served locally, no RPC cost
}

// A backend stream that fails mid-way fails the store and publishes
// nothing: the old bytes, the version and bob's callback all stay.
TEST_F(AfsTest, StreamedStoreAbortLeavesObjectUntouched) {
  auto* backend = new StreamCountingBackend;
  SimClock clock;
  AfsServer server{std::unique_ptr<StorageBackend>(backend), clock};
  AfsClient alice(server, "alice");
  AfsClient bob(server, "bob");
  ASSERT_TRUE(alice.StoreData("f", Bytes{7, 7}, 2).ok());
  ASSERT_TRUE(bob.Fetch("f").ok());
  const std::uint64_t version = server.RpcGetVersion("carol", "f").value();

  backend->fail_append = 2;
  const Bytes big(3 * kStoreSegmentBytes, 0xEE);
  EXPECT_EQ(alice.StoreData("f", big, big.size()).code(), ErrorCode::kIOError);
  EXPECT_EQ(backend->commits, 1); // only the first store's

  EXPECT_EQ(server.AdversaryRead("f").value(), (Bytes{7, 7}));
  EXPECT_EQ(server.RpcGetVersion("carol", "f").value(), version);
  EXPECT_TRUE(server.CallbackValid("bob", "f"));
  EXPECT_EQ(bob.Fetch("f").value(), (Bytes{7, 7}));
  EXPECT_EQ(alice.Fetch("f").value(), (Bytes{7, 7}));
}

TEST_F(AfsTest, GetVersionReestablishesCallback) {
  ASSERT_TRUE(alice_.Store("f", Bytes{1}).ok());
  ASSERT_TRUE(bob_.Fetch("f").ok());
  ASSERT_TRUE(alice_.Store("f", Bytes{2}).ok()); // breaks bob's callback
  EXPECT_FALSE(server_.CallbackValid("bob", "f"));
  ASSERT_TRUE(server_.RpcGetVersion("bob", "f").ok());
  EXPECT_TRUE(server_.CallbackValid("bob", "f"));
}

TEST_F(AfsTest, RevalidateOutcomes) {
  const auto v1 = alice_.StoreVersioned("f", Bytes{1}).value();
  // Fresh callback: true without an RPC.
  const auto rpcs0 = server_.rpc_count();
  EXPECT_TRUE(alice_.Revalidate("f", v1).value());
  EXPECT_EQ(server_.rpc_count(), rpcs0);

  // Broken callback, unchanged version: one status RPC, true.
  server_.AdversaryInvalidateCallbacks("f");
  EXPECT_TRUE(alice_.Revalidate("f", v1).value());
  EXPECT_EQ(server_.rpc_count(), rpcs0 + 1);

  // Changed version: false, and the stale cache entry is dropped.
  ASSERT_TRUE(bob_.Store("f", Bytes{2}).ok());
  EXPECT_FALSE(alice_.Revalidate("f", v1).value());
  EXPECT_EQ(alice_.Fetch("f").value(), Bytes{2});

  // Deleted object: false, no crash.
  ASSERT_TRUE(bob_.Remove("f").ok());
  EXPECT_FALSE(alice_.Revalidate("f", v1).value());
}

TEST_F(AfsTest, ListDirDistinguishesFilesAndSubtrees) {
  ASSERT_TRUE(alice_.Store("p/file", Bytes{1}).ok());
  ASSERT_TRUE(alice_.Store("p/dir/nested", Bytes{1}).ok());
  ASSERT_TRUE(alice_.Store("p/both", Bytes{1}).ok());
  ASSERT_TRUE(alice_.Store("p/both/child", Bytes{1}).ok());

  const auto children = alice_.ListDir("p/").value();
  ASSERT_EQ(children.size(), 3u);
  auto find = [&](const std::string& name) {
    for (const auto& c : children) {
      if (c.name == name) return c;
    }
    return storage::AfsServer::ChildEntry{};
  };
  EXPECT_TRUE(find("file").is_exact);
  EXPECT_FALSE(find("file").has_children);
  EXPECT_FALSE(find("dir").is_exact);
  EXPECT_TRUE(find("dir").has_children);
  EXPECT_TRUE(find("both").is_exact);
  EXPECT_TRUE(find("both").has_children);
}

TEST_F(AfsTest, ServerSideRenameMovesSubtreeInOneRpc) {
  ASSERT_TRUE(alice_.Store("src", Bytes{0}).ok());
  ASSERT_TRUE(alice_.Store("src/a", Bytes{1}).ok());
  ASSERT_TRUE(alice_.Store("src/deep/b", Bytes{2}).ok());
  const auto rpcs0 = server_.rpc_count();
  ASSERT_TRUE(alice_.RenameObject("src", "dst").ok());
  EXPECT_EQ(server_.rpc_count(), rpcs0 + 1);
  EXPECT_EQ(bob_.Fetch("dst/deep/b").value(), Bytes{2});
  EXPECT_FALSE(bob_.Fetch("src/a").ok());
  // Renaming a missing path fails cleanly.
  EXPECT_FALSE(alice_.RenameObject("ghost", "x").ok());
}

TEST_F(AfsTest, RevalidationDisableForcesRefetch) {
  const auto v1 = alice_.StoreVersioned("f", Bytes(1 << 20, 1)).value();
  alice_.set_revalidation_enabled(false);
  server_.AdversaryInvalidateCallbacks("f");
  EXPECT_FALSE(alice_.Revalidate("f", v1).value()); // would be true otherwise
}

TEST(SimClock, AttributionAccounts) {
  SimClock clock;
  clock.Advance(1.0);
  {
    SimClock::Attribution a(clock, "meta");
    clock.Advance(2.0);
  }
  clock.Advance(4.0);
  EXPECT_DOUBLE_EQ(clock.Now(), 7.0);
  EXPECT_DOUBLE_EQ(clock.Account("meta"), 2.0);
  EXPECT_DOUBLE_EQ(clock.Account("other"), 0.0);
}

} // namespace
} // namespace nexus::storage
