// nexusd + RemoteBackend integration over a real loopback socket: the
// backend contract, large streamed puts, concurrent clients, hostile
// frames, and clean shutdown semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <mutex>
#include <set>
#include <thread>

#include "net/remote_backend.hpp"
#include "net/server.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "storage/backend.hpp"

namespace nexus::net {
namespace {

RemoteBackendOptions FastOptions() {
  RemoteBackendOptions options;
  options.max_attempts = 2;
  options.backoff_base_ms = 1;
  options.backoff_cap_ms = 2;
  options.rpc_deadline_ms = 10000;
  return options;
}

// How many `rpc` requests the daemon has served, from its Stats per-op
// table.
std::uint64_t Served(const NexusdServer& server, Rpc rpc) {
  for (const RpcOpStats& op : server.WireStats().per_op) {
    if (op.rpc == static_cast<std::uint8_t>(rpc)) return op.count;
  }
  return 0;
}

class NetBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = NexusdServer::Start(store_).value();
    auto client =
        RemoteBackend::Connect("127.0.0.1", server_->port(), FastOptions());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    remote_ = std::move(client).value();
  }

  storage::MemBackend store_;
  std::unique_ptr<NexusdServer> server_;
  std::unique_ptr<RemoteBackend> remote_;
};

TEST_F(NetBackendTest, PutGetRoundTrip) {
  const Bytes data = {1, 2, 3, 0, 255};
  ASSERT_TRUE(remote_->Put("obj", data).ok());
  EXPECT_EQ(remote_->Get("obj").value(), data);
  // The object really lives on the server, not in the client.
  EXPECT_EQ(store_.Get("obj").value(), data);
}

TEST_F(NetBackendTest, ServerVerdictsPropagate) {
  auto missing = remote_->Get("nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), ErrorCode::kNotFound);
  EXPECT_TRUE(remote_->Delete("nope").ok()); // a missing name is Ok
}

TEST_F(NetBackendTest, ExistsListDelete) {
  ASSERT_TRUE(remote_->Put("nx/b", Bytes{1}).ok());
  ASSERT_TRUE(remote_->Put("nx/a", Bytes{2}).ok());
  ASSERT_TRUE(remote_->Put("other", Bytes{3}).ok());
  EXPECT_TRUE(remote_->Exists("nx/a"));
  EXPECT_FALSE(remote_->Exists("nx/c"));
  const auto names = remote_->List("nx/");
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "nx/a");
  EXPECT_EQ(names[1], "nx/b");
  ASSERT_TRUE(remote_->Delete("nx/a").ok());
  EXPECT_FALSE(remote_->Exists("nx/a"));

  // Exists is one zero-byte head read, and nothing else.
  const std::uint64_t rpcs0 = server_->stats().rpcs_served;
  const std::uint64_t heads0 = Served(*server_, Rpc::kGetHead);
  EXPECT_TRUE(remote_->Exists("nx/b"));
  EXPECT_EQ(Served(*server_, Rpc::kGetHead) - heads0, 1u);
  EXPECT_EQ(server_->stats().rpcs_served - rpcs0, 1u);
}

// List pages through kListPage, kMaxNamesPerFrame names a page: one name
// past a full page costs exactly a second page.
TEST_F(NetBackendTest, ListPagesAFullFrameAndOneMore) {
  std::vector<std::string> want;
  for (std::size_t i = 0; i <= kMaxNamesPerFrame; ++i) {
    want.push_back("many/" + std::to_string(i));
    ASSERT_TRUE(store_.Put(want.back(), Bytes{1}).ok());
  }
  std::sort(want.begin(), want.end());

  const std::uint64_t pages0 = Served(*server_, Rpc::kListPage);
  EXPECT_EQ(remote_->List(""), want);
  EXPECT_EQ(Served(*server_, Rpc::kListPage) - pages0, 2u);
}

TEST_F(NetBackendTest, AwkwardNamesSurviveTheWire) {
  for (const std::string name :
       {"with/slash", "with space", "uni\xc3\xa9", "%percent", "trailing%",
        "nx/", "..dots"}) {
    ASSERT_TRUE(remote_->Put(name, Bytes{7}).ok()) << name;
    EXPECT_EQ(remote_->Get(name).value(), Bytes{7}) << name;
  }
}

TEST_F(NetBackendTest, EmptyObjectRoundTrips) {
  ASSERT_TRUE(remote_->Put("empty", {}).ok());
  EXPECT_TRUE(remote_->Exists("empty"));
  EXPECT_TRUE(remote_->Get("empty").value().empty());
}

TEST_F(NetBackendTest, SixteenMegabyteStreamedPut) {
  Bytes want;
  auto stream = remote_->OpenPutStream("big").value();
  for (int seg = 0; seg < 16; ++seg) {
    const Bytes segment(1 << 20, static_cast<std::uint8_t>(seg + 1));
    ASSERT_TRUE(stream->Append(segment).ok()) << seg;
    want.insert(want.end(), segment.begin(), segment.end());
    EXPECT_FALSE(store_.Exists("big")); // nothing visible mid-stream
  }
  ASSERT_TRUE(stream->Commit().ok());
  EXPECT_EQ(remote_->Get("big").value(), want);
}

TEST_F(NetBackendTest, StreamAbortLeavesStoreUntouched) {
  ASSERT_TRUE(remote_->Put("s", Bytes{7}).ok());
  auto stream = remote_->OpenPutStream("s").value();
  ASSERT_TRUE(stream->Append(Bytes(1000, 0xEE)).ok());
  stream->Abort();
  EXPECT_EQ(remote_->Get("s").value(), Bytes{7});
  // The stream is dead after Abort.
  EXPECT_EQ(stream->Append(Bytes{1}).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(stream->Commit().code(), ErrorCode::kInvalidArgument);
}

TEST_F(NetBackendTest, DroppedStreamIsAbortedNotCommitted) {
  {
    auto stream = remote_->OpenPutStream("dropped").value();
    ASSERT_TRUE(stream->Append(Bytes(100, 1)).ok());
    // Destroyed without Commit.
  }
  EXPECT_FALSE(remote_->Exists("dropped"));
}

// A client that dies mid-stream (connection close, no Abort RPC) must not
// leave a partial object: the server aborts the stream with the
// connection.
TEST_F(NetBackendTest, DisconnectAbortsServerSideStreams) {
  {
    auto conn =
        TcpTransport::Dial("127.0.0.1", server_->port(), 2000, 2000).value();
    Writer begin = BeginRequest(Rpc::kStreamBegin);
    begin.Str("torn");
    ASSERT_TRUE(conn->SendFrame(begin.bytes()).ok());
    ASSERT_TRUE(conn->RecvFrame().ok());
    // Connection closes here with the stream open.
  }
  // Another RPC round trip gives the server time to notice the close.
  for (int i = 0; i < 100 && server_->stats().streams_aborted_on_disconnect == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server_->stats().streams_aborted_on_disconnect, 1u);
  EXPECT_FALSE(remote_->Exists("torn"));
}

TEST_F(NetBackendTest, GarbageFrameKillsConnectionOnly) {
  {
    auto conn =
        TcpTransport::Dial("127.0.0.1", server_->port(), 2000, 2000).value();
    const Bytes junk = {0xde, 0xad, 0xbe, 0xef};
    ASSERT_TRUE(conn->SendFrame(junk).ok());
    // Server drops the connection without replying.
    EXPECT_FALSE(conn->RecvFrame().ok());
  }
  EXPECT_GE(server_->stats().protocol_errors, 1u);
  // The daemon itself is fine: existing clients keep working.
  ASSERT_TRUE(remote_->Put("after", Bytes{1}).ok());
  EXPECT_EQ(remote_->Get("after").value(), Bytes{1});
}

TEST_F(NetBackendTest, ConcurrentClients) {
  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 25;
  std::vector<std::thread> threads;
  std::vector<Status> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &failures] {
      auto client =
          RemoteBackend::Connect("127.0.0.1", server_->port(), FastOptions());
      if (!client.ok()) {
        failures[c] = client.status();
        return;
      }
      for (int i = 0; i < kOpsPerClient; ++i) {
        const std::string name =
            "c" + std::to_string(c) + "/o" + std::to_string(i);
        const Bytes data(100 + i, static_cast<std::uint8_t>(c));
        const Status put = client.value()->Put(name, data);
        if (!put.ok()) {
          failures[c] = put;
          return;
        }
        auto back = client.value()->Get(name);
        if (!back.ok() || back.value() != data) {
          failures[c] = Error(ErrorCode::kInternal, "bad readback " + name);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].ok()) << "client " << c << ": "
                                  << failures[c].ToString();
  }
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(remote_->List("c" + std::to_string(c) + "/").size(),
              static_cast<std::size_t>(kOpsPerClient));
  }
}

TEST_F(NetBackendTest, CountersTrackTraffic) {
  ASSERT_TRUE(remote_->Put("counted", Bytes(1000, 1)).ok());
  ASSERT_TRUE(remote_->Get("counted").ok());
  const NetCounters counters = remote_->counters();
  EXPECT_GE(counters.rpcs, 3u); // ping + put + get
  EXPECT_GT(counters.bytes_sent, 1000u);
  EXPECT_GT(counters.bytes_received, 1000u);
  EXPECT_EQ(counters.retries, 0u);
  EXPECT_EQ(counters.reconnects, 0u);

  const auto stats = server_->stats();
  EXPECT_GE(stats.rpcs_served, counters.rpcs);
  EXPECT_GE(stats.connections_accepted, 1u);
}

TEST_F(NetBackendTest, StopUnblocksConnectedClientsAndIsIdempotent) {
  ASSERT_TRUE(remote_->Put("pre", Bytes{1}).ok());
  server_->Stop();
  server_->Stop(); // idempotent
  // The client surfaces a clean error (after its bounded retries), not a
  // hang, and the pre-existing object survived in the backend.
  EXPECT_FALSE(remote_->Put("post", Bytes{2}).ok());
  EXPECT_TRUE(store_.Exists("pre"));
  EXPECT_FALSE(store_.Exists("post"));
  // Reads of a stopped daemon fail the same bounded way: absent, empty.
  EXPECT_FALSE(remote_->Exists("pre"));
  EXPECT_TRUE(remote_->List("").empty());
}

TEST_F(NetBackendTest, ConnectFailsFastAgainstDeadServer) {
  const std::uint16_t port = server_->port();
  server_->Stop();
  RemoteBackendOptions options = FastOptions();
  options.connect_deadline_ms = 500;
  auto client = RemoteBackend::Connect("127.0.0.1", port, options);
  EXPECT_FALSE(client.ok());
}

// A store whose listing pages come from a script, not from its objects:
// the untrusted pager that the client checks every page against.
class ScriptedPager final : public storage::StorageBackend {
 public:
  Result<Bytes> Get(const std::string& name) override {
    return inner_.Get(name);
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
  ListPage ListSome(const std::string&, const std::string&,
                    std::size_t) override {
    const std::lock_guard<std::mutex> lock(mu_);
    return page_;
  }
  void Answer(ListPage page) {
    const std::lock_guard<std::mutex> lock(mu_);
    page_ = std::move(page);
  }

 private:
  storage::MemBackend inner_;
  std::mutex mu_;
  ListPage page_;
};

// A page that does not move strictly past its cursor within its prefix
// and limit fails like a failed call: an empty page with no continuation.
// A pager that ignores the cursor therefore cannot spin List.
TEST(NetListPage, MalformedPagesFailLikeFailedCalls) {
  ScriptedPager pager;
  auto server = NexusdServer::Start(pager).value();
  auto remote =
      RemoteBackend::Connect("127.0.0.1", server->port(), FastOptions())
          .value();

  // The same non-empty page, always with more to come: the first answer
  // is well-formed, continuing from it is not.
  pager.Answer({{"nx/a", "nx/b"}, true});
  auto page = remote->ListSome("nx/", "", 8);
  EXPECT_EQ(page.names, (std::vector<std::string>{"nx/a", "nx/b"}));
  EXPECT_TRUE(page.more);
  page = remote->ListSome("nx/", "nx/b", 8);
  EXPECT_TRUE(page.names.empty());
  EXPECT_FALSE(page.more);
  EXPECT_TRUE(remote->List("nx/").empty());

  struct Case {
    const char* what;
    storage::StorageBackend::ListPage page;
    std::string start_after;
    std::size_t limit;
  };
  const Case cases[] = {
      {"more names than asked for", {{"nx/a", "nx/b", "nx/c"}, false}, "", 2},
      {"a name without the prefix", {{"nx/a", "other"}, false}, "", 8},
      {"a name not past the cursor", {{"nx/a", "nx/b"}, false}, "nx/a", 8},
      {"names out of order", {{"nx/b", "nx/a"}, false}, "", 8},
      {"a repeated name", {{"nx/a", "nx/a"}, false}, "", 8},
      {"more on an empty page", {{}, true}, "", 8},
  };
  for (const Case& c : cases) {
    pager.Answer(c.page);
    page = remote->ListSome("nx/", c.start_after, c.limit);
    EXPECT_TRUE(page.names.empty()) << c.what;
    EXPECT_FALSE(page.more) << c.what;
  }
  EXPECT_EQ(remote->counters().retries, 0u);
  server->Stop();
}

// Rewrites every kListPage reply on its way to the client.
class TamperListPages final : public Transport {
 public:
  TamperListPages(std::unique_ptr<Transport> inner,
                  std::function<void(Bytes&)> tamper)
      : inner_(std::move(inner)), tamper_(std::move(tamper)) {}

  Status SendFrame(ByteSpan payload) override {
    if (RequestRpc(payload) == Rpc::kListPage) {
      const std::lock_guard<std::mutex> lock(mu_);
      targets_.insert(RequestCorrelation(payload));
    }
    return inner_->SendFrame(payload);
  }
  Result<Bytes> RecvFrame() override {
    auto frame = inner_->RecvFrame();
    if (!frame.ok()) return frame;
    Bytes bytes = std::move(frame).value();
    const std::lock_guard<std::mutex> lock(mu_);
    if (targets_.erase(ResponseCorrelation(bytes)) > 0) tamper_(bytes);
    return bytes;
  }
  void Close() override { inner_->Close(); }
  void Shutdown() override { inner_->Shutdown(); }

 private:
  std::unique_ptr<Transport> inner_;
  std::function<void(Bytes&)> tamper_;
  std::mutex mu_;
  std::set<std::uint64_t> targets_;
};

// The `more` byte ends a page: a reply without it, or with bytes after
// it, is malformed too.
TEST(NetListPage, MissingOrTrailingBytesAfterMoreAreMalformed) {
  storage::MemBackend store;
  ASSERT_TRUE(store.Put("nx/a", Bytes{1}).ok());
  auto server = NexusdServer::Start(store).value();
  const std::uint16_t port = server->port();
  const std::function<void(Bytes&)> tampers[] = {
      [](Bytes&) {},
      [](Bytes& reply) { reply.pop_back(); },
      [](Bytes& reply) { reply.push_back(0); },
  };
  for (std::size_t i = 0; i < std::size(tampers); ++i) {
    RemoteBackend client(
        [port, tamper = tampers[i]]() -> Result<std::unique_ptr<Transport>> {
          auto tcp = TcpTransport::Dial("127.0.0.1", port, 2000, 2000);
          if (!tcp.ok()) return tcp.status();
          return std::unique_ptr<Transport>(
              std::make_unique<TamperListPages>(std::move(tcp).value(),
                                                tamper));
        },
        FastOptions());
    const auto page = client.ListSome("nx/", "", 8);
    EXPECT_EQ(page.names.size(), i == 0 ? 1u : 0u) << i;
    EXPECT_EQ(client.List("nx/").size(), i == 0 ? 1u : 0u) << i;
    EXPECT_EQ(client.counters().retries, 0u) << i;
  }
  server->Stop();
}

// The daemon serves a DiskBackend identically — the wire protocol composes
// with on-disk name escaping and atomic temp-file publication.
TEST(NetDiskBackendTest, DiskServedRoundTripWithHostileNames) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("nexus-netdisk-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    auto disk = storage::DiskBackend::Open(dir.string());
    ASSERT_TRUE(disk.ok());
    storage::DiskBackend backend = std::move(disk).value();
    auto server = NexusdServer::Start(backend).value();
    auto remote =
        RemoteBackend::Connect("127.0.0.1", server->port(), FastOptions())
            .value();

    for (const std::string name : {"a/b/c", "100%", "uni\xc3\xa9", "nx/"}) {
      ASSERT_TRUE(remote->Put(name, Bytes{5}).ok()) << name;
      EXPECT_EQ(remote->Get(name).value(), Bytes{5}) << name;
    }
    auto stream = remote->OpenPutStream("streamed").value();
    ASSERT_TRUE(stream->Append(Bytes(1 << 20, 0xAB)).ok());
    ASSERT_TRUE(stream->Append(Bytes(123, 0xCD)).ok());
    ASSERT_TRUE(stream->Commit().ok());
    Bytes want(1 << 20, 0xAB);
    want.insert(want.end(), 123, 0xCD);
    EXPECT_EQ(remote->Get("streamed").value(), want);
    server->Stop();
  }
  std::filesystem::remove_all(dir);
}

} // namespace
} // namespace nexus::net
