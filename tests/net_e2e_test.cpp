// End-to-end NEXUS over a real socket: the full client stack (enclave,
// journal, data stores streamed to the daemon) runs unmodified against an
// AFS deployment whose object store is a RemoteBackend talking to a live
// loopback nexusd.
#include <gtest/gtest.h>

#include "net/remote_backend.hpp"
#include "net/server.hpp"
#include "test_env.hpp"
#include "trace/trace.hpp"

namespace nexus {
namespace {

/// Enables tracing for one test and cleans up even on assertion failure.
class ScopedTracing {
 public:
  ScopedTracing() {
    trace::SetEnabled(true);
    trace::ResetTrace();
  }
  ~ScopedTracing() {
    trace::SetEnabled(false);
    trace::ResetTrace();
  }
};

class NetE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = net::NexusdServer::Start(store_).value();

    auto remote = net::RemoteBackend::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    remote_ = remote.value().get(); // observed below; owned by the World
    world_ = std::make_unique<test::World>("net-e2e", std::move(remote).value());

    machine_ = &world_->AddMachine("owen");
    auto handle = machine_->nexus->CreateVolume(machine_->user);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handle_ = std::move(handle).value();
  }

  void TearDown() override {
    world_.reset(); // clients drop their pooled connections first
    if (server_) server_->Stop();
  }

  core::NexusClient& fs() { return *machine_->nexus; }

  storage::MemBackend store_; // nexusd's actual object store
  std::unique_ptr<net::NexusdServer> server_;
  net::RemoteBackend* remote_ = nullptr; // the World's storage backend
  std::unique_ptr<test::World> world_;
  test::Machine* machine_ = nullptr;
  core::NexusClient::VolumeHandle handle_;
};

TEST_F(NetE2eTest, MountWriteReadOverTheWire) {
  const Bytes content = ToBytes(std::string_view("ciphertext over tcp"));
  ASSERT_TRUE(fs().WriteFile("a.txt", content).ok());
  EXPECT_EQ(fs().ReadFile("a.txt").value(), content);

  // The objects physically live in the daemon's store — and are not
  // plaintext there (the enclave encrypted every one of them).
  EXPECT_GT(store_.object_count(), 0u);
  for (const auto& name : store_.List("")) {
    const Bytes blob = store_.Get(name).value();
    const std::string haystack(blob.begin(), blob.end());
    EXPECT_EQ(haystack.find("ciphertext over tcp"), std::string::npos) << name;
  }
}

TEST_F(NetE2eTest, SixteenMegabyteFileStreamsThroughTheDaemon) {
  crypto::HmacDrbg rng(AsBytes("net-16mb"));
  const Bytes content = rng.Generate(16u << 20);
  ASSERT_TRUE(fs().WriteFile("big.bin", content).ok());
  EXPECT_EQ(fs().ReadFile("big.bin").value(), content);

  // The file reached the daemon as one stream of sixteen sealed-chunk
  // segments (16 x (1 MiB + 16 B)).
  std::uint64_t appends = 0;
  std::uint64_t commits = 0;
  for (const net::RpcOpStats& op : server_->WireStats().per_op) {
    if (op.rpc == static_cast<std::uint8_t>(net::Rpc::kStreamAppend)) {
      appends = op.count;
    }
    if (op.rpc == static_cast<std::uint8_t>(net::Rpc::kStreamCommit)) {
      commits = op.count;
    }
  }
  EXPECT_EQ(commits, 1u);
  EXPECT_EQ(appends, 16u);
  const net::NetCounters wire = remote_->counters(); // ... over real RPCs
  EXPECT_GT(wire.rpcs, 0u);
  EXPECT_GT(wire.bytes_sent, content.size()); // payload + overhead
  EXPECT_EQ(wire.retries, 0u);                // loopback is clean
  EXPECT_GT(wire.rpc_p99_ms, 0.0);
  EXPECT_GE(wire.rpc_p99_ms, wire.rpc_p50_ms);
}

TEST_F(NetE2eTest, DirectoriesRenamesAndRemovesWork) {
  ASSERT_TRUE(fs().Mkdir("docs").ok());
  ASSERT_TRUE(fs().Mkdir("docs/work").ok());
  ASSERT_TRUE(fs().WriteFile("docs/work/f", Bytes(4096, 3)).ok());
  ASSERT_TRUE(fs().Rename("docs/work/f", "docs/g").ok());
  EXPECT_EQ(fs().ReadFile("docs/g").value(), Bytes(4096, 3));
  ASSERT_TRUE(fs().Remove("docs/g").ok());
  ASSERT_TRUE(fs().Remove("docs/work").ok());
  EXPECT_EQ(fs().Lookup("docs/g").status().code(), ErrorCode::kNotFound);
}

TEST_F(NetE2eTest, JournalRecoveryAcrossSessionsOverTheWire) {
  // A daemon of its own, whose store can fail the checkpoint that follows
  // a commit's anchor.
  test::FaultyBackend store(std::make_unique<storage::MemBackend>());
  auto server = net::NexusdServer::Start(store);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto remote = net::RemoteBackend::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  test::World world("net-e2e-journal", std::move(remote).value());
  test::Machine& machine = world.AddMachine("owen");
  auto handle = machine.nexus->CreateVolume(machine.user);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  auto& nexus = *machine.nexus;
  ASSERT_TRUE(nexus.BeginBatch().ok());
  ASSERT_TRUE(nexus.Mkdir("d").ok());
  ASSERT_TRUE(nexus.WriteFile("d/replayed", Bytes(32, 9)).ok());
  // The session "dies" right after its anchor: the committed batch sits
  // in the daemon's store, not in any client cache.
  store.FailPuts("nx/");
  EXPECT_FALSE(nexus.CommitBatch().ok());
  store.Heal();
  EXPECT_EQ(store.List("nxj/"), std::vector<std::string>{"nxj/anchor"});

  machine.afs->FlushCache();
  core::NexusClient second(*machine.runtime, *machine.afs,
                           world.intel().root_public_key());
  ASSERT_TRUE(
      second.Mount(machine.user, handle->volume_uuid, handle->sealed_rootkey)
          .ok());
  EXPECT_GE(second.Profile().journal.ops_replayed, 2u);
  EXPECT_EQ(second.ReadFile("d/replayed").value(), Bytes(32, 9));
  ASSERT_TRUE(second.Unmount().ok());
}

TEST_F(NetE2eTest, StatsRpcAgreesWithClientCounters) {
  ASSERT_TRUE(fs().WriteFile("stats-probe", Bytes(8192, 1)).ok());
  ASSERT_TRUE(fs().ReadFile("stats-probe").ok());

  // All traffic on this daemon came from this one backend, the loopback is
  // clean (no retries), and the server increments its counters before each
  // response leaves — so at rest the two sides agree exactly. The Stats
  // payload is built before the stats exchange itself is counted.
  const net::NetCounters client = remote_->counters();
  auto stats = remote_->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const net::ServerStats& s = stats.value();

  EXPECT_EQ(s.rpcs_served, client.rpcs);
  EXPECT_EQ(s.bytes_received, client.bytes_sent);
  EXPECT_EQ(s.bytes_sent, client.bytes_received);
  EXPECT_GE(s.connections_accepted, 1u);
  EXPECT_GE(s.active_connections, 1u); // our pooled connection is live
  EXPECT_EQ(s.open_streams, 0u);       // nothing in flight at rest
  EXPECT_EQ(s.protocol_errors, 0u);

  // The per-op table partitions the totals and carries sane latency rows.
  std::uint64_t per_op_total = 0;
  for (const auto& row : s.per_op) {
    EXPECT_GT(row.count, 0u) << unsigned{row.rpc};
    EXPECT_GE(row.p99_ms, row.p50_ms) << unsigned{row.rpc};
    EXPECT_GE(row.p50_ms, 0.0);
    per_op_total += row.count;
  }
  EXPECT_EQ(per_op_total, s.rpcs_served);

  // A second snapshot counts the first Stats exchange.
  auto again = remote_->Stats();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().rpcs_served, s.rpcs_served + 1);
}

TEST_F(NetE2eTest, ClientAndServerSpansShareCorrelationIds) {
  ScopedTracing tracing;
  ASSERT_TRUE(fs().WriteFile("traced", Bytes(4096, 2)).ok());
  machine_->afs->FlushCache();
  ASSERT_TRUE(fs().ReadFile("traced").ok());

  // Quiesce both sides so every span (client and server, all worker
  // threads) is flushed before the snapshot. Server first: its workers
  // timestamp spans against the world's sim clock, so the clock must
  // outlive them.
  server_->Stop();
  server_.reset();
  world_.reset();

  const auto spans = trace::TraceSnapshot();
  std::vector<const trace::SpanRecord*> client_spans;
  std::vector<const trace::SpanRecord*> server_spans;
  for (const auto& s : spans) {
    if (std::string_view(s.category) == "net.client") client_spans.push_back(&s);
    if (std::string_view(s.category) == "net.server") server_spans.push_back(&s);
  }
  ASSERT_FALSE(client_spans.empty());
  ASSERT_FALSE(server_spans.empty());

  // Every client RPC span carries a correlation id, and the server span
  // that served it carries the same id (same process here, so both sides
  // land in one trace).
  for (const auto* c : client_spans) {
    EXPECT_NE(c->correlation, 0u) << c->name;
    bool matched = false;
    for (const auto* s : server_spans) {
      if (s->correlation == c->correlation) {
        matched = true;
        // Matched spans describe the same RPC.
        EXPECT_STREQ(s->name, c->name);
        break;
      }
    }
    EXPECT_TRUE(matched) << c->name << " corr=" << c->correlation;
  }
}

TEST_F(NetE2eTest, RemountSeesDataWrittenThroughTheDaemon) {
  ASSERT_TRUE(fs().WriteFile("persisted", Bytes(2048, 0x5a)).ok());
  ASSERT_TRUE(fs().Unmount().ok());
  machine_->afs->FlushCache();
  ASSERT_TRUE(
      fs().Mount(machine_->user, handle_.volume_uuid, handle_.sealed_rootkey)
          .ok());
  EXPECT_EQ(fs().ReadFile("persisted").value(), Bytes(2048, 0x5a));
}

} // namespace
} // namespace nexus
