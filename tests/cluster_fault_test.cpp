// Cluster failure-mode tests over REAL nexusd shards on loopback
// sockets: killing a replica mid-write under deterministic
// FaultyTransport schedules (exact quorum outcomes), zero-client-loss
// when one of three shards dies, and read-repair convergence after a
// shard restarts empty on its old port.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_backend.hpp"
#include "net/fault.hpp"
#include "net/remote_backend.hpp"
#include "net/server.hpp"
#include "net/transport.hpp"
#include "storage/backend.hpp"

namespace nexus::cluster {
namespace {

using net::FaultSpec;
using net::FaultStats;
using net::FaultyTransport;
using net::NexusdOptions;
using net::NexusdServer;
using net::RemoteBackend;
using net::RemoteBackendOptions;
using net::TcpTransport;
using net::Transport;
using net::TransportFactory;

RemoteBackendOptions FastClientOptions() {
  RemoteBackendOptions options;
  options.max_attempts = 2;
  options.backoff_base_ms = 1;
  options.backoff_cap_ms = 2;
  options.rpc_deadline_ms = 10000;
  options.connect_deadline_ms = 2000;
  return options;
}

ClusterOptions FastClusterOptions() {
  ClusterOptions options;
  options.replication = 2;
  options.writer_id = 11;
  options.eject_after = 2;
  options.reinstate_backoff_base_ms = 10;
  options.background_rebalance = false;
  return options;
}

/// Three nexusd daemons, each a cluster shard over real TCP.
class NexusdCluster {
 public:
  explicit NexusdCluster(std::size_t n, FaultSpec spec = {},
                         std::uint64_t seed = 1,
                         std::size_t faulty_shard = SIZE_MAX,
                         ClusterOptions cluster_options = FastClusterOptions()) {
    stats_ = std::make_shared<FaultStats>();
    std::vector<ShardSpec> specs;
    for (std::size_t i = 0; i < n; ++i) {
      stores_.push_back(std::make_unique<storage::MemBackend>());
      servers_.push_back(NexusdServer::Start(*stores_[i]).value());
      const std::uint16_t port = servers_[i]->port();
      ports_.push_back(port);

      const bool faulty = i == faulty_shard;
      const FaultSpec shard_spec = faulty ? spec : FaultSpec{};
      auto counter = std::make_shared<std::uint64_t>(0);
      auto stats = stats_;
      TransportFactory transport =
          [port, shard_spec, seed, counter,
           stats]() -> Result<std::unique_ptr<Transport>> {
        NEXUS_ASSIGN_OR_RETURN(
            std::unique_ptr<TcpTransport> tcp,
            TcpTransport::Dial("127.0.0.1", port, 2000, 2000));
        const std::uint64_t connection_seed = seed + 0x9e37 * (*counter)++;
        return std::unique_ptr<Transport>(std::make_unique<FaultyTransport>(
            std::move(tcp), shard_spec, connection_seed, stats));
      };
      specs.push_back(ShardSpec{
          "127.0.0.1:" + std::to_string(port),
          [transport]() -> Result<std::unique_ptr<storage::StorageBackend>> {
            RemoteBackendOptions client = FastClientOptions();
            return std::unique_ptr<storage::StorageBackend>(
                std::make_unique<RemoteBackend>(transport, client));
          },
          // Liveness check on reinstatement: a shard that cannot answer
          // a Ping counts one more failed RPC.
          [](storage::StorageBackend& b) {
            return static_cast<RemoteBackend&>(b).Ping();
          }});
    }
    cluster_ = ClusterBackend::Create(std::move(specs),
                                      std::move(cluster_options))
                   .value();
  }

  ClusterBackend& cluster() { return *cluster_; }
  storage::MemBackend& store(std::size_t i) { return *stores_[i]; }
  const FaultStats& fault_stats() const { return *stats_; }

  void KillShard(std::size_t i) { servers_[i].reset(); }
  /// Restarts shard i on ITS OLD PORT with an EMPTY store — the
  /// "replica lost its disk" scenario read-repair must heal.
  void RestartShardEmpty(std::size_t i) {
    servers_[i].reset();
    stores_[i] = std::make_unique<storage::MemBackend>();
    NexusdOptions options;
    options.port = ports_[i];
    servers_[i] = NexusdServer::Start(*stores_[i], options).value();
  }

 private:
  std::vector<std::unique_ptr<storage::MemBackend>> stores_;
  std::vector<std::unique_ptr<NexusdServer>> servers_;
  std::vector<std::uint16_t> ports_;
  std::shared_ptr<FaultStats> stats_;
  std::unique_ptr<ClusterBackend> cluster_;
};

// The ISSUE acceptance scenario: a 3-shard R=2 cluster keeps accepting
// writes while one shard is killed mid-run, with ZERO failed client ops
// and byte-identical data on readback.
TEST(ClusterFault, KillOneShardMidWriteLosesNothing) {
  NexusdCluster fx(3);
  ClusterBackend& c = fx.cluster();

  auto payload = [](int i) {
    Bytes data;
    for (int j = 0; j < 64; ++j) {
      data.push_back(static_cast<std::uint8_t>((i * 131 + j) & 0xff));
    }
    return data;
  };

  // Phase 1: all shards alive.
  for (int i = 0; i < 30; ++i) {
    const Bytes data = payload(i);
    ASSERT_TRUE(
        c.Put("obj-" + std::to_string(i), ByteSpan(data.data(), data.size()))
            .ok())
        << i;
  }

  // Kill one shard "mid-write", then keep writing new objects AND
  // overwriting old ones. Every op must still succeed (sloppy quorum).
  fx.KillShard(1);
  for (int i = 30; i < 60; ++i) {
    const Bytes data = payload(i);
    ASSERT_TRUE(
        c.Put("obj-" + std::to_string(i), ByteSpan(data.data(), data.size()))
            .ok())
        << i;
  }
  for (int i = 0; i < 10; ++i) {
    const Bytes data = payload(i + 1000);
    ASSERT_TRUE(
        c.Put("obj-" + std::to_string(i), ByteSpan(data.data(), data.size()))
            .ok())
        << i;
  }

  // Byte-identical readback of every object, old and new.
  for (int i = 0; i < 60; ++i) {
    const Bytes expect = payload(i < 10 ? i + 1000 : i);
    const auto got = c.Get("obj-" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), expect) << i;
  }

  const ClusterCounters counters = c.counters();
  EXPECT_EQ(counters.quorum_failures, 0u);
  EXPECT_GT(counters.failovers, 0u);
  EXPECT_GT(counters.shard_failures, 0u);
  EXPECT_EQ(counters.shards_ejected, 1u);
}

// Quorum ops over real daemons cost exactly R = 2 shard RPCs each while
// every shard is up (majority quorums of two replicas). A shard killed
// between read sweeps then costs failovers, not answers: zero failed
// client ops and byte-identical data on every later sweep.
TEST(ClusterFault, ReadSweepsAcrossAShardKillLoseNothing) {
  NexusdCluster fx(3);
  ClusterBackend& c = fx.cluster();
  constexpr std::uint64_t kObjects = 64;
  auto payload = [](std::uint64_t i) {
    return Bytes(48, static_cast<std::uint8_t>(i * 7 + 1));
  };
  for (std::uint64_t i = 0; i < kObjects; ++i) {
    const Bytes data = payload(i);
    ASSERT_TRUE(
        c.Put("f" + std::to_string(i), ByteSpan(data.data(), data.size()))
            .ok())
        << i;
  }
  const ClusterCounters writes = c.counters();
  EXPECT_EQ(writes.quorum_writes, kObjects);
  EXPECT_EQ(writes.shard_rpcs, 2 * kObjects);

  auto read_sweep = [&] {
    for (std::uint64_t i = 0; i < kObjects; ++i) {
      const auto got = c.Get("f" + std::to_string(i));
      ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
      EXPECT_EQ(got.value(), payload(i)) << i;
    }
  };
  read_sweep();
  const ClusterCounters healthy = c.counters() - writes;
  EXPECT_EQ(healthy.quorum_reads, kObjects);
  EXPECT_EQ(healthy.shard_rpcs, 2 * kObjects);
  EXPECT_EQ(healthy.failovers, 0u);

  fx.KillShard(1);
  for (int sweep = 0; sweep < 3; ++sweep) read_sweep();
  const ClusterCounters after = c.counters();
  EXPECT_EQ(after.quorum_failures, 0u);
  EXPECT_GT(after.failovers, 0u);
  EXPECT_EQ(after.shards_ejected, 1u);
}

// Deterministic mid-write fault schedule: one shard's transport drops
// every request frame. The quorum outcome is EXACT: every write commits
// through the two healthy shards, no ambiguity leaks to the caller, and
// the faulty shard's store stays empty.
TEST(ClusterFault, DroppedRequestsOnOneReplicaStillCommitQuorum) {
  FaultSpec spec;
  spec.drop_request = 1.0;
  NexusdCluster fx(3, spec, /*seed=*/42, /*faulty_shard=*/2);
  ClusterBackend& c = fx.cluster();

  for (int i = 0; i < 20; ++i) {
    const Bytes data{static_cast<std::uint8_t>(i), 9};
    ASSERT_TRUE(
        c.Put("d-" + std::to_string(i), ByteSpan(data.data(), data.size()))
            .ok())
        << i;
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(c.Get("d-" + std::to_string(i)).value(),
              (Bytes{static_cast<std::uint8_t>(i), 9}))
        << i;
  }
  EXPECT_GT(fx.fault_stats().dropped_requests.load(), 0u);
  // Nothing ever reached the faulty shard's store.
  EXPECT_EQ(fx.store(2).object_count(), 0u);
  EXPECT_EQ(c.counters().quorum_failures, 0u);
}

// Ambiguous outcomes (response swallowed AFTER the server applied the
// write) are safe: envelope versions make replays idempotent, so the
// quorum result is exact even when individual RPCs are ambiguous.
TEST(ClusterFault, DroppedResponsesAreIdempotentUnderRetry) {
  FaultSpec spec;
  spec.drop_response = 0.4;
  NexusdCluster fx(3, spec, /*seed=*/7, /*faulty_shard=*/0);
  ClusterBackend& c = fx.cluster();

  for (int i = 0; i < 15; ++i) {
    const Bytes data{static_cast<std::uint8_t>(i)};
    ASSERT_TRUE(
        c.Put("a-" + std::to_string(i), ByteSpan(data.data(), data.size()))
            .ok())
        << i;
  }
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(c.Get("a-" + std::to_string(i)).value(),
              Bytes{static_cast<std::uint8_t>(i)})
        << i;
  }
  EXPECT_EQ(c.counters().quorum_failures, 0u);
}

// A shard that restarts EMPTY on its old port is healed: reads repair
// the objects a quorum still holds, and a rebalance pass restores full
// replication for everything else.
TEST(ClusterFault, ShardRestartingEmptyIsHealedByRepairAndRebalance) {
  NexusdCluster fx(3);
  ClusterBackend& c = fx.cluster();

  for (int i = 0; i < 25; ++i) {
    const Bytes data{static_cast<std::uint8_t>(i), 3, 7};
    ASSERT_TRUE(
        c.Put("r-" + std::to_string(i), ByteSpan(data.data(), data.size()))
            .ok())
        << i;
  }
  fx.RestartShardEmpty(0);

  // Every object still reads correctly (quorum covers the hole)...
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(c.Get("r-" + std::to_string(i)).value(),
              (Bytes{static_cast<std::uint8_t>(i), 3, 7}))
        << i;
  }
  // ...and a rebalance pass restores R replicas everywhere.
  c.RebalanceNow();
  std::size_t total_replicas = 0;
  for (std::size_t s = 0; s < 3; ++s) {
    total_replicas += fx.store(s).object_count();
  }
  EXPECT_EQ(total_replicas, 2u * 25u);
  EXPECT_EQ(c.counters().quorum_failures, 0u);
}

// ---- streaming replicated puts under faults ---------------------------------

// Deterministic payload generator shared by the streaming fault tests so
// byte-identical readback can be checked without holding a second copy.
std::uint8_t StreamByte(std::size_t i) {
  return static_cast<std::uint8_t>((i * 1315423911u) >> 13);
}

// Kill -9 one replica while a streaming put is mid-flight: with R=3 the
// put still commits by quorum, the readback is byte-identical, and the
// killed owner's missed write drains back to it through hinted handoff —
// with zero read-repair involvement.
TEST(ClusterFault, KillReplicaMidStreamingPutCommitsQuorumAndDrainsHint) {
  ClusterOptions options = FastClusterOptions();
  options.replication = 3; // every shard owns every key
  NexusdCluster fx(3, {}, /*seed=*/1, /*faulty_shard=*/SIZE_MAX, options);
  ClusterBackend& c = fx.cluster();

  constexpr std::size_t kSegment = 64 * 1024;
  Bytes seg(kSegment);
  std::size_t off = 0;
  const auto fill = [&] {
    for (std::size_t j = 0; j < kSegment; ++j) seg[j] = StreamByte(off++);
  };

  auto stream = c.OpenPutStream("streamed").value();
  for (int i = 0; i < 4; ++i) {
    fill();
    ASSERT_TRUE(stream->Append(ByteSpan(seg.data(), seg.size())).ok()) << i;
  }
  fx.KillShard(1); // SIGKILL-equivalent: sockets die mid-stream
  for (int i = 4; i < 16; ++i) {
    fill();
    ASSERT_TRUE(stream->Append(ByteSpan(seg.data(), seg.size())).ok()) << i;
  }
  ASSERT_TRUE(stream->Commit().ok());

  const auto got = c.Get("streamed");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got.value().size(), off);
  for (std::size_t j = 0; j < off; ++j) {
    ASSERT_EQ(got.value()[j], StreamByte(j)) << j;
  }

  const ClusterCounters counters = c.counters();
  EXPECT_EQ(counters.quorum_failures, 0u);
  EXPECT_GT(counters.stream_put_replica_aborts, 0u);
  EXPECT_GT(counters.handoff_hints_recorded, 0u);

  // The killed shard restarts EMPTY on its old port; the handoff drainer
  // replays the write it slept through.
  fx.RestartShardEmpty(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(100)); // backoff
  c.DrainHandoffNow();
  EXPECT_GT(c.counters().handoff_hints_replayed, 0u);
  EXPECT_TRUE(fx.store(1).Exists("streamed"));
  EXPECT_EQ(c.counters().read_repairs, 0u);
}

// Deterministic FaultyTransport schedule swallowing responses on one
// replica — including stream Begin/Append/Commit verdicts. Every put
// still commits exactly through the two clean shards, readback stays
// byte-identical, and a drain settles any hints the ambiguity recorded
// (a commit the server applied but the client could not see dedupes as
// "owner already has this version").
TEST(ClusterFault, SwallowedStreamVerdictsStayExactAndDrainClean) {
  FaultSpec spec;
  spec.drop_response = 0.35;
  ClusterOptions options = FastClusterOptions();
  options.replication = 3;
  NexusdCluster fx(3, spec, /*seed=*/5, /*faulty_shard=*/2, options);
  ClusterBackend& c = fx.cluster();

  constexpr std::size_t kSegment = 8 * 1024;
  constexpr int kObjects = 10;
  constexpr int kSegments = 4;
  Bytes seg(kSegment);
  for (int i = 0; i < kObjects; ++i) {
    auto stream = c.OpenPutStream("s-" + std::to_string(i)).value();
    for (int k = 0; k < kSegments; ++k) {
      const std::size_t base = (i * kSegments + k) * kSegment;
      for (std::size_t j = 0; j < kSegment; ++j) {
        seg[j] = StreamByte(base + j);
      }
      ASSERT_TRUE(stream->Append(ByteSpan(seg.data(), seg.size())).ok())
          << i << "/" << k;
    }
    ASSERT_TRUE(stream->Commit().ok()) << i;
  }
  EXPECT_GT(fx.fault_stats().dropped_responses.load(), 0u);

  c.DrainHandoffNow();
  for (int i = 0; i < kObjects; ++i) {
    const auto got = c.Get("s-" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    ASSERT_EQ(got.value().size(), std::size_t{kSegments} * kSegment) << i;
    for (std::size_t j = 0; j < got.value().size(); ++j) {
      ASSERT_EQ(got.value()[j],
                StreamByte(i * kSegments * kSegment + j))
          << i << "@" << j;
    }
  }
  EXPECT_EQ(c.counters().quorum_failures, 0u);
}

// A shard store that ignores the listing cursor: every page is the same
// handoff hint (for an owner outside the ring) with more to come. The
// drainer, the rebalancer and List each pass the hint back as the cursor,
// and only the client's page check ends their loops.
class CursorBlindStore final : public storage::StorageBackend {
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
    return ListPage{{std::string(kHandoffHintPrefix) + "gone\x1fobj"}, true};
  }

 private:
  storage::MemBackend inner_;
};

TEST(ClusterFault, CursorBlindShardCannotHangListingsOrDrain) {
  storage::MemBackend a;
  storage::MemBackend b;
  CursorBlindStore blind;
  std::vector<std::unique_ptr<NexusdServer>> servers;
  std::vector<ShardSpec> specs;
  for (storage::StorageBackend* store :
       std::initializer_list<storage::StorageBackend*>{&a, &b, &blind}) {
    servers.push_back(NexusdServer::Start(*store).value());
    const std::uint16_t port = servers.back()->port();
    specs.push_back(ShardSpec{
        "127.0.0.1:" + std::to_string(port),
        [port]() -> Result<std::unique_ptr<storage::StorageBackend>> {
          return std::unique_ptr<storage::StorageBackend>(
              std::make_unique<RemoteBackend>(
                  [port]() -> Result<std::unique_ptr<Transport>> {
                    NEXUS_ASSIGN_OR_RETURN(
                        std::unique_ptr<TcpTransport> tcp,
                        TcpTransport::Dial("127.0.0.1", port, 2000, 2000));
                    return std::unique_ptr<Transport>(std::move(tcp));
                  },
                  FastClientOptions()));
        },
        /*revive=*/{}});
  }
  auto cluster =
      ClusterBackend::Create(std::move(specs), FastClusterOptions()).value();
  const Bytes data{1, 2, 3};
  ASSERT_TRUE(cluster->Put("obj", ByteSpan(data.data(), data.size())).ok());
  cluster->DrainHandoffNow();
  cluster->RebalanceNow();
  EXPECT_EQ(cluster->List(""), std::vector<std::string>{"obj"});
  const ClusterCounters counters = cluster->counters();
  // The hint's first sighting is a well-formed page, so it is dropped once.
  EXPECT_EQ(counters.handoff_hints_dropped, 1u);
  EXPECT_EQ(counters.quorum_failures, 0u);
  EXPECT_EQ(cluster->Get("obj").value(), data);
}

// ---- CI loopback smoke (env-gated) ------------------------------------------
//
// Driven by the CI "cluster smoke" step against REAL nexusd binaries:
// NEXUS_CLUSTER / NEXUS_REPLICATION select the fleet, WritePhase runs
// with all shards up, CI kills one shard, then ReadbackPhase must keep
// writing AND read every phase-1 object back byte-identical — zero
// failed client ops across the kill. Every test skips without the env.

Bytes SmokePayload(int i) {
  Bytes data;
  for (int j = 0; j < 48; ++j) {
    data.push_back(static_cast<std::uint8_t>((i * 37 + j * 11) & 0xff));
  }
  return data;
}

ClusterOptions SmokeOptions() {
  ClusterOptions options;
  options.writer_id = 29;
  options.eject_after = 2;
  options.background_rebalance = false;
  return options;
}

TEST(ClusterSmokeEnv, WritePhase) {
  if (std::getenv("NEXUS_CLUSTER") == nullptr) {
    GTEST_SKIP() << "NEXUS_CLUSTER not set";
  }
  auto cluster = ClusterBackend::Connect("", SmokeOptions(),
                                         FastClientOptions());
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ClusterBackend& c = **cluster;
  for (int i = 0; i < 40; ++i) {
    const Bytes data = SmokePayload(i);
    ASSERT_TRUE(c.Put("smoke-" + std::to_string(i),
                      ByteSpan(data.data(), data.size()))
                    .ok())
        << i;
  }
  EXPECT_EQ(c.counters().quorum_failures, 0u);
}

TEST(ClusterSmokeEnv, ReadbackPhase) {
  if (std::getenv("NEXUS_CLUSTER") == nullptr) {
    GTEST_SKIP() << "NEXUS_CLUSTER not set";
  }
  auto cluster = ClusterBackend::Connect("", SmokeOptions(),
                                         FastClientOptions());
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ClusterBackend& c = **cluster;
  // Keep writing with a shard down...
  for (int i = 40; i < 60; ++i) {
    const Bytes data = SmokePayload(i);
    ASSERT_TRUE(c.Put("smoke-" + std::to_string(i),
                      ByteSpan(data.data(), data.size()))
                    .ok())
        << i;
  }
  // ...and read EVERYTHING back byte-identical, including the phase-1
  // objects whose preference lists crossed the dead shard.
  for (int i = 0; i < 60; ++i) {
    const auto got = c.Get("smoke-" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), SmokePayload(i)) << i;
  }
  EXPECT_EQ(c.counters().quorum_failures, 0u);
}

// Streams one large object through OpenPutStream and pins the client's
// peak RSS: the put must stay O(segment + window), not O(object). CI sets
// NEXUS_SMOKE_RSS_CAP_MB as a hard cap; the byte-identical readback runs
// AFTER the RSS sample so the Get's materialization cannot mask a
// buffering regression in the put path.
TEST(ClusterSmokeEnv, StreamingPutUnderMemoryCap) {
  if (std::getenv("NEXUS_CLUSTER") == nullptr) {
    GTEST_SKIP() << "NEXUS_CLUSTER not set";
  }
  auto cluster = ClusterBackend::Connect("", SmokeOptions(),
                                         FastClientOptions());
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ClusterBackend& c = **cluster;

  constexpr std::size_t kSegment = 256 * 1024;
  constexpr std::size_t kSegments = 192; // 48 MiB object
  Bytes seg(kSegment);
  auto stream = c.OpenPutStream("smoke-large").value();
  for (std::size_t k = 0; k < kSegments; ++k) {
    for (std::size_t j = 0; j < kSegment; ++j) {
      seg[j] = StreamByte(k * kSegment + j);
    }
    ASSERT_TRUE(stream->Append(ByteSpan(seg.data(), seg.size())).ok()) << k;
  }
  ASSERT_TRUE(stream->Commit().ok());

  struct rusage ru {};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &ru), 0);
  const long peak_mb = ru.ru_maxrss / 1024; // ru_maxrss is KiB on Linux
  std::printf("streaming put peak RSS: %ld MB\n", peak_mb);
  if (const char* cap = std::getenv("NEXUS_SMOKE_RSS_CAP_MB")) {
    EXPECT_LE(peak_mb, std::atol(cap))
        << "streamed put exceeded the client memory cap";
  }

  const auto got = c.Get("smoke-large");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got.value().size(), kSegments * kSegment);
  for (std::size_t j = 0; j < got.value().size(); ++j) {
    ASSERT_EQ(got.value()[j], StreamByte(j)) << j;
  }
  EXPECT_EQ(c.counters().quorum_failures, 0u);
}

// Runs after CI restarts the killed shard: drains the handoff hints the
// ReadbackPhase writes parked on the survivors. The follow-up
// `nexus-stat --cluster` grep for "handoff hints pending: 0" proves the
// fleet is hint-free afterwards.
TEST(ClusterSmokeEnv, HandoffDrainPhase) {
  if (std::getenv("NEXUS_CLUSTER") == nullptr) {
    GTEST_SKIP() << "NEXUS_CLUSTER not set";
  }
  auto cluster = ClusterBackend::Connect("", SmokeOptions(),
                                         FastClientOptions());
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ClusterBackend& c = **cluster;
  c.DrainHandoffNow();
  const ClusterCounters counters = c.counters();
  // The kill window covered writes whose owner sets include the dead
  // shard, so there must have been hints to settle (replayed to the
  // returned owner, or dropped as superseded).
  EXPECT_GT(counters.handoff_hints_replayed + counters.handoff_hints_dropped,
            0u);
  // Everything still reads back byte-identical after the drain.
  for (int i = 0; i < 60; ++i) {
    const auto got = c.Get("smoke-" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), SmokePayload(i)) << i;
  }
  EXPECT_EQ(c.counters().quorum_failures, 0u);
}

// Runs after HandoffDrainPhase: one whole-circle rebalance pass. The
// reborn shard lost every pre-kill object and hints covered only the
// outage's writes, so the pass has owner replicas to restore. Afterwards
// every smoke object sits on exactly NEXUS_REPLICATION shards — dialed
// directly, bypassing the quorum — each holding the written payload.
TEST(ClusterSmokeEnv, ConvergePhase) {
  if (std::getenv("NEXUS_CLUSTER") == nullptr) {
    GTEST_SKIP() << "NEXUS_CLUSTER not set";
  }
  auto cluster = ClusterBackend::Connect("", SmokeOptions(),
                                         FastClientOptions());
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ClusterBackend& c = **cluster;
  c.RebalanceNow();
  EXPECT_GT(c.counters().rebalance_objects_moved, 0u);
  EXPECT_EQ(c.counters().quorum_failures, 0u);

  std::vector<std::unique_ptr<RemoteBackend>> shards;
  for (const std::string& endpoint :
       ParseEndpointList(std::getenv("NEXUS_CLUSTER"))) {
    std::string host;
    std::uint16_t port = 0;
    ASSERT_TRUE(SplitHostPort(endpoint, &host, &port)) << endpoint;
    shards.push_back(std::make_unique<RemoteBackend>(
        [host, port]() -> Result<std::unique_ptr<Transport>> {
          NEXUS_ASSIGN_OR_RETURN(std::unique_ptr<TcpTransport> t,
                                 TcpTransport::Dial(host, port, 2000, 10000));
          return std::unique_ptr<Transport>(std::move(t));
        },
        FastClientOptions()));
  }
  for (int i = 0; i < 60; ++i) {
    const std::string name = "smoke-" + std::to_string(i);
    std::vector<Bytes> copies;
    for (const auto& shard : shards) {
      Result<Bytes> raw = shard->Get(name);
      if (!raw.ok()) {
        ASSERT_EQ(raw.status().code(), ErrorCode::kNotFound)
            << name << ": " << raw.status().ToString();
        continue;
      }
      copies.push_back(std::move(raw).value());
      const Bytes& copy = copies.back();
      EXPECT_EQ(copy, copies.front()) << name; // same envelope everywhere
      const Result<Envelope> env =
          DecodeEnvelope(ByteSpan(copy.data(), copy.size()));
      ASSERT_TRUE(env.ok()) << name;
      EXPECT_FALSE(env.value().tombstone) << name;
      EXPECT_EQ(env.value().payload, SmokePayload(i)) << name;
    }
    EXPECT_EQ(copies.size(), c.replication()) << name;
  }
}

} // namespace
} // namespace nexus::cluster
