// ClusterBackend unit + convergence tests over in-memory shards: ring
// placement, envelope codec, quorum reads/writes with sloppy-quorum
// failover, tombstone deletes, health ejection/reinstatement, read-repair
// and rebalancing — including a rebalance-under-concurrent-writes soak.
// Every shard is a MemBackend behind a deterministic kill switch, so no
// sockets and no real clocks are involved.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "cluster/cluster_backend.hpp"
#include "cluster/ring.hpp"
#include "storage/backend.hpp"

namespace nexus::cluster {
namespace {

// The names a shard was asked to read (whole or head), in call order.
struct GetLog {
  std::mutex mu;
  std::vector<std::string> names;
};

// How many operations reached a shard: all of them, and some kinds apart.
// `data_gets` are whole reads of data names (the listing's liveness probe
// reads a control name and is not counted); `heads` are head reads.
struct ShardCalls {
  std::atomic<std::uint64_t> all{0};
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::uint64_t> stream_opens{0};
  std::atomic<std::uint64_t> data_gets{0};
  std::atomic<std::uint64_t> heads{0};
};

// A MemBackend behind a kill switch: while down, every operation fails
// like a dead TCP peer (kIOError / empty), which is exactly what the
// cluster's health tracker keys on.
class SwitchableBackend final : public storage::StorageBackend {
 public:
  SwitchableBackend(std::shared_ptr<storage::MemBackend> inner,
                    std::shared_ptr<std::atomic<bool>> down,
                    std::shared_ptr<ShardCalls> calls,
                    std::shared_ptr<GetLog> gets)
      : inner_(std::move(inner)), down_(std::move(down)),
        calls_(std::move(calls)), gets_(std::move(gets)) {}

  Result<Bytes> Get(const std::string& name) override {
    calls_->all.fetch_add(1);
    if (name.empty() || name.front() != '\x01') calls_->data_gets.fetch_add(1);
    LogRead(name);
    if (down_->load()) return Error(ErrorCode::kIOError, "shard down");
    return inner_->Get(name);
  }
  Result<Head> GetHead(const std::string& name,
                       std::size_t max_bytes) override {
    calls_->all.fetch_add(1);
    calls_->heads.fetch_add(1);
    LogRead(name);
    if (down_->load()) return Error(ErrorCode::kIOError, "shard down");
    return inner_->GetHead(name, max_bytes);
  }
  Status Put(const std::string& name, ByteSpan data) override {
    calls_->all.fetch_add(1);
    calls_->puts.fetch_add(1);
    if (down_->load()) return Error(ErrorCode::kIOError, "shard down");
    return inner_->Put(name, data);
  }
  Status Delete(const std::string& name) override {
    calls_->all.fetch_add(1);
    if (down_->load()) return Error(ErrorCode::kIOError, "shard down");
    return inner_->Delete(name);
  }
  bool Exists(const std::string& name) override {
    calls_->all.fetch_add(1);
    if (down_->load()) return false;
    return inner_->Exists(name);
  }
  std::vector<std::string> List(const std::string& prefix) override {
    calls_->all.fetch_add(1);
    if (down_->load()) return {};
    return inner_->List(prefix);
  }
  Result<std::unique_ptr<PutStream>> OpenPutStream(
      const std::string& name) override {
    // Fail at OPEN when down, like a dead TCP peer refusing the dial —
    // the streaming cluster put keys its slide-past on exactly that.
    calls_->all.fetch_add(1);
    calls_->stream_opens.fetch_add(1);
    if (down_->load()) return Error(ErrorCode::kIOError, "shard down");
    return inner_->OpenPutStream(name);
  }

 private:
  void LogRead(const std::string& name) {
    const std::lock_guard<std::mutex> lock(gets_->mu);
    gets_->names.push_back(name);
  }

  std::shared_ptr<storage::MemBackend> inner_;
  std::shared_ptr<std::atomic<bool>> down_;
  std::shared_ptr<ShardCalls> calls_;
  std::shared_ptr<GetLog> gets_;
};

// One shard's test-side handles.
struct TestShard {
  std::string id;
  std::shared_ptr<storage::MemBackend> mem =
      std::make_shared<storage::MemBackend>();
  std::shared_ptr<std::atomic<bool>> down =
      std::make_shared<std::atomic<bool>>(false);
  std::shared_ptr<ShardCalls> calls = std::make_shared<ShardCalls>();
  std::shared_ptr<GetLog> gets = std::make_shared<GetLog>();

  ShardSpec spec() const {
    return ShardSpec{
        id,
        [mem = mem, down = down, calls = calls, gets = gets]()
            -> Result<std::unique_ptr<storage::StorageBackend>> {
          return std::unique_ptr<storage::StorageBackend>(
              std::make_unique<SwitchableBackend>(mem, down, calls, gets));
        },
        /*revive=*/{}};
  }

  /// Data names read since the last call (control-plane
  /// names such as the listing liveness probe are skipped); clears the log.
  std::vector<std::string> TakeDataGets() {
    const std::lock_guard<std::mutex> lock(gets->mu);
    std::vector<std::string> out;
    for (const std::string& name : gets->names) {
      if (name.empty() || name.front() != '\x01') out.push_back(name);
    }
    gets->names.clear();
    return out;
  }
};

// The keys among `keys` whose R=2 owner set differs between two rings.
std::set<std::string> KeysWithNewOwners(const HashRing& before,
                                        const HashRing& after,
                                        const std::vector<std::string>& keys) {
  std::set<std::string> moved;
  for (const std::string& name : keys) {
    const auto b = before.Successors(name, 2);
    const auto a = after.Successors(name, 2);
    if (std::set<std::string>(b.begin(), b.end()) !=
        std::set<std::string>(a.begin(), a.end())) {
      moved.insert(name);
    }
  }
  return moved;
}

class ClusterFixture {
 public:
  explicit ClusterFixture(std::size_t n, ClusterOptions options = {}) {
    for (std::size_t i = 0; i < n; ++i) {
      TestShard shard;
      shard.id = "shard-" + std::to_string(i);
      shards_.push_back(std::move(shard));
    }
    std::vector<ShardSpec> specs;
    for (const TestShard& s : shards_) specs.push_back(s.spec());
    if (options.replication == 0) options.replication = 2;
    if (options.writer_id == 0) options.writer_id = 7;
    if (!options.now_ms) {
      options.now_ms = [this] { return clock_.load(); }; // deterministic
    }
    options.background_rebalance = false; // tests drive RebalanceNow()
    cluster_ = ClusterBackend::Create(std::move(specs), options).value();
  }

  ClusterBackend& cluster() { return *cluster_; }
  TestShard& shard(std::size_t i) { return shards_[i]; }
  std::size_t size() const { return shards_.size(); }
  void AdvanceClock(std::uint64_t ms) { clock_.fetch_add(ms); }

  /// How many shards' stores hold `name` (as a raw envelope object).
  std::size_t ReplicaCount(const std::string& name) {
    std::size_t n = 0;
    for (TestShard& s : shards_) {
      if (s.mem->Exists(name)) ++n;
    }
    return n;
  }

  /// One ShardCalls field summed over every shard.
  std::uint64_t TotalCalls(std::atomic<std::uint64_t> ShardCalls::*field) {
    std::uint64_t n = 0;
    for (TestShard& s : shards_) n += ((*s.calls).*field).load();
    return n;
  }

  /// Decodes shard i's replica of `name` (must exist and decode).
  Envelope ReplicaEnvelope(std::size_t i, const std::string& name) {
    const Bytes raw = shards_[i].mem->Get(name).value();
    return DecodeEnvelope(ByteSpan(raw.data(), raw.size())).value();
  }

 private:
  std::vector<TestShard> shards_;
  std::atomic<std::uint64_t> clock_{1'000'000};
  std::unique_ptr<ClusterBackend> cluster_;
};

// ---- ring -------------------------------------------------------------------

TEST(HashRingTest, SpreadsKeysAcrossNodes) {
  HashRing ring(64);
  for (int i = 0; i < 4; ++i) ring.AddNode("node-" + std::to_string(i));
  std::map<std::string, int> owned;
  for (int k = 0; k < 1000; ++k) {
    ++owned[ring.Owner("key-" + std::to_string(k))];
  }
  ASSERT_EQ(owned.size(), 4u); // every node owns something
  for (const auto& [node, count] : owned) {
    // With 64 vnodes the split stays within a loose band of fair share.
    EXPECT_GT(count, 50) << node;
    EXPECT_LT(count, 600) << node;
  }
}

TEST(HashRingTest, MembershipChangeOnlyMovesTheLeavingNodesKeys) {
  HashRing ring(64);
  for (int i = 0; i < 4; ++i) ring.AddNode("node-" + std::to_string(i));
  std::map<std::string, std::string> before;
  for (int k = 0; k < 500; ++k) {
    const std::string key = "key-" + std::to_string(k);
    before[key] = ring.Owner(key);
  }
  ring.RemoveNode("node-2");
  for (const auto& [key, owner] : before) {
    if (owner == "node-2") continue;
    EXPECT_EQ(ring.Owner(key), owner) << key; // placement is stable
  }
  // And adding it back restores the original placement exactly.
  ring.AddNode("node-2");
  for (const auto& [key, owner] : before) {
    EXPECT_EQ(ring.Owner(key), owner) << key;
  }
}

TEST(HashRingTest, SuccessorsAreDistinctAndOrdered) {
  HashRing ring(32);
  ring.AddNode("a");
  ring.AddNode("b");
  ring.AddNode("c");
  const auto succ = ring.Successors("some-object", 3);
  ASSERT_EQ(succ.size(), 3u);
  EXPECT_EQ(std::set<std::string>(succ.begin(), succ.end()).size(), 3u);
  // Asking for more than the ring holds caps at the node count.
  EXPECT_EQ(ring.Successors("some-object", 10).size(), 3u);
  EXPECT_EQ(succ.front(), ring.Owner("some-object"));
}

TEST(HashRingTest, DiffRingsPinsExactlyTheKeysWhoseOwnersChanged) {
  HashRing before(32);
  for (int i = 0; i < 4; ++i) before.AddNode("node-" + std::to_string(i));
  HashRing after = before;
  after.AddNode("node-new");

  // An identical ring moves nothing.
  EXPECT_TRUE(DiffRings(before, before, 2).empty());

  const std::vector<MovedArc> moved = DiffRings(before, after, 2);
  ASSERT_FALSE(moved.empty());
  for (const MovedArc& arc : moved) {
    EXPECT_NE(std::set<std::string>(arc.from.begin(), arc.from.end()),
              std::set<std::string>(arc.to.begin(), arc.to.end()));
  }

  // The arcs are a precise characterization: a key's hash point lands in
  // some moved arc if and only if its owner SET changed.
  const auto contains = [](const MovedArc& arc, std::uint64_t p) {
    if (arc.begin == arc.end) return true; // full circle
    if (arc.begin < arc.end) return p > arc.begin && p <= arc.end;
    return p > arc.begin || p <= arc.end; // wraps through zero
  };
  for (int k = 0; k < 400; ++k) {
    const std::string key = "key-" + std::to_string(k);
    const std::uint64_t point = HashRing::HashPoint(key);
    bool in_arc = false;
    for (const MovedArc& arc : moved) {
      if (contains(arc, point)) in_arc = true;
    }
    const auto b = before.Successors(key, 2);
    const auto a = after.Successors(key, 2);
    const bool changed = std::set<std::string>(b.begin(), b.end()) !=
                         std::set<std::string>(a.begin(), a.end());
    EXPECT_EQ(in_arc, changed) << key;
  }
}

// ---- envelope ---------------------------------------------------------------

TEST(EnvelopeTest, RoundTripsAndOrders) {
  Envelope env;
  env.version = 42;
  env.writer = 9;
  env.payload = Bytes{1, 2, 3};
  const Bytes wire = EncodeEnvelope(env);
  const Envelope back = DecodeEnvelope(ByteSpan(wire.data(), wire.size())).value();
  EXPECT_FALSE(back.tombstone);
  EXPECT_EQ(back.version, 42u);
  EXPECT_EQ(back.writer, 9u);
  EXPECT_EQ(back.payload, env.payload);

  Envelope tomb;
  tomb.tombstone = true;
  tomb.version = 43;
  const Bytes twire = EncodeEnvelope(tomb);
  EXPECT_TRUE(DecodeEnvelope(ByteSpan(twire.data(), twire.size()))
                  .value()
                  .tombstone);

  // (version, writer) lexicographic order.
  Envelope a, b;
  a.version = 5;
  b.version = 4;
  EXPECT_TRUE(EnvelopeNewer(a, b));
  b.version = 5;
  a.writer = 2;
  b.writer = 1;
  EXPECT_TRUE(EnvelopeNewer(a, b));
  EXPECT_FALSE(EnvelopeNewer(b, a));
  b.writer = 2;
  EXPECT_FALSE(EnvelopeNewer(a, b)); // equal is not newer
}

TEST(EnvelopeTest, StreamHeaderPlusRawPayloadDecodes) {
  // The streaming put emits the envelope header BEFORE the payload length
  // is known: header + raw payload bytes must decode like the buffered
  // encoding.
  Envelope env;
  env.version = 77;
  env.writer = 9;
  env.payload = Bytes{10, 20, 30, 40, 50};
  Bytes wire = EncodeEnvelopeStreamHeader(env);
  const std::size_t header_size = wire.size();
  wire.insert(wire.end(), env.payload.begin(), env.payload.end());
  const Envelope back =
      DecodeEnvelope(ByteSpan(wire.data(), wire.size())).value();
  EXPECT_FALSE(back.tombstone);
  EXPECT_EQ(back.version, 77u);
  EXPECT_EQ(back.writer, 9u);
  EXPECT_EQ(back.payload, env.payload);

  // A header with nothing after it is a valid zero-byte object.
  const Bytes bare(wire.begin(), wire.begin() + header_size);
  EXPECT_TRUE(DecodeEnvelope(ByteSpan(bare.data(), bare.size()))
                  .value()
                  .payload.empty());
}

// A head decode needs only the first kEnvelopeHeadBytes and the object's
// size, and accepts exactly the objects the whole decode accepts.
TEST(EnvelopeTest, HeadDecodesExactlyWhenTheWholeDoes) {
  Envelope env;
  env.version = 42;
  env.writer = 9;
  env.payload = Bytes(100, 0x33);
  const Bytes plain = EncodeEnvelope(env);
  Envelope tomb;
  tomb.tombstone = true;
  tomb.version = 43;
  Bytes streamed = EncodeEnvelopeStreamHeader(env);
  streamed.insert(streamed.end(), env.payload.begin(), env.payload.end());
  const Bytes bare_stream = EncodeEnvelopeStreamHeader(env);

  std::vector<Bytes> cases = {plain, EncodeEnvelope(Envelope{}),
                              EncodeEnvelope(tomb), streamed, bare_stream,
                              Bytes{}, Bytes{1, 2, 3, 4, 5, 6, 7, 8}};
  Bytes trailing = plain;
  trailing.push_back(0);
  cases.push_back(trailing);
  cases.push_back(Bytes(plain.begin(), plain.end() - 1)); // truncated
  cases.push_back(Bytes(plain.begin(), plain.begin() + 24)); // short head
  Bytes bad_magic = plain;
  bad_magic[0] ^= 0xff;
  cases.push_back(bad_magic);
  Bytes bad_flags = plain;
  bad_flags[4] = 0x80;
  cases.push_back(bad_flags);

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Bytes& whole = cases[i];
    const std::size_t n = std::min(whole.size(), kEnvelopeHeadBytes);
    const auto full = DecodeEnvelope(ByteSpan(whole.data(), whole.size()));
    const auto head = DecodeEnvelopeHead(ByteSpan(whole.data(), n),
                                         whole.size());
    ASSERT_EQ(head.ok(), full.ok()) << "case " << i;
    if (!full.ok()) continue;
    const Envelope& got = head.value().envelope;
    EXPECT_EQ(got.tombstone, full.value().tombstone) << "case " << i;
    EXPECT_EQ(got.version, full.value().version) << "case " << i;
    EXPECT_EQ(got.writer, full.value().writer) << "case " << i;
    EXPECT_EQ(head.value().payload_size, full.value().payload.size())
        << "case " << i;
    // The head keeps the payload bytes its prefix reached, no more.
    ASSERT_LE(got.payload.size(), full.value().payload.size()) << "case " << i;
    EXPECT_TRUE(std::equal(got.payload.begin(), got.payload.end(),
                           full.value().payload.begin()))
        << "case " << i;
  }

  // A length past kMaxObjectBytes is refused even when the size agrees.
  Bytes huge(plain.begin(), plain.begin() + kEnvelopeHeadBytes);
  for (std::size_t b = 21; b < 25; ++b) huge[b] = 0xff;
  EXPECT_FALSE(
      DecodeEnvelopeHead(ByteSpan(huge.data(), huge.size()),
                         kEnvelopeHeadBytes + std::uint64_t{0xffffffff})
          .ok());
}

TEST(EnvelopeTest, RejectsGarbage) {
  EXPECT_FALSE(DecodeEnvelope(ByteSpan()).ok());
  const Bytes junk{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_FALSE(DecodeEnvelope(ByteSpan(junk.data(), junk.size())).ok());
  Envelope env;
  env.payload = Bytes{1};
  Bytes wire = EncodeEnvelope(env);
  wire.push_back(0); // trailing byte
  EXPECT_FALSE(DecodeEnvelope(ByteSpan(wire.data(), wire.size())).ok());
}

// ---- quorum backend contract ------------------------------------------------

TEST(ClusterBackendTest, StorageContractOverThreeShards) {
  ClusterFixture fx(3);
  ClusterBackend& c = fx.cluster();
  EXPECT_EQ(c.replication(), 2u);
  EXPECT_EQ(c.write_quorum(), 2u);
  EXPECT_EQ(c.read_quorum(), 2u);

  EXPECT_EQ(c.Get("missing").status().code(), ErrorCode::kNotFound);
  EXPECT_TRUE(c.Delete("missing").ok());
  EXPECT_FALSE(c.Exists("missing"));

  const Bytes data{10, 20, 30};
  ASSERT_TRUE(c.Put("obj", ByteSpan(data.data(), data.size())).ok());
  EXPECT_EQ(c.Get("obj").value(), data);
  EXPECT_TRUE(c.Exists("obj"));
  EXPECT_EQ(fx.ReplicaCount("obj"), 2u); // exactly R replicas placed

  // Overwrite wins.
  const Bytes data2{99};
  ASSERT_TRUE(c.Put("obj", ByteSpan(data2.data(), data2.size())).ok());
  EXPECT_EQ(c.Get("obj").value(), data2);

  // Streamed put commits through the same quorum path.
  auto stream = c.OpenPutStream("streamed").value();
  ASSERT_TRUE(stream->Append(ByteSpan(data.data(), data.size())).ok());
  ASSERT_TRUE(stream->Append(ByteSpan(data2.data(), data2.size())).ok());
  ASSERT_TRUE(stream->Commit().ok());
  EXPECT_EQ(c.Get("streamed").value(), Concat(data, data2));

  // List sees both, sorted, and respects prefixes.
  const auto all = c.List("");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], "obj");
  EXPECT_EQ(all[1], "streamed");
  EXPECT_TRUE(c.List("zzz").empty());

  // Delete is a quorum tombstone: gone from every read surface even
  // though shard stores still hold the marker.
  ASSERT_TRUE(c.Delete("obj").ok());
  EXPECT_EQ(c.Get("obj").status().code(), ErrorCode::kNotFound);
  EXPECT_FALSE(c.Exists("obj"));
  EXPECT_EQ(c.List("").size(), 1u);
  EXPECT_TRUE(c.Delete("obj").ok()); // idempotent
  EXPECT_GE(fx.ReplicaCount("obj"), 2u); // tombstone is replicated

  const ClusterCounters counters = c.counters();
  EXPECT_GT(counters.quorum_writes, 0u);
  EXPECT_GT(counters.quorum_reads, 0u);
  EXPECT_GT(counters.tombstones_written, 0u);
  EXPECT_EQ(counters.quorum_failures, 0u);
}

// ---- sloppy quorum / failover ----------------------------------------------

TEST(ClusterBackendTest, WritesSurviveOneDeadShard) {
  ClusterFixture fx(3);
  ClusterBackend& c = fx.cluster();
  fx.shard(1).down->store(true);

  // Every write must commit: owners that include the dead shard slide
  // down to the third successor (sloppy quorum).
  for (int i = 0; i < 40; ++i) {
    const Bytes data{static_cast<std::uint8_t>(i), 7};
    ASSERT_TRUE(
        c.Put("key-" + std::to_string(i), ByteSpan(data.data(), data.size()))
            .ok())
        << i;
  }
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(c.Get("key-" + std::to_string(i)).value(),
              (Bytes{static_cast<std::uint8_t>(i), 7}))
        << i;
  }
  const ClusterCounters counters = c.counters();
  EXPECT_EQ(counters.quorum_failures, 0u);
  EXPECT_GT(counters.failovers, 0u); // some keys' owner sets hit shard-1
  EXPECT_GT(counters.shard_failures, 0u);
}

TEST(ClusterBackendTest, QuorumFailureWhenTooManyShardsDead) {
  ClusterOptions options;
  options.eject_after = 1000000; // keep shards un-ejected: pure quorum math
  ClusterFixture fx(3, options);
  ClusterBackend& c = fx.cluster();
  fx.shard(0).down->store(true);
  fx.shard(1).down->store(true);
  fx.shard(2).down->store(true);

  const Bytes data{1};
  const Status put = c.Put("k", ByteSpan(data.data(), data.size()));
  EXPECT_FALSE(put.ok());
  EXPECT_EQ(put.code(), ErrorCode::kIOError);
  EXPECT_EQ(c.Get("k").status().code(), ErrorCode::kIOError);
  EXPECT_GE(c.counters().quorum_failures, 2u);
}

// ---- health -----------------------------------------------------------------

TEST(ClusterBackendTest, EjectionAndBackoffGatedReinstatement) {
  ClusterOptions options;
  options.replication = 1;
  options.eject_after = 3;
  options.reinstate_backoff_base_ms = 100;
  ClusterFixture fx(1, options);
  ClusterBackend& c = fx.cluster();
  fx.shard(0).down->store(true);

  const Bytes data{1};
  // Three failed ops trip the ejection threshold.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(c.Put("k", ByteSpan(data.data(), data.size())).ok());
  }
  auto health = c.Health();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_TRUE(health[0].ejected);
  EXPECT_EQ(c.counters().shards_ejected, 1u);

  // While ejected and inside the backoff window, ops fail WITHOUT
  // touching the shard at all.
  const std::uint64_t calls_before = fx.shard(0).calls->all.load();
  EXPECT_FALSE(c.Put("k", ByteSpan(data.data(), data.size())).ok());
  EXPECT_EQ(fx.shard(0).calls->all.load(), calls_before);

  // A failed probe after the backoff expires doubles the wait.
  fx.AdvanceClock(150);
  EXPECT_FALSE(c.Put("k", ByteSpan(data.data(), data.size())).ok());
  fx.AdvanceClock(150); // 100 * 2^1 = 200ms still pending
  const std::uint64_t calls_mid = fx.shard(0).calls->all.load();
  EXPECT_FALSE(c.Put("k", ByteSpan(data.data(), data.size())).ok());
  EXPECT_EQ(fx.shard(0).calls->all.load(), calls_mid); // gated, no probe

  // Shard recovers; once the backoff expires one probe reinstates it.
  fx.shard(0).down->store(false);
  fx.AdvanceClock(10'000);
  EXPECT_TRUE(c.Put("k", ByteSpan(data.data(), data.size())).ok());
  health = c.Health();
  EXPECT_FALSE(health[0].ejected);
  EXPECT_EQ(c.counters().shards_reinstated, 1u);
  EXPECT_EQ(c.Get("k").value(), data);
}

// ---- read repair ------------------------------------------------------------

TEST(ClusterBackendTest, ReadRepairConvergesAStaleReplica) {
  ClusterFixture fx(3);
  ClusterBackend& c = fx.cluster();

  const Bytes v1{1};
  ASSERT_TRUE(c.Put("obj", ByteSpan(v1.data(), v1.size())).ok());

  // Find one shard holding the replica and wipe it behind the cluster's
  // back (a restarted-empty shard).
  std::size_t victim = fx.size();
  for (std::size_t i = 0; i < fx.size(); ++i) {
    if (fx.shard(i).mem->Exists("obj")) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, fx.size());
  ASSERT_TRUE(fx.shard(victim).mem->Delete("obj").ok());
  ASSERT_EQ(fx.ReplicaCount("obj"), 1u);

  // The quorum read sees the divergence and repairs it in place.
  EXPECT_EQ(c.Get("obj").value(), v1);
  EXPECT_EQ(fx.ReplicaCount("obj"), 2u);
  EXPECT_GT(c.counters().read_repairs, 0u);
  EXPECT_EQ(fx.ReplicaEnvelope(victim, "obj").payload, v1);

  // Repair copies the envelope VERBATIM: same version on both replicas.
  std::vector<Envelope> envs;
  for (std::size_t i = 0; i < fx.size(); ++i) {
    if (fx.shard(i).mem->Exists("obj")) {
      envs.push_back(fx.ReplicaEnvelope(i, "obj"));
    }
  }
  ASSERT_EQ(envs.size(), 2u);
  EXPECT_EQ(envs[0].version, envs[1].version);
  EXPECT_EQ(envs[0].writer, envs[1].writer);
}

// An owner whose store answers with junk bytes (an untrusted shard, or a
// torn disk) counts as an answer with no envelope on every path: the
// read is served from the good replica, and both read-repair and the
// whole-circle rebalance pass overwrite the damage.
TEST(ClusterBackendTest, CorruptReplicaIsOverwrittenByRepairAndRebalance) {
  ClusterFixture fx(3);
  ClusterBackend& c = fx.cluster();
  const Bytes v1{4, 5, 6};
  ASSERT_TRUE(c.Put("obj", ByteSpan(v1.data(), v1.size())).ok());
  std::size_t victim = fx.size();
  for (std::size_t i = 0; i < fx.size(); ++i) {
    if (fx.shard(i).mem->Exists("obj")) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, fx.size());
  const Bytes junk{0xde, 0xad, 0xbe, 0xef, 0, 1, 2, 3};

  // (a) Read-repair.
  ASSERT_TRUE(
      fx.shard(victim).mem->Put("obj", ByteSpan(junk.data(), junk.size())).ok());
  EXPECT_EQ(c.Get("obj").value(), v1);
  EXPECT_EQ(c.counters().read_repairs, 1u);
  EXPECT_EQ(fx.ReplicaEnvelope(victim, "obj").payload, v1);

  // (b) The whole-circle rebalance pass.
  ASSERT_TRUE(
      fx.shard(victim).mem->Put("obj", ByteSpan(junk.data(), junk.size())).ok());
  c.RebalanceNow();
  EXPECT_EQ(c.counters().rebalance_objects_moved, 1u);
  EXPECT_EQ(fx.ReplicaEnvelope(victim, "obj").payload, v1);
  EXPECT_EQ(fx.ReplicaCount("obj"), 2u);
  EXPECT_EQ(c.counters().read_repairs, 1u);
}

// ---- rebalancing ------------------------------------------------------------

// With nothing queued, RebalanceNow() walks the whole circle: a shard
// wiped behind the cluster's back gets back every object it owns without
// a single client read. The shard-RPC count pins the pass's cost — one
// listing per shard, one replica read per name per shard, one copy per
// missing owner replica.
TEST(ClusterBackendTest, WholeCirclePassHealsAWipedShardWithoutReads) {
  ClusterFixture fx(3);
  ClusterBackend& c = fx.cluster();
  constexpr int kKeys = 40;
  for (int i = 0; i < kKeys; ++i) {
    const Bytes data{static_cast<std::uint8_t>(i), 9};
    ASSERT_TRUE(
        c.Put("w" + std::to_string(i), ByteSpan(data.data(), data.size()))
            .ok());
  }
  HashRing ring(64);
  for (int s = 0; s < 3; ++s) ring.AddNode("shard-" + std::to_string(s));
  std::size_t owned_by_wiped = 0;
  for (int i = 0; i < kKeys; ++i) {
    const auto owners = ring.Successors("w" + std::to_string(i), 2);
    if (std::find(owners.begin(), owners.end(), "shard-0") != owners.end()) {
      ++owned_by_wiped;
    }
  }
  ASSERT_GT(owned_by_wiped, 0u);
  for (const std::string& name : fx.shard(0).mem->List("")) {
    ASSERT_TRUE(fx.shard(0).mem->Delete(name).ok());
  }

  const ClusterCounters before = c.counters();
  c.RebalanceNow();
  const ClusterCounters pass = c.counters() - before;

  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(fx.ReplicaCount("w" + std::to_string(i)), 2u) << i;
  }
  EXPECT_EQ(pass.rebalance_passes, 1u);
  EXPECT_EQ(pass.rebalance_objects_scanned, std::uint64_t{kKeys});
  EXPECT_EQ(pass.rebalance_objects_moved, owned_by_wiped);
  EXPECT_EQ(pass.rebalance_objects_purged, 0u);
  EXPECT_EQ(pass.shard_rpcs, 3u + 3u * kKeys + owned_by_wiped);
  EXPECT_EQ(c.counters().read_repairs, 0u);
  EXPECT_EQ(c.counters().quorum_reads, 0u);
}

TEST(ClusterBackendTest, AddShardMigratesItsArcsAndPurgesNonOwners) {
  ClusterFixture fx(2);
  ClusterBackend& c = fx.cluster();
  for (int i = 0; i < 30; ++i) {
    const Bytes data{static_cast<std::uint8_t>(i)};
    ASSERT_TRUE(
        c.Put("k" + std::to_string(i), ByteSpan(data.data(), data.size()))
            .ok());
  }
  // With 2 shards and R=2 every object lives on both.
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(fx.ReplicaCount("k" + std::to_string(i)), 2u);
  }

  // Mirror ring: the keys whose owner set the new shard changes.
  HashRing before(64);
  for (int s = 0; s < 2; ++s) before.AddNode("shard-" + std::to_string(s));
  HashRing after = before;
  after.AddNode("shard-extra");
  std::vector<std::string> keys;
  for (int i = 0; i < 30; ++i) keys.push_back("k" + std::to_string(i));
  const std::set<std::string> moved = KeysWithNewOwners(before, after, keys);

  TestShard extra;
  extra.id = "shard-extra";
  ASSERT_TRUE(c.AddShard(extra.spec()).ok());
  for (std::size_t s = 0; s < fx.size(); ++s) fx.shard(s).TakeDataGets();
  c.RebalanceNow();

  // A membership change runs an arc-bounded pass, not a scan of every
  // object: each replica read it issued names a key in a moved arc.
  std::vector<std::string> pass_gets = extra.TakeDataGets();
  for (std::size_t s = 0; s < fx.size(); ++s) {
    for (const std::string& name : fx.shard(s).TakeDataGets()) {
      pass_gets.push_back(name);
    }
  }
  EXPECT_FALSE(pass_gets.empty());
  for (const std::string& name : pass_gets) {
    EXPECT_TRUE(moved.contains(name)) << name;
  }

  // Every object still reads back, still has exactly R replicas, and the
  // new shard took over some arcs.
  std::size_t on_extra = 0;
  for (int i = 0; i < 30; ++i) {
    const std::string name = "k" + std::to_string(i);
    EXPECT_EQ(c.Get(name).value(), Bytes{static_cast<std::uint8_t>(i)}) << i;
    std::size_t replicas = extra.mem->Exists(name) ? 1 : 0;
    replicas += fx.ReplicaCount(name);
    EXPECT_EQ(replicas, 2u) << name;
    if (extra.mem->Exists(name)) ++on_extra;
  }
  EXPECT_GT(on_extra, 0u);
  const ClusterCounters counters = c.counters();
  EXPECT_GT(counters.rebalance_objects_moved, 0u);
  EXPECT_GT(counters.rebalance_objects_purged, 0u);
  EXPECT_EQ(counters.rebalance_passes, 1u);
}

TEST(ClusterBackendTest, RemoveShardRestoresReplicationElsewhere) {
  ClusterFixture fx(3);
  ClusterBackend& c = fx.cluster();
  for (int i = 0; i < 30; ++i) {
    const Bytes data{static_cast<std::uint8_t>(i), 5};
    ASSERT_TRUE(
        c.Put("k" + std::to_string(i), ByteSpan(data.data(), data.size()))
            .ok());
  }
  ASSERT_TRUE(c.RemoveShard("shard-2").ok());
  c.RebalanceNow();
  for (int i = 0; i < 30; ++i) {
    const std::string name = "k" + std::to_string(i);
    EXPECT_EQ(c.Get(name).value(),
              (Bytes{static_cast<std::uint8_t>(i), 5}))
        << i;
    // Both surviving shards hold every object now (R=2 over 2 shards).
    EXPECT_TRUE(fx.shard(0).mem->Exists(name)) << name;
    EXPECT_TRUE(fx.shard(1).mem->Exists(name)) << name;
  }
  EXPECT_FALSE(c.RemoveShard("shard-2").ok()); // already gone
}

// ---- streaming replicated puts ---------------------------------------------

TEST(ClusterBackendTest, StreamingPutReplicatesAndBoundsClientBuffering) {
  ClusterFixture fx(3);
  ClusterBackend& c = fx.cluster();

  auto stream = c.OpenPutStream("big").value();
  Bytes expect;
  for (int seg = 0; seg < 16; ++seg) {
    const Bytes chunk(4096, static_cast<std::uint8_t>(seg));
    ASSERT_TRUE(stream->Append(ByteSpan(chunk.data(), chunk.size())).ok())
        << seg;
    expect.insert(expect.end(), chunk.begin(), chunk.end());
  }
  ASSERT_TRUE(stream->Commit().ok());

  EXPECT_EQ(c.Get("big").value(), expect);
  EXPECT_EQ(fx.ReplicaCount("big"), 2u);
  const ClusterCounters counters = c.counters();
  EXPECT_EQ(counters.stream_puts, 1u);
  EXPECT_EQ(counters.quorum_failures, 0u);
  EXPECT_EQ(counters.handoff_hints_recorded, 0u);
  // The one-segment bound: across a 64 KiB object the cluster layer
  // held exactly the first 4 KiB segment, until the second arrived.
  EXPECT_EQ(counters.stream_put_buffered_high_water_bytes, 4096u);

  // A zero-byte streamed object commits too.
  auto empty = c.OpenPutStream("empty").value();
  ASSERT_TRUE(empty->Commit().ok());
  EXPECT_EQ(c.Get("empty").value(), Bytes{});

  // An aborted stream leaves no trace.
  auto aborted = c.OpenPutStream("aborted").value();
  const Bytes junk{1, 2, 3};
  ASSERT_TRUE(aborted->Append(ByteSpan(junk.data(), junk.size())).ok());
  aborted->Abort();
  EXPECT_EQ(c.Get("aborted").status().code(), ErrorCode::kNotFound);
}

// A stream of zero or one segment is stored exactly like a plain Put: one
// quorum write of whole-object shard Puts, and no replica stream at all.
TEST(ClusterBackendTest, ShortStreamCommitsAsOneQuorumPut) {
  ClusterFixture fx(3);
  ClusterBackend& c = fx.cluster();
  const Bytes segment(100, 9);
  for (const bool empty : {true, false}) {
    const std::string name = empty ? "zero" : "one";
    const ClusterCounters before = c.counters();
    const std::uint64_t puts = fx.TotalCalls(&ShardCalls::puts);
    const std::uint64_t opens = fx.TotalCalls(&ShardCalls::stream_opens);

    auto stream = c.OpenPutStream(name).value();
    if (!empty) {
      ASSERT_TRUE(stream->Append(segment).ok());
    }
    ASSERT_TRUE(stream->Commit().ok());

    const ClusterCounters d = c.counters() - before;
    EXPECT_EQ(d.quorum_writes, 1u) << name;
    EXPECT_EQ(d.stream_puts, 0u) << name;
    EXPECT_EQ(fx.TotalCalls(&ShardCalls::puts) - puts, c.replication())
        << name;
    EXPECT_EQ(fx.TotalCalls(&ShardCalls::stream_opens), opens) << name;
    EXPECT_EQ(c.Get(name).value(), empty ? Bytes{} : segment) << name;
    EXPECT_EQ(fx.ReplicaCount(name), 2u) << name;
  }
}

// The second segment switches the put to replica streams: both owners
// receive the held first segment and everything after it.
TEST(ClusterBackendTest, SecondSegmentFansOutThroughReplicaStreams) {
  ClusterFixture fx(3);
  ClusterBackend& c = fx.cluster();
  const Bytes first(100, 1);
  const Bytes second(50, 2);
  const ClusterCounters before = c.counters();
  const std::uint64_t puts = fx.TotalCalls(&ShardCalls::puts);

  auto stream = c.OpenPutStream("two").value();
  ASSERT_TRUE(stream->Append(first).ok());
  ASSERT_TRUE(stream->Append(second).ok());
  ASSERT_TRUE(stream->Commit().ok());

  const ClusterCounters d = c.counters() - before;
  EXPECT_EQ(d.stream_puts, 1u);
  EXPECT_EQ(fx.TotalCalls(&ShardCalls::puts), puts);
  EXPECT_EQ(fx.TotalCalls(&ShardCalls::stream_opens), c.replication());
  Bytes expect = first;
  expect.insert(expect.end(), second.begin(), second.end());
  ASSERT_EQ(fx.ReplicaCount("two"), 2u);
  for (std::size_t i = 0; i < fx.size(); ++i) {
    if (!fx.shard(i).mem->Exists("two")) continue;
    EXPECT_EQ(fx.ReplicaEnvelope(i, "two").payload, expect) << i;
  }
}

// ---- hinted handoff ---------------------------------------------------------

TEST(ClusterBackendTest, HandoffHintsDrainToTheReturnedOwner) {
  ClusterOptions options;
  options.eject_after = 2;
  options.reinstate_backoff_base_ms = 10;
  ClusterFixture fx(3, options);
  ClusterBackend& c = fx.cluster();
  fx.shard(1).down->store(true);

  // One-segment streamed writes commit as quorum Puts: they slide past
  // the dead owner (sloppy quorum) and leave a durable hint for it
  // beside a committed replica.
  for (int i = 0; i < 40; ++i) {
    const Bytes data{static_cast<std::uint8_t>(i), 42};
    auto stream = c.OpenPutStream("h-" + std::to_string(i)).value();
    ASSERT_TRUE(stream->Append(ByteSpan(data.data(), data.size())).ok()) << i;
    ASSERT_TRUE(stream->Commit().ok()) << i;
  }
  const ClusterCounters after_writes = c.counters();
  EXPECT_EQ(after_writes.quorum_failures, 0u);
  EXPECT_GT(after_writes.failovers, 0u);
  EXPECT_GT(after_writes.handoff_hints_recorded, 0u);

  // Hint markers live in the control namespace: invisible to List.
  for (const std::string& name : c.List("")) {
    EXPECT_EQ(name.rfind("h-", 0), 0u) << name;
  }

  // The shard returns; the drainer replays everything it missed, with
  // zero read-repair involvement.
  fx.shard(1).down->store(false);
  fx.AdvanceClock(60'000);
  c.DrainHandoffNow();

  const ClusterCounters after_drain = c.counters();
  EXPECT_GT(after_drain.handoff_hints_replayed, 0u);
  EXPECT_EQ(after_drain.read_repairs, 0u);
  for (std::size_t s = 0; s < fx.size(); ++s) {
    EXPECT_TRUE(fx.shard(s).mem->List(kHandoffHintPrefix).empty()) << s;
  }

  // Owner convergence: every key the returned shard owns is on it now
  // (mirror ring: same vnode count, same ids as the fixture's cluster).
  HashRing ring(64);
  for (int s = 0; s < 3; ++s) ring.AddNode("shard-" + std::to_string(s));
  for (int i = 0; i < 40; ++i) {
    const std::string name = "h-" + std::to_string(i);
    const std::vector<std::string> owners = ring.Successors(name, 2);
    if (std::find(owners.begin(), owners.end(), "shard-1") != owners.end()) {
      EXPECT_TRUE(fx.shard(1).mem->Exists(name)) << name;
    }
    EXPECT_EQ(c.Get(name).value(), (Bytes{static_cast<std::uint8_t>(i), 42}))
        << name;
  }
  EXPECT_EQ(c.counters().read_repairs, 0u);
}

// A hint whose stand-in copy on the holder is corrupt has nothing to
// replay: the drain drops it and deletes the marker, leaving the owner
// untouched.
TEST(ClusterBackendTest, HandoffDropsAHintWhoseHolderCopyIsCorrupt) {
  ClusterFixture fx(3);
  ClusterBackend& c = fx.cluster();
  // One key that shard-1 owns, written while shard-1 is down.
  HashRing ring(64);
  for (int s = 0; s < 3; ++s) ring.AddNode("shard-" + std::to_string(s));
  std::string name;
  for (int i = 0; name.empty(); ++i) {
    const std::string candidate = "hc-" + std::to_string(i);
    const auto owners = ring.Successors(candidate, 2);
    if (std::find(owners.begin(), owners.end(), "shard-1") != owners.end()) {
      name = candidate;
    }
  }
  fx.shard(1).down->store(true);
  const Bytes data{8, 8};
  ASSERT_TRUE(c.Put(name, ByteSpan(data.data(), data.size())).ok());
  ASSERT_EQ(c.counters().handoff_hints_recorded, 1u);
  std::size_t holder = fx.size();
  for (std::size_t s = 0; s < fx.size(); ++s) {
    if (!fx.shard(s).mem->List(kHandoffHintPrefix).empty()) holder = s;
  }
  ASSERT_LT(holder, fx.size());

  const Bytes junk{1, 2, 3, 4, 5, 6, 7, 8, 9};
  ASSERT_TRUE(
      fx.shard(holder).mem->Put(name, ByteSpan(junk.data(), junk.size())).ok());
  fx.shard(1).down->store(false);
  fx.AdvanceClock(60'000);
  c.DrainHandoffNow();

  const ClusterCounters counters = c.counters();
  EXPECT_EQ(counters.handoff_hints_dropped, 1u);
  EXPECT_EQ(counters.handoff_hints_replayed, 0u);
  for (std::size_t s = 0; s < fx.size(); ++s) {
    EXPECT_TRUE(fx.shard(s).mem->List(kHandoffHintPrefix).empty()) << s;
  }
  EXPECT_FALSE(fx.shard(1).mem->Exists(name));
}

// ---- forged versions --------------------------------------------------------

// The first name "<prefix>-<i>" whose R=2 owner set (on a mirror of the
// fixture's 3-shard ring) does / does not contain `shard`.
std::string NameOwnedBy(const std::string& prefix, const std::string& shard,
                        bool owned) {
  HashRing ring(64);
  for (int s = 0; s < 3; ++s) ring.AddNode("shard-" + std::to_string(s));
  for (int i = 0;; ++i) {
    const std::string name = prefix + "-" + std::to_string(i);
    const auto owners = ring.Successors(name, 2);
    if ((std::find(owners.begin(), owners.end(), shard) != owners.end()) ==
        owned) {
      return name;
    }
  }
}

// An envelope whose version is the largest a u64 holds.
Bytes ForgedEnvelope(const Bytes& payload) {
  Envelope env;
  env.version = std::numeric_limits<std::uint64_t>::max();
  env.writer = 666;
  env.payload = payload;
  return EncodeEnvelope(env);
}

// One shard forges the version of a replica it holds. Were the client's
// version clock to observe it, the clock would wrap, and a later sloppy
// write would lose to the replica it replaced once the owner returns.
// The envelope is too far ahead of the wall clock to be honest, so the
// read treats it as missing: repair overwrites it and the clock ignores
// it.
TEST(ClusterBackendTest, ForgedVersionDoesNotPoisonTheVersionClock) {
  ClusterFixture fx(3);
  ClusterBackend& c = fx.cluster();
  // `k` is owned by shard-1 (taken down later); `other` is held by
  // shard-0, which forges it.
  const std::string k = NameOwnedBy("k", "shard-1", true);
  const std::string other = NameOwnedBy("o", "shard-0", true);
  const Bytes a{0xA};
  const Bytes b{0xB};
  const Bytes old_payload{1, 2, 3};
  ASSERT_TRUE(c.Put(k, ByteSpan(a.data(), a.size())).ok());
  ASSERT_TRUE(
      c.Put(other, ByteSpan(old_payload.data(), old_payload.size())).ok());
  const Bytes v2{4, 5, 6};
  ASSERT_TRUE(c.Put(other, ByteSpan(v2.data(), v2.size())).ok());

  const Bytes forged = ForgedEnvelope(old_payload);
  ASSERT_TRUE(
      fx.shard(0).mem->Put(other, ByteSpan(forged.data(), forged.size())).ok());
  EXPECT_EQ(c.Get(other).value(), v2);
  // Seen twice: by the quorum read and by repair's re-read under the
  // stripe lock.
  EXPECT_EQ(c.counters().forged_versions, 2u);
  EXPECT_EQ(fx.ReplicaEnvelope(0, other).payload, v2); // repaired

  fx.shard(1).down->store(true);
  ASSERT_TRUE(c.Put(k, ByteSpan(b.data(), b.size())).ok());
  EXPECT_GT(c.counters().failovers, 0u);
  fx.shard(1).down->store(false);
  EXPECT_EQ(c.Get(k).value(), b);
  c.RebalanceNow();
  EXPECT_EQ(c.Get(k).value(), b);
}

// Handoff replay reads the holder's copy through the same rule: a forged
// envelope there is dropped with its hint, never copied to the owner.
TEST(ClusterBackendTest, HandoffDropsAHintWhoseHolderCopyHasAForgedVersion) {
  ClusterFixture fx(3);
  ClusterBackend& c = fx.cluster();
  const std::string name = NameOwnedBy("hf", "shard-1", true);
  fx.shard(1).down->store(true);
  const Bytes data{8, 8};
  ASSERT_TRUE(c.Put(name, ByteSpan(data.data(), data.size())).ok());
  ASSERT_EQ(c.counters().handoff_hints_recorded, 1u);
  std::size_t holder = fx.size();
  for (std::size_t s = 0; s < fx.size(); ++s) {
    if (!fx.shard(s).mem->List(kHandoffHintPrefix).empty()) holder = s;
  }
  ASSERT_LT(holder, fx.size());

  const Bytes forged = ForgedEnvelope(Bytes{6, 6, 6});
  ASSERT_TRUE(fx.shard(holder)
                  .mem->Put(name, ByteSpan(forged.data(), forged.size()))
                  .ok());
  fx.shard(1).down->store(false);
  fx.AdvanceClock(60'000);
  c.DrainHandoffNow();

  const ClusterCounters counters = c.counters();
  EXPECT_EQ(counters.forged_versions, 1u);
  EXPECT_EQ(counters.handoff_hints_dropped, 1u);
  EXPECT_EQ(counters.handoff_hints_replayed, 0u);
  for (std::size_t s = 0; s < fx.size(); ++s) {
    EXPECT_TRUE(fx.shard(s).mem->List(kHandoffHintPrefix).empty()) << s;
  }
  EXPECT_FALSE(fx.shard(1).mem->Exists(name));
}

// A delete while an owner is down slides its tombstone past the dead
// owner and leaves a hint. The owner returns still holding the live copy;
// draining the hint replays the tombstone onto it, so every read surface
// reports the name as gone and no stale replica can resurrect it.
TEST(ClusterBackendTest, DeleteDuringAnOwnerOutageDrainsItsTombstone) {
  ClusterFixture fx(3);
  ClusterBackend& c = fx.cluster();
  const std::string name = NameOwnedBy("dd", "shard-1", true);
  const Bytes data{4, 2};
  ASSERT_TRUE(c.Put(name, ByteSpan(data.data(), data.size())).ok());
  ASSERT_FALSE(fx.ReplicaEnvelope(1, name).tombstone);

  fx.shard(1).down->store(true);
  ASSERT_TRUE(c.Delete(name).ok());
  EXPECT_GT(c.counters().failovers, 0u);
  EXPECT_EQ(c.counters().handoff_hints_recorded, 1u);
  EXPECT_FALSE(fx.ReplicaEnvelope(1, name).tombstone); // the old copy

  fx.shard(1).down->store(false);
  fx.AdvanceClock(60'000);
  c.DrainHandoffNow();

  EXPECT_EQ(c.counters().handoff_hints_replayed, 1u);
  for (std::size_t s = 0; s < fx.size(); ++s) {
    EXPECT_TRUE(fx.shard(s).mem->List(kHandoffHintPrefix).empty()) << s;
  }
  EXPECT_TRUE(fx.ReplicaEnvelope(1, name).tombstone);
  EXPECT_EQ(c.Get(name).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(c.GetHead(name, 4).status().code(), ErrorCode::kNotFound);
  EXPECT_FALSE(c.Exists(name));
  EXPECT_TRUE(c.List("").empty());
  EXPECT_EQ(c.counters().read_repairs, 0u);
}

// ---- digest reads -----------------------------------------------------------

// Shard indices of `name`'s two owners in preference order, on the ring
// ClusterFixture(3) builds.
std::vector<std::size_t> OwnerOrder(const std::string& name) {
  HashRing ring(64);
  for (int s = 0; s < 3; ++s) ring.AddNode("shard-" + std::to_string(s));
  std::vector<std::size_t> out;
  for (const std::string& id : ring.Successors(name, 2)) {
    out.push_back(static_cast<std::size_t>(id.back() - '0'));
  }
  return out;
}

// Exists and List only compare versions, so they read envelope heads and
// never a payload — not even to report a missing object. Delete is a
// blind tombstone write and reads nothing.
TEST(ClusterDigestReadTest, DeleteExistsAndListReadNoPayload) {
  ClusterFixture fx(3);
  ClusterBackend& c = fx.cluster();
  const Bytes payload(64 << 10, 0x42);
  ASSERT_TRUE(c.Put("obj", ByteSpan(payload.data(), payload.size())).ok());
  const std::uint64_t heads0 = fx.TotalCalls(&ShardCalls::heads);

  EXPECT_TRUE(c.Exists("obj"));
  EXPECT_FALSE(c.Exists("missing"));
  EXPECT_EQ(c.List(""), std::vector<std::string>{"obj"});
  EXPECT_TRUE(c.Delete("missing").ok());
  ASSERT_TRUE(c.Delete("obj").ok());
  EXPECT_FALSE(c.Exists("obj"));
  EXPECT_TRUE(c.List("").empty());
  EXPECT_TRUE(c.Delete("obj").ok());

  EXPECT_EQ(fx.TotalCalls(&ShardCalls::data_gets), 0u);
  // Every quorum read above asked two owners for a head: three Exists,
  // one per name the Lists filter (`obj`; then `obj` and the tombstone
  // that deleting `missing` planted), and none for the deletes.
  EXPECT_EQ(fx.TotalCalls(&ShardCalls::heads) - heads0, 2u * 6);
}

// A Delete is one blind quorum write: exactly two shard Puts of a
// tombstone and no shard read, whether or not the name exists. The
// tombstone is drawn after the Put from the same clock, so it wins on
// both replicas.
TEST(ClusterDigestReadTest, DeleteIsOneBlindQuorumWrite) {
  ClusterFixture fx(3);
  ClusterBackend& c = fx.cluster();
  const Bytes payload{1, 2, 3};
  ASSERT_TRUE(c.Put("obj", ByteSpan(payload.data(), payload.size())).ok());
  const std::vector<std::size_t> owners = OwnerOrder("obj");
  const std::uint64_t put_version =
      fx.ReplicaEnvelope(owners[0], "obj").version;

  for (const std::string name : {"obj", "missing"}) {
    const ClusterCounters before = c.counters();
    const std::uint64_t all0 = fx.TotalCalls(&ShardCalls::all);
    const std::uint64_t puts0 = fx.TotalCalls(&ShardCalls::puts);
    const std::uint64_t gets0 = fx.TotalCalls(&ShardCalls::data_gets);
    const std::uint64_t heads0 = fx.TotalCalls(&ShardCalls::heads);
    EXPECT_TRUE(c.Delete(name).ok()) << name;
    EXPECT_EQ(fx.TotalCalls(&ShardCalls::puts) - puts0, 2u) << name;
    EXPECT_EQ(fx.TotalCalls(&ShardCalls::all) - all0, 2u) << name;
    EXPECT_EQ(fx.TotalCalls(&ShardCalls::data_gets) - gets0, 0u) << name;
    EXPECT_EQ(fx.TotalCalls(&ShardCalls::heads) - heads0, 0u) << name;
    const ClusterCounters delta = c.counters() - before;
    EXPECT_EQ(delta.shard_rpcs, 2u) << name;
    EXPECT_EQ(delta.quorum_reads, 0u) << name;
    EXPECT_EQ(delta.quorum_writes, 1u) << name;
    EXPECT_EQ(delta.tombstones_written, 1u) << name;
  }
  for (const std::size_t owner : owners) {
    const Envelope env = fx.ReplicaEnvelope(owner, "obj");
    EXPECT_TRUE(env.tombstone) << owner;
    EXPECT_GT(env.version, put_version) << owner;
  }
  EXPECT_EQ(c.Get("obj").status().code(), ErrorCode::kNotFound);
}

// A healthy Get reads one payload, from the first owner, and heads from
// the rest of the read quorum: the same shard RPC count as reading every
// replica whole.
TEST(ClusterDigestReadTest, HealthyGetReadsOnePayloadAndHeads) {
  for (const std::size_t read_quorum : {1u, 2u, 3u}) {
    ClusterOptions options;
    options.replication = 3;
    options.write_quorum = 3;
    options.read_quorum = read_quorum;
    ClusterFixture fx(3, options);
    ClusterBackend& c = fx.cluster();
    const Bytes payload(4096, 0x17);
    ASSERT_TRUE(c.Put("obj", ByteSpan(payload.data(), payload.size())).ok());
    const std::uint64_t rpcs0 = c.counters().shard_rpcs;
    const std::uint64_t gets0 = fx.TotalCalls(&ShardCalls::data_gets);
    const std::uint64_t heads0 = fx.TotalCalls(&ShardCalls::heads);

    EXPECT_EQ(c.Get("obj").value(), payload) << read_quorum;
    EXPECT_EQ(fx.TotalCalls(&ShardCalls::data_gets) - gets0, 1u) << read_quorum;
    EXPECT_EQ(fx.TotalCalls(&ShardCalls::heads) - heads0, read_quorum - 1)
        << read_quorum;
    EXPECT_EQ(c.counters().shard_rpcs - rpcs0, read_quorum) << read_quorum;
    EXPECT_EQ(c.counters().read_repairs, 0u) << read_quorum;
  }
}

// The first owner is stale and the second holds a newer envelope: its
// head outranks the payload already read, so Get fetches that replica's
// payload (one extra shard Get), serves the newer bytes and repairs the
// stale owner. A head read also advances the version clock, as a whole
// read does.
TEST(ClusterDigestReadTest, NewerReplicaBehindAHeadIsFetchedAndRepairs) {
  ClusterFixture fx(3);
  ClusterBackend& c = fx.cluster();
  const std::vector<std::size_t> owners = OwnerOrder("obj");
  const Bytes v1{1, 1, 1};
  const Bytes v2{2, 2, 2, 2};
  ASSERT_TRUE(c.Put("obj", ByteSpan(v1.data(), v1.size())).ok());
  Envelope newer = fx.ReplicaEnvelope(owners[1], "obj");
  newer.version += 10;
  newer.payload = v2;
  const Bytes encoded = EncodeEnvelope(newer);
  ASSERT_TRUE(fx.shard(owners[1])
                  .mem->Put("obj", ByteSpan(encoded.data(), encoded.size()))
                  .ok());

  ASSERT_TRUE(c.Exists("obj")); // heads only
  ASSERT_TRUE(c.Put("other", ByteSpan(v1.data(), v1.size())).ok());
  EXPECT_GT(fx.ReplicaEnvelope(OwnerOrder("other")[0], "other").version,
            newer.version);

  const std::uint64_t rpcs0 = c.counters().shard_rpcs;
  const std::uint64_t first_gets0 = fx.shard(owners[0]).calls->data_gets;
  const std::uint64_t second_gets0 = fx.shard(owners[1]).calls->data_gets;
  EXPECT_EQ(c.Get("obj").value(), v2);
  EXPECT_EQ(fx.shard(owners[0]).calls->data_gets - first_gets0, 1u);
  EXPECT_EQ(fx.shard(owners[1]).calls->data_gets - second_gets0, 1u);
  // Two quorum answers, one extra payload fetch, then repair's head
  // re-check and copy onto the stale owner.
  EXPECT_EQ(c.counters().shard_rpcs - rpcs0, 2u + 1 + 2);
  EXPECT_EQ(c.counters().read_repairs, 1u);
  EXPECT_EQ(fx.ReplicaEnvelope(owners[0], "obj").payload, v2);
  EXPECT_EQ(fx.ReplicaEnvelope(owners[0], "obj").version, newer.version);

  // Converged: the next Get is healthy again.
  const std::uint64_t gets1 = fx.TotalCalls(&ShardCalls::data_gets);
  EXPECT_EQ(c.Get("obj").value(), v2);
  EXPECT_EQ(fx.TotalCalls(&ShardCalls::data_gets) - gets1, 1u);
}

// A replica whose envelope length disagrees with its object size, and one
// with a forged version, are answers with no envelope whether they were
// read whole (first owner) or as a head (second owner): Get serves the
// good replica, forged_versions counts the forgery at the read and at
// repair's re-check, and repair overwrites the bad replica.
TEST(ClusterDigestReadTest, BadReplicasAreClassifiedAlikeWholeOrHead) {
  const Bytes v1{7, 8, 9};
  for (const bool forged : {false, true}) {
    for (const std::size_t position : {0u, 1u}) {
      ClusterFixture fx(3);
      ClusterBackend& c = fx.cluster();
      const std::vector<std::size_t> owners = OwnerOrder("obj");
      ASSERT_TRUE(c.Put("obj", ByteSpan(v1.data(), v1.size())).ok());
      Bytes bad;
      if (forged) {
        bad = ForgedEnvelope(v1);
      } else {
        bad = EncodeEnvelope(fx.ReplicaEnvelope(owners[position], "obj"));
        bad.pop_back(); // one byte short of the length it declares
      }
      const std::size_t victim = owners[position];
      ASSERT_TRUE(
          fx.shard(victim).mem->Put("obj", ByteSpan(bad.data(), bad.size()))
              .ok());
      const std::string what =
          std::string(forged ? "forged" : "short") + " at owner " +
          std::to_string(position);

      EXPECT_TRUE(c.Exists("obj")) << what;
      EXPECT_EQ(c.counters().forged_versions, forged ? 1u : 0u) << what;
      EXPECT_EQ(c.Get("obj").value(), v1) << what;
      EXPECT_EQ(c.counters().forged_versions, forged ? 3u : 0u) << what;
      EXPECT_EQ(c.counters().read_repairs, 1u) << what;
      EXPECT_EQ(fx.ReplicaEnvelope(victim, "obj").payload, v1) << what;
    }
  }
}

// GetHead is a quorum of heads, each asking for the envelope head plus
// the payload bytes wanted: the newest replica answers with its own
// prefix and size, and no shard hands over a payload past it. A streamed
// envelope's shorter head still yields exactly the bytes asked for.
TEST(ClusterDigestReadTest, GetHeadReadsOnlyTheAskedPrefix) {
  ClusterFixture fx(3);
  ClusterBackend& c = fx.cluster();
  Bytes payload(64 << 10);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }
  ASSERT_TRUE(c.Put("obj", ByteSpan(payload.data(), payload.size())).ok());
  auto stream = c.OpenPutStream("streamed").value();
  ASSERT_TRUE(stream->Append(ByteSpan(payload.data(), 100)).ok());
  ASSERT_TRUE(stream->Append(ByteSpan(payload.data() + 100, 100)).ok());
  ASSERT_TRUE(stream->Commit().ok());
  const std::uint64_t heads0 = fx.TotalCalls(&ShardCalls::heads);

  for (const std::string name : {"obj", "streamed"}) {
    const std::uint64_t size = name == "obj" ? payload.size() : 200;
    for (const std::size_t max : {std::size_t{0}, std::size_t{3},
                                  std::size_t{150}, std::size_t{1} << 20}) {
      const auto head = c.GetHead(name, max);
      ASSERT_TRUE(head.ok()) << name << " " << max;
      EXPECT_EQ(head.value().size, size) << name << " " << max;
      const std::size_t want = std::min<std::uint64_t>(max, size);
      EXPECT_EQ(head.value().prefix,
                Bytes(payload.begin(),
                      payload.begin() + static_cast<std::ptrdiff_t>(want)))
          << name << " " << max;
    }
  }
  EXPECT_EQ(c.GetHead("missing", 4).status().code(), ErrorCode::kNotFound);
  ASSERT_TRUE(c.Delete("obj").ok());
  EXPECT_EQ(c.GetHead("obj", 4).status().code(), ErrorCode::kNotFound);

  EXPECT_EQ(fx.TotalCalls(&ShardCalls::data_gets), 0u);
  // 8 reads of an object, 1 of a missing one and the last read (the
  // delete reads nothing): 10 quorum reads of two owner heads each.
  EXPECT_EQ(fx.TotalCalls(&ShardCalls::heads) - heads0, 2u * 10);
  EXPECT_EQ(c.counters().read_repairs, 0u);
}

// ---- observability ----------------------------------------------------------

// Counters and shard-RPC latency belong to the backend that made the
// calls: a second cluster in the same process stays at zero.
TEST(ClusterBackendTest, CountersAndShardLatencyArePerInstance) {
  ClusterFixture busy(3);
  ClusterFixture idle(3);
  const Bytes data{1, 2, 3};
  ASSERT_TRUE(busy.cluster().Put("k", ByteSpan(data.data(), data.size())).ok());
  ASSERT_EQ(busy.cluster().Get("k").value(), data);

  const ClusterCounters active = busy.cluster().counters();
  EXPECT_EQ(active.quorum_writes, 1u);
  EXPECT_EQ(active.quorum_reads, 1u);
  EXPECT_GT(active.shard_rpcs, 0u);
  EXPECT_GT(active.shard_rpc_p50_ms, 0.0);
  EXPECT_GE(active.shard_rpc_p99_ms, active.shard_rpc_p50_ms);
  const ClusterCounters quiet = idle.cluster().counters();
  EXPECT_EQ(quiet.quorum_writes, 0u);
  EXPECT_EQ(quiet.shard_rpcs, 0u);
  EXPECT_EQ(quiet.shard_rpc_p50_ms, 0.0);
  EXPECT_EQ(quiet.shard_rpc_p99_ms, 0.0);
}

// ---- delta rebalancing ------------------------------------------------------

TEST(ClusterBackendTest, DeltaRebalanceTouchesOnlyMovedArcs) {
  ClusterFixture fx(3);
  ClusterBackend& c = fx.cluster();
  constexpr int kKeys = 80;
  for (int i = 0; i < kKeys; ++i) {
    const Bytes data{static_cast<std::uint8_t>(i), 1};
    ASSERT_TRUE(
        c.Put("k" + std::to_string(i), ByteSpan(data.data(), data.size()))
            .ok());
  }

  // Mirror the cluster's ring to compute, independently, which keys the
  // new shard changes the owner set of.
  HashRing before(64);
  for (int s = 0; s < 3; ++s) before.AddNode("shard-" + std::to_string(s));
  HashRing after = before;
  after.AddNode("shard-extra");
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) keys.push_back("k" + std::to_string(i));
  const std::set<std::string> moved = KeysWithNewOwners(before, after, keys);
  ASSERT_FALSE(moved.empty());
  ASSERT_LT(moved.size(), static_cast<std::size_t>(kKeys)); // some untouched

  TestShard extra;
  extra.id = "shard-extra";
  ASSERT_TRUE(c.AddShard(extra.spec()).ok());
  for (std::size_t s = 0; s < fx.size(); ++s) fx.shard(s).TakeDataGets();
  c.RebalanceNow();

  // The arc bound: the pass read only keys in moved arcs — on every
  // shard, including the new one.
  std::set<std::string> read;
  for (const std::string& name : extra.TakeDataGets()) read.insert(name);
  for (std::size_t s = 0; s < fx.size(); ++s) {
    for (const std::string& name : fx.shard(s).TakeDataGets()) {
      read.insert(name);
    }
  }
  EXPECT_EQ(read, moved);

  const ClusterCounters counters = c.counters();
  EXPECT_EQ(counters.rebalance_passes, 1u);
  // The counter pin: copy RPCs were issued ONLY for keys in moved arcs —
  // one copy each, onto the new shard — and an untouched key never even
  // landed there.
  EXPECT_EQ(counters.rebalance_objects_moved, moved.size());
  EXPECT_GT(counters.rebalance_bytes_moved, 0u);
  for (int i = 0; i < kKeys; ++i) {
    const std::string name = "k" + std::to_string(i);
    EXPECT_EQ(extra.mem->Exists(name), moved.contains(name)) << name;
  }
  // And placement stays correct for every key.
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(c.Get("k" + std::to_string(i)).value(),
              (Bytes{static_cast<std::uint8_t>(i), 1}))
        << i;
  }
}

// ---- reinstatement revive ---------------------------------------------------

TEST(ClusterBackendTest, ReinstatementSchedulesTheReviveHook) {
  TestShard s;
  s.id = "only";
  ShardSpec spec = s.spec();
  auto revived = std::make_shared<std::atomic<int>>(0);
  spec.revive = [revived](storage::StorageBackend&) {
    revived->fetch_add(1);
    return Status::Ok();
  };
  ClusterOptions options;
  options.replication = 1;
  options.writer_id = 7;
  options.eject_after = 2;
  options.reinstate_backoff_base_ms = 10;
  options.background_rebalance = false;
  std::atomic<std::uint64_t> clock{1'000'000};
  options.now_ms = [&clock] { return clock.load(); };
  auto cluster = ClusterBackend::Create({spec}, options);
  ASSERT_TRUE(cluster.ok());
  ClusterBackend& c = **cluster;

  const Bytes data{5};
  ASSERT_TRUE(c.Put("k", ByteSpan(data.data(), data.size())).ok());
  s.down->store(true);
  EXPECT_FALSE(c.Put("k", ByteSpan(data.data(), data.size())).ok());
  EXPECT_FALSE(c.Put("k", ByteSpan(data.data(), data.size())).ok());
  EXPECT_EQ(c.counters().shards_ejected, 1u);

  s.down->store(false);
  clock.fetch_add(60'000);
  ASSERT_TRUE(c.Put("k", ByteSpan(data.data(), data.size())).ok());
  EXPECT_EQ(c.counters().shards_reinstated, 1u);
  // The hook is queued for the maintenance pass, not run inline on the
  // reinstating op's thread.
  EXPECT_EQ(revived->load(), 0);
  c.RebalanceNow();
  EXPECT_EQ(revived->load(), 1);
  // One-shot: the next pass does not re-run it.
  c.RebalanceNow();
  EXPECT_EQ(revived->load(), 1);
}

// Writers keep mutating while the migrator runs and membership changes:
// nothing is lost, and the newest value always wins. (TSan-friendly: the
// interesting races are real thread interleavings.)
TEST(ClusterBackendTest, RebalanceUnderConcurrentWritesSoak) {
  ClusterFixture fx(3);
  ClusterBackend& c = fx.cluster();

  constexpr int kWriters = 4;
  constexpr int kKeysPerWriter = 8;
  constexpr int kRounds = 25;
  std::atomic<bool> stop{false};

  std::thread migrator([&] {
    TestShard extra;
    extra.id = "soak-extra";
    ASSERT_TRUE(c.AddShard(extra.spec()).ok());
    while (!stop.load()) {
      c.RebalanceNow();
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int round = 1; round <= kRounds; ++round) {
        for (int k = 0; k < kKeysPerWriter; ++k) {
          const std::string name =
              "soak-" + std::to_string(w) + "-" + std::to_string(k);
          const Bytes data{static_cast<std::uint8_t>(round),
                           static_cast<std::uint8_t>(w),
                           static_cast<std::uint8_t>(k)};
          ASSERT_TRUE(c.Put(name, ByteSpan(data.data(), data.size())).ok());
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  migrator.join();
  c.RebalanceNow(); // quiesced convergence pass

  for (int w = 0; w < kWriters; ++w) {
    for (int k = 0; k < kKeysPerWriter; ++k) {
      const std::string name =
          "soak-" + std::to_string(w) + "-" + std::to_string(k);
      const Bytes expect{static_cast<std::uint8_t>(kRounds),
                         static_cast<std::uint8_t>(w),
                         static_cast<std::uint8_t>(k)};
      EXPECT_EQ(c.Get(name).value(), expect) << name;
    }
  }
  EXPECT_EQ(c.counters().quorum_failures, 0u);
}

// ---- endpoint parsing -------------------------------------------------------

TEST(ClusterConfigTest, ParsesEndpointLists) {
  const auto list = ParseEndpointList(" 127.0.0.1:7001, 127.0.0.1:7002 ,\n"
                                      "example.test:9\n");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], "127.0.0.1:7001");
  EXPECT_EQ(list[2], "example.test:9");
  EXPECT_TRUE(ParseEndpointList("").empty());

  std::string host;
  std::uint16_t port = 0;
  ASSERT_TRUE(SplitHostPort("10.0.0.1:7005", &host, &port));
  EXPECT_EQ(host, "10.0.0.1");
  EXPECT_EQ(port, 7005);
  EXPECT_FALSE(SplitHostPort("nohost", &host, &port));
  EXPECT_FALSE(SplitHostPort(":70", &host, &port));
  EXPECT_FALSE(SplitHostPort("h:", &host, &port));
  EXPECT_FALSE(SplitHostPort("h:99999", &host, &port));
  EXPECT_FALSE(SplitHostPort("h:0", &host, &port));
  EXPECT_FALSE(SplitHostPort("h:80abc", &host, &port));
  EXPECT_FALSE(SplitHostPort("h:+80", &host, &port));
  EXPECT_FALSE(SplitHostPort("h:-80", &host, &port));
  EXPECT_FALSE(SplitHostPort("h: 80", &host, &port));
  EXPECT_FALSE(SplitHostPort("h:080080", &host, &port));
  ASSERT_TRUE(SplitHostPort("h:65535", &host, &port));
  EXPECT_EQ(port, 65535);
}

TEST(ClusterConfigTest, CreateValidatesItsInputs) {
  EXPECT_FALSE(ClusterBackend::Create({}, {}).ok());
  ClusterOptions options;
  options.replication = 2;
  options.write_quorum = 5; // larger than the shard count
  TestShard s;
  s.id = "only";
  EXPECT_FALSE(ClusterBackend::Create({s.spec()}, options).ok());
  EXPECT_FALSE(
      ClusterBackend::Connect("definitely not an endpoint", {}, {}).ok());
}

} // namespace
} // namespace nexus::cluster
