// Randomized multi-client stress: two mounted clients on separate machines
// interleave hundreds of random operations against one shared untrusted
// server. Invariants checked throughout and at the end:
//  * no operation ever fails with an integrity violation (locking + the
//    reload-under-lock discipline keep metadata consistent),
//  * both clients converge to an identical view of the tree,
//  * a cold third session can read everything.
#include <gtest/gtest.h>

#include <map>

#include "test_env.hpp"
#include "trace/trace.hpp"

namespace nexus {
namespace {

class StressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    owen_ = &world_.AddMachine("owen");
    alice_ = &world_.AddMachine("alice");
    auto handle = owen_->nexus->CreateVolume(owen_->user);
    ASSERT_TRUE(handle.ok());
    handle_ = std::move(handle).value();

    ASSERT_TRUE(alice_->nexus->PublishIdentity(alice_->user).ok());
    ASSERT_TRUE(owen_->nexus
                    ->GrantAccess(owen_->user, "alice", alice_->user.public_key())
                    .ok());
    auto alice_handle = alice_->nexus->AcceptGrant(
        alice_->user, "owen", owen_->user.public_key(), handle_.volume_uuid);
    ASSERT_TRUE(alice_handle.ok());
    ASSERT_TRUE(alice_->nexus
                    ->Mount(alice_->user, handle_.volume_uuid,
                            alice_handle->sealed_rootkey)
                    .ok());
    ASSERT_TRUE(owen_->nexus
                    ->SetAcl("", "alice",
                             enclave::kPermRead | enclave::kPermWrite)
                    .ok());
    // Shared working directories, writable by both.
    for (const char* d : {"w0", "w1", "w2"}) {
      ASSERT_TRUE(owen_->nexus->Mkdir(d).ok());
      ASSERT_TRUE(owen_->nexus
                      ->SetAcl(d, "alice",
                               enclave::kPermRead | enclave::kPermWrite)
                      .ok());
    }
  }

  /// Flat model of what the volume should contain.
  using Model = std::map<std::string, Bytes>;

  void RandomOps(int count) {
    crypto::HmacDrbg rng(AsBytes("stress-ops"));
    std::vector<std::string> files;
    for (int i = 0; i < count; ++i) {
      core::NexusClient& client =
          rng.Below(2) == 0 ? *owen_->nexus : *alice_->nexus;
      const std::string dir = "w" + std::to_string(rng.Below(3));
      const int action = static_cast<int>(rng.Below(10));

      if (action < 4 || files.empty()) { // create/overwrite
        const std::string path =
            dir + "/f" + std::to_string(rng.Below(40));
        const Bytes content = rng.Generate(1 + rng.Below(2000));
        const Status s = client.WriteFile(path, content);
        ASSERT_TRUE(s.ok()) << i << ": write " << path << ": " << s.ToString();
        model_[path] = content;
        files.push_back(path);
      } else if (action < 6) { // read (either client) and cross-check
        const std::string& path = files[rng.Below(files.size())];
        if (!model_.contains(path)) continue;
        auto content = client.ReadFile(path);
        ASSERT_TRUE(content.ok()) << i << ": read " << path << ": "
                                  << content.status().ToString();
        EXPECT_EQ(*content, model_[path]) << path;
      } else if (action < 8) { // remove
        const std::string path = files[rng.Below(files.size())];
        if (!model_.contains(path)) continue;
        const Status s = client.Remove(path);
        ASSERT_TRUE(s.ok()) << i << ": remove " << path << ": " << s.ToString();
        model_.erase(path);
      } else { // rename within/between shared dirs
        const std::string from = files[rng.Below(files.size())];
        if (!model_.contains(from)) continue;
        const std::string to =
            "w" + std::to_string(rng.Below(3)) + "/r" +
            std::to_string(rng.Below(40));
        if (from == to) continue;
        const Status s = client.Rename(from, to);
        ASSERT_TRUE(s.ok()) << i << ": rename " << from << "->" << to << ": "
                            << s.ToString();
        model_[to] = model_[from];
        if (to != from) model_.erase(from);
        files.push_back(to);
      }
    }
  }

  /// Reads the full tree through `client` into a flat model.
  Model Snapshot(core::NexusClient& client) {
    Model out;
    for (const char* d : {"w0", "w1", "w2"}) {
      auto entries = client.ListDir(d);
      EXPECT_TRUE(entries.ok()) << entries.status().ToString();
      if (!entries.ok()) continue;
      for (const auto& e : *entries) {
        const std::string path = std::string(d) + "/" + e.name;
        auto content = client.ReadFile(path);
        EXPECT_TRUE(content.ok()) << path;
        if (content.ok()) out[path] = *content;
      }
    }
    return out;
  }

  test::World world_;
  test::Machine* owen_ = nullptr;
  test::Machine* alice_ = nullptr;
  core::NexusClient::VolumeHandle handle_;
  Model model_;
};

TEST_F(StressTest, InterleavedClientsConverge) {
  RandomOps(400);

  const Model owen_view = Snapshot(*owen_->nexus);
  const Model alice_view = Snapshot(*alice_->nexus);
  EXPECT_EQ(owen_view, alice_view);
  EXPECT_EQ(owen_view, model_);

  // A completely cold third session agrees too.
  owen_->afs->FlushCache();
  core::NexusClient cold(*owen_->runtime, *owen_->afs,
                         world_.intel().root_public_key());
  ASSERT_TRUE(
      cold.Mount(owen_->user, handle_.volume_uuid, handle_.sealed_rootkey).ok());
  EXPECT_EQ(Snapshot(cold), model_);
}

// Soak with tracing enabled: the observability layer must never disturb
// correctness, every ProfileSnapshot counter must be monotone across
// rounds (gauges exempt), and the snapshot delta semantics are pinned.
TEST_F(StressTest, TracedSoakKeepsProfileCountersMonotone) {
  struct TracingGuard {
    TracingGuard() {
      trace::SetEnabled(true);
      trace::ResetTrace();
      trace::ResetGlobalHistograms();
    }
    ~TracingGuard() {
      trace::SetEnabled(false);
      trace::ResetTrace();
      trace::ResetGlobalHistograms();
    }
  } tracing;

  auto prev = owen_->nexus->Profile();
  for (int round = 0; round < 4; ++round) {
    RandomOps(60);
    const auto cur = owen_->nexus->Profile();

    // Counters only ever grow.
    EXPECT_GE(cur.io_seconds, prev.io_seconds) << round;
    EXPECT_GE(cur.enclave_seconds, prev.enclave_seconds) << round;
    EXPECT_GE(cur.metadata_io_seconds, prev.metadata_io_seconds) << round;
    EXPECT_GE(cur.data_io_seconds, prev.data_io_seconds) << round;
    EXPECT_GE(cur.journal_io_seconds, prev.journal_io_seconds) << round;
    EXPECT_GE(cur.journal.records_committed, prev.journal.records_committed);
    EXPECT_GE(cur.journal.ops_committed, prev.journal.ops_committed);
    EXPECT_GE(cur.journal.checkpoints, prev.journal.checkpoints);
    EXPECT_GE(cur.parallel.chunks_encrypted, prev.parallel.chunks_encrypted);
    EXPECT_GE(cur.parallel.chunks_decrypted, prev.parallel.chunks_decrypted);
    EXPECT_GE(cur.parallel.parallel_batches, prev.parallel.parallel_batches);
    EXPECT_GE(cur.parallel.worker_busy_seconds,
              prev.parallel.worker_busy_seconds);
    EXPECT_GE(cur.ecall_latency.count, prev.ecall_latency.count);
    EXPECT_GE(cur.journal_commit_latency.count,
              prev.journal_commit_latency.count);
    EXPECT_GE(cur.trace_spans, prev.trace_spans);
    EXPECT_GT(cur.ecall_latency.count, prev.ecall_latency.count) << round;
    EXPECT_GT(cur.trace_spans, prev.trace_spans) << round;

    // Delta semantics: counters subtract, gauges keep the later sample.
    const auto delta = cur - prev;
    EXPECT_EQ(delta.ecall_latency.count,
              cur.ecall_latency.count - prev.ecall_latency.count);
    EXPECT_EQ(delta.ecall_latency.p50_ms, cur.ecall_latency.p50_ms);
    EXPECT_EQ(delta.ecall_latency.p99_ms, cur.ecall_latency.p99_ms);
    EXPECT_EQ(delta.journal_commit_latency.p50_ms,
              cur.journal_commit_latency.p50_ms);
    EXPECT_EQ(delta.parallel.peak_queue_depth, cur.parallel.peak_queue_depth);
    EXPECT_EQ(delta.trace_spans, cur.trace_spans - prev.trace_spans);

    prev = cur;
  }

  // The tracer agrees with the profiler: the snapshot field mirrors the
  // span counter, and ecall spans match the ecall histogram one-to-one
  // (both clients record into the same process-wide registry).
  EXPECT_EQ(prev.trace_spans, trace::CompletedSpanCount());
  const auto spans = trace::TraceSnapshot();
  std::uint64_t ecall_spans = 0;
  for (const auto& s : spans) {
    if (std::string_view(s.category) == "ecall") ++ecall_spans;
  }
  EXPECT_EQ(ecall_spans, trace::GlobalHistogram("ecall").Count());
  EXPECT_EQ(trace::DroppedSpanCount(), 0u);

  // And tracing never disturbed convergence.
  EXPECT_EQ(Snapshot(*owen_->nexus), model_);
  EXPECT_EQ(Snapshot(*alice_->nexus), model_);
}

TEST_F(StressTest, ConvergesUnderTinyCaches) {
  // Same property with aggressive eviction on both enclaves.
  owen_->nexus->enclave().EcallSetCacheLimits(2, 3);
  alice_->nexus->enclave().EcallSetCacheLimits(2, 3);
  RandomOps(200);
  EXPECT_EQ(Snapshot(*owen_->nexus), model_);
  EXPECT_EQ(Snapshot(*alice_->nexus), model_);
}

} // namespace
} // namespace nexus
