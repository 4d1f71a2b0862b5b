// Deterministic fault-injection tests: every retryable fault either
// succeeds within the bounded retry budget or surfaces a clean error, and
// no schedule ever produces a partially visible object. All decisions
// come from (seed, frame index) — no real timeouts, no flaky sleeps.
#include <gtest/gtest.h>

#include <mutex>

#include "net/fault.hpp"
#include "net/remote_backend.hpp"
#include "net/server.hpp"
#include "net/transport.hpp"
#include "storage/backend.hpp"

namespace nexus::net {
namespace {

/// Records every backoff sleep instead of performing it.
struct SleepRecorder {
  std::mutex mu;
  std::vector<int> sleeps_ms;

  std::function<void(int)> fn() {
    return [this](int ms) {
      const std::lock_guard<std::mutex> lock(mu);
      sleeps_ms.push_back(ms);
    };
  }
};

/// A scenario: nexusd on MemBackend + a RemoteBackend whose every
/// connection goes through a FaultyTransport with the given spec. Each
/// redial mixes the connection ordinal into the seed so schedules differ
/// per connection but the whole run replays exactly.
class FaultScenario {
 public:
  FaultScenario(FaultSpec spec, std::uint64_t seed, int max_attempts = 6) {
    server_ = NexusdServer::Start(store_).value();
    stats_ = std::make_shared<FaultStats>();

    const std::uint16_t port = server_->port();
    auto counter = std::make_shared<std::uint64_t>(0);
    auto stats = stats_;
    TransportFactory factory = [port, spec, seed, counter,
                                stats]() -> Result<std::unique_ptr<Transport>> {
      NEXUS_ASSIGN_OR_RETURN(
          std::unique_ptr<TcpTransport> tcp,
          TcpTransport::Dial("127.0.0.1", port, 2000, 2000));
      const std::uint64_t connection_seed = seed + 0x9e37 * (*counter)++;
      return std::unique_ptr<Transport>(std::make_unique<FaultyTransport>(
          std::move(tcp), spec, connection_seed, stats));
    };

    RemoteBackendOptions client;
    client.max_attempts = max_attempts;
    client.backoff_base_ms = 5;
    client.backoff_cap_ms = 100;
    client.sleep_ms = sleeps_.fn();
    remote_ = std::make_unique<RemoteBackend>(std::move(factory), client);
  }

  RemoteBackend& remote() { return *remote_; }
  storage::MemBackend& store() { return store_; }
  const FaultStats& fault_stats() const { return *stats_; }
  std::vector<int> sleeps() {
    const std::lock_guard<std::mutex> lock(sleeps_.mu);
    return sleeps_.sleeps_ms;
  }
  NetCounters counters() const { return remote_->counters(); }

 private:
  storage::MemBackend store_;
  std::unique_ptr<NexusdServer> server_;
  std::shared_ptr<FaultStats> stats_;
  SleepRecorder sleeps_;
  std::unique_ptr<RemoteBackend> remote_;
};

TEST(NetFault, CleanSpecInjectsNothing) {
  FaultScenario scenario({}, 1);
  ASSERT_TRUE(scenario.remote().Put("a", Bytes{1}).ok());
  EXPECT_EQ(scenario.remote().Get("a").value(), Bytes{1});
  EXPECT_EQ(scenario.fault_stats().injected(), 0u);
  EXPECT_TRUE(scenario.sleeps().empty());
}

// Every request dropped: the RPC must fail after exactly max_attempts
// tries with one backoff between consecutive attempts, each bounded by
// the configured cap.
TEST(NetFault, AllRequestsDroppedFailsCleanlyAfterBoundedRetries) {
  FaultSpec spec;
  spec.drop_request = 1.0;
  FaultScenario scenario(spec, 42, /*max_attempts=*/4);

  const Status put = scenario.remote().Put("a", Bytes{1});
  EXPECT_FALSE(put.ok());
  EXPECT_EQ(put.code(), ErrorCode::kIOError);
  EXPECT_FALSE(scenario.store().Exists("a"));

  EXPECT_EQ(scenario.fault_stats().dropped_requests, 4u);
  const auto sleeps = scenario.sleeps();
  ASSERT_EQ(sleeps.size(), 3u); // attempts-1 backoffs
  for (const int ms : sleeps) {
    EXPECT_GE(ms, 1);
    EXPECT_LE(ms, 100);
  }
  // Exponential shape survives jitter: jitter is in [0.5, 1.0), so the
  // third backoff (nominal 4*base) always exceeds half the first's cap.
  EXPECT_GE(sleeps[2], 10); // >= 0.5 * 4 * base
  EXPECT_EQ(scenario.counters().retries, 3u);
}

// Connection reset before every send: same bounded failure, and the RPC
// never reached the server.
TEST(NetFault, AllResetsFailCleanly) {
  FaultSpec spec;
  spec.reset = 1.0;
  FaultScenario scenario(spec, 7, /*max_attempts=*/3);
  EXPECT_FALSE(scenario.remote().Put("a", Bytes{1}).ok());
  EXPECT_FALSE(scenario.store().Exists("a"));
  EXPECT_EQ(scenario.fault_stats().resets, 3u);
  EXPECT_EQ(scenario.counters().reconnects, 2u); // every retry redialed
}

// Dropped responses: the server APPLIES the RPC, the client cannot see the
// verdict. Retries must converge — Put is idempotent, and an ambiguous
// Delete that later sees kNotFound reports success.
TEST(NetFault, DroppedResponsesConvergeOnIdempotentOps) {
  FaultSpec spec;
  spec.drop_response = 0.4;
  FaultScenario scenario(spec, 1234, /*max_attempts=*/8);

  for (int i = 0; i < 20; ++i) {
    const std::string name = "obj" + std::to_string(i);
    ASSERT_TRUE(scenario.remote().Put(name, Bytes(50 + i, 7)).ok()) << name;
    EXPECT_EQ(scenario.remote().Get(name).value(), Bytes(50 + i, 7)) << name;
  }
  for (int i = 0; i < 20; ++i) {
    const std::string name = "obj" + std::to_string(i);
    ASSERT_TRUE(scenario.remote().Delete(name).ok()) << name;
    EXPECT_FALSE(scenario.store().Exists(name)) << name;
  }
  EXPECT_GT(scenario.fault_stats().dropped_responses, 0u);
}

// The full storm: all four faults active at once. Every operation that
// reports success must be durably correct; operations that report failure
// must leave no partial object.
TEST(NetFault, MixedFaultStormNeverCorrupts) {
  FaultSpec spec;
  spec.drop_request = 0.08;
  spec.drop_response = 0.08;
  spec.truncate = 0.08;
  spec.reset = 0.08;
  FaultScenario scenario(spec, 0xfeedface, /*max_attempts=*/10);

  int failures = 0;
  for (int i = 0; i < 40; ++i) {
    const std::string name = "k" + std::to_string(i);
    const Bytes data(200 + 13 * i, static_cast<std::uint8_t>(i));
    if (scenario.remote().Put(name, data).ok()) {
      auto back = scenario.store().Get(name);
      ASSERT_TRUE(back.ok()) << name;
      EXPECT_EQ(back.value(), data) << name;
    } else {
      ++failures;
      // A failed Put either never applied or fully applied (ambiguous
      // response loss) — never a prefix.
      auto back = scenario.store().Get(name);
      if (back.ok()) {
        EXPECT_EQ(back.value(), data) << name;
      }
    }
  }
  EXPECT_GT(scenario.fault_stats().injected(), 0u);
  EXPECT_LT(failures, 10); // the retry budget absorbs almost everything
}

// Streamed put under faults: a transport failure fails the stream for
// good (nothing is replayed), so the put either commits the full byte
// sequence or publishes nothing — never a prefix.
TEST(NetFault, StreamedPutSurvivesFaultsOrFailsWithoutPartialObject) {
  FaultSpec spec;
  spec.truncate = 0.10;
  spec.reset = 0.05;
  spec.drop_response = 0.05;
  FaultScenario scenario(spec, 99, /*max_attempts=*/10);

  Bytes want;
  auto stream = scenario.remote().OpenPutStream("streamed").value();
  bool failed = false;
  for (int seg = 0; seg < 8; ++seg) {
    const Bytes segment(1 << 18, static_cast<std::uint8_t>(seg + 1));
    if (!stream->Append(segment).ok()) {
      failed = true;
      break;
    }
    want.insert(want.end(), segment.begin(), segment.end());
    EXPECT_FALSE(scenario.store().Exists("streamed")); // invisible mid-stream
  }
  if (!failed) failed = !stream->Commit().ok();

  if (failed) {
    // Commit ambiguity may have published the full object; anything else
    // must have published nothing.
    auto back = scenario.store().Get("streamed");
    if (back.ok()) {
      EXPECT_EQ(back.value(), want);
    }
  } else {
    EXPECT_EQ(scenario.store().Get("streamed").value(), want);
  }
  EXPECT_GT(scenario.fault_stats().injected(), 0u);
}

/// Forwards to a TcpTransport that the test can also reach, so it can
/// break one chosen connection at one chosen moment.
class SharedTransport final : public Transport {
 public:
  explicit SharedTransport(std::shared_ptr<TcpTransport> inner)
      : inner_(std::move(inner)) {}
  Status SendFrame(ByteSpan payload) override {
    return inner_->SendFrame(payload);
  }
  Result<Bytes> RecvFrame() override { return inner_->RecvFrame(); }
  void Close() override { inner_->Close(); }
  void Shutdown() override { inner_->Shutdown(); }

 private:
  std::shared_ptr<TcpTransport> inner_;
};

// Deterministic stream break: the stream's own connection resets right
// after its Begin. The put fails with kIOError instead of retrying,
// publishes nothing, and leaves the backend fit for the next stream.
TEST(NetFault, BrokenStreamFailsFastAndPublishesNothing) {
  storage::MemBackend store;
  auto server = NexusdServer::Start(store).value();
  const std::uint16_t port = server->port();
  auto dialed = std::make_shared<std::vector<std::shared_ptr<TcpTransport>>>();
  TransportFactory factory =
      [port, dialed]() -> Result<std::unique_ptr<Transport>> {
    NEXUS_ASSIGN_OR_RETURN(std::unique_ptr<TcpTransport> tcp,
                           TcpTransport::Dial("127.0.0.1", port, 2000, 2000));
    dialed->push_back(std::move(tcp));
    return std::unique_ptr<Transport>(
        std::make_unique<SharedTransport>(dialed->back()));
  };
  RemoteBackend remote(std::move(factory));

  auto stream = remote.OpenPutStream("broken").value();
  const Bytes segment(4096, 5);
  ASSERT_TRUE(stream->Append(segment).ok()); // dials, begins, sends
  ASSERT_EQ(dialed->size(), 1u);             // the stream's own connection
  dialed->back()->Shutdown();

  const Status appended = stream->Append(segment);
  if (!appended.ok()) {
    EXPECT_EQ(appended.code(), ErrorCode::kIOError);
  }
  EXPECT_EQ(stream->Commit().code(), ErrorCode::kIOError);
  EXPECT_FALSE(store.Exists("broken"));
  EXPECT_EQ(dialed->size(), 1u); // no redial: nothing was retried

  auto fresh = remote.OpenPutStream("broken").value();
  ASSERT_TRUE(fresh->Append(segment).ok());
  ASSERT_TRUE(fresh->Commit().ok());
  EXPECT_EQ(store.Get("broken").value(), segment);
}

// The Stats RPC rides the same retry machinery as storage RPCs: with
// responses being dropped it still completes within the retry budget and
// reports a coherent snapshot.
TEST(NetFault, StatsRpcRetriesThroughDroppedResponses) {
  FaultSpec spec;
  spec.drop_response = 0.5;
  FaultScenario scenario(spec, 31337, /*max_attempts=*/10);

  ASSERT_TRUE(scenario.remote().Put("a", Bytes{1}).ok());
  auto stats = scenario.remote().Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // The server applied (and counted) every attempt that reached it — at
  // minimum the successful Put.
  EXPECT_GE(stats.value().rpcs_served, 1u);
  EXPECT_GE(stats.value().connections_accepted, 1u);
  std::uint64_t per_op_total = 0;
  for (const auto& row : stats.value().per_op) per_op_total += row.count;
  EXPECT_EQ(per_op_total, stats.value().rpcs_served);
  EXPECT_GT(scenario.fault_stats().dropped_responses, 0u);
}

// The backoff streak RESETS on success: a transient blip early in the
// run must not inflate the delay of an unrelated later retry. Ordinals
// 0 and 1 (the first Put's first two attempts) drop the request, ordinal
// 2 succeeds — which must zero the streak — then ordinal 3 (the second
// Put's first attempt) drops again and ordinal 4 succeeds.
TEST(NetFault, BackoffStreakResetsAfterSuccess) {
  storage::MemBackend store;
  auto server = NexusdServer::Start(store).value();

  const std::uint16_t port = server->port();
  auto stats = std::make_shared<FaultStats>();
  auto ordinal = std::make_shared<std::uint64_t>(0);
  TransportFactory factory = [port, stats,
                              ordinal]() -> Result<std::unique_ptr<Transport>> {
    NEXUS_ASSIGN_OR_RETURN(std::unique_ptr<TcpTransport> tcp,
                           TcpTransport::Dial("127.0.0.1", port, 2000, 2000));
    const std::uint64_t n = (*ordinal)++;
    FaultSpec spec;
    if (n == 0 || n == 1 || n == 3) spec.drop_request = 1.0;
    return std::unique_ptr<Transport>(
        std::make_unique<FaultyTransport>(std::move(tcp), spec, n, stats));
  };

  SleepRecorder sleeps;
  RemoteBackendOptions client;
  client.max_attempts = 6;
  client.backoff_base_ms = 5;
  client.backoff_cap_ms = 100;
  client.max_pooled_connections = 0; // one dial (one ordinal) per attempt
  client.sleep_ms = sleeps.fn();
  RemoteBackend remote(std::move(factory), client);

  ASSERT_TRUE(remote.Put("a", Bytes{1}).ok()); // attempts 1,2 drop; 3 lands
  ASSERT_TRUE(remote.Put("b", Bytes{2}).ok()); // attempt 1 drops; 2 lands

  const auto recorded = [&] {
    const std::lock_guard<std::mutex> lock(sleeps.mu);
    return sleeps.sleeps_ms;
  }();
  ASSERT_EQ(recorded.size(), 3u);
  // Second backoff of the first Put: streak 2, nominal 2*base, jitter in
  // [0.5, 1.0) => [5, 9] ms.
  EXPECT_GE(recorded[1], 5);
  // First backoff of the SECOND Put: the successful third attempt of the
  // first Put reset the streak, so this is streak 1 again — [2, 4] ms. An
  // unreset streak of 3 would have slept at least 10 ms.
  EXPECT_GE(recorded[2], 1);
  EXPECT_LE(recorded[2], 4);
  EXPECT_EQ(stats->dropped_requests, 3u);
  server->Stop();
}

// Identical seeds replay identical schedules: fault tallies, retry
// counters and backoff sequences all match between two runs.
TEST(NetFault, FixedSeedReplaysExactSchedule) {
  auto run = [](std::uint64_t seed) {
    FaultSpec spec;
    spec.drop_request = 0.15;
    spec.reset = 0.10;
    FaultScenario scenario(spec, seed, /*max_attempts=*/8);
    for (int i = 0; i < 15; ++i) {
      (void)scenario.remote().Put("o" + std::to_string(i), Bytes(64, 1));
    }
    struct Outcome {
      std::uint64_t dropped, resets, clean;
      std::uint64_t retries, reconnects;
      std::vector<int> sleeps;
    };
    return Outcome{scenario.fault_stats().dropped_requests,
                   scenario.fault_stats().resets,
                   scenario.fault_stats().clean,
                   scenario.counters().retries,
                   scenario.counters().reconnects,
                   scenario.sleeps()};
  };

  const auto a = run(2024);
  const auto b = run(2024);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.resets, b.resets);
  EXPECT_EQ(a.clean, b.clean);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.reconnects, b.reconnects);
  EXPECT_EQ(a.sleeps, b.sleeps);
  EXPECT_GT(a.dropped + a.resets, 0u);

  const auto c = run(2025); // a different seed draws a different schedule
  EXPECT_NE(a.sleeps, c.sleeps);
}

} // namespace
} // namespace nexus::net
