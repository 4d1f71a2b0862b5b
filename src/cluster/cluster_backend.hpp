// ClusterBackend: a sharded, replicated StorageBackend over N nexusd
// shards (DESIGN.md §11).
//
// This is a CLIENT-side subsystem, in keeping with the NeXUS thesis:
// shards are plain untrusted nexusd object stores that never learn the
// placement or replication policy; all coordination logic runs in the
// client, below the crypto layer, so every replicated byte is already
// ciphertext by the time it fans out. The layering is unchanged —
// ClusterBackend IS a StorageBackend, so CachedBackend, the journal and
// NexusClient compose over it exactly as they do over one RemoteBackend.
//
//   * Placement — a consistent-hash ring with virtual nodes (ring.hpp).
//     An object's REPLICA SET is the first R distinct shards clockwise
//     from its point; membership change moves only the arcs the changed
//     shard covered.
//   * Quorums — Put writes a versioned envelope to the replica set and
//     needs W acks (default majority of R); Get reads until R_q shards
//     answered and returns the envelope with the highest (version,
//     writer) order. Writes that cannot reach an owner SLIDE DOWN the
//     successor list (sloppy quorum): the next healthy successor absorbs
//     the replica, a failover is counted, and read-repair / rebalancing
//     drain it back once the owner returns. This is what lets a 3-shard
//     R=2 cluster keep committing with W=2 while one shard is dead.
//   * Versions — envelopes carry a hybrid logical clock (drawn from an
//     atomic counter seeded with wall time, advanced past every version
//     observed that is not too far ahead of wall time) plus a per-client
//     writer id as tiebreak. Deletes are TOMBSTONE envelopes written
//     blind (no read first) through the same quorum path and ordered like
//     a Put, so a resurrecting replica cannot undo a delete.
//   * Digest reads — the store holds ciphertext and the enclave's AEAD,
//     not the envelope, guards integrity, so an envelope's 25-byte head
//     tells a quorum read everything its full decode does. Paths that
//     only compare versions (Exists, GetHead, List's tombstone filter,
//     repair's re-check) read heads only; Get reads the payload
//     from the first replica that answers and heads from the rest,
//     fetching a second payload only when a head is newer.
//   * Repair — every shard answer, whole or head, goes through one
//     replica-read rule (missing or corrupt = an answer with no
//     envelope, any other error = unreachable). When a quorum read sees
//     divergent replicas, the newest envelope is copied to the
//     stale/missing ones under the object's stripe lock (checking again
//     under the lock, never drawing a new version); hinted handoff
//     replays through the same copy routine. One rebalance pass
//     converges the names in a set of ring arcs — the arcs a membership
//     change moved, or the whole circle — onto their owners, then purges
//     replicas from shards that no longer own them.
//   * Health — consecutive transport failures (server verdicts do not
//     count) eject a shard from candidate sets; a backoff-gated
//     half-open probe reinstates it on the first success.
//
// Thread-safety: full StorageBackend contract. Mutations, read-repair and
// the rebalancer serialize per object name on a stripe-lock array, so
// last-writer-wins is decided by envelope order, not interleaving luck.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_counters.hpp"
#include "cluster/ring.hpp"
#include "common/bytes.hpp"
#include "common/result.hpp"
#include "net/remote_backend.hpp"
#include "storage/backend.hpp"
#include "trace/histogram.hpp"

namespace nexus::cluster {

// ---- versioned replica envelope ---------------------------------------------

/// What actually lands in a shard's object store: the caller's payload
/// wrapped with the metadata replica convergence needs.
struct Envelope {
  bool tombstone = false;    // a quorum-committed delete marker
  std::uint64_t version = 0; // hybrid logical clock draw
  std::uint64_t writer = 0;  // writer id, total-order tiebreak
  Bytes payload;             // empty for tombstones
};

Bytes EncodeEnvelope(const Envelope& env);
/// Header-only encoding for STREAMED envelopes: same fields, but the
/// payload is "all remaining bytes" (flagged, no length prefix), so the
/// header can hit the wire before the payload length is known. An object
/// streamed as header + raw appends decodes through the same
/// DecodeEnvelope as a buffered one. `env.payload` is ignored.
Bytes EncodeEnvelopeStreamHeader(const Envelope& env);
Result<Envelope> DecodeEnvelope(ByteSpan data);
/// Bytes of an envelope's fixed head: magic, flags, version, writer and
/// the payload length of the buffered form (the streamed form's head is
/// the first 21 of them).
inline constexpr std::size_t kEnvelopeHeadBytes = 25;
/// A stored envelope read from its first bytes: `envelope.payload` holds
/// whatever payload bytes the prefix reached, `payload_size` the stored
/// payload's full length.
struct EnvelopeHead {
  Envelope envelope;
  std::uint64_t payload_size = 0;
};
/// Decodes a stored envelope from its first bytes and the whole object's
/// size, with the checks DecodeEnvelope makes (DecodeEnvelope is this
/// with the whole object as the prefix): magic, flags, and for the
/// buffered form a length within kMaxObjectBytes that accounts for
/// exactly the bytes after the head. A prefix of at least
/// kEnvelopeHeadBytes (or the whole object) decodes exactly when the
/// whole object would.
Result<EnvelopeHead> DecodeEnvelopeHead(ByteSpan prefix, std::uint64_t size);
/// Strict "a supersedes b" in last-writer-wins order: lexicographic on
/// (version, writer).
[[nodiscard]] bool EnvelopeNewer(const Envelope& a, const Envelope& b);

/// Name prefix under which handoff hint markers are stored on shards.
/// Lives in the control-plane namespace (leading 0x01 byte) that List
/// and the rebalancer never treat as data; exposed so nexus-stat can
/// report pending hints per shard.
inline constexpr char kHandoffHintPrefix[] = "\x01nxh/";

/// How far ahead of this client's wall clock an envelope's version may
/// run (the max-offset rule of hybrid logical clocks). A decoded version
/// above `(now_ms + kMaxClockSkewMs) << 20` is treated as forged: the
/// replica counts as an answer with no envelope, repair overwrites it,
/// and the version clock never observes it. An honest client whose
/// clock runs further ahead than this is treated the same way.
inline constexpr std::uint64_t kMaxClockSkewMs = 5 * 60 * 1000;

// ---- configuration ----------------------------------------------------------

/// One shard: a stable id (hashes onto the ring — reuse the id to reuse
/// the placement) and a factory producing its backend. Production shards
/// are RemoteBackends to nexusd daemons; tests inject MemBackends or
/// fault-wrapped ones.
struct ShardSpec {
  std::string id;
  std::function<Result<std::unique_ptr<storage::StorageBackend>>()> factory;
  /// Inert: nothing runs it. Kept only because nexus_bench brace-inits
  /// it (ROADMAP item 2).
  std::function<Status(storage::StorageBackend&)> revive;
};

struct ClusterOptions {
  /// Replicas per object. 0 = NEXUS_REPLICATION env (default 2). Clamped
  /// to the shard count at placement time.
  std::size_t replication = 0;
  /// Write acks required. 0 = majority of replication (R/2 + 1).
  std::size_t write_quorum = 0;
  /// Shard answers required per read. 0 = majority of replication.
  std::size_t read_quorum = 0;
  /// Virtual nodes per shard on the ring.
  std::size_t vnodes = 64;
  /// Consecutive transport failures before a shard is ejected.
  int eject_after = 3;
  /// Reinstatement probe backoff: base * 2^episode, capped.
  int reinstate_backoff_base_ms = 100;
  int reinstate_backoff_cap_ms = 5000;
  /// Version tiebreak identity. 0 = random per instance.
  std::uint64_t writer_id = 0;
  /// Injectable clock (ms, monotone-ish) for the health backoff and the
  /// version-clock seed. Null = wall clock.
  std::function<std::uint64_t()> now_ms;
  /// Run the background rebalance thread (membership changes trigger
  /// passes). Tests that want deterministic passes set false and call
  /// RebalanceNow().
  bool background_rebalance = true;
};

// ---- the backend ------------------------------------------------------------

class ClusterBackend final : public storage::StorageBackend {
 public:
  /// Builds every shard via its factory. Fails if any factory fails or
  /// fewer shards than the write quorum exist.
  static Result<std::unique_ptr<ClusterBackend>> Create(
      std::vector<ShardSpec> shards, ClusterOptions options = {});

  /// TCP convenience: `endpoints` is "host:port,host:port,..."; empty
  /// falls back to the NEXUS_CLUSTER env var. Each endpoint becomes a
  /// RemoteBackend shard (the endpoint string is the shard id).
  static Result<std::unique_ptr<ClusterBackend>> Connect(
      const std::string& endpoints, ClusterOptions options = {},
      net::RemoteBackendOptions remote = {});

  ~ClusterBackend() override;

  // StorageBackend surface. Leases and invalidation push are not offered
  // at cluster level (every read already consults a quorum), so the cache
  // tier above runs lease-less: write-through + TTL.
  Result<Bytes> Get(const std::string& name) override;
  Status Put(const std::string& name, ByteSpan data) override;
  Status Delete(const std::string& name) override;
  /// GetHead(name, 0): a quorum of replica heads.
  bool Exists(const std::string& name) override;
  std::vector<std::string> List(const std::string& prefix) override;
  /// A quorum of replica heads, each asking for kEnvelopeHeadBytes +
  /// `max_bytes`: the newest answers with its own payload prefix and
  /// size, so no payload moves past `max_bytes`. It does not
  /// read-repair.
  Result<Head> GetHead(const std::string& name, std::size_t max_bytes) override;
  /// Replicated streamed put. Zero or one segment commits as one quorum
  /// Put; the second segment opens one pipelined wire stream per replica
  /// and fans out from then on, so the client holds at most one segment.
  /// Quorum is evaluated at Commit (straggler replica streams are
  /// aborted); an owner that missed the stream gets a handoff hint.
  Result<std::unique_ptr<PutStream>> OpenPutStream(
      const std::string& name) override;

  // ---- membership -----------------------------------------------------------

  /// Adds a shard: the ring changes immediately (new writes place onto
  /// it) and a DELTA rebalance pass — bounded to the ring arcs whose
  /// owner set changed — is scheduled to migrate them.
  Status AddShard(ShardSpec spec);
  /// Removes a shard from the ring (its backend is dropped). Objects it
  /// held survive on their other replicas; the scheduled delta pass
  /// restores full replication for the moved arcs.
  Status RemoveShard(const std::string& id);

  /// Synchronous rebalancing: one pass per pending membership delta,
  /// each bounded to its moved arcs; with no delta queued, one pass over
  /// the whole circle converges every object on any shard onto its ring
  /// owners and purges non-owner replicas. Idempotent; safe under
  /// concurrent writes (per-name stripe locks).
  void RebalanceNow();

  /// One synchronous hinted-handoff drain: replays every durable hint
  /// marker whose target owner is reachable, then deletes the hint.
  /// Runs automatically on the maintenance thread after a shard is
  /// reinstated; exposed for deterministic tests.
  void DrainHandoffNow();

  // ---- observability --------------------------------------------------------

  [[nodiscard]] ClusterCounters counters() const;
  [[nodiscard]] std::vector<std::string> ShardIds() const;

  struct ShardHealth {
    std::string id;
    bool ejected = false;
    int consecutive_failures = 0;
    std::uint64_t eject_episodes = 0;
  };
  [[nodiscard]] std::vector<ShardHealth> Health() const;

  [[nodiscard]] std::size_t replication() const noexcept { return replication_; }
  [[nodiscard]] std::size_t write_quorum() const noexcept { return write_quorum_; }
  [[nodiscard]] std::size_t read_quorum() const noexcept { return read_quorum_; }

 private:
  friend class ClusterPutStream;

  struct Shard {
    std::string id;
    std::shared_ptr<storage::StorageBackend> backend;
    mutable std::mutex mu; // guards the health fields below
    int consecutive_failures = 0;
    bool ejected = false;
    bool probing = false;  // a half-open probe is in flight
    int backoff_level = 0; // consecutive failed probes this episode
    std::uint64_t eject_until_ms = 0;
    std::uint64_t eject_episodes = 0;
  };
  using ShardPtr = std::shared_ptr<Shard>;

  /// One shard's answer for one name: transport-ok response, with the
  /// decoded envelope or nullopt for "no replica" (missing or corrupt).
  /// A head answer's envelope holds only the payload bytes its prefix
  /// reached; `payload_size` is the stored payload's full length.
  struct ReadHit {
    ShardPtr shard;
    std::optional<Envelope> envelope;
    std::uint64_t payload_size = 0;
    /// The envelope carries its whole payload.
    [[nodiscard]] bool whole() const {
      return envelope && envelope->payload.size() == payload_size;
    }
  };

  /// What CopyIfStaleLocked did to its target.
  enum class CopyOutcome {
    kCopied,  // the target was missing, corrupt or older: overwritten
    kCurrent, // the target already held the envelope or a newer one
    kFailed,  // unreachable, or the put failed: retry later
  };

  ClusterBackend(ClusterOptions options, std::size_t replication,
                 std::size_t write_quorum, std::size_t read_quorum);

  // Versions.
  std::uint64_t DrawVersion();
  void ObserveVersion(std::uint64_t version);
  /// The highest version an honest writer can have drawn by now:
  /// `(now_ms + kMaxClockSkewMs) << 20`, saturating.
  std::uint64_t MaxPlausibleVersion() const;

  // Health.
  bool ShardAvailable(Shard& shard);
  void RecordShardOutcome(Shard& shard, bool transport_ok);

  // Shard RPC wrappers: time into shard_rpc_latency_, bump
  // rpc/failure counters, feed the health tracker.
  Result<Bytes> ShardGet(const ShardPtr& shard, const std::string& name);
  Result<Head> ShardGetHead(const ShardPtr& shard, const std::string& name,
                            std::size_t max_bytes);
  Status ShardPut(const ShardPtr& shard, const std::string& name,
                  ByteSpan data);
  Status ShardDelete(const ShardPtr& shard, const std::string& name);
  /// Bounded-batch listing (kListPage on a remote shard); List, the
  /// rebalancer and the handoff drainer page with this so a huge shard
  /// never materializes its whole listing in one frame.
  Result<storage::StorageBackend::ListPage> ShardListPage(
      const ShardPtr& shard, const std::string& prefix,
      const std::string& start_after, std::size_t limit);

  /// Extended successor list for the name whose ring point is `point`
  /// (HashRing::HashPoint): EVERY shard in ring-successor order (owners
  /// first, then the failover tail). Each op hashes its name once and
  /// passes the point to placement and to StripeFor.
  std::vector<ShardPtr> PreferenceList(std::uint64_t point) const;

  /// The replica-read rule every path applies to a shard's answer:
  /// kNotFound, an undecodable replica or one whose version is further
  /// ahead than kMaxClockSkewMs (counted in forged_versions) is a hit
  /// with no envelope (an overwritable copy), any other error is nullopt
  /// (unreachable), and a decoded envelope advances the version clock.
  /// `verdict` is the shard's; when it is ok, `prefix` holds the
  /// answer's first bytes (all of them for a whole read) and `size` the
  /// object's length.
  std::optional<ReadHit> ToHit(const ShardPtr& shard, const Status& verdict,
                               ByteSpan prefix, std::uint64_t size);
  /// The rule applied to a whole replica.
  std::optional<ReadHit> ToHit(const ShardPtr& shard, const Result<Bytes>& res);
  /// One shard's replica of `name` through the rule: its first
  /// `head_bytes` bytes, or the whole object when that is nullopt.
  std::optional<ReadHit> ReadReplica(const ShardPtr& shard,
                                     const std::string& name,
                                     std::optional<std::size_t> head_bytes);

  /// Reads `name` until `read_quorum_` transport-ok answers (kNotFound is
  /// a valid empty answer), sliding down the preference list past dead
  /// shards. Every answer is a head of `head_bytes` bytes, except that
  /// with `first_whole` the first answering shard is read whole. Returns
  /// the hits, or empty when quorum was unreachable.
  std::vector<ReadHit> QuorumRead(
      const std::string& name, std::uint64_t point, bool count_failover,
      bool first_whole, std::size_t head_bytes = kEnvelopeHeadBytes);
  /// Index of the newest hit with an envelope (the first of equals);
  /// hits.size() when no replica exists.
  static std::size_t NewestOf(const std::vector<ReadHit>& hits);
  /// Best (newest) envelope among hits; nullopt when no replica exists.
  static std::optional<Envelope> BestOf(const std::vector<ReadHit>& hits);
  /// Read-repair: when some hit is missing or older than `best`, takes
  /// the name's stripe lock and copies `best` onto each stale hit.
  void ReadRepair(const std::string& name, std::uint64_t point,
                  const Envelope& best,
                  const std::vector<ReadHit>& hits);
  /// The copy routine read-repair and handoff replay share: re-reads
  /// `target`'s head and, unless it already holds `best` or newer,
  /// puts `encoded` (an encoding of `best`, possibly the stream form)
  /// over it. Caller holds the name's stripe lock.
  CopyOutcome CopyIfStaleLocked(const ShardPtr& target,
                                const std::string& name, const Envelope& best,
                                ByteSpan encoded);
  /// Put for a name whose ring point the caller already holds (the put
  /// stream's one-segment commit).
  Status PutAt(const std::string& name, std::uint64_t point, ByteSpan data);
  /// Stamps `env` with a fresh version from this client's clock and
  /// quorum-writes it under the stripe lock: the one write rule Put and
  /// Delete share, so a tombstone is ordered exactly like a Put.
  Status WriteNewEnvelope(const std::string& name, std::uint64_t point,
                          Envelope env);
  /// Envelope quorum-write used by Put / Delete / read-repair commit.
  Status QuorumWriteLocked(const std::string& name, std::uint64_t point,
                           const Bytes& encoded);

  /// The stripe lock of the name whose ring point is `point`.
  std::mutex& StripeFor(std::uint64_t point);

  void Bump(std::uint64_t ClusterCounters::* field, std::uint64_t n = 1);
  /// Monotone gauge update: keeps the max.
  void GaugeMax(std::uint64_t ClusterCounters::* field, std::uint64_t value);

  [[nodiscard]] std::vector<ShardPtr> SnapshotShards() const;

  /// Leaves a durable hint marker on `holder` (which holds the payload
  /// under the real name) recording that `owner` missed the write.
  void RecordHint(const ShardPtr& holder, const std::string& owner,
                  const std::string& name);

  void RebalanceLoop();
  /// Lists only the shards that own `arcs` under either ring and
  /// converges only the names hashing into them; a begin == end arc is
  /// the whole circle.
  void RebalancePass(const std::vector<MovedArc>& arcs);
  /// Converges one name: newest envelope onto every ring owner, then
  /// purge from non-owners once the owners provably hold it.
  void ConvergeName(const std::string& name, std::uint64_t point,
                    const std::vector<ShardPtr>& all);
  void DrainHandoffPass();

  ClusterOptions options_;
  const std::size_t replication_;
  const std::size_t write_quorum_;
  const std::size_t read_quorum_;
  std::uint64_t writer_id_ = 0;
  std::atomic<std::uint64_t> version_clock_{0};

  mutable std::mutex membership_mu_; // guards ring_ + shards_
  HashRing ring_;
  std::map<std::string, ShardPtr> shards_;

  std::array<std::mutex, 64> stripes_;

  mutable std::mutex counters_mu_;
  ClusterCounters counters_; // percentiles come from shard_rpc_latency_
  trace::Histogram shard_rpc_latency_; // records lock-free

  // Rebalance/maintenance thread: woken by membership changes (queued
  // ring deltas) and shard reinstatements (handoff drain).
  std::mutex rebalance_mu_;
  std::condition_variable rebalance_cv_;
  bool maintenance_pending_ = false; // handoff drain
  std::vector<std::vector<MovedArc>> pending_deltas_;
  bool shutdown_ = false;
  std::thread rebalance_thread_;
};

/// Splits "host:port,host:port" (whitespace tolerated) into endpoint
/// strings; exposed for nexus-stat's --cluster mode.
std::vector<std::string> ParseEndpointList(const std::string& endpoints);
/// Splits one "host:port". Returns false on malformed input.
bool SplitHostPort(const std::string& endpoint, std::string* host,
                   std::uint16_t* port);

} // namespace nexus::cluster
