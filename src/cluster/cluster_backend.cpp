#include "cluster/cluster_backend.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <random>
#include <set>

#include "common/env.hpp"
#include "common/serial.hpp"
#include "net/transport.hpp"
#include "trace/trace.hpp"

namespace nexus::cluster {

namespace {

// "NXE1": replica envelope, version 1.
constexpr std::uint32_t kEnvelopeMagic = 0x3145584e;
constexpr std::uint8_t kFlagTombstone = 0x01;
// Payload is "all remaining bytes" (no length prefix) — the streamed
// form, whose header goes out before the payload length is known.
constexpr std::uint8_t kFlagStreamTail = 0x02;

// Control-plane objects live under a prefix no caller name can start
// with (names come from the VFS layer as printable paths); they are
// invisible to List and never migrated by the rebalancer.
constexpr char kControlPrefix = '\x01';
// Handoff hint marker: kHandoffHintPrefix + owner_id + kHintSep +
// object_name, stored on a shard that holds the payload under the real
// name. The marker itself carries no payload.
constexpr char kHintSep = '\x1f';

bool IsControlName(const std::string& name) {
  return !name.empty() && name.front() == kControlPrefix;
}

std::string HintName(const std::string& owner, const std::string& object) {
  std::string out(kHandoffHintPrefix);
  out += owner;
  out += kHintSep;
  out += object;
  return out;
}

bool ParseHintName(const std::string& hint, std::string* owner,
                   std::string* object) {
  const std::size_t prefix = sizeof(kHandoffHintPrefix) - 1;
  if (hint.size() <= prefix || hint.compare(0, prefix, kHandoffHintPrefix) != 0) {
    return false;
  }
  // Shard ids (endpoints or test names) never contain the separator, so
  // the FIRST one splits owner from object even if the object name has
  // exotic bytes.
  const std::size_t sep = hint.find(kHintSep, prefix);
  if (sep == std::string::npos || sep + 1 >= hint.size()) return false;
  *owner = hint.substr(prefix, sep - prefix);
  *object = hint.substr(sep + 1);
  return true;
}

/// How many names one rebalance/drain listing RPC may return.
constexpr std::size_t kListBatch = 512;

std::uint64_t WallMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::uint64_t MonotonicNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t EnvReplication() {
  const std::uint64_t r = EnvUnsigned("NEXUS_REPLICATION", 2);
  return r >= 1 && r <= 64 ? static_cast<std::size_t>(r) : 2;
}

} // namespace

// ---- envelope codec ---------------------------------------------------------

Bytes EncodeEnvelope(const Envelope& env) {
  Writer w;
  w.U32(kEnvelopeMagic);
  w.U8(env.tombstone ? kFlagTombstone : 0);
  w.U64(env.version);
  w.U64(env.writer);
  w.Var(env.payload);
  return std::move(w).Take();
}

Bytes EncodeEnvelopeStreamHeader(const Envelope& env) {
  Writer w;
  w.U32(kEnvelopeMagic);
  w.U8(static_cast<std::uint8_t>((env.tombstone ? kFlagTombstone : 0) |
                                 kFlagStreamTail));
  w.U64(env.version);
  w.U64(env.writer);
  return std::move(w).Take();
}

namespace {

// The streamed form's head: magic, flags, version, writer.
constexpr std::size_t kStreamHeadBytes = 21;

} // namespace

Result<EnvelopeHead> DecodeEnvelopeHead(ByteSpan prefix, std::uint64_t size) {
  if (prefix.size() > size) {
    return Error(ErrorCode::kIntegrityViolation, "envelope prefix past its end");
  }
  Reader r(prefix);
  NEXUS_ASSIGN_OR_RETURN(const std::uint32_t magic, r.U32());
  if (magic != kEnvelopeMagic) {
    return Error(ErrorCode::kIntegrityViolation, "bad envelope magic");
  }
  NEXUS_ASSIGN_OR_RETURN(const std::uint8_t flags, r.U8());
  if ((flags & ~(kFlagTombstone | kFlagStreamTail)) != 0) {
    return Error(ErrorCode::kIntegrityViolation, "unknown envelope flags");
  }
  EnvelopeHead head;
  head.envelope.tombstone = (flags & kFlagTombstone) != 0;
  NEXUS_ASSIGN_OR_RETURN(head.envelope.version, r.U64());
  NEXUS_ASSIGN_OR_RETURN(head.envelope.writer, r.U64());
  std::size_t offset = kStreamHeadBytes;
  if ((flags & kFlagStreamTail) == 0) {
    NEXUS_ASSIGN_OR_RETURN(const std::uint32_t length, r.U32());
    if (length > net::kMaxObjectBytes) {
      return Error(ErrorCode::kIntegrityViolation, "envelope payload too large");
    }
    if (size != kEnvelopeHeadBytes + length) {
      return Error(ErrorCode::kIntegrityViolation,
                   "envelope length disagrees with its object");
    }
    offset = kEnvelopeHeadBytes;
  }
  head.envelope.payload.assign(
      prefix.begin() + static_cast<std::ptrdiff_t>(offset), prefix.end());
  head.payload_size = size - offset;
  return head;
}

Result<Envelope> DecodeEnvelope(ByteSpan data) {
  NEXUS_ASSIGN_OR_RETURN(EnvelopeHead head,
                         DecodeEnvelopeHead(data, data.size()));
  return std::move(head.envelope);
}

bool EnvelopeNewer(const Envelope& a, const Envelope& b) {
  if (a.version != b.version) return a.version > b.version;
  return a.writer > b.writer;
}

// ---- endpoint parsing -------------------------------------------------------

std::vector<std::string> ParseEndpointList(const std::string& endpoints) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : endpoints) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else if (c != ' ' && c != '\t' && c != '\n') {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

bool SplitHostPort(const std::string& endpoint, std::string* host,
                   std::uint16_t* port) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == endpoint.size()) {
    return false;
  }
  // 1-5 ASCII digits and nothing else: no sign, no space, no suffix.
  const char* first = endpoint.data() + colon + 1;
  const char* last = endpoint.data() + endpoint.size();
  unsigned parsed = 0;
  const auto [end, ec] = std::from_chars(first, last, parsed);
  if (ec != std::errc() || end != last || last - first > 5 || parsed < 1 ||
      parsed > 65535) {
    return false;
  }
  *host = endpoint.substr(0, colon);
  *port = static_cast<std::uint16_t>(parsed);
  return true;
}

// ---- put streams ------------------------------------------------------------

// The replicated streamed put. It holds a copy of the first appended
// segment, because one whole-object Put per replica is the cheapest way
// to store a one-segment object: a Commit with zero or one segment sends
// it as one quorum Put — the same RPCs, hints and stripe locking as a
// plain Put. The second Append opens one pipelined wire stream per
// replica, sends the held segment, frees it and fans out every later
// segment immediately, so the client retains at most one segment plus
// the envelope header — independent of object size — and upload
// overlaps whatever is producing the bytes.
//
// Placement mirrors QuorumWriteLocked's sloppy quorum at STREAM-OPEN
// time: unavailable owners are slid past onto the next successors (a
// failover is counted). A replica stream that dies mid-put is aborted
// and dropped; the put continues while at least write_quorum streams
// survive, fails fast otherwise. Quorum is evaluated at Commit, under
// the object's stripe lock; owners that missed the stream — slid past
// at open, lost mid-put, or failed at commit — get a durable handoff
// hint on a committed replica, which holds the full payload.
class ClusterPutStream final : public storage::StorageBackend::PutStream {
 public:
  ClusterPutStream(ClusterBackend& parent, std::string name)
      : parent_(parent),
        name_(std::move(name)),
        point_(HashRing::HashPoint(name_)) {}

  ~ClusterPutStream() override {
    if (!finished_) Abort();
  }

  Status Append(ByteSpan data) override {
    if (finished_) {
      return Error(ErrorCode::kInvalidArgument,
                   "append on finished stream: " + name_);
    }
    if (header_.size() + total_bytes_ + data.size() > net::kMaxObjectBytes) {
      return Error(ErrorCode::kInvalidArgument, "streamed object too large");
    }
    total_bytes_ += data.size();
    if (++segments_ == 1) {
      held_ = ToBytes(data);
      parent_.GaugeMax(&ClusterCounters::stream_put_buffered_high_water_bytes,
                       held_.size());
      return Status::Ok();
    }
    if (segments_ == 2) {
      const Status begun = Begin();
      if (!begun.ok()) {
        Abort();
        return begun;
      }
      FanOut(held_);
      Bytes().swap(held_);
    }
    FanOut(data);
    if (replicas_.size() < needed_) {
      finished_ = true;
      AbortReplicas();
      parent_.Bump(&ClusterCounters::quorum_failures);
      return Error(ErrorCode::kIOError,
                   "write quorum lost mid-stream: " + name_);
    }
    return Status::Ok();
  }

  Status Commit() override {
    if (finished_) {
      return Error(ErrorCode::kInvalidArgument,
                   "commit on finished stream: " + name_);
    }
    finished_ = true;
    if (segments_ <= 1) return parent_.PutAt(name_, point_, held_);
    const std::lock_guard<std::mutex> lock(parent_.StripeFor(point_));
    std::size_t acks = 0;
    std::set<std::string> committed;
    ClusterBackend::ShardPtr first_committed;
    for (Replica& r : replicas_) {
      parent_.Bump(&ClusterCounters::shard_rpcs);
      const Status st = r.stream->Commit();
      const bool transport_ok = st.ok() || st.code() != ErrorCode::kIOError;
      if (!transport_ok) parent_.Bump(&ClusterCounters::shard_failures);
      parent_.RecordShardOutcome(*r.shard, transport_ok);
      if (!st.ok()) {
        parent_.Bump(&ClusterCounters::stream_put_replica_aborts);
        continue;
      }
      ++acks;
      committed.insert(r.shard->id);
      if (first_committed == nullptr) first_committed = r.shard;
    }
    replicas_.clear();
    if (acks < needed_) {
      parent_.Bump(&ClusterCounters::quorum_failures);
      return Error(ErrorCode::kIOError,
                   "write quorum not reached (" + std::to_string(acks) + "/" +
                       std::to_string(needed_) + " acks)");
    }
    // Sloppy-quorum debt: every true owner that did not commit gets a
    // durable hint beside a replica that did, so the handoff drainer can
    // replay the write once the owner returns — no read has to stumble
    // on the divergence first.
    for (const std::string& owner : owner_ids_) {
      if (committed.contains(owner)) continue;
      parent_.RecordHint(first_committed, owner, name_);
    }
    parent_.Bump(&ClusterCounters::stream_puts);
    return Status::Ok();
  }

  void Abort() override {
    if (finished_) return;
    finished_ = true;
    AbortReplicas();
  }

 private:
  struct Replica {
    ClusterBackend::ShardPtr shard;
    std::unique_ptr<storage::StorageBackend::PutStream> stream;
  };

  /// Draws the version, encodes the stream header and opens up to R
  /// replica streams along the preference list, sliding past unavailable
  /// shards exactly like the quorum Put.
  Status Begin() {
    parent_.Bump(&ClusterCounters::quorum_writes);
    Envelope env;
    env.version = parent_.DrawVersion();
    env.writer = parent_.writer_id_;
    header_ = EncodeEnvelopeStreamHeader(env);

    const std::vector<ClusterBackend::ShardPtr> prefs =
        parent_.PreferenceList(point_);
    needed_ = std::min(parent_.write_quorum_, prefs.size());
    if (needed_ == 0) {
      parent_.Bump(&ClusterCounters::quorum_failures);
      return Error(ErrorCode::kIOError, "cluster has no shards");
    }
    const std::size_t owner_count = std::min(parent_.replication_, prefs.size());
    for (std::size_t i = 0; i < prefs.size() && replicas_.size() < owner_count;
         ++i) {
      ClusterBackend::Shard& shard = *prefs[i];
      if (i < owner_count) owner_ids_.push_back(shard.id);
      if (!parent_.ShardAvailable(shard)) continue;
      parent_.Bump(&ClusterCounters::shard_rpcs);
      auto opened = shard.backend->OpenPutStream(name_);
      if (!opened.ok()) {
        parent_.Bump(&ClusterCounters::shard_failures);
        parent_.RecordShardOutcome(shard, false);
        continue;
      }
      // The header append is where a remote stream actually dials, so
      // its verdict is the shard's health signal.
      const Status st = opened.value()->Append(
          ByteSpan(header_.data(), header_.size()));
      const bool transport_ok = st.ok() || st.code() != ErrorCode::kIOError;
      if (!transport_ok) parent_.Bump(&ClusterCounters::shard_failures);
      parent_.RecordShardOutcome(shard, transport_ok);
      if (!st.ok()) continue;
      if (i >= parent_.replication_) {
        parent_.Bump(&ClusterCounters::failovers);
      }
      replicas_.push_back({prefs[i], std::move(opened).value()});
    }
    if (replicas_.size() < needed_) {
      AbortReplicas();
      parent_.Bump(&ClusterCounters::quorum_failures);
      return Error(ErrorCode::kIOError,
                   "write quorum not reached at stream open: " + name_);
    }
    return Status::Ok();
  }

  /// Appends one segment to every live replica stream, dropping (and
  /// aborting) the ones that fail. Segment sends overlap via each
  /// stream's pipelined window; a slow replica only stalls the fan-out
  /// once its window fills.
  void FanOut(ByteSpan data) {
    for (auto it = replicas_.begin(); it != replicas_.end();) {
      parent_.Bump(&ClusterCounters::shard_rpcs);
      const Status st = it->stream->Append(data);
      if (st.ok()) {
        ++it;
        continue;
      }
      const bool transport_ok = st.code() != ErrorCode::kIOError;
      if (!transport_ok) parent_.Bump(&ClusterCounters::shard_failures);
      parent_.RecordShardOutcome(*it->shard, transport_ok);
      parent_.Bump(&ClusterCounters::stream_put_replica_aborts);
      it->stream->Abort();
      it = replicas_.erase(it);
    }
  }

  void AbortReplicas() {
    for (Replica& r : replicas_) r.stream->Abort();
    replicas_.clear();
  }

  ClusterBackend& parent_;
  std::string name_;
  std::uint64_t point_; // name_'s ring point
  Bytes held_;   // the first segment, until the second arrives
  Bytes header_; // stream envelope header, once the replicas open
  std::vector<Replica> replicas_;
  std::vector<std::string> owner_ids_; // true ring owners at Begin()
  std::size_t needed_ = 0;
  std::size_t total_bytes_ = 0;
  std::size_t segments_ = 0;
  bool finished_ = false;
};

// ---- construction -----------------------------------------------------------

ClusterBackend::ClusterBackend(ClusterOptions options, std::size_t replication,
                               std::size_t write_quorum,
                               std::size_t read_quorum)
    : options_(std::move(options)),
      replication_(replication),
      write_quorum_(write_quorum),
      read_quorum_(read_quorum) {
  if (!options_.now_ms) options_.now_ms = WallMs;
  if (options_.writer_id != 0) {
    writer_id_ = options_.writer_id;
  } else {
    std::random_device rd;
    writer_id_ = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
    if (writer_id_ == 0) writer_id_ = 1;
  }
  // Hybrid logical clock seed: wall ms shifted to leave 2^20 draws per
  // tick. A client with a slow clock still orders correctly against live
  // peers because every decoded envelope advances the clock past it;
  // ToHit keeps envelopes more than kMaxClockSkewMs ahead out of it.
  version_clock_.store(options_.now_ms() << 20, std::memory_order_relaxed);
}

Result<std::unique_ptr<ClusterBackend>> ClusterBackend::Create(
    std::vector<ShardSpec> shards, ClusterOptions options) {
  if (shards.empty()) {
    return Error(ErrorCode::kInvalidArgument, "cluster needs at least 1 shard");
  }
  std::size_t replication =
      options.replication != 0 ? options.replication : EnvReplication();
  replication = std::min(replication, shards.size());
  const std::size_t write_quorum = options.write_quorum != 0
                                       ? options.write_quorum
                                       : replication / 2 + 1;
  const std::size_t read_quorum =
      options.read_quorum != 0 ? options.read_quorum : replication / 2 + 1;
  if (write_quorum > shards.size() || read_quorum > shards.size()) {
    return Error(ErrorCode::kInvalidArgument,
                 "quorum larger than the shard count");
  }

  auto cluster = std::unique_ptr<ClusterBackend>(new ClusterBackend(
      std::move(options), replication, write_quorum, read_quorum));
  cluster->ring_ = HashRing(cluster->options_.vnodes);
  for (ShardSpec& spec : shards) {
    if (spec.id.empty() || !spec.factory) {
      return Error(ErrorCode::kInvalidArgument, "shard needs an id + factory");
    }
    if (cluster->shards_.contains(spec.id)) {
      return Error(ErrorCode::kInvalidArgument,
                   "duplicate shard id: " + spec.id);
    }
    NEXUS_ASSIGN_OR_RETURN(auto backend, spec.factory());
    auto shard = std::make_shared<Shard>();
    shard->id = spec.id;
    shard->backend = std::move(backend);
    cluster->ring_.AddNode(spec.id);
    cluster->shards_.emplace(spec.id, std::move(shard));
  }
  if (cluster->options_.background_rebalance) {
    cluster->rebalance_thread_ =
        std::thread([c = cluster.get()] { c->RebalanceLoop(); });
  }
  return cluster;
}

Result<std::unique_ptr<ClusterBackend>> ClusterBackend::Connect(
    const std::string& endpoints, ClusterOptions options,
    net::RemoteBackendOptions remote) {
  std::string spec = endpoints;
  if (spec.empty()) {
    const char* env = std::getenv("NEXUS_CLUSTER");
    if (env != nullptr) spec = env;
  }
  const std::vector<std::string> list = ParseEndpointList(spec);
  if (list.empty()) {
    return Error(ErrorCode::kInvalidArgument,
                 "no cluster endpoints (NEXUS_CLUSTER empty)");
  }
  std::vector<ShardSpec> shards;
  shards.reserve(list.size());
  for (const std::string& endpoint : list) {
    std::string host;
    std::uint16_t port = 0;
    if (!SplitHostPort(endpoint, &host, &port)) {
      return Error(ErrorCode::kInvalidArgument,
                   "malformed endpoint: " + endpoint);
    }
    shards.push_back(ShardSpec{
        endpoint,
        [host, port, remote]() -> Result<std::unique_ptr<storage::StorageBackend>> {
          // Lazy construction, no Ping: a shard that is down when the
          // client starts must still JOIN the ring (it gets ejected on
          // its first failed RPC and reinstated by the health prober).
          const int connect_ms = remote.connect_deadline_ms;
          const int rpc_ms = remote.rpc_deadline_ms;
          auto backend = std::make_unique<net::RemoteBackend>(
              [host, port, connect_ms,
               rpc_ms]() -> Result<std::unique_ptr<net::Transport>> {
                NEXUS_ASSIGN_OR_RETURN(
                    std::unique_ptr<net::TcpTransport> t,
                    net::TcpTransport::Dial(host, port, connect_ms, rpc_ms));
                return std::unique_ptr<net::Transport>(std::move(t));
              },
              remote);
          return std::unique_ptr<storage::StorageBackend>(std::move(backend));
        },
        /*revive=*/nullptr});
  }
  return Create(std::move(shards), std::move(options));
}

ClusterBackend::~ClusterBackend() {
  {
    const std::lock_guard<std::mutex> lock(rebalance_mu_);
    shutdown_ = true;
  }
  rebalance_cv_.notify_all();
  if (rebalance_thread_.joinable()) rebalance_thread_.join();
}

// ---- versions ---------------------------------------------------------------

std::uint64_t ClusterBackend::DrawVersion() {
  // Saturates instead of wrapping: a wrapped clock would lose every
  // later write to the envelopes it already wrote.
  std::uint64_t cur = version_clock_.load(std::memory_order_relaxed);
  while (cur != std::numeric_limits<std::uint64_t>::max() &&
         !version_clock_.compare_exchange_weak(cur, cur + 1,
                                               std::memory_order_relaxed)) {
  }
  return cur == std::numeric_limits<std::uint64_t>::max() ? cur : cur + 1;
}

std::uint64_t ClusterBackend::MaxPlausibleVersion() const {
  const std::uint64_t limit_ms = options_.now_ms() + kMaxClockSkewMs;
  if (limit_ms > (std::numeric_limits<std::uint64_t>::max() >> 20)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return limit_ms << 20;
}

void ClusterBackend::ObserveVersion(std::uint64_t version) {
  std::uint64_t cur = version_clock_.load(std::memory_order_relaxed);
  while (cur < version && !version_clock_.compare_exchange_weak(
                              cur, version, std::memory_order_relaxed)) {
  }
}

// ---- health -----------------------------------------------------------------

bool ClusterBackend::ShardAvailable(Shard& shard) {
  const std::lock_guard<std::mutex> lock(shard.mu);
  if (!shard.ejected) return true;
  if (shard.probing) return false; // someone else holds the half-open slot
  if (options_.now_ms() < shard.eject_until_ms) return false;
  shard.probing = true;
  return true;
}

void ClusterBackend::RecordShardOutcome(Shard& shard, bool transport_ok) {
  bool ejected_now = false;
  bool reinstated_now = false;
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    if (transport_ok) {
      shard.consecutive_failures = 0;
      shard.backoff_level = 0;
      if (shard.ejected) {
        shard.ejected = false;
        shard.probing = false;
        reinstated_now = true;
      }
    } else if (shard.ejected) {
      // A half-open probe failed: back off harder before the next one.
      shard.probing = false;
      shard.backoff_level = std::min(shard.backoff_level + 1, 16);
      std::uint64_t delay =
          static_cast<std::uint64_t>(options_.reinstate_backoff_base_ms)
          << shard.backoff_level;
      delay = std::min(
          delay, static_cast<std::uint64_t>(options_.reinstate_backoff_cap_ms));
      shard.eject_until_ms = options_.now_ms() + delay;
    } else {
      ++shard.consecutive_failures;
      if (shard.consecutive_failures >= options_.eject_after) {
        shard.ejected = true;
        shard.probing = false;
        shard.backoff_level = 0;
        shard.eject_until_ms =
            options_.now_ms() +
            static_cast<std::uint64_t>(options_.reinstate_backoff_base_ms);
        ++shard.eject_episodes;
        ejected_now = true;
      }
    }
  }
  if (ejected_now) Bump(&ClusterCounters::shards_ejected);
  if (reinstated_now) {
    Bump(&ClusterCounters::shards_reinstated);
    // Hand the handoff drain to the maintenance thread — this path
    // runs inside hot RPC wrappers.
    {
      const std::lock_guard<std::mutex> lock(rebalance_mu_);
      maintenance_pending_ = true;
    }
    rebalance_cv_.notify_all();
  }
}

// ---- per-shard RPC wrappers -------------------------------------------------

Result<Bytes> ClusterBackend::ShardGet(const ShardPtr& shard,
                                       const std::string& name) {
  Bump(&ClusterCounters::shard_rpcs);
  const std::uint64_t t0 = MonotonicNs();
  Result<Bytes> res = shard->backend->Get(name);
  shard_rpc_latency_.Record(MonotonicNs() - t0);
  const bool transport_ok = res.ok() || res.status().code() != ErrorCode::kIOError;
  if (!transport_ok) Bump(&ClusterCounters::shard_failures);
  RecordShardOutcome(*shard, transport_ok);
  return res;
}

Result<storage::StorageBackend::Head> ClusterBackend::ShardGetHead(
    const ShardPtr& shard, const std::string& name, std::size_t max_bytes) {
  Bump(&ClusterCounters::shard_rpcs);
  const std::uint64_t t0 = MonotonicNs();
  Result<Head> res = shard->backend->GetHead(name, max_bytes);
  shard_rpc_latency_.Record(MonotonicNs() - t0);
  const bool transport_ok = res.ok() || res.status().code() != ErrorCode::kIOError;
  if (!transport_ok) Bump(&ClusterCounters::shard_failures);
  RecordShardOutcome(*shard, transport_ok);
  return res;
}

Status ClusterBackend::ShardPut(const ShardPtr& shard, const std::string& name,
                                ByteSpan data) {
  Bump(&ClusterCounters::shard_rpcs);
  const std::uint64_t t0 = MonotonicNs();
  const Status st = shard->backend->Put(name, data);
  shard_rpc_latency_.Record(MonotonicNs() - t0);
  const bool transport_ok = st.ok() || st.code() != ErrorCode::kIOError;
  if (!transport_ok) Bump(&ClusterCounters::shard_failures);
  RecordShardOutcome(*shard, transport_ok);
  return st;
}

Status ClusterBackend::ShardDelete(const ShardPtr& shard,
                                   const std::string& name) {
  Bump(&ClusterCounters::shard_rpcs);
  const std::uint64_t t0 = MonotonicNs();
  const Status st = shard->backend->Delete(name);
  shard_rpc_latency_.Record(MonotonicNs() - t0);
  const bool transport_ok = st.ok() || st.code() != ErrorCode::kIOError;
  if (!transport_ok) Bump(&ClusterCounters::shard_failures);
  RecordShardOutcome(*shard, transport_ok);
  return st;
}

Result<storage::StorageBackend::ListPage> ClusterBackend::ShardListPage(
    const ShardPtr& shard, const std::string& prefix,
    const std::string& start_after, std::size_t limit) {
  Bump(&ClusterCounters::shard_rpcs);
  const std::uint64_t t0 = MonotonicNs();
  storage::StorageBackend::ListPage page =
      shard->backend->ListSome(prefix, start_after, limit);
  // ListSome has no error channel on the StorageBackend surface:
  // RemoteBackend answers an empty page on transport failure, so an empty
  // final page and a dead shard look alike. Disambiguate with a Get of a
  // name no store holds.
  bool transport_ok = true;
  if (page.names.empty() && !page.more) {
    const Result<Bytes> probe =
        shard->backend->Get("\x01nexus-cluster-liveness-probe");
    transport_ok =
        probe.ok() || probe.status().code() != ErrorCode::kIOError;
  }
  shard_rpc_latency_.Record(MonotonicNs() - t0);
  if (!transport_ok) {
    Bump(&ClusterCounters::shard_failures);
    RecordShardOutcome(*shard, false);
    return Error(ErrorCode::kIOError, "shard unreachable during ListSome");
  }
  RecordShardOutcome(*shard, true);
  return page;
}

// ---- placement --------------------------------------------------------------

std::vector<ClusterBackend::ShardPtr> ClusterBackend::PreferenceList(
    std::uint64_t point) const {
  const std::lock_guard<std::mutex> lock(membership_mu_);
  const std::vector<std::string> ids =
      ring_.SuccessorsAt(point, shards_.size());
  std::vector<ShardPtr> out;
  out.reserve(ids.size());
  for (const std::string& id : ids) {
    const auto it = shards_.find(id);
    if (it != shards_.end()) out.push_back(it->second);
  }
  return out;
}

std::mutex& ClusterBackend::StripeFor(std::uint64_t point) {
  return stripes_[point % stripes_.size()];
}

// ---- quorum machinery -------------------------------------------------------

std::optional<ClusterBackend::ReadHit> ClusterBackend::ToHit(
    const ShardPtr& shard, const Status& verdict, ByteSpan prefix,
    std::uint64_t size) {
  if (!verdict.ok()) {
    if (verdict.code() != ErrorCode::kNotFound) return std::nullopt;
    return ReadHit{shard, std::nullopt};
  }
  Result<EnvelopeHead> head = DecodeEnvelopeHead(prefix, size);
  if (!head.ok()) return ReadHit{shard, std::nullopt};
  if (head.value().envelope.version > MaxPlausibleVersion()) {
    Bump(&ClusterCounters::forged_versions);
    return ReadHit{shard, std::nullopt};
  }
  ObserveVersion(head.value().envelope.version);
  return ReadHit{shard, std::move(head.value().envelope),
                 head.value().payload_size};
}

std::optional<ClusterBackend::ReadHit> ClusterBackend::ToHit(
    const ShardPtr& shard, const Result<Bytes>& res) {
  if (!res.ok()) return ToHit(shard, res.status(), ByteSpan(), 0);
  return ToHit(shard, Status::Ok(), res.value(), res.value().size());
}

std::optional<ClusterBackend::ReadHit> ClusterBackend::ReadReplica(
    const ShardPtr& shard, const std::string& name,
    std::optional<std::size_t> head_bytes) {
  if (!head_bytes) return ToHit(shard, ShardGet(shard, name));
  const Result<Head> res = ShardGetHead(shard, name, *head_bytes);
  if (!res.ok()) return ToHit(shard, res.status(), ByteSpan(), 0);
  return ToHit(shard, Status::Ok(), res.value().prefix, res.value().size);
}

std::vector<ClusterBackend::ReadHit> ClusterBackend::QuorumRead(
    const std::string& name, std::uint64_t point, bool count_failover,
    bool first_whole, std::size_t head_bytes) {
  const std::vector<ShardPtr> prefs = PreferenceList(point);
  const std::size_t needed = std::min(read_quorum_, prefs.size());
  std::vector<ReadHit> hits;
  for (std::size_t i = 0; i < prefs.size() && hits.size() < needed; ++i) {
    if (!ShardAvailable(*prefs[i])) continue;
    std::optional<ReadHit> hit =
        ReadReplica(prefs[i], name,
                    first_whole && hits.empty()
                        ? std::nullopt
                        : std::optional<std::size_t>(head_bytes));
    if (!hit) continue; // transport failure: slide to the next successor
    if (count_failover && i >= replication_) {
      Bump(&ClusterCounters::failovers);
    }
    hits.push_back(std::move(*hit));
  }
  if (hits.size() < needed) hits.clear();
  return hits;
}

std::size_t ClusterBackend::NewestOf(const std::vector<ReadHit>& hits) {
  std::size_t newest = hits.size();
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (!hits[i].envelope) continue;
    if (newest == hits.size() ||
        EnvelopeNewer(*hits[i].envelope, *hits[newest].envelope)) {
      newest = i;
    }
  }
  return newest;
}

std::optional<Envelope> ClusterBackend::BestOf(
    const std::vector<ReadHit>& hits) {
  const std::size_t newest = NewestOf(hits);
  if (newest == hits.size()) return std::nullopt;
  return hits[newest].envelope;
}

void ClusterBackend::ReadRepair(const std::string& name, std::uint64_t point,
                                const Envelope& best,
                                const std::vector<ReadHit>& hits) {
  const auto stale = [&best](const ReadHit& hit) {
    return !hit.envelope || EnvelopeNewer(best, *hit.envelope);
  };
  if (std::none_of(hits.begin(), hits.end(), stale)) return;
  const Bytes encoded = EncodeEnvelope(best);
  const std::lock_guard<std::mutex> lock(StripeFor(point));
  for (const ReadHit& hit : hits) {
    if (!stale(hit)) continue;
    if (CopyIfStaleLocked(hit.shard, name, best,
                          ByteSpan(encoded.data(), encoded.size())) ==
        CopyOutcome::kCopied) {
      Bump(&ClusterCounters::read_repairs);
    }
  }
}

ClusterBackend::CopyOutcome ClusterBackend::CopyIfStaleLocked(
    const ShardPtr& target, const std::string& name, const Envelope& best,
    ByteSpan encoded) {
  // Re-check under the stripe lock: the target may have caught up (or
  // moved past `best`) since whoever chose to copy last sampled it. The
  // head decides that.
  const std::optional<ReadHit> cur =
      ReadReplica(target, name, kEnvelopeHeadBytes);
  if (!cur) return CopyOutcome::kFailed;
  if (cur->envelope && !EnvelopeNewer(best, *cur->envelope)) {
    return CopyOutcome::kCurrent;
  }
  return ShardPut(target, name, encoded).ok() ? CopyOutcome::kCopied
                                              : CopyOutcome::kFailed;
}

Status ClusterBackend::QuorumWriteLocked(const std::string& name,
                                         std::uint64_t point,
                                         const Bytes& encoded) {
  const std::vector<ShardPtr> prefs = PreferenceList(point);
  const std::size_t needed = std::min(write_quorum_, prefs.size());
  if (needed == 0) {
    return Error(ErrorCode::kIOError, "cluster has no shards");
  }
  const std::size_t owner_count = std::min(replication_, prefs.size());
  std::size_t acks = 0;
  ShardPtr first_acked;
  std::vector<std::string> missed_owners;
  for (std::size_t i = 0; i < prefs.size() && acks < needed; ++i) {
    Shard& shard = *prefs[i];
    if (!ShardAvailable(shard)) {
      if (i < owner_count) missed_owners.push_back(shard.id);
      continue;
    }
    const Status st =
        ShardPut(prefs[i], name, ByteSpan(encoded.data(), encoded.size()));
    if (!st.ok()) {
      if (i < owner_count) missed_owners.push_back(shard.id);
      continue;
    }
    ++acks;
    if (first_acked == nullptr) first_acked = prefs[i];
    if (i >= replication_) Bump(&ClusterCounters::failovers);
  }
  if (acks < needed) {
    return Error(ErrorCode::kIOError,
                 "write quorum not reached (" + std::to_string(acks) + "/" +
                     std::to_string(needed) + " acks)");
  }
  // Sloppy-quorum debt: an owner we TRIED and missed gets a durable hint
  // beside an acked replica (which holds the payload under the real
  // name), so the handoff drainer replays the write once the owner
  // returns. Owners past the early-quorum cutoff were never attempted —
  // that is ordinary under-replication, the rebalancer's job.
  if (first_acked != nullptr && !IsControlName(name)) {
    for (const std::string& owner : missed_owners) {
      RecordHint(first_acked, owner, name);
    }
  }
  return Status::Ok();
}

// ---- StorageBackend surface -------------------------------------------------

Result<Bytes> ClusterBackend::Get(const std::string& name) {
  const trace::Span span("cluster.get", "cluster");
  Bump(&ClusterCounters::quorum_reads);
  const std::uint64_t point = HashRing::HashPoint(name);
  std::vector<ReadHit> hits =
      QuorumRead(name, point, /*count_failover=*/true, /*first_whole=*/true);
  if (hits.empty()) {
    Bump(&ClusterCounters::quorum_failures);
    return Error(ErrorCode::kIOError, "read quorum not reached: " + name);
  }
  // A head newer than every whole answer names a replica whose payload
  // this read has not seen: fetch it (one more shard RPC, paid only when
  // replicas diverge). The fresh answer replaces the head, so each pass
  // reads one more hit whole and the loop ends within hits.size() passes.
  std::size_t newest = NewestOf(hits);
  while (newest != hits.size() && !hits[newest].whole() &&
         !hits[newest].envelope->tombstone) {
    std::optional<ReadHit> whole =
        ReadReplica(hits[newest].shard, name, /*head_bytes=*/std::nullopt);
    if (!whole) {
      Bump(&ClusterCounters::quorum_failures);
      return Error(ErrorCode::kIOError,
                   "newest replica unreachable: " + name);
    }
    hits[newest] = std::move(*whole);
    newest = NewestOf(hits);
  }
  if (newest == hits.size() || hits[newest].envelope->tombstone) {
    return Error(ErrorCode::kNotFound, "object not found: " + name);
  }
  ReadRepair(name, point, *hits[newest].envelope, hits);
  return std::move(hits[newest].envelope->payload);
}

Status ClusterBackend::Put(const std::string& name, ByteSpan data) {
  return PutAt(name, HashRing::HashPoint(name), data);
}

Status ClusterBackend::PutAt(const std::string& name, std::uint64_t point,
                             ByteSpan data) {
  const trace::Span span("cluster.put", "cluster");
  Envelope env;
  env.payload = ToBytes(data);
  return WriteNewEnvelope(name, point, std::move(env));
}

Status ClusterBackend::Delete(const std::string& name) {
  const trace::Span span("cluster.delete", "cluster");
  // A blind tombstone, ordered like a Put by this client's clock: no head
  // read first, and a missing name is Ok (the StorageBackend contract).
  Envelope tomb;
  tomb.tombstone = true;
  NEXUS_RETURN_IF_ERROR(
      WriteNewEnvelope(name, HashRing::HashPoint(name), std::move(tomb)));
  Bump(&ClusterCounters::tombstones_written);
  return Status::Ok();
}

Status ClusterBackend::WriteNewEnvelope(const std::string& name,
                                        std::uint64_t point, Envelope env) {
  Bump(&ClusterCounters::quorum_writes);
  env.version = DrawVersion();
  env.writer = writer_id_;
  const Bytes encoded = EncodeEnvelope(env);
  const std::lock_guard<std::mutex> lock(StripeFor(point));
  const Status st = QuorumWriteLocked(name, point, encoded);
  if (!st.ok()) Bump(&ClusterCounters::quorum_failures);
  return st;
}

bool ClusterBackend::Exists(const std::string& name) {
  return GetHead(name, 0).ok();
}

Result<storage::StorageBackend::Head> ClusterBackend::GetHead(
    const std::string& name, std::size_t max_bytes) {
  const trace::Span span("cluster.get_head", "cluster");
  Bump(&ClusterCounters::quorum_reads);
  // Each replica's head carries its own first payload bytes, so the
  // newest head answers on its own: no payload moves beyond `max_bytes`.
  const std::size_t payload_max =
      std::min<std::size_t>(max_bytes, net::kMaxObjectBytes);
  std::vector<ReadHit> hits =
      QuorumRead(name, HashRing::HashPoint(name), /*count_failover=*/false,
                 /*first_whole=*/false, kEnvelopeHeadBytes + payload_max);
  if (hits.empty()) {
    Bump(&ClusterCounters::quorum_failures);
    return Error(ErrorCode::kIOError, "read quorum not reached: " + name);
  }
  const std::size_t newest = NewestOf(hits);
  if (newest == hits.size() || hits[newest].envelope->tombstone) {
    return Error(ErrorCode::kNotFound, "object not found: " + name);
  }
  ReadHit& hit = hits[newest];
  // The streamed form's head is shorter, so its prefix may run past max.
  Bytes& prefix = hit.envelope->payload;
  prefix.resize(std::min<std::size_t>(prefix.size(), payload_max));
  return Head{std::move(prefix), hit.payload_size};
}

std::vector<std::string> ClusterBackend::List(const std::string& prefix) {
  const trace::Span span("cluster.list", "cluster");
  std::vector<ShardPtr> all;
  {
    const std::lock_guard<std::mutex> lock(membership_mu_);
    all.reserve(shards_.size());
    for (const auto& [_, shard] : shards_) all.push_back(shard);
  }
  std::set<std::string> candidates;
  for (const ShardPtr& shard : all) {
    if (!ShardAvailable(*shard)) continue;
    std::string cursor;
    for (;;) {
      const Result<storage::StorageBackend::ListPage> page =
          ShardListPage(shard, prefix, cursor, kListBatch);
      if (!page.ok() || page.value().names.empty()) break;
      cursor = page.value().names.back();
      for (const std::string& name : page.value().names) {
        // Control-plane objects (handoff hints, probes) are not data.
        if (!IsControlName(name)) candidates.insert(name);
      }
      if (!page.value().more) break;
    }
  }
  // Filter quorum-committed deletes: a name is listed only if its newest
  // envelope is not a tombstone.
  std::vector<std::string> out;
  for (const std::string& name : candidates) {
    const std::vector<ReadHit> hits =
        QuorumRead(name, HashRing::HashPoint(name), /*count_failover=*/false,
                   /*first_whole=*/false);
    const std::optional<Envelope> best = BestOf(hits);
    if (best && !best->tombstone) out.push_back(name);
  }
  return out;
}

Result<std::unique_ptr<storage::StorageBackend::PutStream>>
ClusterBackend::OpenPutStream(const std::string& name) {
  return std::unique_ptr<PutStream>(
      std::make_unique<ClusterPutStream>(*this, name));
}

// ---- membership -------------------------------------------------------------

Status ClusterBackend::AddShard(ShardSpec spec) {
  if (spec.id.empty() || !spec.factory) {
    return Error(ErrorCode::kInvalidArgument, "shard needs an id + factory");
  }
  auto built = spec.factory();
  if (!built.ok()) return built.status();
  auto shard = std::make_shared<Shard>();
  shard->id = spec.id;
  shard->backend = std::move(built).value();
  std::vector<MovedArc> delta;
  {
    const std::lock_guard<std::mutex> lock(membership_mu_);
    if (shards_.contains(spec.id)) {
      return Error(ErrorCode::kAlreadyExists, "shard exists: " + spec.id);
    }
    const HashRing before = ring_;
    ring_.AddNode(spec.id);
    // Diff the snapshots while both are in hand: the scheduled pass is
    // then bounded to the arcs this shard actually took over (~1/N of
    // the circle), not the whole keyspace.
    delta = DiffRings(before, ring_, replication_);
    shards_.emplace(spec.id, std::move(shard));
  }
  {
    const std::lock_guard<std::mutex> lock(rebalance_mu_);
    pending_deltas_.push_back(std::move(delta));
  }
  rebalance_cv_.notify_all();
  return Status::Ok();
}

Status ClusterBackend::RemoveShard(const std::string& id) {
  std::vector<MovedArc> delta;
  {
    const std::lock_guard<std::mutex> lock(membership_mu_);
    const auto it = shards_.find(id);
    if (it == shards_.end()) {
      return Error(ErrorCode::kNotFound, "no such shard: " + id);
    }
    const HashRing before = ring_;
    ring_.RemoveNode(id);
    delta = DiffRings(before, ring_, replication_);
    shards_.erase(it);
  }
  {
    const std::lock_guard<std::mutex> lock(rebalance_mu_);
    pending_deltas_.push_back(std::move(delta));
  }
  rebalance_cv_.notify_all();
  return Status::Ok();
}

// ---- rebalancing ------------------------------------------------------------

void ClusterBackend::RebalanceLoop() {
  for (;;) {
    bool maintenance = false;
    std::vector<std::vector<MovedArc>> deltas;
    {
      std::unique_lock<std::mutex> lock(rebalance_mu_);
      rebalance_cv_.wait(lock, [this] {
        return maintenance_pending_ || !pending_deltas_.empty() || shutdown_;
      });
      if (shutdown_) return;
      maintenance = maintenance_pending_;
      maintenance_pending_ = false;
      deltas.swap(pending_deltas_);
    }
    if (maintenance) DrainHandoffPass();
    for (const std::vector<MovedArc>& delta : deltas) RebalancePass(delta);
  }
}

void ClusterBackend::RebalanceNow() {
  std::vector<std::vector<MovedArc>> deltas;
  {
    const std::lock_guard<std::mutex> lock(rebalance_mu_);
    deltas.swap(pending_deltas_);
  }
  // Nothing queued: one arc covering the whole circle (begin == end).
  if (deltas.empty()) deltas.push_back({MovedArc{0, 0, {}, ShardIds()}});
  for (const std::vector<MovedArc>& delta : deltas) RebalancePass(delta);
}

void ClusterBackend::DrainHandoffNow() { DrainHandoffPass(); }

std::vector<ClusterBackend::ShardPtr> ClusterBackend::SnapshotShards() const {
  const std::lock_guard<std::mutex> lock(membership_mu_);
  std::vector<ShardPtr> all;
  all.reserve(shards_.size());
  for (const auto& [_, shard] : shards_) all.push_back(shard);
  return all;
}

void ClusterBackend::RebalancePass(const std::vector<MovedArc>& arcs) {
  const trace::Span span("cluster.rebalance", "cluster");
  Bump(&ClusterCounters::rebalance_passes);
  if (arcs.empty()) return;

  // Normalize the (begin, end] arcs into sorted inclusive [lo, hi]
  // intervals (wrap arcs, and the begin == end whole circle, split at
  // zero) for binary-search membership.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  intervals.reserve(arcs.size() + 1);
  for (const MovedArc& arc : arcs) {
    if (arc.begin < arc.end) {
      intervals.emplace_back(arc.begin + 1, arc.end);
    } else {
      if (arc.begin != std::numeric_limits<std::uint64_t>::max()) {
        intervals.emplace_back(arc.begin + 1,
                               std::numeric_limits<std::uint64_t>::max());
      }
      intervals.emplace_back(0, arc.end);
    }
  }
  std::sort(intervals.begin(), intervals.end());
  const auto in_moved_arc = [&intervals](std::uint64_t point) {
    auto it = std::upper_bound(
        intervals.begin(), intervals.end(),
        std::make_pair(point, std::numeric_limits<std::uint64_t>::max()));
    if (it == intervals.begin()) return false;
    --it;
    return point <= it->second;
  };

  // Only the shards that owned or received the arcs can hold (or need)
  // the affected objects — list those, not the whole cluster.
  std::set<std::string> source_ids;
  for (const MovedArc& arc : arcs) {
    source_ids.insert(arc.from.begin(), arc.from.end());
    source_ids.insert(arc.to.begin(), arc.to.end());
  }
  const std::vector<ShardPtr> all = SnapshotShards();
  // Page through each listing in bounded batches — a huge shard never
  // materializes its whole listing in one frame — converging each new
  // name as it appears. The dedup set is the only O(names) state.
  std::set<std::string> done;
  for (const ShardPtr& shard : all) {
    if (!source_ids.contains(shard->id)) continue;
    if (!ShardAvailable(*shard)) continue;
    std::string cursor;
    for (;;) {
      const Result<storage::StorageBackend::ListPage> page =
          ShardListPage(shard, "", cursor, kListBatch);
      if (!page.ok() || page.value().names.empty()) break;
      cursor = page.value().names.back();
      for (const std::string& name : page.value().names) {
        if (IsControlName(name)) continue;
        if (!done.insert(name).second) continue;
        Bump(&ClusterCounters::rebalance_objects_scanned);
        // The O(moved) bound: names outside the moved arcs kept their
        // owner set, so they get no copy (or even read) RPC at all.
        const std::uint64_t point = HashRing::HashPoint(name);
        if (!in_moved_arc(point)) continue;
        ConvergeName(name, point, all);
      }
      if (!page.value().more) break;
    }
  }
}

void ClusterBackend::ConvergeName(const std::string& name,
                                  std::uint64_t point,
                                  const std::vector<ShardPtr>& all) {
  const std::lock_guard<std::mutex> lock(StripeFor(point));
  // Sample every ring member's replica under the stripe lock.
  std::vector<ReadHit> hits;
  for (const ShardPtr& shard : all) {
    bool in_ring = false;
    {
      const std::lock_guard<std::mutex> mlock(membership_mu_);
      in_ring = shards_.contains(shard->id);
    }
    if (!in_ring || !ShardAvailable(*shard)) continue;
    std::optional<ReadHit> hit =
        ReadReplica(shard, name, /*head_bytes=*/std::nullopt);
    if (hit) hits.push_back(std::move(*hit));
  }
  const std::optional<Envelope> best = BestOf(hits);
  if (!best) return;

  std::set<std::string> owners;
  {
    const std::lock_guard<std::mutex> mlock(membership_mu_);
    const std::vector<std::string> ids =
        ring_.SuccessorsAt(point, replication_);
    owners.insert(ids.begin(), ids.end());
  }
  const Bytes encoded = EncodeEnvelope(*best);
  bool owners_converged = true;
  std::set<std::string> sampled;
  for (const ReadHit& hit : hits) {
    sampled.insert(hit.shard->id);
    if (!owners.contains(hit.shard->id)) continue;
    const bool stale = !hit.envelope || EnvelopeNewer(*best, *hit.envelope);
    if (!stale) continue;
    if (ShardPut(hit.shard, name, ByteSpan(encoded.data(), encoded.size()))
            .ok()) {
      Bump(&ClusterCounters::rebalance_objects_moved);
      Bump(&ClusterCounters::rebalance_bytes_moved, encoded.size());
    } else {
      owners_converged = false;
    }
  }
  // An owner that was not sampled (unreachable, or not in the snapshot)
  // cannot be proven to hold the newest envelope.
  for (const std::string& owner : owners) {
    if (!sampled.contains(owner)) owners_converged = false;
  }
  // Purge from non-owners only once every owner provably holds the
  // newest envelope — otherwise a sloppy-quorum replica might be the
  // sole survivor.
  if (!owners_converged) return;
  for (const ReadHit& hit : hits) {
    if (owners.contains(hit.shard->id) || !hit.envelope) continue;
    if (ShardDelete(hit.shard, name).ok()) {
      Bump(&ClusterCounters::rebalance_objects_purged);
    }
  }
}

// ---- hinted handoff ---------------------------------------------------------

void ClusterBackend::RecordHint(const ShardPtr& holder,
                                const std::string& owner,
                                const std::string& name) {
  // The marker is empty: the payload already sits on `holder` under the
  // real name, and the drainer re-reads it at replay time anyway (it may
  // have been superseded by then).
  if (ShardPut(holder, HintName(owner, name), ByteSpan()).ok()) {
    Bump(&ClusterCounters::handoff_hints_recorded);
  }
}

void ClusterBackend::DrainHandoffPass() {
  const trace::Span span("cluster.handoff", "cluster");
  const std::vector<ShardPtr> all = SnapshotShards();
  for (const ShardPtr& holder : all) {
    if (!ShardAvailable(*holder)) continue;
    std::string cursor;
    for (;;) {
      const Result<storage::StorageBackend::ListPage> page =
          ShardListPage(holder, kHandoffHintPrefix, cursor, kListBatch);
      if (!page.ok() || page.value().names.empty()) break;
      cursor = page.value().names.back();
      for (const std::string& hint : page.value().names) {
        std::string owner_id;
        std::string object;
        if (!ParseHintName(hint, &owner_id, &object)) {
          if (ShardDelete(holder, hint).ok()) {
            Bump(&ClusterCounters::handoff_hints_dropped);
          }
          continue;
        }
        ShardPtr owner;
        {
          const std::lock_guard<std::mutex> lock(membership_mu_);
          const auto it = shards_.find(owner_id);
          if (it != shards_.end()) owner = it->second;
        }
        if (owner == nullptr) {
          // The owner left the ring; placement changed and the delta
          // rebalance for that membership change covers the object.
          if (ShardDelete(holder, hint).ok()) {
            Bump(&ClusterCounters::handoff_hints_dropped);
          }
          continue;
        }
        if (!ShardAvailable(*owner)) continue; // still down: keep the hint
        bool drained = false;
        {
          const std::lock_guard<std::mutex> lock(
              StripeFor(HashRing::HashPoint(object)));
          const Result<Bytes> held = ShardGet(holder, object);
          // An unreachable holder (no hit) keeps the hint for next time.
          const std::optional<ReadHit> hit = ToHit(holder, held);
          if (hit && !hit->envelope) {
            // Purged, or a corrupt stand-in: nothing to replay.
            drained = true;
            Bump(&ClusterCounters::handoff_hints_dropped);
          } else if (hit) {
            // Replay the holder's bytes verbatim (possibly the stream
            // form) only if the owner is missing or strictly older — the
            // write may have been superseded since the hint.
            switch (CopyIfStaleLocked(
                owner, object, *hit->envelope,
                ByteSpan(held.value().data(), held.value().size()))) {
              case CopyOutcome::kCopied:
                drained = true;
                Bump(&ClusterCounters::handoff_hints_replayed);
                break;
              case CopyOutcome::kCurrent:
                drained = true;
                Bump(&ClusterCounters::handoff_hints_dropped);
                break;
              case CopyOutcome::kFailed:
                break; // owner flapped mid-drain: retry later
            }
          }
        }
        if (drained) (void)ShardDelete(holder, hint);
      }
      if (!page.value().more) break;
    }
  }
}

// ---- observability ----------------------------------------------------------

void ClusterBackend::Bump(std::uint64_t ClusterCounters::* field,
                          std::uint64_t n) {
  const std::lock_guard<std::mutex> lock(counters_mu_);
  counters_.*field += n;
}

void ClusterBackend::GaugeMax(std::uint64_t ClusterCounters::* field,
                              std::uint64_t value) {
  const std::lock_guard<std::mutex> lock(counters_mu_);
  if (counters_.*field < value) counters_.*field = value;
}

ClusterCounters ClusterBackend::counters() const {
  ClusterCounters out;
  {
    const std::lock_guard<std::mutex> lock(counters_mu_);
    out = counters_;
  }
  out.shard_rpc_p50_ms = shard_rpc_latency_.PercentileMs(0.50);
  out.shard_rpc_p99_ms = shard_rpc_latency_.PercentileMs(0.99);
  return out;
}

std::vector<std::string> ClusterBackend::ShardIds() const {
  const std::lock_guard<std::mutex> lock(membership_mu_);
  std::vector<std::string> out;
  out.reserve(shards_.size());
  for (const auto& [id, _] : shards_) out.push_back(id);
  return out;
}

std::vector<ClusterBackend::ShardHealth> ClusterBackend::Health() const {
  std::vector<ShardPtr> all;
  {
    const std::lock_guard<std::mutex> lock(membership_mu_);
    all.reserve(shards_.size());
    for (const auto& [_, shard] : shards_) all.push_back(shard);
  }
  std::vector<ShardHealth> out;
  out.reserve(all.size());
  for (const ShardPtr& shard : all) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    ShardHealth h;
    h.id = shard->id;
    h.ejected = shard->ejected;
    h.consecutive_failures = shard->consecutive_failures;
    h.eject_episodes = shard->eject_episodes;
    out.push_back(std::move(h));
  }
  return out;
}

} // namespace nexus::cluster
