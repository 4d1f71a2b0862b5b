// nexus_bench: one paper workload through the whole NEXUS stack.
//
//   nexus_bench --workload clone|bigfile|db|rescan --seed N --seconds S
//               --trace 0|1 [--quick] [--trace-out PATH] [--commit REV]
//
// Pins itself, and so every daemon it spawns, to one CPU (PinToOneCpu).
// Sets the stack up several times (each on a fresh fleet of nexusd daemons)
// and reports the median set-up time, then runs two untimed warm-up rounds
// and repeats the workload's round on the last stack until S seconds of
// timed work are done, timing a host-speed reference (reference.hpp)
// between rounds. Prints two JSON lines:
// a report (config, sample counts, the counted round's counts) and, last, the result
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics; traced runs splice in the P0-P3 probes and report
// the per-layer metrics instead. Exits non-zero on any read-back mismatch
// or failed operation.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "probes.hpp"
#include "reference.hpp"
#include "stack.hpp"
#include "trace/trace.hpp"
#include "workloads.hpp"

extern char** environ;

namespace nexus::fullbench {
namespace {

// Every run must end well inside the 180 s a run may take.
constexpr double kMaxWallSeconds = 150;
// Set-ups repeat (at least kMinSetups times, once with --quick) until this
// much set-up time is spent, so quick set-ups get a median over more
// samples.
constexpr int kMinSetups = 3;
constexpr double kSetupSeconds = 2;
constexpr int kMaxSetups = 11;
// Untimed rounds between the set-ups and the timed phase.
constexpr int kWarmupRounds = 2;
// The host-speed reference runs before the first round, before any later
// round that starts this long after its last run, and after the last round.
constexpr double kReferenceEverySeconds = 0.5;

// ---- JSON ---------------------------------------------------------------------

/// Minimal ordered JSON object writer.
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    if (!std::isfinite(v)) return Raw(key, "null");
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, std::uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
    }
    return Raw(key, quoted + "\"");
  }
  Json& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  Json& Obj(const std::string& key, const Json& v) { return Raw(key, v.str()); }
  Json& Raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "\"" : ",\"";
    body_ += key + "\":" + json;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// A metric value with its unit, as the result line carries it.
Json Metric(double value, const char* unit) {
  Json m;
  m.Num("value", value);
  m.Str("unit", unit);
  return m;
}

double Percentile(const std::vector<double>& samples, double p) {
  return trace::ExactPercentile(samples, p);
}

/// Percentile only where at least ten samples lie beyond it.
double TailOrNan(const std::vector<double>& samples, double p) {
  const double beyond = static_cast<double>(samples.size()) * (1 - p);
  return beyond >= 10 ? Percentile(samples, p) : NAN;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), std::isfinite(values[i]) ? "%s%.6g" : "%snull",
                  i == 0 ? "" : ",", values[i]);
    out += buf;
  }
  return out + "]";
}

// ---- counters -------------------------------------------------------------------

/// Client-side counters of every layer at one instant.
struct ClientCounters {
  core::ProfileSnapshot profile;
  storage::AfsClient::Stats afs;
  std::uint64_t afs_rpcs = 0;
  cache::CacheCounters cache;
  cluster::ClusterCounters cluster;
  net::NetCounters net; // summed over the shards' RemoteBackends
  std::uint64_t ops = 0;
  std::uint64_t user_bytes = 0;  // plaintext read + written
  std::uint64_t write_bytes = 0; // plaintext written
};

ClientCounters TakeClient(Stack& stack, const Recorder& rec) {
  ClientCounters c;
  c.profile = stack.client().Profile();
  c.afs = stack.afs().stats();
  c.afs_rpcs = stack.server().rpc_count();
  c.cache = stack.cache().counters();
  c.cluster = stack.cluster().counters();
  for (net::RemoteBackend* remote : stack.remotes()) {
    const net::NetCounters n = remote->counters();
    c.net.rpcs += n.rpcs;
    c.net.retries += n.retries;
    c.net.reconnects += n.reconnects;
    c.net.bytes_sent += n.bytes_sent;
    c.net.bytes_received += n.bytes_received;
  }
  c.ops = rec.ops();
  c.user_bytes = rec.write_bytes() + rec.read_bytes();
  c.write_bytes = rec.write_bytes();
  return c;
}

/// nexusd Stats RPC results, summed (or maxed, for gauges) over shards.
struct ServerCounters {
  std::uint64_t rpcs_served = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t epoll_wakeups = 0;
  std::uint64_t arena_slabs_high_water = 0; // max over shards
  double loop_dispatch_p99_ms = 0;          // max over shards
  double get_p50_ms = 0;                    // mean over shards
  double put_p50_ms = 0;                    // mean over shards
  bool ok = true;
};

ServerCounters TakeServers(Stack& stack) {
  ServerCounters s;
  const double shards = static_cast<double>(stack.remotes().size());
  for (net::RemoteBackend* remote : stack.remotes()) {
    auto stats = remote->Stats();
    if (!stats.ok()) {
      s.ok = false;
      continue;
    }
    s.rpcs_served += stats->rpcs_served;
    s.protocol_errors += stats->protocol_errors;
    s.epoll_wakeups += stats->epoll_wakeups;
    s.arena_slabs_high_water =
        std::max(s.arena_slabs_high_water, stats->arena_slabs_high_water);
    s.loop_dispatch_p99_ms =
        std::max(s.loop_dispatch_p99_ms, stats->loop_dispatch_p99_ms);
    for (const net::RpcOpStats& op : stats->per_op) {
      if (op.rpc == static_cast<std::uint8_t>(net::Rpc::kGet)) {
        s.get_p50_ms += op.p50_ms / shards;
      } else if (op.rpc == static_cast<std::uint8_t>(net::Rpc::kPut)) {
        s.put_p50_ms += op.p50_ms / shards;
      }
    }
  }
  return s;
}

/// b minus a: counters subtract, gauges keep b's value.
ClientCounters Delta(const ClientCounters& a, const ClientCounters& b) {
  ClientCounters d;
  d.profile = b.profile - a.profile;
  d.afs.bytes_stored = b.afs.bytes_stored - a.afs.bytes_stored;
  d.afs.bytes_fetched = b.afs.bytes_fetched - a.afs.bytes_fetched;
  d.afs_rpcs = b.afs_rpcs - a.afs_rpcs;
  d.cache = b.cache - a.cache;
  d.cluster = b.cluster - a.cluster;
  d.net = b.net - a.net;
  d.ops = b.ops - a.ops;
  d.user_bytes = b.user_bytes - a.user_bytes;
  d.write_bytes = b.write_bytes - a.write_bytes;
  return d;
}

ServerCounters Delta(const ServerCounters& a, const ServerCounters& b) {
  ServerCounters d = b;
  d.rpcs_served -= a.rpcs_served;
  d.protocol_errors -= a.protocol_errors;
  d.epoll_wakeups -= a.epoll_wakeups;
  d.ok = a.ok && b.ok;
  return d;
}

/// Counts of the counted round `d`: a fixed unit of work, so they repeat
/// exactly from run to run of one seed and between traced and untraced
/// runs (the probes forward every call unchanged).
Json RoundCounts(const ClientCounters& d, const ServerCounters& sd) {
  const core::ProfileSnapshot& p = d.profile;
  Json c;
  c.Int("bench.ops", d.ops);
  c.Int("bench.user_bytes", d.user_bytes);
  c.Int("bench.write_bytes", d.write_bytes);
  c.Int("enclave.chunks_sealed", p.parallel.chunks_encrypted);
  c.Int("enclave.chunks_opened", p.parallel.chunks_decrypted);
  c.Int("journal.records", p.journal.records_committed);
  c.Int("journal.ops", p.journal.ops_committed);
  c.Int("journal.checkpoints", p.journal.checkpoints);
  c.Num("journal.sim_s", p.journal_io_seconds);
  c.Int("storage.rpcs", d.afs_rpcs);
  c.Int("storage.bytes_stored", d.afs.bytes_stored);
  c.Int("storage.bytes_fetched", d.afs.bytes_fetched);
  c.Num("storage.meta_sim_s", p.metadata_io_seconds);
  c.Num("storage.data_sim_s", p.data_io_seconds);
  c.Int("cache.hits", d.cache.mem_hits + d.cache.disk_hits);
  c.Int("cache.misses", d.cache.misses);
  c.Int("cache.evictions_mem", d.cache.evictions_mem);
  c.Int("cache.prefetch_issued", d.cache.prefetch_issued);
  c.Int("cache.prefetch_hits", d.cache.prefetch_hits);
  c.Int("cluster.quorum_reads", d.cluster.quorum_reads);
  c.Int("cluster.quorum_writes", d.cluster.quorum_writes);
  c.Int("cluster.quorum_failures", d.cluster.quorum_failures);
  c.Int("cluster.shard_rpcs", d.cluster.shard_rpcs);
  c.Int("cluster.read_repairs", d.cluster.read_repairs);
  c.Int("cluster.failovers", d.cluster.failovers);
  c.Int("cluster.stream_put_high_water_bytes",
        d.cluster.stream_put_buffered_high_water_bytes);
  c.Int("net.rpcs", d.net.rpcs);
  c.Int("net.bytes_sent", d.net.bytes_sent);
  c.Int("net.bytes_received", d.net.bytes_received);
  c.Int("net.retries", d.net.retries);
  c.Int("nexusd.rpcs_served", sd.rpcs_served);
  c.Int("nexusd.protocol_errors", sd.protocol_errors);
  return c;
}

// ---- run ------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  std::string trace_out;
  std::string commit = "unknown";
};

int Usage() {
  std::fprintf(stderr,
               "usage: nexus_bench --workload clone|bigfile|db|rescan "
               "--seed N --seconds S --trace 0|1 [--quick] "
               "[--trace-out PATH] [--commit REV]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      args->quick = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      args->trace_out = value;
    } else if (arg == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return have_trace && !args->workload.empty() && args->seconds > 0;
}

/// Every NEXUS_* variable changes what some layer does; the bench pins all
/// of them through options and refuses to run with any set.
bool EnvironmentClean() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "NEXUS_", 6) == 0) {
      std::fprintf(stderr, "nexus_bench: refusing to run with %.*s set\n",
                   static_cast<int>(std::strcspn(*e, "=")), *e);
      clean = false;
    }
  }
  return clean;
}

/// Pins the calling thread to the first CPU it may run on and returns that
/// CPU, or -1. Called before any other thread or daemon starts, so all of
/// them inherit the pin. The stack is serial (one op in flight, about one
/// CPU busy in all), so sharing a CPU costs it little parallelism; what it
/// removes is the wake-up of an idle vCPU on every RPC hop, which on a
/// shared host made whole runs up to three times slower in busy spells.
int PinToOneCpu() {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return ::sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

Json Config(const Args& args, const StackConfig& sc, const Workload& workload,
            int cpu) {
  Json c;
  c.Str("workload", args.workload);
  c.Str("round", workload.Describe());
  c.Int("seed", args.seed);
  c.Num("seconds", args.seconds);
  c.Bool("trace", args.trace);
  c.Bool("quick", args.quick);
  c.Int("min_setups", args.quick ? 1 : kMinSetups);
  c.Int("warmup_rounds", kWarmupRounds);
  c.Int("shards", sc.shards);
  c.Int("replication", sc.replication);
  c.Int("write_quorum", sc.replication / 2 + 1);
  c.Int("read_quorum", sc.replication / 2 + 1);
  c.Int("cache_mem_bytes", sc.cache_mem_bytes);
  c.Int("cache_ttl_ms", sc.cache_ttl_ms);
  c.Str("cache_write_policy", "write-through (no leases from the cluster)");
  c.Bool("cache_disk_tier", false);
  c.Int("rpc_window", sc.rpc_window);
  c.Int("readahead_bytes", sc.readahead_bytes);
  c.Int("connections_per_shard", sc.pooled_connections);
  c.Int("crypto_workers", sc.crypto_workers);
  c.Int("nexusd_rpc_workers", sc.nexusd_rpc_workers);
  c.Str("nexusd_store", "--mem (no device fsync)");
  c.Int("chunk_size", sc.chunk_size);
  c.Str("journal", "per-op commit, checkpoint every record");
  c.Str("load", "closed loop, one load thread");
  c.Str("reference", "loopback TCP echo, " +
                         std::to_string(LoopbackReference::kMessageBytes) + " B, " +
                         std::to_string(LoopbackReference::kRoundTrips) +
                         " round trips, between rounds");
  c.Int("cpu", static_cast<std::uint64_t>(cpu));
  c.Str("cpu_pinning", "the bench, its threads and every nexusd share one CPU");
  c.Str("commit", args.commit);
  c.Int("nproc", static_cast<std::uint64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  return c;
}

/// The earliest spans of all four probe layers, merged into one Chrome
/// trace (a prefix of the timed phase, capped to keep the file tens of MB).
Status WriteTrace(const Probes& probes, const std::string& path) {
  constexpr std::size_t kMaxSpans = 200'000;
  std::vector<std::pair<SpanRec, const char*>> spans;
  for (const SpanLog* log : {&probes.vfs, &probes.cache, &probes.cluster,
                             &probes.shard}) {
    for (const SpanRec& s : log->Snapshot()) spans.emplace_back(s, log->layer());
  }
  const std::size_t n = std::min(kMaxSpans, spans.size());
  std::partial_sort(spans.begin(), spans.begin() + static_cast<std::ptrdiff_t>(n),
                    spans.end(), [](const auto& a, const auto& b) {
                      return a.first.start_ns < b.first.start_ns;
                    });
  trace::ResetTrace();
  trace::SetEnabled(true);
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRec& s = spans[i].first;
    trace::CompleteSpan(s.name, spans[i].second, s.start_ns, s.end_ns - s.start_ns);
  }
  trace::SetEnabled(false);
  const Status written = trace::WriteChromeTrace(path);
  trace::ResetTrace();
  return written;
}

/// Per-layer metrics of a traced run: self times from the probe spans
/// over the whole timed phase, counts from the counted round `d`/`sd`,
/// daemon gauges from `final_servers`.
Json LayerMetrics(const Probes& probes, const Recorder& rec,
                  const ClientCounters& d, const ServerCounters& sd,
                  const ServerCounters& final_servers, double nexusd_rss_mib) {
  const std::vector<SpanRec> p0 = probes.vfs.Snapshot();
  const std::vector<SpanRec> p1 = probes.cache.Snapshot();
  const std::vector<SpanRec> p2 = probes.cluster.Snapshot();
  const std::vector<SpanRec> p3 = probes.shard.Snapshot();
  const std::vector<Interval> u0 = Union(p0);
  const std::vector<Interval> u1 = Union(p1);
  const std::vector<Interval> u2 = Union(p2);
  const std::vector<Interval> u3 = Union(p3);

  const double ecall = rec.ecall_s();
  const double vfs_self = Seconds(u0) - ecall;
  const double enclave_self = ecall - OverlapSeconds(u1, u0);
  const double cache_self = Seconds(u1) - OverlapSeconds(u1, u2);
  const double cluster_self = Seconds(u2) - OverlapSeconds(u2, u3);
  const double net_s = Seconds(u3);
  const double unattributed =
      rec.timed_s() - (vfs_self + enclave_self + cache_self + cluster_self + net_s);

  const core::ProfileSnapshot& p = d.profile;
  const cache::CacheCounters& cache = d.cache;
  const cluster::ClusterCounters& cl = d.cluster;
  const double hits = static_cast<double>(cache.mem_hits + cache.disk_hits);
  const double wire = static_cast<double>(d.net.bytes_sent + d.net.bytes_received);
  const std::vector<double> net_ms = DurationsMs(
      p3, {"get", "put", "delete", "exists", "list", "list_some", "multi_get",
           "multi_exists", "stream.open", "stream.append", "stream.commit"});

  Json m;
  m.Obj("bench.unattributed_s", Metric(unattributed, "s"));
  m.Obj("bench.traced_ops_per_s",
        Metric(static_cast<double>(rec.ops()) / rec.timed_s(), "1/s"));
  m.Obj("bench.write_p50_ms", Metric(Percentile(rec.write_ms(), 0.5), "ms"));
  m.Obj("bench.read_p50_ms", Metric(Percentile(rec.read_ms(), 0.5), "ms"));
  m.Obj("vfs.self_s", Metric(vfs_self, "s"));
  m.Obj("enclave.self_s", Metric(enclave_self, "s"));
  m.Obj("enclave.ecall_p50_ms", Metric(rec.ecall_hist().PercentileMs(0.5), "ms"));
  m.Obj("enclave.chunks_sealed",
        Metric(static_cast<double>(p.parallel.chunks_encrypted), "count"));
  m.Obj("enclave.chunks_opened",
        Metric(static_cast<double>(p.parallel.chunks_decrypted), "count"));
  m.Obj("enclave.crypto_critical_path_s",
        Metric(p.parallel.critical_path_seconds, "s"));
  m.Obj("enclave.crypto_busy_s", Metric(p.parallel.worker_busy_seconds, "s"));
  m.Obj("journal.records",
        Metric(static_cast<double>(p.journal.records_committed), "count"));
  m.Obj("journal.ops_per_record",
        Metric(Ratio(static_cast<double>(p.journal.ops_committed),
                     static_cast<double>(p.journal.records_committed)),
               "ratio"));
  m.Obj("journal.checkpoints",
        Metric(static_cast<double>(p.journal.checkpoints), "count"));
  m.Obj("journal.commit_p50_ms", Metric(rec.commit_hist().PercentileMs(0.5), "ms"));
  m.Obj("journal.sim_s", Metric(p.journal_io_seconds, "sim_s"));
  m.Obj("storage.rpcs", Metric(static_cast<double>(d.afs_rpcs), "count"));
  m.Obj("storage.bytes_stored", Metric(static_cast<double>(d.afs.bytes_stored), "B"));
  m.Obj("storage.bytes_fetched", Metric(static_cast<double>(d.afs.bytes_fetched), "B"));
  m.Obj("storage.meta_sim_s", Metric(p.metadata_io_seconds, "sim_s"));
  m.Obj("storage.data_sim_s", Metric(p.data_io_seconds, "sim_s"));
  m.Obj("cache.self_s", Metric(cache_self, "s"));
  m.Obj("cache.get_p50_ms", Metric(Percentile(DurationsMs(p1, {"get"}), 0.5), "ms"));
  m.Obj("cache.hit_ratio",
        Metric(Ratio(hits, hits + static_cast<double>(cache.misses)), "ratio"));
  m.Obj("cache.misses", Metric(static_cast<double>(cache.misses), "count"));
  m.Obj("cache.evictions_mem", Metric(static_cast<double>(cache.evictions_mem), "count"));
  m.Obj("cache.prefetch_hit_ratio",
        Metric(Ratio(static_cast<double>(cache.prefetch_hits),
                     static_cast<double>(cache.prefetch_issued)),
               "ratio"));
  m.Obj("cluster.self_s", Metric(cluster_self, "s"));
  m.Obj("cluster.put_p50_ms",
        Metric(Percentile(DurationsMs(p2, {"put", "stream.commit"}), 0.5), "ms"));
  m.Obj("cluster.get_p50_ms", Metric(Percentile(DurationsMs(p2, {"get"}), 0.5), "ms"));
  m.Obj("cluster.quorum_writes", Metric(static_cast<double>(cl.quorum_writes), "count"));
  m.Obj("cluster.quorum_reads", Metric(static_cast<double>(cl.quorum_reads), "count"));
  m.Obj("cluster.shard_rpcs_per_op",
        Metric(Ratio(static_cast<double>(cl.shard_rpcs), static_cast<double>(d.ops)),
               "ratio"));
  m.Obj("cluster.read_repairs", Metric(static_cast<double>(cl.read_repairs), "count"));
  m.Obj("cluster.quorum_failures",
        Metric(static_cast<double>(cl.quorum_failures), "count"));
  m.Obj("cluster.stream_put_high_water_bytes",
        Metric(static_cast<double>(cl.stream_put_buffered_high_water_bytes), "B"));
  m.Obj("net.rpc_s", Metric(net_s, "s"));
  m.Obj("net.rpc_p50_ms", Metric(Percentile(net_ms, 0.5), "ms"));
  m.Obj("net.rpc_p99_ms", Metric(Percentile(net_ms, 0.99), "ms"));
  m.Obj("net.rpcs", Metric(static_cast<double>(d.net.rpcs), "count"));
  m.Obj("net.bytes_sent", Metric(static_cast<double>(d.net.bytes_sent), "B"));
  m.Obj("net.bytes_received", Metric(static_cast<double>(d.net.bytes_received), "B"));
  m.Obj("net.wire_bytes_per_user_byte",
        Metric(Ratio(wire, static_cast<double>(d.user_bytes)), "ratio"));
  m.Obj("net.retries", Metric(static_cast<double>(d.net.retries), "count"));
  m.Obj("nexusd.rpcs_served", Metric(static_cast<double>(sd.rpcs_served), "count"));
  m.Obj("nexusd.get_p50_ms", Metric(final_servers.get_p50_ms, "ms"));
  m.Obj("nexusd.put_p50_ms", Metric(final_servers.put_p50_ms, "ms"));
  m.Obj("nexusd.loop_dispatch_p99_ms",
        Metric(final_servers.loop_dispatch_p99_ms, "ms"));
  m.Obj("nexusd.epoll_wakeups_per_rpc",
        Metric(Ratio(static_cast<double>(sd.epoll_wakeups),
                     static_cast<double>(sd.rpcs_served)),
               "ratio"));
  m.Obj("nexusd.arena_slabs_high_water",
        Metric(static_cast<double>(final_servers.arena_slabs_high_water), "count"));
  m.Obj("nexusd.protocol_errors",
        Metric(static_cast<double>(final_servers.protocol_errors), "count"));
  m.Obj("nexusd.peak_rss_mib", Metric(nexusd_rss_mib, "MiB"));
  return m;
}

int Run(const Args& args) {
  const int cpu = PinToOneCpu();
  if (cpu < 0) {
    std::fprintf(stderr, "nexus_bench: cannot pin to one CPU\n");
    return 1;
  }
  const std::uint64_t run_start = MonotonicNanos();
  auto wall_s = [&] { return static_cast<double>(MonotonicNanos() - run_start) * 1e-9; };

  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed, args.quick);
  if (workload == nullptr) return Usage();
  StackConfig sc;
  sc.nexusd_path = NEXUSD_PATH;
  Probes probes;
  Probes* probe_ptr = args.trace ? &probes : nullptr;

  // Set-up: fleet spawn, dial, volume create + mount, preload, warm-up.
  // Repeated so the reported set-up time is a median; the last stack runs.
  std::vector<double> setup_s;
  double setup_total_s = 0;
  std::unique_ptr<Stack> stack;
  const int min_setups = args.quick ? 1 : kMinSetups;
  for (int i = 0; i < min_setups || (setup_total_s < kSetupSeconds &&
                                     i < kMaxSetups && !args.quick);
       ++i) {
    if (stack != nullptr) {
      workload->Release();
      stack.reset();
    }
    const std::uint64_t t0 = MonotonicNanos();
    auto created = Stack::Create(sc, probe_ptr);
    Status status = created.status();
    if (created.ok()) {
      stack = std::move(created).value();
      status = workload->Prepare(*stack);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "nexus_bench: set-up failed: %s\n",
                   status.ToString().c_str());
      workload->Release();
      return 1;
    }
    setup_s.push_back(static_cast<double>(MonotonicNanos() - t0) * 1e-9);
    setup_total_s += setup_s.back();
  }

  // Warm-up rounds, untimed and once, on the stack that runs the timed
  // phase: the first two rounds after a set-up run up to 15% slower
  // (`bigfile`) or 13% faster (`rescan`) than later ones, which would
  // make the mean depend on how many rounds fit into the run.
  {
    Recorder warmup(*stack, nullptr);
    for (int round = 0; round < kWarmupRounds; ++round) {
      workload->Round(*stack, round, warmup);
      workload->AfterRound(*stack, round, warmup);
    }
    if (warmup.failed() > 0 || warmup.mismatches() > 0) {
      std::fprintf(stderr, "nexus_bench: warm-up round failed\n");
      workload->Release();
      return 1;
    }
  }

  // Timed phase: whole rounds until the run's seconds are spent. Counts
  // come from its first round, which starts from the state a round leaves
  // behind, as every later one does.
  constexpr int kCountedRound = kWarmupRounds;
  Recorder rec(*stack, probe_ptr);
  ClientCounters before;
  ClientCounters after;
  ServerCounters servers_before;
  ServerCounters servers_after;
  std::vector<double> round_rates; // ops per timed second, per round
  double peak_rss_mib = 0;
  auto reference = LoopbackReference::Start();
  if (!reference.ok()) {
    std::fprintf(stderr, "nexus_bench: %s\n", reference.status().ToString().c_str());
    workload->Release();
    return 1;
  }
  std::vector<double> ref_rtt_s; // mean round trip of each reference run
  bool ref_ok = true;
  double last_ref_s = 0;
  auto measure_reference = [&] {
    auto rtt = reference.value()->Measure();
    if (rtt.ok()) {
      ref_rtt_s.push_back(rtt.value());
    } else if (ref_ok) {
      std::fprintf(stderr, "nexus_bench: %s\n", rtt.status().ToString().c_str());
      ref_ok = false;
    }
    last_ref_s = wall_s();
  };
  int rounds = kWarmupRounds;
  while (rounds <= kCountedRound ||
         (rec.timed_s() < args.seconds && wall_s() < kMaxWallSeconds)) {
    if (rounds == kWarmupRounds ||
        wall_s() - last_ref_s >= kReferenceEverySeconds) {
      measure_reference();
    }
    // Stats RPCs bracket the client snapshots so neither side counts them.
    if (rounds == kCountedRound) {
      servers_before = TakeServers(*stack);
      before = TakeClient(*stack, rec);
    }
    const double ops0 = static_cast<double>(rec.ops());
    const double timed0 = rec.timed_s();
    workload->Round(*stack, rounds, rec);
    round_rates.push_back((static_cast<double>(rec.ops()) - ops0) /
                          (rec.timed_s() - timed0));
    if (rounds == kCountedRound) {
      after = TakeClient(*stack, rec);
      servers_after = TakeServers(*stack);
    }
    workload->AfterRound(*stack, rounds, rec);
    // Peak memory after a fixed amount of work, so it does not grow with
    // the number of rounds a faster build fits into the run.
    if (rounds == kCountedRound) peak_rss_mib = PeakRssMib("self");
    ++rounds;
    if (rec.failed() > 0 || rec.mismatches() > 0) break;
  }
  measure_reference();
  // The wall time of a unit op in round trips of the reference, whose
  // mean over the run is the host's speed while the rounds ran.
  double ref_mean_s = 0;
  std::vector<double> ref_rtt_us;
  for (const double rtt : ref_rtt_s) {
    ref_mean_s += rtt / static_cast<double>(ref_rtt_s.size());
    ref_rtt_us.push_back(rtt * 1e6);
  }
  const double op_time_s = rec.timed_s() / static_cast<double>(rec.ops());
  const ServerCounters servers_final = TakeServers(*stack);
  const double nexusd_rss_mib = stack->DaemonPeakRssMib();
  workload->Release();
  stack.reset(); // stops and reaps the fleet
  const ClientCounters round = Delta(before, after);
  const ServerCounters servers_round = Delta(servers_before, servers_after);
  const bool stats_ok = servers_round.ok && servers_final.ok;
  const bool correct = rec.mismatches() == 0 && rec.failed() == 0 && stats_ok && ref_ok;

  // ---- report line ----------------------------------------------------------------
  const std::vector<double>& w = rec.write_ms();
  const std::vector<double>& r = rec.read_ms();
  Json samples;
  samples.Int("write", w.size());
  samples.Int("read", r.size());
  samples.Int("setups", setup_s.size());
  Json latency;
  latency.Num("write_p50_ms", w.empty() ? NAN : Percentile(w, 0.5));
  latency.Num("write_p90_ms", TailOrNan(w, 0.9));
  latency.Num("write_p99_ms", TailOrNan(w, 0.99));
  latency.Num("read_p50_ms", r.empty() ? NAN : Percentile(r, 0.5));
  latency.Num("read_p90_ms", TailOrNan(r, 0.9));
  latency.Num("read_p99_ms", TailOrNan(r, 0.99));
  latency.Num("write_mib_s", w.empty() ? NAN
                                       : static_cast<double>(rec.write_bytes()) /
                                             1048576.0 / rec.write_s());
  latency.Num("read_mib_s", r.empty() ? NAN
                                      : static_cast<double>(rec.read_bytes()) /
                                            1048576.0 / rec.read_s());
  Json report;
  report.Obj("config", Config(args, sc, *workload, cpu));
  report.Int("rounds", static_cast<std::uint64_t>(rounds - kWarmupRounds));
  report.Num("timed_s", rec.timed_s());
  report.Num("sim_s", rec.sim_s());
  report.Num("wall_s", wall_s());
  report.Num("ops_per_s", static_cast<double>(rec.ops()) / rec.timed_s());
  report.Raw("setup_s", JsonArray(setup_s));
  report.Raw("round_ops_per_s", JsonArray(round_rates));
  report.Num("op_time_ms", op_time_s * 1e3);
  report.Num("ref_rtt_us", ref_mean_s * 1e6);
  report.Raw("ref_rtt_us_runs", JsonArray(ref_rtt_us));
  report.Obj("samples", samples);
  report.Obj("latency", latency);
  report.Num("failed_op_frac", Ratio(static_cast<double>(rec.failed()),
                                     static_cast<double>(rec.ops())));
  report.Int("mismatches", rec.mismatches());
  report.Obj("counts", RoundCounts(round, servers_round));
  std::printf("%s\n", Json().Obj("report", report).str().c_str());

  // ---- result line ------------------------------------------------------------------
  Json metrics;
  if (args.trace) {
    metrics = LayerMetrics(probes, rec, round, servers_round, servers_final,
                           nexusd_rss_mib);
    if (!args.trace_out.empty()) {
      const Status written = WriteTrace(probes, args.trace_out);
      if (!written.ok()) {
        std::fprintf(stderr, "nexus_bench: %s\n", written.ToString().c_str());
      }
    }
  } else {
    const double ops = static_cast<double>(rec.ops());
    metrics.Obj("setup_s", Metric(Percentile(setup_s, 0.5), "s"));
    metrics.Obj("op_time_rtt", Metric(op_time_s / ref_mean_s, "rtt"));
    metrics.Obj("sim_ms_per_op", Metric(rec.sim_s() / ops * 1e3, "ms"));
    metrics.Obj("peak_rss_mib", Metric(peak_rss_mib, "MiB"));
    metrics.Obj("write_amplification",
                Metric(Ratio(static_cast<double>(round.afs.bytes_stored),
                             static_cast<double>(round.write_bytes)),
                       "ratio"));
  }
  Json result;
  result.Bool("correct", correct);
  result.Int("attempted", rec.ops());
  result.Int("failed", rec.failed());
  result.Obj("metrics", metrics);
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

} // namespace
} // namespace nexus::fullbench

int main(int argc, char** argv) {
  using namespace nexus::fullbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (!EnvironmentClean()) return 2;
  return Run(args);
}
