// Ablations for the §V-B design choices:
//  1. dirnode bucket size — the paper fixes 128 entries/bucket; sweep it
//     (1 bucket == unbucketed monolithic dirnode at the high end),
//  2. in-enclave metadata caching — on vs off (dropped before every op),
//  3. chunk-granular re-encryption — ranged fsync vs whole-file rewrite,
//  4. FetchStatus revalidation under metadata locks,
//  5. metadata journal group-commit batch sizes,
//  6. parallel chunk-crypto worker counts (modeled N-core scaling),
//  7. the untrusted store in-process vs behind a loopback nexusd daemon,
//  8. remote read pipelining — RPC window widths and chunk readahead vs
//     the lock-step request/response baseline,
//  9. the client object cache — cold vs warm sequential reads and a
//     git-clone-shaped metadata workload over a loopback daemon,
// 10. connection scaling — idle connections the event-driven epoll
//     reactor holds at a flat thread count,
// 11. cluster scaling — quorum put/get throughput against 1/2/4 nexusd
//     shards plus the failover latency tail when a replica dies mid-run,
// 12. the streamed cluster write path — streaming vs buffered replicated
//     puts (client memory high-water), delta vs full rebalance after a
//     membership change, and the hinted-handoff repair window.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cache/cache_counters.hpp"
#include "cache/cached_backend.hpp"
#include "cluster/cluster_backend.hpp"
#include "net/net_counters.hpp"
#include "net/remote_backend.hpp"
#include "net/server.hpp"
#include "net/transport.hpp"

namespace nexus::bench {
namespace {

// 1024 create+delete pairs in one directory, varying bucket size.
void BucketSweep() {
  PrintHeader("Ablation 1: dirnode bucket size (1024 files, create+delete)");
  std::printf("%-14s %10s %14s %12s\n", "bucket size", "total", "metadata I/O",
              "enclave");
  for (const std::uint32_t bucket : {16u, 64u, 128u, 512u, 1u << 20}) {
    enclave::VolumeConfig config;
    config.dirnode_bucket_size = bucket;
    auto setup = Setup::Nexus({}, config);
    Abort(setup->fs().Mkdir("d"), "mkdir");
    PhaseTimer timer(*setup);
    for (int i = 0; i < 1024; ++i) {
      auto f = setup->fs().Open("d/f" + std::to_string(i), vfs::OpenMode::kWrite);
      Abort(f.status(), "create");
      Abort((*f)->Close(), "close");
    }
    for (int i = 0; i < 1024; ++i) {
      Abort(setup->fs().Remove("d/f" + std::to_string(i)), "remove");
    }
    const auto s = timer.Stop();
    const std::string label =
        bucket >= (1u << 20) ? "unbucketed" : std::to_string(bucket);
    std::printf("%-14s %9.2fs %13.2fs %11.2fs\n", label.c_str(), s.total,
                s.metadata_io, s.enclave);
  }
}

// Warm path: repeated lookups with and without the decrypted metadata cache.
void CacheAblation() {
  PrintHeader("Ablation 2: in-enclave metadata cache (1000 warm lookups)");
  for (const bool cache_enabled : {true, false}) {
    auto setup = Setup::Nexus();
    Abort(setup->fs().MkdirAll("a/b/c"), "mkdir");
    Abort(setup->fs().WriteWholeFile("a/b/c/f", Bytes(1000, 1)), "write");
    PhaseTimer timer(*setup);
    for (int i = 0; i < 1000; ++i) {
      if (!cache_enabled) setup->nexus()->enclave().EcallDropCaches();
      Abort(setup->fs().Stat("a/b/c/f").status(), "stat");
    }
    const auto s = timer.Stop();
    std::printf("cache %-9s total %8.3fs   metadata I/O %8.3fs   enclave %8.3fs\n",
                cache_enabled ? "ENABLED" : "DISABLED", s.total, s.metadata_io,
                s.enclave);
  }
}

// fsync of a small append into a large file: ranged (chunk-granular)
// re-encryption vs whole-file rewrite.
void PartialEncryptAblation() {
  PrintHeader("Ablation 3: chunk-granular re-encryption (64 MB file, 100 x 1 KB appends)");
  for (const bool ranged : {true, false}) {
    auto setup = Setup::Nexus();
    Bytes content = setup->rng().Generate(64 << 20);
    Abort(setup->fs().WriteWholeFile("big", content), "seed file");

    PhaseTimer timer(*setup);
    for (int i = 0; i < 100; ++i) {
      const Bytes chunk = setup->rng().Generate(1024);
      const std::uint64_t offset = content.size();
      Append(content, chunk);
      if (ranged) {
        Abort(setup->nexus()->WriteFileRange("big", content, offset, 1024),
              "ranged write");
      } else {
        // Whole-file update: every chunk re-keyed and re-uploaded.
        Abort(setup->nexus()->WriteFile("big", content), "full write");
      }
    }
    const auto s = timer.Stop();
    std::printf("%-22s total %9.2fs   data uploaded %8.1f MB\n",
                ranged ? "ranged (chunked)" : "whole-file rewrite", s.total,
                static_cast<double>(setup->afs().stats().bytes_stored) /
                    (1 << 20));
  }
}

// Status revalidation: after taking a metadata lock the client's callback
// is broken; a cheap FetchStatus RPC revalidates the cached (already
// decrypted) dirnode. Without it, every locked update re-fetches and
// re-decrypts the whole directory — O(n^2) enclave work.
void RevalidationAblation() {
  PrintHeader("Ablation 4: FetchStatus revalidation under locks (1024 files)");
  for (const bool revalidate : {true, false}) {
    auto setup = Setup::Nexus();
    setup->afs().set_revalidation_enabled(revalidate);
    Abort(setup->fs().Mkdir("d"), "mkdir");
    PhaseTimer timer(*setup);
    for (int i = 0; i < 1024; ++i) {
      auto f = setup->fs().Open("d/f" + std::to_string(i), vfs::OpenMode::kWrite);
      Abort(f.status(), "create");
      Abort((*f)->Close(), "close");
    }
    const auto s = timer.Stop();
    std::printf("revalidation %-9s total %8.2fs   metadata I/O %7.2fs   enclave %7.2fs\n",
                revalidate ? "ENABLED" : "DISABLED", s.total, s.metadata_io,
                s.enclave);
  }
}

// Metadata journal: no journal vs per-op commit vs group commit at
// several batch sizes. Group commit amortises the journal record and —
// because the checkpoint applies each object's last-wins state once —
// collapses the O(files) dirnode rewrites into one store per batch.
void JournalBatchAblation() {
  PrintHeader("Ablation 5: metadata journal + group commit (256 file creates)");
  std::printf("%-14s %9s %10s %10s %8s %8s %8s\n", "mode", "total",
              "meta I/O", "jrnl I/O", "stores", "records", "deduped");
  struct Mode {
    const char* label;
    bool journal;
    std::size_t batch; // 0 = per-operation commit
  };
  const Mode modes[] = {
      {"journal OFF", false, 0}, {"per-op", true, 0},  {"batch 8", true, 8},
      {"batch 32", true, 32},    {"batch 128", true, 128},
      {"batch 256", true, 256},
  };
  for (const auto& mode : modes) {
    auto setup = Setup::Nexus();
    auto* nexus = setup->nexus();
    Abort(nexus->ConfigureJournal(mode.journal, 0), "configure journal");
    Abort(setup->fs().Mkdir("d"), "mkdir");
    const auto before = nexus->Profile();
    const std::uint64_t stores_before = setup->afs().stats().stores;
    PhaseTimer timer(*setup);
    for (std::size_t i = 0; i < 256; ++i) {
      if (mode.batch > 0 && i % mode.batch == 0) {
        Abort(nexus->BeginBatch(), "begin batch");
      }
      Abort(setup->fs().WriteWholeFile("d/f" + std::to_string(i),
                                       Bytes(256, 7)),
            "create");
      if (mode.batch > 0 && (i + 1) % mode.batch == 0) {
        Abort(nexus->CommitBatch(), "commit batch");
      }
    }
    const auto s = timer.Stop();
    const auto delta = nexus->Profile() - before;
    const std::uint64_t stores = setup->afs().stats().stores - stores_before;
    std::printf("%-14s %8.2fs %9.2fs %9.2fs %8llu %8llu %8llu\n", mode.label,
                s.total, s.metadata_io, delta.journal_io_seconds,
                static_cast<unsigned long long>(stores),
                static_cast<unsigned long long>(delta.journal.records_committed),
                static_cast<unsigned long long>(delta.journal.ops_deduped));
  }
}

// Parallel chunk-crypto engine: sweep the worker count over a Table-5a
// style sequential write + cold read of a 16 MB file (16 x 1 MB chunks).
// On core-starved hosts the engine models the saved wall time from
// per-worker CPU clocks (enclave = critical path, not sum of work), so
// the "enclave" column is the projected N-core latency; worker busy /
// critical-path seconds show where the model comes from. Results also go
// to BENCH_parallel.json for the experiment log.
void ParallelCryptoSweep() {
  constexpr std::size_t kFileBytes = 16 << 20;
  const double file_mb = static_cast<double>(kFileBytes) / (1 << 20);
  PrintHeader("Ablation 6: parallel chunk-crypto workers (16 MB sequential write + cold read)");
  std::printf("%-8s %10s %10s %10s %10s %9s %9s %11s\n", "workers", "wr total",
              "wr encl", "rd encl", "busy", "critical", "saved", "wr MB/s");

  struct Row {
    std::size_t workers;
    double write_total, write_enclave, read_enclave;
    double busy, critical, saved;
    std::uint64_t chunks, segments;
  };
  std::vector<Row> rows;

  for (const std::size_t workers : {0u, 1u, 2u, 4u, 8u}) {
    auto setup = Setup::Nexus();
    Abort(setup->nexus()->SetCryptoWorkers(workers), "set workers");
    const Bytes content = setup->rng().Generate(kFileBytes);

    const auto before = setup->nexus()->Profile();
    PhaseTimer write_timer(*setup);
    Abort(setup->nexus()->WriteFile("big", content), "write");
    const auto ws = write_timer.Stop();

    setup->FlushCaches();
    PhaseTimer read_timer(*setup);
    auto back = setup->nexus()->ReadFile("big");
    Abort(back.status(), "read");
    if (back.value() != content) {
      Abort(Error(ErrorCode::kIntegrityViolation, "readback mismatch"),
            "verify");
    }
    const auto rs = read_timer.Stop();

    const auto delta = setup->nexus()->Profile() - before;
    rows.push_back({workers, ws.total, ws.enclave, rs.enclave,
                    delta.parallel.worker_busy_seconds,
                    delta.parallel.critical_path_seconds,
                    delta.parallel.saved_seconds,
                    delta.parallel.chunks_encrypted + delta.parallel.chunks_decrypted,
                    delta.parallel.segments_streamed});
    std::printf("%-8s %9.3fs %9.3fs %9.3fs %8.3fs %8.3fs %8.3fs %10.1f\n",
                workers == 0 ? "serial" : std::to_string(workers).c_str(),
                ws.total, ws.enclave, rs.enclave,
                rows.back().busy, rows.back().critical, rows.back().saved,
                file_mb / (ws.enclave > 0 ? ws.enclave : 1e-9));
  }

  const Row* serial = &rows[0];
  const Row* four = nullptr;
  for (const Row& r : rows) {
    if (r.workers == 4) four = &r;
  }
  if (four != nullptr && four->write_enclave > 0) {
    std::printf("modeled write speedup, 4 workers vs serial: %.2fx "
                "(enclave %.3fs -> %.3fs)\n",
                serial->write_enclave / four->write_enclave,
                serial->write_enclave, four->write_enclave);
  }

  std::FILE* json = std::fopen("BENCH_parallel.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"workload\": \"table5a_seq_write_read\",\n"
                       "  \"file_mib\": %.0f,\n  \"configs\": [\n", file_mb);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          json,
          "    {\"workers\": %zu, \"write_total_s\": %.6f, "
          "\"write_enclave_s\": %.6f, \"read_enclave_s\": %.6f, "
          "\"worker_busy_s\": %.6f, \"critical_path_s\": %.6f, "
          "\"saved_s\": %.6f, \"chunks\": %llu, \"segments_streamed\": %llu, "
          "\"write_mib_per_enclave_s\": %.2f}%s\n",
          r.workers, r.write_total, r.write_enclave, r.read_enclave, r.busy,
          r.critical, r.saved, static_cast<unsigned long long>(r.chunks),
          static_cast<unsigned long long>(r.segments),
          file_mb / (r.write_enclave > 0 ? r.write_enclave : 1e-9),
          i + 1 < rows.size() ? "," : "");
    }
    double speedup = 0;
    if (four != nullptr && four->write_enclave > 0) {
      speedup = serial->write_enclave / four->write_enclave;
    }
    std::fprintf(json, "  ],\n  \"write_speedup_4w_vs_serial\": %.3f\n}\n",
                 speedup);
    std::fclose(json);
    std::printf("wrote BENCH_parallel.json\n");
  }
}

// Table-5a style 16 MB write + cold read with the object store (a real
// DiskBackend in both configs) either linked in-process or served by a
// live nexusd over a loopback socket through RemoteBackend. The virtual
// clock is identical across configs, so the delta in REAL wall time is
// the protocol's added cost; NetCounters break it into RPCs, bytes and
// per-RPC latency percentiles. Emits BENCH_net.json.
void NetworkAblation() {
  constexpr std::size_t kFileBytes = 16 << 20;
  PrintHeader(
      "Ablation 7: in-process store vs nexusd over loopback (16 MB write + cold read)");

  struct Row {
    const char* config;
    double write_wall_s = 0, read_wall_s = 0;
    net::NetCounters net;
  };
  std::vector<Row> rows;

  for (const bool remote : {false, true}) {
    const std::string dir =
        std::string("bench-net-store-") + (remote ? "remote" : "local");
    std::filesystem::remove_all(dir);
    auto disk = std::make_unique<storage::DiskBackend>(
        storage::DiskBackend::Open(dir).value());

    std::unique_ptr<storage::DiskBackend> served; // daemon's store (remote)
    std::unique_ptr<net::NexusdServer> daemon;
    std::unique_ptr<storage::StorageBackend> store;
    if (remote) {
      served = std::move(disk);
      daemon = net::NexusdServer::Start(*served).value();
      auto client = net::RemoteBackend::Connect("127.0.0.1", daemon->port());
      Abort(client.status(), "connect nexusd");
      store = std::move(client).value();
    } else {
      store = std::move(disk);
    }

    auto setup = Setup::Nexus({}, {}, std::move(store));
    const Bytes content = setup->rng().Generate(kFileBytes);
    setup->FlushCaches();
    net::ResetGlobalNetCounters(); // scope counters to the measured phase

    std::uint64_t t0 = MonotonicNanos();
    Abort(setup->nexus()->WriteFile("big", content), "write");
    const double write_wall =
        static_cast<double>(MonotonicNanos() - t0) * 1e-9;

    setup->FlushCaches();
    t0 = MonotonicNanos();
    auto back = setup->nexus()->ReadFile("big");
    Abort(back.status(), "read");
    const double read_wall = static_cast<double>(MonotonicNanos() - t0) * 1e-9;
    if (back.value() != content) {
      Abort(Error(ErrorCode::kIntegrityViolation, "readback mismatch"),
            "verify");
    }

    rows.push_back(
        {remote ? "remote" : "local", write_wall, read_wall,
         net::GlobalNetSnapshot()});
    setup.reset(); // drop pooled connections before stopping the daemon
    if (daemon) daemon->Stop();
    std::filesystem::remove_all(dir);
  }

  const Row& local = rows[0];
  const Row& over_net = rows[1];
  std::printf("%-8s %12s %12s %8s %8s %12s %10s %10s\n", "config", "write wall",
              "read wall", "rpcs", "retries", "bytes sent", "p50 ms", "p99 ms");
  for (const Row& r : rows) {
    std::printf("%-8s %11.3fs %11.3fs %8llu %8llu %12llu %10.3f %10.3f\n",
                r.config, r.write_wall_s, r.read_wall_s,
                static_cast<unsigned long long>(r.net.rpcs),
                static_cast<unsigned long long>(r.net.retries),
                static_cast<unsigned long long>(r.net.bytes_sent),
                r.net.rpc_p50_ms, r.net.rpc_p99_ms);
  }
  const double added_wall = (over_net.write_wall_s + over_net.read_wall_s) -
                            (local.write_wall_s + local.read_wall_s);
  const double per_rpc_ms =
      over_net.net.rpcs > 0
          ? added_wall * 1e3 / static_cast<double>(over_net.net.rpcs)
          : 0;
  std::printf("network overhead: %+.3fs wall over %llu rpcs (%+.3f ms/rpc)\n",
              added_wall, static_cast<unsigned long long>(over_net.net.rpcs),
              per_rpc_ms);

  std::FILE* json = std::fopen("BENCH_net.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"workload\": \"table5a_16mb_write_read\",\n"
                 "  \"configs\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          json,
          "    {\"config\": \"%s\", \"write_wall_s\": %.6f, "
          "\"read_wall_s\": %.6f, \"rpcs\": %llu, \"retries\": %llu, "
          "\"reconnects\": %llu, \"bytes_sent\": %llu, "
          "\"bytes_received\": %llu, \"rpc_p50_ms\": %.4f, "
          "\"rpc_p99_ms\": %.4f}%s\n",
          r.config, r.write_wall_s, r.read_wall_s,
          static_cast<unsigned long long>(r.net.rpcs),
          static_cast<unsigned long long>(r.net.retries),
          static_cast<unsigned long long>(r.net.reconnects),
          static_cast<unsigned long long>(r.net.bytes_sent),
          static_cast<unsigned long long>(r.net.bytes_received),
          r.net.rpc_p50_ms, r.net.rpc_p99_ms,
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"added_wall_s\": %.6f,\n"
                 "  \"added_ms_per_rpc\": %.4f\n}\n",
                 added_wall, per_rpc_ms);
    std::fclose(json);
    std::printf("wrote BENCH_net.json\n");
  }
}

// Sequential read of 512 x 2 KiB objects through a loopback nexusd,
// sweeping the RPC window and toggling readahead. Loopback RTT is too
// small to differentiate the configs in wall time, so each row also
// reports a MODELED latency at a calibrated AFS-scale cost (rtt + per-op
// overhead per blocking round-trip wave, payload at wire bandwidth): a
// lock-step reader pays one wave per object, a readahead reader keeps the
// window full and pays one wave per WINDOW of objects. The window alone
// does NOT help a serial reader (the "no readahead" row models at the
// lock-step wave count) — overlap must come from speculation. Emits
// BENCH_pipeline.json; aborts unless the modeled window-16 throughput is
// at least 2x lock-step and every config returned byte-identical data.
void PipelineSweep() {
  constexpr std::size_t kObjects = 512;
  constexpr std::size_t kObjectBytes = 2048;
  // Calibrated to the AFS cost model used by the simulated store (§VI
  // scale): 0.5 ms RTT, 0.1 ms per-op service, 6 MiB/s wire bandwidth.
  constexpr double kRttSeconds = 0.0005;
  constexpr double kPerOpSeconds = 0.0001;
  constexpr double kWireBytesPerSecond = 6.0 * (1 << 20);
  const double payload_seconds =
      static_cast<double>(kObjects * kObjectBytes) / kWireBytesPerSecond;

  PrintHeader(
      "Ablation 8: remote read pipelining (512 x 2 KiB sequential Gets)");

  storage::MemBackend store;
  crypto::HmacDrbg rng(AsBytes("pipeline-sweep"));
  std::vector<std::string> names;
  std::vector<Bytes> objects;
  names.reserve(kObjects);
  objects.reserve(kObjects);
  for (std::size_t i = 0; i < kObjects; ++i) {
    names.push_back("chunk-" + std::to_string(1000 + i));
    objects.push_back(rng.Generate(kObjectBytes));
    Abort(store.Put(names.back(), objects.back()), "seed object");
  }

  net::NexusdOptions server_options;
  server_options.rpc_workers = 8;
  auto daemon = net::NexusdServer::Start(store, server_options).value();

  struct Config {
    const char* label;
    std::size_t window;
    bool readahead;
  };
  const Config configs[] = {
      {"W=1 lock-step", 1, false},
      {"W=4 +readahead", 4, true},
      {"W=16 +readahead", 16, true},
      {"W=16 no readahead", 16, false},
  };

  struct Row {
    const Config* config;
    double wall_s = 0;
    double modeled_s = 0;
    net::NetCounters net;
    cache::CacheCounters cache;  // instance hits/waste
    std::uint64_t prefetch_issued = 0;
  };
  std::vector<Row> rows;
  std::vector<Bytes> baseline; // the lock-step row's plaintext, in order

  std::printf("%-20s %10s %12s %12s %8s %8s %8s\n", "config", "wall",
              "modeled", "modeled MB/s", "rpcs", "pf hits", "pf waste");
  for (const Config& config : configs) {
    net::RemoteBackendOptions client_options;
    client_options.rpc_window = config.window;
    client_options.max_pooled_connections = 1;
    client_options.readahead_budget_bytes = 4u << 20;
    client_options.max_inflight_prefetches = config.window;
    auto remote =
        net::RemoteBackend::Connect("127.0.0.1", daemon->port(), client_options);
    Abort(remote.status(), "connect nexusd");
    net::RemoteBackend& raw = *remote.value();
    // Readahead lands in the cache tier now: RemoteBackend only fetches
    // speculatively when a sink (the cache) is stacked on top of it.
    cache::CacheOptions cache_options;
    cache_options.mem_budget_bytes = 4u << 20;
    cache_options.ttl_ms = 600000;
    cache::CachedBackend client(std::move(remote).value(), cache_options);
    cache::ResetGlobalCacheCounters();

    std::vector<Bytes> read_back;
    read_back.reserve(kObjects);
    std::size_t prefetch_cursor = 0;
    const std::uint64_t t0 = MonotonicNanos();
    for (std::size_t i = 0; i < kObjects; ++i) {
      if (config.readahead) {
        // Keep the speculative window full ahead of the demand cursor.
        while (prefetch_cursor < kObjects &&
               prefetch_cursor < i + config.window) {
          client.Prefetch(names[prefetch_cursor++]);
        }
      }
      auto blob = client.Get(names[i]);
      Abort(blob.status(), "sequential get");
      read_back.push_back(std::move(blob).value());
    }
    const double wall = static_cast<double>(MonotonicNanos() - t0) * 1e-9;

    // One blocking wave per object for a serial reader; one per full
    // window when readahead keeps the pipe primed.
    const std::size_t wave_span = config.readahead ? config.window : 1;
    const std::size_t waves = (kObjects + wave_span - 1) / wave_span;
    const double modeled = static_cast<double>(waves) *
                               (kRttSeconds + kPerOpSeconds) +
                           payload_seconds;

    for (std::size_t i = 0; i < kObjects; ++i) {
      if (read_back[i] != objects[i]) {
        Abort(Error(ErrorCode::kIntegrityViolation,
                    "pipelined read returned different bytes"),
              config.label);
      }
    }
    if (baseline.empty()) {
      baseline = std::move(read_back);
    }

    rows.push_back({&config, wall, modeled, raw.counters(), client.counters(),
                    cache::GlobalCacheSnapshot().prefetch_issued});
    const Row& row = rows.back();
    std::printf("%-20s %9.3fs %11.4fs %12.2f %8llu %8llu %8llu\n",
                config.label, row.wall_s, row.modeled_s,
                static_cast<double>(kObjects * kObjectBytes) / (1 << 20) /
                    row.modeled_s,
                static_cast<unsigned long long>(row.net.rpcs),
                static_cast<unsigned long long>(row.cache.prefetch_hits),
                static_cast<unsigned long long>(
                    row.cache.prefetch_wasted_bytes));
  }

  const double speedup = rows[0].modeled_s / rows[2].modeled_s;
  std::printf("modeled sequential-read speedup, window 16 + readahead vs "
              "lock-step: %.2fx\n",
              speedup);
  if (speedup < 2.0) {
    Abort(Error(ErrorCode::kInternal,
                "pipelining regression: modeled W=16 speedup below 2x"),
          "pipeline sweep");
  }

  // Full-stack phase: the enclave's sequential-scan detector arms
  // PrefetchData hints that flow down to RemoteBackend::Prefetch, so a
  // cold whole-file read over the daemon exercises the real readahead
  // path end to end (and the plaintext must survive the trip).
  double enclave_wall = 0;
  net::NetCounters enclave_net;
  cache::CacheCounters enclave_cache;
  {
    storage::MemBackend enclave_store;
    auto enclave_daemon =
        net::NexusdServer::Start(enclave_store, server_options).value();
    net::RemoteBackendOptions client_options;
    client_options.rpc_window = 16;
    auto remote = net::RemoteBackend::Connect("127.0.0.1",
                                              enclave_daemon->port(),
                                              client_options);
    Abort(remote.status(), "connect nexusd");
    cache::CacheOptions cache_options;
    cache_options.mem_budget_bytes = 8u << 20;
    auto cached = std::make_unique<cache::CachedBackend>(
        std::move(remote).value(), cache_options);
    cache::CachedBackend* cache_tier = cached.get();
    auto setup = Setup::Nexus({}, {}, std::move(cached));
    const Bytes content = setup->rng().Generate(4 << 20);
    Abort(setup->nexus()->WriteFile("big", content), "write");
    setup->FlushCaches();
    // The cache tier still holds our own freshly written chunks; a COLD
    // read must re-fetch them over the wire, so drain and drop it too.
    Abort(cache_tier->Flush(), "writeback drain");
    cache_tier->DropCleanEntries();
    net::ResetGlobalNetCounters();
    cache::ResetGlobalCacheCounters();
    const std::uint64_t t0 = MonotonicNanos();
    auto back = setup->nexus()->ReadFile("big");
    Abort(back.status(), "read");
    enclave_wall = static_cast<double>(MonotonicNanos() - t0) * 1e-9;
    if (back.value() != content) {
      Abort(Error(ErrorCode::kIntegrityViolation, "readback mismatch"),
            "verify");
    }
    enclave_net = net::GlobalNetSnapshot();
    enclave_cache = cache::GlobalCacheSnapshot();
    setup.reset();
    enclave_daemon->Stop();
    std::printf("enclave cold read (4 MB, W=16): %.3fs wall, %llu rpcs, "
                "%llu prefetches issued\n",
                enclave_wall,
                static_cast<unsigned long long>(enclave_net.rpcs),
                static_cast<unsigned long long>(
                    enclave_cache.prefetch_issued));
  }
  daemon->Stop();

  std::FILE* json = std::fopen("BENCH_pipeline.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"workload\": \"sequential_read_512x2KiB\",\n"
                 "  \"model\": {\"rtt_s\": %.6f, \"per_op_s\": %.6f, "
                 "\"wire_bytes_per_s\": %.0f},\n  \"configs\": [\n",
                 kRttSeconds, kPerOpSeconds, kWireBytesPerSecond);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          json,
          "    {\"config\": \"%s\", \"window\": %zu, \"readahead\": %s, "
          "\"wall_s\": %.6f, \"modeled_s\": %.6f, "
          "\"modeled_mib_per_s\": %.3f, \"rpcs\": %llu, "
          "\"prefetch_issued\": %llu, \"prefetch_hits\": %llu, "
          "\"prefetch_wasted_bytes\": %llu}%s\n",
          r.config->label, r.config->window,
          r.config->readahead ? "true" : "false", r.wall_s, r.modeled_s,
          static_cast<double>(kObjects * kObjectBytes) / (1 << 20) /
              r.modeled_s,
          static_cast<unsigned long long>(r.net.rpcs),
          static_cast<unsigned long long>(r.prefetch_issued),
          static_cast<unsigned long long>(r.cache.prefetch_hits),
          static_cast<unsigned long long>(r.cache.prefetch_wasted_bytes),
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"modeled_speedup_w16_vs_lockstep\": %.3f,\n"
                 "  \"enclave_cold_read\": {\"file_mib\": 4, "
                 "\"wall_s\": %.6f, \"rpcs\": %llu, "
                 "\"prefetch_issued\": %llu, \"prefetch_hits\": %llu}\n}\n",
                 speedup, enclave_wall,
                 static_cast<unsigned long long>(enclave_net.rpcs),
                 static_cast<unsigned long long>(enclave_cache.prefetch_issued),
                 static_cast<unsigned long long>(enclave_cache.prefetch_hits));
    std::fclose(json);
    std::printf("wrote BENCH_pipeline.json\n");
  }
}

// Ablation 9: the client object cache end to end over a loopback nexusd.
// Phase A re-reads a 2 MiB sequential working set cold vs warm — warm must
// cost at least 5x fewer RPCs while returning byte-identical plaintext.
// Phase B runs a git-clone-shaped metadata workload: a burst of small
// object reads (clone), a warm rescan (status), and a commit loop that
// rewrites a few hot metadata objects repeatedly so writeback coalescing
// shows up as inner Puts saved. Emits BENCH_cache.json.
void ObjectCacheAblation() {
  PrintHeader("Ablation 9: client object cache (cold vs warm over nexusd)");
  constexpr std::size_t kObjects = 256;
  constexpr std::size_t kObjectBytes = 8192;

  storage::MemBackend store;
  crypto::HmacDrbg rng(AsBytes("object-cache"));
  std::vector<std::string> names;
  std::vector<Bytes> objects;
  names.reserve(kObjects);
  objects.reserve(kObjects);
  for (std::size_t i = 0; i < kObjects; ++i) {
    names.push_back("obj-" + std::to_string(1000 + i));
    objects.push_back(rng.Generate(kObjectBytes));
    Abort(store.Put(names.back(), objects.back()), "seed object");
  }

  net::NexusdOptions server_options;
  server_options.rpc_workers = 8;
  auto daemon = net::NexusdServer::Start(store, server_options).value();

  auto remote = net::RemoteBackend::Connect("127.0.0.1", daemon->port());
  Abort(remote.status(), "connect nexusd");
  net::RemoteBackend& raw = *remote.value();
  cache::CacheOptions cache_options;
  cache_options.mem_budget_bytes = 8u << 20;
  cache_options.ttl_ms = 600000;
  cache::CachedBackend client(std::move(remote).value(), cache_options);

  // ---- phase A: cold vs warm sequential read
  auto read_all = [&] {
    for (std::size_t i = 0; i < kObjects; ++i) {
      auto blob = client.Get(names[i]);
      Abort(blob.status(), "sequential get");
      if (blob.value() != objects[i]) {
        Abort(Error(ErrorCode::kIntegrityViolation,
                    "cached read returned different bytes"),
              names[i].c_str());
      }
    }
  };
  const std::uint64_t rpcs_base = raw.counters().rpcs;
  std::uint64_t t = MonotonicNanos();
  read_all();
  const double cold_s = static_cast<double>(MonotonicNanos() - t) * 1e-9;
  const std::uint64_t cold_rpcs = raw.counters().rpcs - rpcs_base;
  t = MonotonicNanos();
  read_all();
  const double warm_s = static_cast<double>(MonotonicNanos() - t) * 1e-9;
  const std::uint64_t warm_rpcs = raw.counters().rpcs - rpcs_base - cold_rpcs;
  const cache::CacheCounters seq = client.counters();
  const double reduction = static_cast<double>(cold_rpcs) /
                           static_cast<double>(std::max<std::uint64_t>(
                               1, warm_rpcs));
  std::printf("sequential 256 x 8 KiB: cold %.3fs / %llu rpcs, "
              "warm %.3fs / %llu rpcs (%.0fx fewer), %llu mem hits\n",
              cold_s, static_cast<unsigned long long>(cold_rpcs), warm_s,
              static_cast<unsigned long long>(warm_rpcs), reduction,
              static_cast<unsigned long long>(seq.mem_hits));
  if (cold_rpcs < 5 * std::max<std::uint64_t>(1, warm_rpcs)) {
    Abort(Error(ErrorCode::kInternal,
                "cache regression: warm re-read saved fewer than 5x rpcs"),
          "object cache");
  }

  // ---- phase B: git-clone-shaped metadata traffic
  constexpr std::size_t kMeta = 200;
  constexpr std::size_t kHot = 8;
  constexpr std::size_t kCommitRounds = 10;
  for (std::size_t i = 0; i < kMeta; ++i) {
    Abort(store.Put("meta/" + std::to_string(i), rng.Generate(256)),
          "seed metadata");
  }
  const std::uint64_t clone_base = raw.counters().rpcs;
  for (std::size_t i = 0; i < kMeta; ++i) {
    Abort(client.Get("meta/" + std::to_string(i)).status(), "clone read");
  }
  const std::uint64_t clone_rpcs = raw.counters().rpcs - clone_base;
  for (std::size_t i = 0; i < kMeta; ++i) {
    Abort(client.Get("meta/" + std::to_string(i)).status(), "status read");
  }
  const std::uint64_t status_rpcs = raw.counters().rpcs - clone_base -
                                    clone_rpcs;
  // Commit churn: every round rewrites the same few hot objects (index,
  // refs, top dirnodes); only the LAST version of each must reach the
  // store when the writeback queue drains at the end.
  const cache::CacheCounters before_commit = client.counters();
  for (std::size_t round = 0; round < kCommitRounds; ++round) {
    for (std::size_t h = 0; h < kHot; ++h) {
      Abort(client.Put("meta/" + std::to_string(h), rng.Generate(256)),
            "commit write");
    }
  }
  Abort(client.Flush(), "commit flush");
  const cache::CacheCounters after_commit = client.counters();
  const std::uint64_t flushed =
      after_commit.writeback_objects - before_commit.writeback_objects;
  const std::uint64_t commit_puts = kCommitRounds * kHot;
  std::printf("metadata: clone %llu rpcs, status %llu rpcs; commit %llu "
              "puts coalesced into %llu flushed objects\n",
              static_cast<unsigned long long>(clone_rpcs),
              static_cast<unsigned long long>(status_rpcs),
              static_cast<unsigned long long>(commit_puts),
              static_cast<unsigned long long>(flushed));
  client.DropCleanEntries();
  daemon->Stop();

  std::FILE* json = std::fopen("BENCH_cache.json", "w");
  if (json != nullptr) {
    std::fprintf(
        json,
        "{\n  \"workload\": \"object_cache\",\n"
        "  \"sequential_read\": {\"objects\": %zu, \"object_bytes\": %zu, "
        "\"cold_s\": %.6f, \"cold_rpcs\": %llu, \"warm_s\": %.6f, "
        "\"warm_rpcs\": %llu, \"rpc_reduction\": %.1f, "
        "\"mem_hits\": %llu, \"misses\": %llu},\n"
        "  \"metadata_clone\": {\"objects\": %zu, \"clone_rpcs\": %llu, "
        "\"status_rpcs\": %llu, \"commit_puts\": %llu, "
        "\"flushed_objects\": %llu, \"writeback_batches\": %llu}\n}\n",
        kObjects, kObjectBytes, cold_s,
        static_cast<unsigned long long>(cold_rpcs), warm_s,
        static_cast<unsigned long long>(warm_rpcs), reduction,
        static_cast<unsigned long long>(seq.mem_hits),
        static_cast<unsigned long long>(seq.misses), kMeta,
        static_cast<unsigned long long>(clone_rpcs),
        static_cast<unsigned long long>(status_rpcs),
        static_cast<unsigned long long>(commit_puts),
        static_cast<unsigned long long>(flushed),
        static_cast<unsigned long long>(after_commit.writeback_batches));
    std::fclose(json);
    std::printf("wrote BENCH_cache.json\n");
  }
}

// Ablation 10: connection scaling of the epoll reactor. Phase A measures
// low-concurrency latency (2000 small Gets, one client): the reactor must
// not tax the common case. Phase B opens idle connections in batches,
// probing after each batch that a fresh short-deadline client still gets
// served; the count where the probe last succeeded is the sustained
// connection capacity at the daemon's (flat) resident thread count. The
// loop holds every idle socket in one thread. Emits BENCH_c10k.json;
// aborts unless the reactor sustains every one of the sweep's
// target_conns connections.
void C10kAblation() {
  PrintHeader("Ablation 10: connection scaling (reactor)");

  // Idle sockets are cheap but each costs an fd on both ends; raise the
  // soft limit toward the hard cap so the sweep isn't fd-bound.
  rlimit nofile{};
  if (::getrlimit(RLIMIT_NOFILE, &nofile) == 0 &&
      nofile.rlim_cur < nofile.rlim_max) {
    rlimit raised = nofile;
    raised.rlim_cur = std::min<rlim_t>(nofile.rlim_max, 8192);
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) nofile = raised;
  }
  // Both ends of every loopback connection share this process's fd table;
  // leave headroom for the daemon, probes and everything else open.
  const std::size_t fd_budget =
      nofile.rlim_cur > 512 ? (static_cast<std::size_t>(nofile.rlim_cur) - 256) / 2
                            : 128;
  const std::size_t target_conns = std::min<std::size_t>(1024, fd_budget);

  storage::MemBackend store;
  Abort(store.Put("probe", Bytes(512, 0x5a)), "seed");
  net::NexusdOptions options;
  options.rpc_workers = 4;
  auto daemon = net::NexusdServer::Start(store, options).value();
  std::uint64_t sustained_conns = 0;
  double get_p50_ms = 0, get_p99_ms = 0;

  // ---- phase A: low-concurrency latency, one lock-step client.
  {
    net::RemoteBackendOptions copts;
    copts.rpc_deadline_ms = 5000;
    auto client =
        net::RemoteBackend::Connect("127.0.0.1", daemon->port(), copts);
    Abort(client.status(), "connect");
    net::ResetGlobalNetCounters();
    for (int i = 0; i < 2000; ++i) {
      Abort(client.value()->Get("probe").status(), "latency get");
    }
    const net::NetCounters nc = net::GlobalNetSnapshot();
    get_p50_ms = nc.rpc_p50_ms;
    get_p99_ms = nc.rpc_p99_ms;
  }

  // ---- phase B: idle-connection scaling with a served-probe check.
  std::vector<std::unique_ptr<net::Transport>> idle;
  idle.reserve(target_conns);
  bool capacity_hit = false;
  while (idle.size() < target_conns && !capacity_hit) {
    for (int b = 0; b < 8 && idle.size() < target_conns; ++b) {
      auto conn = net::TcpTransport::Dial("127.0.0.1", daemon->port(),
                                          /*connect_deadline_ms=*/1000,
                                          /*io_deadline_ms=*/1000);
      if (!conn.ok()) {
        capacity_hit = true;
        break;
      }
      idle.push_back(std::move(conn).value());
    }
    // The probe dials fresh and must complete a real RPC promptly.
    net::RemoteBackendOptions probe_options;
    probe_options.connect_deadline_ms = 1000;
    probe_options.rpc_deadline_ms = 1000;
    probe_options.max_attempts = 1;
    auto probe = net::RemoteBackend::Connect("127.0.0.1", daemon->port(),
                                             probe_options);
    if (!probe.ok() || !probe.value()->Get("probe").ok()) {
      capacity_hit = true;
      break;
    }
    sustained_conns = idle.size();
  }

  const net::ServerStats s = daemon->WireStats();
  idle.clear();
  daemon->Stop();

  std::printf("%-8s %12s %9s %10s %10s %14s %8s\n", "config", "sustained",
              "threads", "p50 ms", "p99 ms", "loop p99 ms", "slabs");
  std::printf("%-8s %12llu %9llu %10.3f %10.3f %14.3f %8llu\n", "reactor",
              static_cast<unsigned long long>(sustained_conns),
              static_cast<unsigned long long>(s.resident_threads), get_p50_ms,
              get_p99_ms, s.loop_dispatch_p99_ms,
              static_cast<unsigned long long>(s.arena_slabs_high_water));
  std::printf("reactor holds %llu of %zu target connections at %llu "
              "threads\n",
              static_cast<unsigned long long>(sustained_conns), target_conns,
              static_cast<unsigned long long>(s.resident_threads));
  // Latency is jittery on a shared box (not gated); the structural claim —
  // every target connection held at a flat thread count — is.
  if (sustained_conns < target_conns) {
    Abort(Error(ErrorCode::kInternal,
                "reactor sustained fewer than the target connections"),
          "c10k");
  }

  std::FILE* json = std::fopen("BENCH_c10k.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"workload\": \"c10k_connection_scaling\",\n"
                 "  \"target_connections\": %zu,\n  \"configs\": [\n",
                 target_conns);
    std::fprintf(
        json,
        "    {\"config\": \"reactor\", \"sustained_connections\": %llu, "
        "\"resident_threads\": %llu, \"get_p50_ms\": %.4f, "
        "\"get_p99_ms\": %.4f, \"loop_dispatch_p99_ms\": %.4f, "
        "\"arena_slabs_high_water\": %llu}\n",
        static_cast<unsigned long long>(sustained_conns),
        static_cast<unsigned long long>(s.resident_threads), get_p50_ms,
        get_p99_ms, s.loop_dispatch_p99_ms,
        static_cast<unsigned long long>(s.arena_slabs_high_water));
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_c10k.json\n");
  }
}

// One loopback nexusd fleet + cluster client, shared by the cluster
// ablations (11 and 12).
struct ClusterFleet {
  std::vector<std::unique_ptr<storage::MemBackend>> stores;
  std::vector<std::unique_ptr<net::NexusdServer>> servers;
  std::vector<std::uint16_t> ports;
  std::unique_ptr<cluster::ClusterBackend> cluster;

  static cluster::ShardSpec MakeSpec(std::uint16_t port) {
    return cluster::ShardSpec{
        "127.0.0.1:" + std::to_string(port),
        [port]() -> Result<std::unique_ptr<storage::StorageBackend>> {
          net::RemoteBackendOptions client;
          client.max_attempts = 2;
          client.backoff_base_ms = 1;
          client.backoff_cap_ms = 5;
          client.connect_deadline_ms = 250; // bounds the failover stall
          NEXUS_ASSIGN_OR_RETURN(auto remote, net::RemoteBackend::Connect(
                                                  "127.0.0.1", port, client));
          return std::unique_ptr<storage::StorageBackend>(std::move(remote));
        },
        [](storage::StorageBackend& b) {
          return static_cast<net::RemoteBackend&>(b).Ping();
        }};
  }

  std::uint16_t StartServer() {
    stores.push_back(std::make_unique<storage::MemBackend>());
    servers.push_back(net::NexusdServer::Start(*stores.back()).value());
    ports.push_back(servers.back()->port());
    return ports.back();
  }

  explicit ClusterFleet(std::size_t shards, int reinstate_backoff_ms = 100) {
    std::vector<cluster::ShardSpec> specs;
    for (std::size_t i = 0; i < shards; ++i) {
      specs.push_back(MakeSpec(StartServer()));
    }
    cluster::ClusterOptions options;
    options.replication = std::min<std::size_t>(2, shards);
    options.eject_after = 2;
    options.reinstate_backoff_base_ms = reinstate_backoff_ms;
    options.background_rebalance = false;
    cluster =
        cluster::ClusterBackend::Create(std::move(specs), options).value();
  }

  void Kill(std::size_t i) { servers[i].reset(); }
  void RestartEmpty(std::size_t i) {
    servers[i].reset();
    stores[i] = std::make_unique<storage::MemBackend>();
    net::NexusdOptions options;
    options.port = ports[i];
    servers[i] = net::NexusdServer::Start(*stores[i], options).value();
  }
  /// Starts a fresh daemon and joins it to the ring (membership change).
  void AddShardToRing() {
    Abort(cluster->AddShard(MakeSpec(StartServer())), "add shard");
  }
};

// Ablation 11: the sharded nexusd cluster. Phase A measures quorum
// put/get throughput against 1, 2, and 4 loopback shards (R = min(2, N),
// majority quorums) over a 512 x 4 KiB working set — more shards spread
// both the key space and the replica fan-out. Phase B samples per-Get
// latency on a 3-shard R=2 cluster while one shard is killed mid-run: the
// before/after percentiles and the worst single stall bound the client-
// visible failover cost (first touch of a dead shard eats the connect
// timeout; after ejection the tail collapses back). Emits
// BENCH_cluster.json.
void ClusterAblation() {
  PrintHeader("Ablation 11: sharded cluster (throughput vs shards, failover tail)");
  constexpr std::size_t kObjects = 512;
  constexpr std::size_t kObjectBytes = 4096;
  const double mib = static_cast<double>(kObjects * kObjectBytes) /
                     (1024.0 * 1024.0);
  using Fleet = ClusterFleet;

  crypto::HmacDrbg rng(AsBytes("cluster-ablation"));
  std::vector<Bytes> objects;
  objects.reserve(kObjects);
  for (std::size_t i = 0; i < kObjects; ++i) {
    objects.push_back(rng.Generate(kObjectBytes));
  }

  // ---- phase A: throughput vs shard count
  struct Row {
    std::size_t shards = 0;
    std::size_t replication = 0;
    double put_s = 0, get_s = 0;
  };
  std::vector<Row> rows;
  std::printf("%-8s %6s %12s %12s %12s %12s\n", "shards", "R", "put wall",
              "put MiB/s", "get wall", "get MiB/s");
  for (const std::size_t shards : {1u, 2u, 4u}) {
    Fleet fleet(shards);
    cluster::ClusterBackend& c = *fleet.cluster;
    std::uint64_t t = MonotonicNanos();
    for (std::size_t i = 0; i < kObjects; ++i) {
      Abort(c.Put("o" + std::to_string(i), objects[i]), "cluster put");
    }
    const double put_s = static_cast<double>(MonotonicNanos() - t) * 1e-9;
    t = MonotonicNanos();
    for (std::size_t i = 0; i < kObjects; ++i) {
      auto got = c.Get("o" + std::to_string(i));
      Abort(got.status(), "cluster get");
      if (got.value() != objects[i]) {
        Abort(Error(ErrorCode::kIntegrityViolation,
                    "cluster read returned different bytes"),
              "cluster get");
      }
    }
    const double get_s = static_cast<double>(MonotonicNanos() - t) * 1e-9;
    rows.push_back(Row{shards, c.replication(), put_s, get_s});
    std::printf("%-8zu %6zu %11.3fs %12.1f %11.3fs %12.1f\n", shards,
                c.replication(), put_s, mib / put_s, get_s, mib / get_s);
  }

  // ---- phase B: failover tail on a 3-shard R=2 cluster
  constexpr std::size_t kFailoverObjects = 128;
  constexpr std::size_t kRounds = 6;       // read sweeps over the set
  constexpr std::size_t kKillRound = 2;    // shard dies entering this sweep
  Fleet fleet(3);
  cluster::ClusterBackend& c = *fleet.cluster;
  for (std::size_t i = 0; i < kFailoverObjects; ++i) {
    Abort(c.Put("f" + std::to_string(i), objects[i]), "failover seed");
  }
  std::vector<double> before_ms, after_ms;
  for (std::size_t round = 0; round < kRounds; ++round) {
    if (round == kKillRound) fleet.Kill(1);
    for (std::size_t i = 0; i < kFailoverObjects; ++i) {
      const std::uint64_t t0 = MonotonicNanos();
      Abort(c.Get("f" + std::to_string(i)).status(), "failover get");
      const double ms = static_cast<double>(MonotonicNanos() - t0) * 1e-6;
      (round < kKillRound ? before_ms : after_ms).push_back(ms);
    }
  }
  auto percentile = [](std::vector<double> v, double p) {
    std::sort(v.begin(), v.end());
    return v[std::min(v.size() - 1,
                      static_cast<std::size_t>(p * static_cast<double>(v.size())))];
  };
  const double before_p50 = percentile(before_ms, 0.50);
  const double before_p99 = percentile(before_ms, 0.99);
  const double after_p50 = percentile(after_ms, 0.50);
  const double after_p99 = percentile(after_ms, 0.99);
  const double worst_ms = *std::max_element(after_ms.begin(), after_ms.end());
  const cluster::ClusterCounters counters = c.counters();
  std::printf("failover (3 shards, R=2, kill 1 mid-run): healthy p50 %.3f ms "
              "p99 %.3f ms; degraded p50 %.3f ms p99 %.3f ms, worst stall "
              "%.1f ms, %llu failovers, 0 failed ops\n",
              before_p50, before_p99, after_p50, after_p99, worst_ms,
              static_cast<unsigned long long>(counters.failovers));
  if (counters.quorum_failures != 0) {
    Abort(Error(ErrorCode::kInternal, "failover run lost client operations"),
          "cluster failover");
  }

  std::FILE* json = std::fopen("BENCH_cluster.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"workload\": \"cluster\",\n  \"objects\": %zu,\n"
                 "  \"object_bytes\": %zu,\n  \"throughput\": [\n",
                 kObjects, kObjectBytes);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(json,
                   "    {\"shards\": %zu, \"replication\": %zu, "
                   "\"put_s\": %.6f, \"put_mib_s\": %.2f, "
                   "\"get_s\": %.6f, \"get_mib_s\": %.2f}%s\n",
                   r.shards, r.replication, r.put_s, mib / r.put_s, r.get_s,
                   mib / r.get_s, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"failover\": {\"shards\": 3, \"replication\": 2, "
                 "\"healthy_p50_ms\": %.4f, \"healthy_p99_ms\": %.4f, "
                 "\"degraded_p50_ms\": %.4f, \"degraded_p99_ms\": %.4f, "
                 "\"worst_stall_ms\": %.2f, \"failovers\": %llu, "
                 "\"quorum_failures\": %llu}\n}\n",
                 before_p50, before_p99, after_p50, after_p99, worst_ms,
                 static_cast<unsigned long long>(counters.failovers),
                 static_cast<unsigned long long>(counters.quorum_failures));
    std::fclose(json);
    std::printf("wrote BENCH_cluster.json\n");
  }
}

// Ablation 12: cluster convergence. Phase B prices a membership change:
// the arc-bounded delta pass an AddShard queues vs the full every-shard
// scan, in wall time and copy/RPC counters. Phase C measures the repair
// window for writes a dead shard slept through: hinted-handoff drain vs a
// full rebalance pass. Emits BENCH_stream.json.
void StreamAblation() {
  PrintHeader("Ablation 12: delta rebalance, hinted handoff");
  crypto::HmacDrbg rng(AsBytes("stream-ablation"));

  // ---- phase B: rebalance cost after AddShard — delta pass vs full scan
  constexpr std::size_t kRebalanceObjects = 512;
  ClusterFleet grow(4);
  {
    cluster::ClusterBackend& c = *grow.cluster;
    const Bytes small = rng.Generate(4096);
    for (std::size_t i = 0; i < kRebalanceObjects; ++i) {
      Abort(c.Put("o" + std::to_string(i), small), "rebalance seed");
    }
    grow.AddShardToRing();
  }
  cluster::ClusterBackend& gc = *grow.cluster;
  const cluster::ClusterCounters before_delta = gc.counters();
  std::uint64_t t = MonotonicNanos();
  gc.RebalanceNow(); // consumes the queued membership delta
  const double delta_s = static_cast<double>(MonotonicNanos() - t) * 1e-9;
  const cluster::ClusterCounters delta_pass =
      gc.counters() - before_delta;
  const cluster::ClusterCounters before_full = gc.counters();
  t = MonotonicNanos();
  gc.RebalanceNow(); // no pending delta: the whole-circle pass
  const double full_s = static_cast<double>(MonotonicNanos() - t) * 1e-9;
  const cluster::ClusterCounters full_pass = gc.counters() - before_full;
  const double moved_fraction =
      static_cast<double>(delta_pass.rebalance_objects_moved) /
      static_cast<double>(kRebalanceObjects);
  std::printf("rebalance after +1 shard (512 x 4 KiB): delta pass %.3fs "
              "(%llu scanned, %llu moved = %.1f%% of ring, %llu KiB, "
              "%llu rpcs); full pass %.3fs (%llu scanned, %llu rpcs)\n",
              delta_s,
              static_cast<unsigned long long>(
                  delta_pass.rebalance_objects_scanned),
              static_cast<unsigned long long>(
                  delta_pass.rebalance_objects_moved),
              100.0 * moved_fraction,
              static_cast<unsigned long long>(
                  delta_pass.rebalance_bytes_moved / 1024),
              static_cast<unsigned long long>(delta_pass.shard_rpcs), full_s,
              static_cast<unsigned long long>(
                  full_pass.rebalance_objects_scanned),
              static_cast<unsigned long long>(full_pass.shard_rpcs));

  // ---- phase C: repair window for slid-past writes — handoff vs full
  constexpr std::size_t kRepairObjects = 128;
  struct RepairRow {
    double wall_s = 0;
    unsigned long long rpcs = 0, replayed = 0, moved = 0;
  };
  RepairRow with_handoff, without_handoff;
  for (const bool handoff : {true, false}) {
    ClusterFleet fleet(3, /*reinstate_backoff_ms=*/10);
    cluster::ClusterBackend& c = *fleet.cluster;
    const Bytes small = rng.Generate(4096);
    fleet.Kill(1);
    for (std::size_t i = 0; i < kRepairObjects; ++i) {
      Abort(c.Put("r" + std::to_string(i), small), "repair seed");
    }
    fleet.RestartEmpty(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const cluster::ClusterCounters before = c.counters();
    const std::uint64_t t0 = MonotonicNanos();
    if (handoff) {
      c.DrainHandoffNow();
    } else {
      c.RebalanceNow();
    }
    const double wall = static_cast<double>(MonotonicNanos() - t0) * 1e-9;
    const cluster::ClusterCounters d = c.counters() - before;
    RepairRow& row = handoff ? with_handoff : without_handoff;
    row.wall_s = wall;
    row.rpcs = d.shard_rpcs;
    row.replayed = d.handoff_hints_replayed;
    row.moved = d.rebalance_objects_moved;
  }
  std::printf("repair window (128 writes past a dead shard): handoff drain "
              "%.3fs (%llu replayed, %llu rpcs); full rebalance %.3fs "
              "(%llu moved, %llu rpcs)\n",
              with_handoff.wall_s, with_handoff.replayed, with_handoff.rpcs,
              without_handoff.wall_s, without_handoff.moved,
              without_handoff.rpcs);

  std::FILE* json = std::fopen("BENCH_stream.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"workload\": \"stream\",\n");
    std::fprintf(
        json,
        "  \"rebalance\": {\"objects\": %zu, \"delta\": "
        "{\"wall_s\": %.6f, \"scanned\": %llu, \"moved\": %llu, "
        "\"moved_fraction\": %.4f, \"bytes_moved\": %llu, "
        "\"shard_rpcs\": %llu}, \"full\": {\"wall_s\": %.6f, "
        "\"scanned\": %llu, \"shard_rpcs\": %llu}},\n",
        kRebalanceObjects, delta_s,
        static_cast<unsigned long long>(
            delta_pass.rebalance_objects_scanned),
        static_cast<unsigned long long>(delta_pass.rebalance_objects_moved),
        moved_fraction,
        static_cast<unsigned long long>(delta_pass.rebalance_bytes_moved),
        static_cast<unsigned long long>(delta_pass.shard_rpcs), full_s,
        static_cast<unsigned long long>(full_pass.rebalance_objects_scanned),
        static_cast<unsigned long long>(full_pass.shard_rpcs));
    std::fprintf(
        json,
        "  \"repair\": {\"objects\": %zu, \"with_handoff\": "
        "{\"wall_s\": %.6f, \"replayed\": %llu, \"shard_rpcs\": %llu}, "
        "\"without_handoff\": {\"wall_s\": %.6f, \"moved\": %llu, "
        "\"shard_rpcs\": %llu}}\n}\n",
        kRepairObjects, with_handoff.wall_s, with_handoff.replayed,
        with_handoff.rpcs, without_handoff.wall_s, without_handoff.moved,
        without_handoff.rpcs);
    std::fclose(json);
    std::printf("wrote BENCH_stream.json\n");
  }
}

} // namespace

int Main() {
  BucketSweep();
  CacheAblation();
  PartialEncryptAblation();
  RevalidationAblation();
  JournalBatchAblation();
  ParallelCryptoSweep();
  NetworkAblation();
  PipelineSweep();
  ObjectCacheAblation();
  C10kAblation();
  ClusterAblation();
  StreamAblation();
  return 0;
}

} // namespace nexus::bench

int main() { return nexus::bench::Main(); }
