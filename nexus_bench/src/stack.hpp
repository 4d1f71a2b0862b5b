// The whole client stack a NEXUS user runs, assembled over a fresh fleet:
//
//   vfs::NexusFs -> core::NexusClient -> enclave -> storage::AfsServer
//     -> cache::CachedBackend -> cluster::ClusterBackend (R=2, majority)
//     -> one net::RemoteBackend per shard -> nexusd --mem child process
//
// Every setting that a NEXUS_* variable would otherwise supply is passed as
// an explicit option, so the environment cannot change what is measured.
// With probes, the P0-P3 decorators (probes.hpp) are spliced in at the
// layer boundaries; without them the stack is exactly the one users get.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cached_backend.hpp"
#include "cluster/cluster_backend.hpp"
#include "core/nexus_client.hpp"
#include "core/user_key.hpp"
#include "crypto/rng.hpp"
#include "fleet.hpp"
#include "net/remote_backend.hpp"
#include "probes.hpp"
#include "sgx/attestation.hpp"
#include "sgx/enclave.hpp"
#include "storage/afs.hpp"
#include "vfs/nexus_fs.hpp"

namespace nexus::fullbench {

struct StackConfig {
  std::string nexusd_path;
  std::size_t shards = 3;
  std::size_t replication = 2;
  std::size_t nexusd_rpc_workers = 2;
  std::size_t cache_mem_bytes = 64u << 20;
  std::uint64_t cache_ttl_ms = 600'000; // hit counts must not depend on wall time
  std::size_t rpc_window = 8;
  std::size_t readahead_bytes = 32u << 20;
  std::size_t pooled_connections = 1; // one connection per shard
  std::size_t crypto_workers = 2;
  std::uint32_t chunk_size = 1u << 20;
};

class Stack {
 public:
  /// Spawns the fleet and builds, creates and mounts a volume on top of
  /// it. `probes` may be null (untraced run).
  static Result<std::unique_ptr<Stack>> Create(const StackConfig& config,
                                               Probes* probes);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  [[nodiscard]] vfs::FileSystem& fs() { return *fs_; }
  [[nodiscard]] core::NexusClient& client() { return *client_; }
  [[nodiscard]] storage::AfsClient& afs() { return *afs_; }
  [[nodiscard]] storage::AfsServer& server() { return *server_; }
  [[nodiscard]] cache::CachedBackend& cache() { return *cache_; }
  [[nodiscard]] cluster::ClusterBackend& cluster() { return *cluster_; }
  [[nodiscard]] const std::vector<net::RemoteBackend*>& remotes() const {
    return remotes_;
  }

  /// Largest peak resident set among the daemons, MiB.
  [[nodiscard]] double DaemonPeakRssMib() const { return fleet_->PeakRssMib(); }

  /// Drops the AFS and enclave caches: the next access starts a new
  /// session, as after a remount. A client call beside the FileSystem
  /// interface, so P0 records it too.
  void NewSession();

 private:
  Stack() = default;

  // Destruction runs bottom-up through this list: the client first, the
  // backend chain with its connections next, the daemons last.
  std::unique_ptr<Fleet> fleet_;
  storage::SimClock clock_;
  std::unique_ptr<storage::AfsServer> server_;
  std::unique_ptr<storage::AfsClient> afs_;
  std::unique_ptr<sgx::IntelAttestationService> intel_;
  std::unique_ptr<sgx::SgxCpu> cpu_;
  std::unique_ptr<sgx::EnclaveRuntime> runtime_;
  std::unique_ptr<core::NexusClient> client_;
  std::unique_ptr<vfs::NexusFs> nexus_fs_;
  std::unique_ptr<vfs::FileSystem> probed_fs_;
  vfs::FileSystem* fs_ = nullptr;

  // Non-owning views into the backend chain owned by server_.
  cache::CachedBackend* cache_ = nullptr;
  cluster::ClusterBackend* cluster_ = nullptr;
  std::vector<net::RemoteBackend*> remotes_;
  Probes* probes_ = nullptr;
};

} // namespace nexus::fullbench
