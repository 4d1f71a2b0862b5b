#include "stack.hpp"

#include "common/clock.hpp"
#include "net/transport.hpp"

namespace nexus::fullbench {
namespace {

net::RemoteBackendOptions RemoteOptions(const StackConfig& config) {
  net::RemoteBackendOptions options;
  options.rpc_window = config.rpc_window;
  options.readahead_budget_bytes = config.readahead_bytes;
  options.max_pooled_connections = config.pooled_connections;
  return options;
}

} // namespace

Result<std::unique_ptr<Stack>> Stack::Create(const StackConfig& config,
                                             Probes* probes) {
  auto stack = std::unique_ptr<Stack>(new Stack());
  stack->probes_ = probes;
  NEXUS_ASSIGN_OR_RETURN(stack->fleet_,
                         Fleet::Spawn(config.nexusd_path, config.shards,
                                      config.nexusd_rpc_workers));

  // Shards: one RemoteBackend per daemon (P3 probe on top when traced).
  const net::RemoteBackendOptions remote_options = RemoteOptions(config);
  std::vector<cluster::ShardSpec> shards;
  for (const Fleet::Daemon& daemon : stack->fleet_->daemons()) {
    const std::uint16_t port = daemon.port;
    Stack* self = stack.get();
    shards.push_back(cluster::ShardSpec{
        "127.0.0.1:" + std::to_string(port),
        [self, port, remote_options,
         probes]() -> Result<std::unique_ptr<storage::StorageBackend>> {
          const int connect_ms = remote_options.connect_deadline_ms;
          const int rpc_ms = remote_options.rpc_deadline_ms;
          auto remote = std::make_unique<net::RemoteBackend>(
              [port, connect_ms,
               rpc_ms]() -> Result<std::unique_ptr<net::Transport>> {
                NEXUS_ASSIGN_OR_RETURN(
                    std::unique_ptr<net::TcpTransport> t,
                    net::TcpTransport::Dial("127.0.0.1", port, connect_ms,
                                            rpc_ms));
                return std::unique_ptr<net::Transport>(std::move(t));
              },
              remote_options);
          NEXUS_RETURN_IF_ERROR(remote->Ping());
          self->remotes_.push_back(remote.get());
          std::unique_ptr<storage::StorageBackend> backend = std::move(remote);
          if (probes != nullptr) {
            backend = MakeProbedBackend(std::move(backend), probes->shard,
                                        probes->recording);
          }
          return backend;
        },
        // No revive hook: every shard negotiated its protocol with the
        // Ping above, so reinstatement has nothing to renegotiate.
        nullptr});
  }

  cluster::ClusterOptions cluster_options;
  cluster_options.replication = config.replication;
  cluster_options.write_quorum = config.replication / 2 + 1;
  cluster_options.read_quorum = config.replication / 2 + 1;
  cluster_options.writer_id = 1;
  NEXUS_ASSIGN_OR_RETURN(
      std::unique_ptr<cluster::ClusterBackend> cluster,
      cluster::ClusterBackend::Create(std::move(shards), cluster_options));
  stack->cluster_ = cluster.get();
  std::unique_ptr<storage::StorageBackend> chain = std::move(cluster);
  if (probes != nullptr) {
    chain = MakeProbedBackend(std::move(chain), probes->cluster,
                              probes->recording);
  }

  cache::CacheOptions cache_options;
  cache_options.mem_budget_bytes = config.cache_mem_bytes;
  cache_options.disk_budget_bytes = 1; // tier disabled: no disk_dir
  cache_options.ttl_ms = config.cache_ttl_ms;
  // The cluster grants no leases, so kAuto would pick write-through too;
  // pinning it keeps the flush policy explicit.
  cache_options.writeback = cache::CacheOptions::Writeback::kOff;
  auto cached =
      std::make_unique<cache::CachedBackend>(std::move(chain), cache_options);
  stack->cache_ = cached.get();
  chain = std::move(cached);
  if (probes != nullptr) {
    chain = MakeProbedBackend(std::move(chain), probes->cache,
                              probes->recording);
  }

  stack->server_ =
      std::make_unique<storage::AfsServer>(std::move(chain), stack->clock_);
  stack->afs_ =
      std::make_unique<storage::AfsClient>(*stack->server_, "bench-client");
  stack->intel_ = std::make_unique<sgx::IntelAttestationService>(
      AsBytes("bench-intel"));
  stack->cpu_ = stack->intel_->ProvisionCpu(AsBytes("bench-cpu"));
  stack->runtime_ = std::make_unique<sgx::EnclaveRuntime>(
      *stack->cpu_, sgx::NexusEnclaveImage(), AsBytes("bench-rng"));
  stack->client_ = std::make_unique<core::NexusClient>(
      *stack->runtime_, *stack->afs_, stack->intel_->root_public_key());
  NEXUS_RETURN_IF_ERROR(stack->client_->SetCryptoWorkers(config.crypto_workers));

  crypto::HmacDrbg rng(AsBytes("bench-user-seed"));
  const core::UserKey owner = core::UserKey::Generate("bench-user", rng);
  enclave::VolumeConfig volume;
  volume.chunk_size = config.chunk_size;
  NEXUS_RETURN_IF_ERROR(stack->client_->CreateVolume(owner, volume).status());
  // Per-operation journal commit, checkpoint after every record.
  NEXUS_RETURN_IF_ERROR(stack->client_->ConfigureJournal(true, 0));

  stack->nexus_fs_ = std::make_unique<vfs::NexusFs>(*stack->client_);
  stack->fs_ = stack->nexus_fs_.get();
  if (probes != nullptr) {
    stack->probed_fs_ = MakeProbedFs(*stack->nexus_fs_, *probes);
    stack->fs_ = stack->probed_fs_.get();
  }
  return stack;
}

Stack::~Stack() = default;

void Stack::NewSession() {
  if (probes_ == nullptr || !probes_->recording.load()) {
    client_->DropAllCaches();
    return;
  }
  const std::uint64_t t0 = MonotonicNanos();
  client_->DropAllCaches();
  probes_->vfs.Add("client.new_session", t0, MonotonicNanos());
}

} // namespace nexus::fullbench
