// Shared test fixture: a simulated world with Intel, SGX machines, an AFS
// deployment and NEXUS clients.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/nexus_client.hpp"
#include "core/user_key.hpp"
#include "crypto/rng.hpp"
#include "sgx/attestation.hpp"
#include "sgx/enclave.hpp"
#include "storage/afs.hpp"
#include "storage/backend.hpp"

namespace nexus::test {

/// A store wrapper whose Puts can be made to fail: every Put whose name
/// starts with the armed prefix ("" arms them all) fails with kIOError
/// until Heal(). Arming "nx/" lets a journaled commit land its anchor
/// ("nxj/anchor") while the checkpoint stores after it fail, so the
/// session holds a commit the main objects lack — as if it had died right
/// after the anchor. Also counts the Puts that went through. Streams can be
/// armed apart to fail mid-way (FailStreamAppend).
class FaultyBackend final : public storage::StorageBackend {
 public:
  explicit FaultyBackend(std::unique_ptr<storage::StorageBackend> inner)
      : inner_(std::move(inner)) {}

  void FailPuts(std::string prefix) {
    const std::lock_guard<std::mutex> lock(mu_);
    failing_ = std::move(prefix);
  }
  /// Every PutStream of a name starting with `prefix` fails its
  /// `at_append`-th Append (1-based) with kIOError until Heal().
  void FailStreamAppend(std::string prefix, std::size_t at_append) {
    const std::lock_guard<std::mutex> lock(mu_);
    failing_stream_.emplace(std::move(prefix), at_append);
  }
  void Heal() {
    const std::lock_guard<std::mutex> lock(mu_);
    failing_.reset();
    failing_stream_.reset();
  }
  /// Successful Puts of names starting with `prefix` so far.
  std::size_t PutCount(const std::string& prefix) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const std::string& name : puts_) n += name.starts_with(prefix);
    return n;
  }

  Result<Bytes> Get(const std::string& name) override {
    return inner_->Get(name);
  }
  Status Put(const std::string& name, ByteSpan data) override {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (failing_.has_value() && name.starts_with(*failing_)) {
        return Error(ErrorCode::kIOError, "injected store failure: " + name);
      }
    }
    NEXUS_RETURN_IF_ERROR(inner_->Put(name, data));
    const std::lock_guard<std::mutex> lock(mu_);
    puts_.push_back(name);
    return Status::Ok();
  }
  Status Delete(const std::string& name) override {
    return inner_->Delete(name);
  }
  bool Exists(const std::string& name) override { return inner_->Exists(name); }
  std::vector<std::string> List(const std::string& prefix) override {
    return inner_->List(prefix);
  }
  /// The base stream buffers and commits through Put above, so armed Put
  /// failures reach streamed objects too.
  Result<std::unique_ptr<PutStream>> OpenPutStream(
      const std::string& name) override {
    NEXUS_ASSIGN_OR_RETURN(std::unique_ptr<PutStream> stream,
                           StorageBackend::OpenPutStream(name));
    const std::lock_guard<std::mutex> lock(mu_);
    if (!failing_stream_.has_value() ||
        !name.starts_with(failing_stream_->first)) {
      return stream;
    }
    return std::unique_ptr<PutStream>(std::make_unique<FailingStream>(
        std::move(stream), failing_stream_->second));
  }

 private:
  class FailingStream final : public PutStream {
   public:
    FailingStream(std::unique_ptr<PutStream> inner, std::size_t fail_at)
        : inner_(std::move(inner)), fail_at_(fail_at) {}
    void Reserve(std::size_t total_bytes) override {
      inner_->Reserve(total_bytes);
    }
    Status Append(ByteSpan data) override {
      if (++appended_ == fail_at_) {
        return Error(ErrorCode::kIOError, "injected stream failure");
      }
      return inner_->Append(data);
    }
    Status Commit() override { return inner_->Commit(); }
    void Abort() override { inner_->Abort(); }

   private:
    std::unique_ptr<PutStream> inner_;
    std::size_t fail_at_;
    std::size_t appended_ = 0;
  };

  std::unique_ptr<storage::StorageBackend> inner_;
  std::mutex mu_;
  std::optional<std::string> failing_;
  std::optional<std::pair<std::string, std::size_t>> failing_stream_;
  std::vector<std::string> puts_;
};

/// One user's machine: SGX CPU + enclave runtime + AFS client + NEXUS.
struct Machine {
  std::unique_ptr<sgx::SgxCpu> cpu;
  std::unique_ptr<sgx::EnclaveRuntime> runtime;
  std::unique_ptr<storage::AfsClient> afs;
  std::unique_ptr<core::NexusClient> nexus;
  core::UserKey user;
};

/// A complete simulated deployment sharing one untrusted AFS server.
class World {
 public:
  explicit World(std::string seed = "world")
      : World(std::move(seed), std::make_unique<storage::MemBackend>()) {}

  /// Deployment whose AFS server stores objects in `backend` — e.g. a
  /// DiskBackend, or a net::RemoteBackend talking to a live nexusd.
  World(std::string seed, std::unique_ptr<storage::StorageBackend> backend)
      : seed_(std::move(seed)),
        rng_(AsBytes(seed_)),
        intel_(AsBytes("intel")),
        server_(std::move(backend), clock_) {}

  /// Provisions a machine for `username` with its own CPU and enclave.
  Machine& AddMachine(const std::string& username) {
    auto m = std::make_unique<Machine>();
    m->cpu = intel_.ProvisionCpu(AsBytes(seed_ + "-cpu-" + username));
    m->runtime = std::make_unique<sgx::EnclaveRuntime>(
        *m->cpu, sgx::NexusEnclaveImage(), AsBytes(seed_ + "-rng-" + username));
    m->afs = std::make_unique<storage::AfsClient>(server_, username);
    m->nexus = std::make_unique<core::NexusClient>(*m->runtime, *m->afs,
                                                   intel_.root_public_key());
    m->user = core::UserKey::Generate(username, rng_);
    machines_.push_back(std::move(m));
    return *machines_.back();
  }

  [[nodiscard]] storage::AfsServer& server() noexcept { return server_; }
  [[nodiscard]] storage::SimClock& clock() noexcept { return clock_; }
  [[nodiscard]] sgx::IntelAttestationService& intel() noexcept { return intel_; }
  [[nodiscard]] crypto::Rng& rng() noexcept { return rng_; }

 private:
  std::string seed_;
  crypto::HmacDrbg rng_;
  sgx::IntelAttestationService intel_;
  storage::SimClock clock_;
  storage::AfsServer server_;
  std::vector<std::unique_ptr<Machine>> machines_;
};

} // namespace nexus::test
