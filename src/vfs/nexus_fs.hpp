// The NEXUS mount: the VFS interface backed by a NexusClient (and thus by
// the enclave + AFS). This is the layer unmodified "applications" (our
// workload implementations) run against — the paper's userspace daemon.
//
// A file opened for write that does not exist yet stays local until its
// first flush, as AFS keeps a file local until close: that flush creates
// it with its content in one enclave transaction. Other clients see the
// name only then; this mount flushes such files before any other call.
#pragma once

#include <map>

#include "core/nexus_client.hpp"
#include "vfs/vfs.hpp"

namespace nexus::vfs {

class NexusFs final : public FileSystem {
 public:
  /// The client must have a mounted volume.
  explicit NexusFs(core::NexusClient& client) : client_(client) {}
  // Open handles call back into this object by address.
  NexusFs(const NexusFs&) = delete;
  NexusFs& operator=(const NexusFs&) = delete;

  Result<std::unique_ptr<OpenFile>> Open(const std::string& path,
                                         OpenMode mode) override;
  Status Mkdir(const std::string& path) override;
  Status Remove(const std::string& path) override;
  Result<std::vector<Dirent>> ReadDir(const std::string& path) override;
  Result<FileStat> Stat(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Symlink(const std::string& target, const std::string& linkpath) override;
  Result<std::string> Readlink(const std::string& path) override;
  Status BeginBatch() override;
  Status CommitBatch() override;

 private:
  /// Opens a missing file for write. Nothing is stored until the handle's
  /// first flush (Sync or Close), which creates the file with its content
  /// in one transaction; until then only this mount knows of it.
  Result<std::unique_ptr<OpenFile>> OpenNewFile(const std::string& path);

  /// Syncs every file created by an open whose first flush has not run
  /// yet. Every other call of this mount starts here, so it sees those
  /// files exactly as the store will. Returns the first failed sync.
  Status FlushPendingCreates();

  core::NexusClient& client_;
  /// Handles of the not-yet-flushed creates, by open. A handle leaves at
  /// its first flush, whatever the outcome; it always flushes before it
  /// is destroyed, because a new file starts dirty.
  std::map<std::uint64_t, OpenFile*> pending_creates_;
  std::uint64_t next_create_token_ = 0;
};

} // namespace nexus::vfs
