// Volume check ("nexus-fsck"): in-enclave integrity audit of the entire
// tree plus an untrusted orphan scan — objects on the store that no
// metadata references (leftovers of crashed operations; harmless but worth
// reclaiming).
#pragma once

#include <string>
#include <vector>

#include "core/nexus_client.hpp"

namespace nexus::core {

struct FsckReport {
  enclave::NexusEnclave::VolumeAudit audit;
  /// Store object names (attacker-visible form) that exist but are not
  /// reachable from the volume. Safe to delete. The journal anchor is
  /// never one; any other journal object is.
  std::vector<std::string> orphaned_objects;
};

/// Runs the audit on the mounted volume of `client`. With `deep`, every
/// file's ciphertext chunks are fetched and verified too.
Result<FsckReport> RunFsck(NexusClient& client, bool deep = false);

/// Deletes the orphans found by RunFsck. Returns how many were removed.
Result<std::size_t> ReclaimOrphans(NexusClient& client,
                                   const FsckReport& report);

} // namespace nexus::core
