#include "core/fsck.hpp"

#include <unordered_set>

#include "journal/journal.hpp"

namespace nexus::core {

Result<FsckReport> RunFsck(NexusClient& client, bool deep) {
  FsckReport report;
  NEXUS_ASSIGN_OR_RETURN(report.audit,
                         client.enclave().EcallVerifyVolume(deep));

  // Orphan scan (untrusted is fine: it only *finds garbage*, it cannot
  // make the enclave accept anything).
  std::unordered_set<std::string> reachable;
  for (const Uuid& uuid : report.audit.reachable_meta) {
    reachable.insert("nx/" + uuid.ToString());
  }
  for (const Uuid& uuid : report.audit.reachable_data) {
    reachable.insert("nxd/" + uuid.ToString());
  }

  NEXUS_ASSIGN_OR_RETURN(std::vector<std::string> meta_objects,
                         client.afs().List("nx/"));
  NEXUS_ASSIGN_OR_RETURN(std::vector<std::string> data_objects,
                         client.afs().List("nxd/"));
  // The journal's one object is its anchor, which recovery reads at every
  // mount; anything else under nxj/ (say, a record an older build left) is
  // garbage.
  reachable.insert(std::string("nxj/") + journal::kAnchorName);
  NEXUS_ASSIGN_OR_RETURN(std::vector<std::string> journal_objects,
                         client.afs().List("nxj/"));
  for (const auto* names : {&meta_objects, &data_objects, &journal_objects}) {
    for (const auto& name : *names) {
      if (!reachable.contains(name)) report.orphaned_objects.push_back(name);
    }
  }
  return report;
}

Result<std::size_t> ReclaimOrphans(NexusClient& client,
                                   const FsckReport& report) {
  std::size_t removed = 0;
  for (const std::string& name : report.orphaned_objects) {
    NEXUS_RETURN_IF_ERROR(client.afs().Remove(name));
    ++removed;
  }
  return removed;
}

} // namespace nexus::core
