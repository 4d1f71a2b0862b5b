// Consistent-hash ring with virtual nodes (DESIGN.md §11).
//
// Object names and shard vnodes hash onto one 64-bit circle; an object's
// owners are the first R DISTINCT shards clockwise from the object's
// point. Virtual nodes (default 64 per shard) smooth the load split and —
// the property everything else leans on — keep placement STABLE across
// membership change: adding or removing one shard only moves the keys in
// the arcs that shard's vnodes cover, ~1/N of the space, so rebalancing
// migrates a bounded slice instead of reshuffling the world.
//
// The ring is a value type: ClusterBackend snapshots it under its own
// lock, and the rebalancer diffs an old ring against a new one to find
// the objects whose owner set changed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nexus::cluster {

class HashRing {
 public:
  /// `vnodes` points per shard; more = smoother split, bigger ring map.
  explicit HashRing(std::size_t vnodes = 64) : vnodes_(vnodes) {}

  /// Adds a shard id (no-op if present).
  void AddNode(const std::string& id);
  /// Removes a shard id (no-op if absent).
  void RemoveNode(const std::string& id);

  /// The first `r` DISTINCT shards clockwise from `name`'s point, in
  /// successor order (owner first). Fewer when the ring has fewer shards.
  [[nodiscard]] std::vector<std::string> Successors(const std::string& name,
                                                    std::size_t r) const;
  /// Successors(name, 1)[0]; empty string on an empty ring.
  [[nodiscard]] std::string Owner(const std::string& name) const;

  [[nodiscard]] bool Contains(const std::string& id) const;
  [[nodiscard]] std::size_t NodeCount() const { return nodes_.size(); }
  [[nodiscard]] std::vector<std::string> Nodes() const;

  /// The first `r` DISTINCT shards clockwise from an arbitrary ring
  /// point (inclusive) — Successors without the name hash, used by the
  /// delta rebalancer to evaluate owner sets arc by arc and by the
  /// cluster client, which hashes each op's name once.
  [[nodiscard]] std::vector<std::string> SuccessorsAt(std::uint64_t point,
                                                      std::size_t r) const;

  /// All vnode points, sorted ascending. The owner set of every key is
  /// constant between two adjacent points, so a ring diff only needs to
  /// probe one point per arc.
  [[nodiscard]] std::vector<std::uint64_t> Points() const;

  /// Stable 64-bit point for a key (first 8 little-endian bytes of
  /// SHA-256) — exposed so tests can pin the placement function and
  /// callers can hash a name once for placement and striping.
  [[nodiscard]] static std::uint64_t HashPoint(const std::string& key);

 private:
  std::size_t vnodes_;
  std::map<std::uint64_t, std::string> ring_; // point -> shard id
  std::map<std::string, std::size_t> nodes_;  // id -> vnode count
};

/// One arc of the hash circle whose owner set changed between two ring
/// snapshots. The arc is (begin, end] — exclusive begin, inclusive end,
/// matching lower_bound placement: a key at a vnode point is served by
/// that vnode. begin >= end wraps through zero (begin == end is the full
/// circle). Keys hashing into the arc were owned by `from` under the old
/// ring and by `to` under the new one (the lists usually overlap — only
/// the difference needs copying).
struct MovedArc {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::vector<std::string> from; // owners under the old ring
  std::vector<std::string> to;   // owners under the new ring
};

/// Diffs two ring snapshots at replication factor `r`: returns the arcs
/// whose owner set changed, walking the union of both rings' vnode
/// points (owner sets are constant between adjacent union points).
/// Adjacent arcs with identical from/to sets are merged. Adding or
/// removing one shard of N yields arcs covering ~1/N of the circle — the
/// bound that makes delta rebalancing O(moved) instead of O(everything).
[[nodiscard]] std::vector<MovedArc> DiffRings(const HashRing& before,
                                              const HashRing& after,
                                              std::size_t r);

} // namespace nexus::cluster
