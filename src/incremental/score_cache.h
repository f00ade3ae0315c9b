// Reachability-aware cache of (vVP, tNode) measurement outcomes.
//
// A pair's experiment is a deterministic function of (a) the replica
// world's control-plane state along the five directed paths the packets
// traverse and (b) the pair's canonical time slot (core/parallel_round.h).
// The cache therefore keys each prior observation by the pair's matrix
// position and a reachability fingerprint (dataplane/fingerprint.h);
// while the (vVP, tNode) matrix is unchanged and a pair's fingerprint
// matches, the cached verdict equals what a fresh replica would measure,
// so the pair (in fact its whole vVP row — rows are the atomic execution
// unit, see DESIGN.md) can be skipped.
//
// Matrix identity is strict: any change to the vVP or tNode lists shifts
// canonical slots, so the cache resets rather than guess. The matrix a
// reset replaces is kept as the previous one, and a round whose lists
// are exactly the previous matrix's takes it back: discovery lists that
// flap (a tNode leaves for a round and comes back) then re-run only the
// rows whose fingerprints moved, not the whole matrix. Only the current
// matrix is checkpointed; a resumed run without the previous one
// re-executes those rows and measures the same observations.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/scoring.h"
#include "scan/tnode_discovery.h"
#include "scan/vvp_discovery.h"

namespace rovista::incremental {

struct CacheEntry {
  std::uint64_t fingerprint = 0;
  core::PairObservation observation;
};

class ScoreCache {
 public:
  /// True if the cache currently describes exactly this (vVP, tNode)
  /// matrix (same addresses, same order).
  bool matches(std::span<const scan::Vvp> vvps,
               std::span<const scan::Tnode> tnodes) const;

  /// Make the previous matrix current if it describes exactly this
  /// (vVP, tNode) matrix, keeping the current one as the previous.
  /// Returns false, changing nothing, otherwise.
  bool recall(std::span<const scan::Vvp> vvps,
              std::span<const scan::Tnode> tnodes);

  /// Reset to an empty cache shaped for this matrix; the current matrix
  /// becomes the previous one.
  void reset(std::span<const scan::Vvp> vvps,
             std::span<const scan::Tnode> tnodes);

  /// Entry for pair (v, t), or nullptr if never stored.
  const CacheEntry* lookup(std::size_t v, std::size_t t) const;

  /// Store (overwrite) the entry for pair (v, t).
  void store(std::size_t v, std::size_t t, std::uint64_t fingerprint,
             const core::PairObservation& observation);

  std::size_t vvp_count() const noexcept { return current_.vvp_addrs.size(); }
  std::size_t tnode_count() const noexcept {
    return current_.tnode_addrs.size();
  }
  std::size_t entries() const noexcept;

  void clear();

  // Serialization support (src/persist checkpoints, docs/FORMATS.md):
  // the current matrix only.
  std::span<const std::uint32_t> vvp_addrs() const noexcept {
    return current_.vvp_addrs;
  }
  std::span<const std::uint32_t> tnode_addrs() const noexcept {
    return current_.tnode_addrs;
  }
  const std::vector<std::optional<CacheEntry>>& raw_entries() const noexcept {
    return current_.entries;
  }

  /// Adopt a deserialized image as the current matrix, with no previous
  /// one. Returns false — leaving the cache cleared, which is always
  /// sound (everything recomputes) — when the entry matrix does not
  /// match the address lists' shape.
  bool restore(std::vector<std::uint32_t> vvp_addrs,
               std::vector<std::uint32_t> tnode_addrs,
               std::vector<std::optional<CacheEntry>> entries);

 private:
  struct Matrix {
    std::vector<std::uint32_t> vvp_addrs;
    std::vector<std::uint32_t> tnode_addrs;
    std::vector<std::optional<CacheEntry>> entries;  // v * T + t

    bool describes(std::span<const scan::Vvp> vvps,
                   std::span<const scan::Tnode> tnodes) const;
  };

  Matrix current_;
  Matrix previous_;
};

}  // namespace rovista::incremental
