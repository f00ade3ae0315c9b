#include "incremental/score_cache.h"

#include <algorithm>
#include <utility>

namespace rovista::incremental {

bool ScoreCache::Matrix::describes(std::span<const scan::Vvp> vvps,
                                   std::span<const scan::Tnode> tnodes) const {
  if (vvps.size() != vvp_addrs.size() || tnodes.size() != tnode_addrs.size()) {
    return false;
  }
  for (std::size_t i = 0; i < vvps.size(); ++i) {
    if (vvps[i].address.value() != vvp_addrs[i]) return false;
  }
  for (std::size_t i = 0; i < tnodes.size(); ++i) {
    if (tnodes[i].address.value() != tnode_addrs[i]) return false;
  }
  return true;
}

bool ScoreCache::matches(std::span<const scan::Vvp> vvps,
                         std::span<const scan::Tnode> tnodes) const {
  return current_.describes(vvps, tnodes);
}

bool ScoreCache::recall(std::span<const scan::Vvp> vvps,
                        std::span<const scan::Tnode> tnodes) {
  // An empty previous matrix describes only the empty lists, which a
  // fresh current matrix describes just as well.
  if (previous_.entries.empty() || !previous_.describes(vvps, tnodes)) {
    return false;
  }
  std::swap(current_, previous_);
  return true;
}

void ScoreCache::reset(std::span<const scan::Vvp> vvps,
                       std::span<const scan::Tnode> tnodes) {
  previous_ = std::move(current_);
  current_ = Matrix{};
  current_.vvp_addrs.reserve(vvps.size());
  current_.tnode_addrs.reserve(tnodes.size());
  for (const scan::Vvp& v : vvps) {
    current_.vvp_addrs.push_back(v.address.value());
  }
  for (const scan::Tnode& t : tnodes) {
    current_.tnode_addrs.push_back(t.address.value());
  }
  current_.entries.assign(vvps.size() * tnodes.size(), std::nullopt);
}

const CacheEntry* ScoreCache::lookup(std::size_t v, std::size_t t) const {
  const std::size_t index = v * current_.tnode_addrs.size() + t;
  if (v >= current_.vvp_addrs.size() || t >= current_.tnode_addrs.size()) {
    return nullptr;
  }
  const auto& entry = current_.entries[index];
  return entry.has_value() ? &*entry : nullptr;
}

void ScoreCache::store(std::size_t v, std::size_t t,
                       std::uint64_t fingerprint,
                       const core::PairObservation& observation) {
  const std::size_t index = v * current_.tnode_addrs.size() + t;
  if (v >= current_.vvp_addrs.size() || t >= current_.tnode_addrs.size()) {
    return;
  }
  current_.entries[index] = CacheEntry{fingerprint, observation};
}

std::size_t ScoreCache::entries() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(current_.entries.begin(), current_.entries.end(),
                    [](const auto& e) { return e.has_value(); }));
}

void ScoreCache::clear() {
  current_ = Matrix{};
  previous_ = Matrix{};
}

bool ScoreCache::restore(std::vector<std::uint32_t> vvp_addrs,
                         std::vector<std::uint32_t> tnode_addrs,
                         std::vector<std::optional<CacheEntry>> entries) {
  if (entries.size() != vvp_addrs.size() * tnode_addrs.size()) {
    clear();
    return false;
  }
  current_.vvp_addrs = std::move(vvp_addrs);
  current_.tnode_addrs = std::move(tnode_addrs);
  current_.entries = std::move(entries);
  previous_ = Matrix{};
  return true;
}

}  // namespace rovista::incremental
