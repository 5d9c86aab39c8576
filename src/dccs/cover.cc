#include "dccs/cover.h"

#include <algorithm>
#include <functional>

#include "util/check.h"

namespace mlcore {

VertexSet CoverOf(const std::vector<ResultCore>& cores) {
  VertexSet cover;
  for (const ResultCore& core : cores) {
    cover = UnionSorted(cover, core.vertices);
  }
  return cover;
}

CoverageIndex::CoverageIndex(int k) : k_(k) {
  MLCORE_DCHECK(k >= 1);  // Engine::Validate guarantees k >= 1
  entries_.reserve(static_cast<size_t>(k));
  exclusive_.reserve(static_cast<size_t>(k));
}

int CoverageIndex::MinExclusiveSlot() const {
  MLCORE_DCHECK(!entries_.empty());  // hot pruning path
  // Ties on |Δ| are broken by the lexicographically smallest layer set so
  // that the chosen victim C*(R) does not depend on internal slot order
  // (slots are permuted by Delete's swap-with-last compaction).
  int best = 0;
  for (int slot = 1; slot < size(); ++slot) {
    const int64_t delta = exclusive_[static_cast<size_t>(slot)];
    const int64_t best_delta = exclusive_[static_cast<size_t>(best)];
    if (delta < best_delta ||
        (delta == best_delta && entries_[static_cast<size_t>(slot)].layers <
                                    entries_[static_cast<size_t>(best)].layers)) {
      best = slot;
    }
  }
  return best;
}

int64_t CoverageIndex::MinExclusiveSize() const {
  if (entries_.empty()) return 0;
  return exclusive_[static_cast<size_t>(MinExclusiveSlot())];
}

int64_t CoverageIndex::SizeWithReplacement(const VertexSet& candidate) const {
  // Appendix C, Size(R, C): decompose Cov((R − {C*}) ∪ {C}) into
  // Cov(R − {C*}), C − Cov(R), and C ∩ Δ(R, C*).
  MLCORE_DCHECK(!entries_.empty());  // hot pruning path
  const int star = MinExclusiveSlot();
  int64_t count = 0;
  for (VertexId v : candidate) {
    const Owners owners = OwnersOf(v);
    // v ∈ C − Cov(R), or v ∈ C ∩ Δ(R, C*).
    if (owners.count == 0 || (owners.count == 1 && owners.owner_xor == star)) {
      ++count;
    }
  }
  return count + cover_size_ - exclusive_[static_cast<size_t>(star)];
}

int64_t CoverageIndex::MarginalGain(const VertexSet& candidate) const {
  int64_t gain = 0;
  for (VertexId v : candidate) {
    if (OwnersOf(v).count == 0) ++gain;
  }
  return gain;
}

bool CoverageIndex::SatisfiesEq1(const VertexSet& candidate) const {
  if (!full()) return true;
  // |Cov((R − {C*}) ∪ {C})| ≥ (1 + 1/k)|Cov(R)|, in exact integer form:
  // k·size ≥ (k + 1)·|Cov(R)|.
  return SizeWithReplacement(candidate) * k_ >= (k_ + 1) * cover_size_;
}

double CoverageIndex::OrderPruneThreshold() const {
  return static_cast<double>(cover_size_) / k_ +
         static_cast<double>(MinExclusiveSize());
}

bool CoverageIndex::BelowOrderThreshold(int64_t upper_bound_size) const {
  // |bound| < |Cov(R)|/k + |Δ(R, C*)|  ⇔  k·|bound| < |Cov| + k·|Δ*|.
  return upper_bound_size * k_ < cover_size_ + k_ * MinExclusiveSize();
}

bool CoverageIndex::SatisfiesEq2(int64_t potential_size) const {
  // |U| < (1/k + 1/k²)|Cov| + (1 + 1/k)|Δ*|
  //  ⇔  k²·|U| < (k + 1)·|Cov| + k(k + 1)·|Δ*|.
  const int64_t k = k_;
  return potential_size * k * k <
         (k + 1) * cover_size_ + k * (k + 1) * MinExclusiveSize();
}

bool CoverageIndex::Update(const VertexSet& candidate, const LayerSet& layers) {
  if (candidate.empty()) return false;
  // R is a subset of F_{d,s}: a layer subset identifies its (unique) d-CC,
  // so a candidate already present must not occupy a second slot.
  for (const ResultCore& entry : entries_) {
    if (entry.layers == layers) return false;
  }
  if (!full()) {  // Rule 1
    Insert(candidate, layers);
    return true;
  }
  // Rule 2
  if (SizeWithReplacement(candidate) * k_ < (k_ + 1) * cover_size_) {
    return false;
  }
  Delete(MinExclusiveSlot());
  Insert(candidate, layers);
  return true;
}

void CoverageIndex::Insert(const VertexSet& candidate, const LayerSet& layers) {
  // M is indexed by vertex id: the candidate must be non-empty, sorted,
  // duplicate-free and non-negative.
  MLCORE_DCHECK(!candidate.empty() && candidate.front() >= 0);
  MLCORE_DCHECK(std::adjacent_find(candidate.begin(), candidate.end(),
                                   std::greater_equal<VertexId>()) ==
                candidate.end());
  const size_t needed = static_cast<size_t>(candidate.back()) + 1;
  if (owners_.size() < needed) owners_.resize(needed);
  const int slot = size();
  entries_.push_back(ResultCore{layers, candidate});
  exclusive_.push_back(0);
  for (VertexId v : candidate) {
    Owners& owners = owners_[static_cast<size_t>(v)];
    if (owners.count == 0) {
      ++cover_size_;
      ++exclusive_[static_cast<size_t>(slot)];
    } else if (owners.count == 1) {
      // v was exclusive to its previous single owner; it no longer is.
      --exclusive_[static_cast<size_t>(owners.owner_xor)];
    }
    ++owners.count;
    owners.owner_xor ^= slot;
  }
}

void CoverageIndex::Delete(int slot) {
  MLCORE_DCHECK(slot >= 0 && slot < size());
  const int last = size() - 1;
  // Detach the slot's vertices.
  for (VertexId v : entries_[static_cast<size_t>(slot)].vertices) {
    Owners& owners = owners_[static_cast<size_t>(v)];
    MLCORE_DCHECK(owners.count > 0);
    --owners.count;
    owners.owner_xor ^= slot;
    if (owners.count == 0) {
      --cover_size_;
    } else if (owners.count == 1) {
      ++exclusive_[static_cast<size_t>(owners.owner_xor)];
    }
  }
  // Move the last slot into the vacated position to keep slots dense.
  if (slot != last) {
    for (VertexId v : entries_[static_cast<size_t>(last)].vertices) {
      owners_[static_cast<size_t>(v)].owner_xor ^= last ^ slot;
    }
    entries_[static_cast<size_t>(slot)] =
        std::move(entries_[static_cast<size_t>(last)]);
    exclusive_[static_cast<size_t>(slot)] =
        exclusive_[static_cast<size_t>(last)];
  }
  entries_.pop_back();
  exclusive_.pop_back();
}

void CoverageIndex::CheckInvariants() const {
  // Rebuild M and the Δ sizes from the entries alone.
  std::vector<Owners> expected_owners(owners_.size());
  for (int slot = 0; slot < size(); ++slot) {
    for (VertexId v : entries_[static_cast<size_t>(slot)].vertices) {
      // NOLINT(mlcore-release-check): test oracle — aborting IS the point
      MLCORE_CHECK(v >= 0 && static_cast<size_t>(v) < owners_.size());
      Owners& owners = expected_owners[static_cast<size_t>(v)];
      ++owners.count;
      owners.owner_xor ^= slot;
    }
  }
  int64_t covered = 0;
  std::vector<int64_t> expected(static_cast<size_t>(size()), 0);
  for (size_t v = 0; v < owners_.size(); ++v) {
    const Owners& want = expected_owners[v];
    // NOLINT(mlcore-release-check): test oracle
    MLCORE_CHECK(owners_[v].count == want.count &&
                 owners_[v].owner_xor == want.owner_xor);
    if (want.count > 0) ++covered;
    if (want.count == 1) ++expected[static_cast<size_t>(want.owner_xor)];
  }
  // NOLINT(mlcore-release-check): test oracle
  MLCORE_CHECK(covered == cover_size_);
  for (int slot = 0; slot < size(); ++slot) {
    // NOLINT(mlcore-release-check): test oracle
    MLCORE_CHECK(expected[static_cast<size_t>(slot)] ==
                 exclusive_[static_cast<size_t>(slot)]);
  }
}

}  // namespace mlcore
