#ifndef MLCORE_DCCS_COVER_H_
#define MLCORE_DCCS_COVER_H_

#include <cstdint>
#include <vector>

#include "dccs/params.h"
#include "graph/multilayer_graph.h"

namespace mlcore {

/// Union of the cores' (sorted) vertex sets — the paper's Cov(R) for an
/// arbitrary result list. Shared by `DccsResult::Cover` and the
/// subscription delta computation (service/delta.h).
VertexSet CoverOf(const std::vector<ResultCore>& cores);

/// Maintains the temporary top-k diversified d-CC set R and implements the
/// `Update` procedure of paper §IV-A / Appendix C.
///
/// Internally keeps Appendix C's table M (vertex → owning results) as a flat
/// vertex-indexed array, and the per-result exclusive-coverage sizes
/// |Δ(R, C')|. Because k ≤ 25 in every experiment, the argmin result C*(R)
/// is located by an O(k) scan rather than the paper's secondary hash H —
/// same asymptotics up to the constant k, much simpler invariants (see
/// DESIGN.md §3).
///
/// Update rules (paper §IV-A):
///   Rule 1: if |R| < k, C is inserted unconditionally.
///   Rule 2: if |R| = k and |Cov((R − {C*}) ∪ {C})| ≥ (1 + 1/k)|Cov(R)|,
///           C replaces C*(R), the result covering the fewest exclusive
///           vertices.
class CoverageIndex {
 public:
  explicit CoverageIndex(int k);

  int capacity() const { return k_; }
  int size() const { return static_cast<int>(entries_.size()); }
  bool full() const { return size() == k_; }

  /// |Cov(R)|.
  int64_t cover_size() const { return cover_size_; }

  const std::vector<ResultCore>& entries() const { return entries_; }

  /// |Δ(R, C')| for result slot `slot`: vertices covered only by that
  /// result.
  int64_t ExclusiveSize(int slot) const {
    return exclusive_[static_cast<size_t>(slot)];
  }

  /// Index of C*(R), the result with minimum exclusive coverage.
  /// Requires size() > 0.
  int MinExclusiveSlot() const;

  /// |Δ(R, C*(R))|; 0 when R is empty.
  int64_t MinExclusiveSize() const;

  /// The Size operation of Appendix C: |Cov((R − {C*(R)}) ∪ {candidate})|.
  int64_t SizeWithReplacement(const VertexSet& candidate) const;

  /// Number of candidate vertices not yet covered by R
  /// (|Cov(R ∪ {candidate})| − |Cov(R)|); used by InitTopK and GD-DCCS.
  int64_t MarginalGain(const VertexSet& candidate) const;

  /// True iff the candidate passes Eq. (1):
  /// |Cov((R − {C*}) ∪ {C})| ≥ (1 + 1/k)|Cov(R)|. Only meaningful when R is
  /// full; returns true otherwise (Rule 1 always accepts).
  bool SatisfiesEq1(const VertexSet& candidate) const;

  /// The order-based pruning threshold of Lemmas 3 and 6:
  /// |Cov(R)|/k + |Δ(R, C*(R))|. A candidate upper bound strictly below
  /// this value cannot satisfy Eq. (1).
  double OrderPruneThreshold() const;

  /// True iff `upper_bound_size` (an upper bound on a candidate's size)
  /// falls below OrderPruneThreshold(), i.e. the subtree can be skipped.
  bool BelowOrderThreshold(int64_t upper_bound_size) const;

  /// Eq. (2) of Lemma 7 for a potential set of size `potential_size`:
  /// |U| < (1/k + 1/k²)|Cov(R)| + (1 + 1/k)|Δ(R, C*)|.
  bool SatisfiesEq2(int64_t potential_size) const;

  /// The Update procedure (Appendix C). Returns true iff R changed.
  bool Update(const VertexSet& candidate, const LayerSet& layers);

  /// Rebuilds Δ sizes from scratch; test-only consistency check.
  void CheckInvariants() const;

 private:
  // One entry of M. `owner_xor` is the XOR of the slots covering the
  // vertex, so it names the sole owner when `count == 1`.
  struct Owners {
    int32_t count = 0;
    int32_t owner_xor = 0;
  };

  // M's entry for `v`; ids past the table's end are covered by no slot.
  Owners OwnersOf(VertexId v) const {
    const size_t i = static_cast<size_t>(v);
    return i < owners_.size() ? owners_[i] : Owners{};
  }

  void Insert(const VertexSet& candidate, const LayerSet& layers);
  void Delete(int slot);

  int k_;
  int64_t cover_size_ = 0;
  std::vector<ResultCore> entries_;
  std::vector<int64_t> exclusive_;
  // Appendix C's M, indexed by vertex id: 8 bytes per id up to the largest
  // id ever inserted.
  std::vector<Owners> owners_;
};

}  // namespace mlcore

#endif  // MLCORE_DCCS_COVER_H_
