#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "dccs/cover.h"
#include "util/rng.h"

namespace mlcore {
namespace {

LayerSet L(std::initializer_list<LayerId> layers) { return layers; }

TEST(CoverageIndexTest, Rule1FillsUpToK) {
  CoverageIndex index(2);
  EXPECT_FALSE(index.full());
  EXPECT_TRUE(index.Update({1, 2, 3}, L({0})));
  EXPECT_EQ(index.size(), 1);
  EXPECT_EQ(index.cover_size(), 3);
  EXPECT_TRUE(index.Update({3, 4}, L({1})));
  EXPECT_TRUE(index.full());
  EXPECT_EQ(index.cover_size(), 4);
  index.CheckInvariants();
}

TEST(CoverageIndexTest, EmptyCandidateRejected) {
  CoverageIndex index(2);
  EXPECT_FALSE(index.Update({}, L({0})));
  EXPECT_EQ(index.size(), 0);
}

TEST(CoverageIndexTest, ExclusiveSizesTracked) {
  CoverageIndex index(3);
  index.Update({1, 2, 3}, L({0}));
  index.Update({3, 4, 5}, L({1}));
  index.Update({5, 6}, L({2}));
  // Exclusive: {1,2} for slot 0, {4} for slot 1, {6} for slot 2.
  EXPECT_EQ(index.ExclusiveSize(0), 2);
  EXPECT_EQ(index.ExclusiveSize(1), 1);
  EXPECT_EQ(index.ExclusiveSize(2), 1);
  EXPECT_EQ(index.cover_size(), 6);
  index.CheckInvariants();
}

TEST(CoverageIndexTest, Rule2ReplacesMinExclusive) {
  CoverageIndex index(2);
  index.Update({1, 2, 3, 4}, L({0}));
  index.Update({4, 5}, L({1}));  // exclusive {5}: the C* victim
  EXPECT_EQ(index.cover_size(), 5);
  // Candidate {10..16}: |Cov((R−C*)∪C)| = |{1,2,3,4}|+7 = 11 ≥ (3/2)·5=7.5 ✓
  EXPECT_TRUE(index.Update({10, 11, 12, 13, 14, 15, 16}, L({2})));
  EXPECT_EQ(index.size(), 2);
  EXPECT_EQ(index.cover_size(), 11);
  // The replaced entry must be the one that exclusively covered {5}.
  for (const auto& entry : index.entries()) {
    EXPECT_NE(entry.vertices, (VertexSet{4, 5}));
  }
  index.CheckInvariants();
}

TEST(CoverageIndexTest, Rule2RejectsInsufficientGain) {
  CoverageIndex index(2);
  index.Update({1, 2, 3, 4}, L({0}));
  index.Update({5, 6, 7}, L({1}));
  EXPECT_EQ(index.cover_size(), 7);
  // Candidate {8,9,10}: replacing C* (slot 1, excl 3) yields cover 4+3=7
  // < (1+1/2)·7 = 10.5 → rejected.
  EXPECT_FALSE(index.Update({8, 9, 10}, L({2})));
  EXPECT_EQ(index.cover_size(), 7);
  index.CheckInvariants();
}

TEST(CoverageIndexTest, SizeWithReplacementMatchesDefinition) {
  CoverageIndex index(2);
  index.Update({1, 2, 3}, L({0}));
  index.Update({3, 4}, L({1}));  // exclusive {4} → C*
  // Candidate {2, 4, 9}: (R − C*) covers {1,2,3}; candidate adds {4, 9}.
  EXPECT_EQ(index.SizeWithReplacement({2, 4, 9}), 5);
  // Candidate equal to C* reproduces the current cover.
  EXPECT_EQ(index.SizeWithReplacement({3, 4}), 4);
}

TEST(CoverageIndexTest, MarginalGain) {
  CoverageIndex index(2);
  index.Update({1, 2, 3}, L({0}));
  EXPECT_EQ(index.MarginalGain({2, 3, 4, 5}), 2);
  EXPECT_EQ(index.MarginalGain({1, 2}), 0);
  EXPECT_EQ(index.MarginalGain({7}), 1);
}

TEST(CoverageIndexTest, Eq1IntegerBoundaryExact) {
  CoverageIndex index(2);
  index.Update({1, 2, 3, 4}, L({0}));
  index.Update({5, 6}, L({1}));  // cover 6, C* = slot 1 (excl 2)
  // Eq (1) threshold: (1+1/2)·6 = 9. Candidate giving exactly 9 must pass.
  // (R − C*) covers 4; need candidate adding exactly 5 new: {7,8,9,10,11}.
  EXPECT_EQ(index.SizeWithReplacement({7, 8, 9, 10, 11}), 9);
  EXPECT_TRUE(index.SatisfiesEq1({7, 8, 9, 10, 11}));
  // One fewer vertex → 8 < 9 fails.
  EXPECT_FALSE(index.SatisfiesEq1({7, 8, 9, 10}));
}

TEST(CoverageIndexTest, BelowOrderThreshold) {
  CoverageIndex index(2);
  index.Update({1, 2, 3, 4}, L({0}));
  index.Update({5, 6}, L({1}));
  // Threshold = |Cov|/k + |Δ*| = 6/2 + 2 = 5.
  EXPECT_TRUE(index.BelowOrderThreshold(4));
  EXPECT_FALSE(index.BelowOrderThreshold(5));
}

TEST(CoverageIndexTest, Eq2Threshold) {
  CoverageIndex index(2);
  index.Update({1, 2, 3, 4}, L({0}));
  index.Update({5, 6}, L({1}));
  // (1/2+1/4)·6 + (3/2)·2 = 4.5+3 = 7.5 → |U| = 7 passes, 8 fails.
  EXPECT_TRUE(index.SatisfiesEq2(7));
  EXPECT_FALSE(index.SatisfiesEq2(8));
}

TEST(CoverageIndexTest, RandomizedInvariantStress) {
  // Drive the index with many pseudo-random candidates, each under its own
  // layer set, and continuously validate the M/Δ bookkeeping against
  // recomputation.
  CoverageIndex index(4);
  uint64_t state = 88172645463325252ULL;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  int replacements = 0;
  int inner_deletions = 0;  // Rule-2 victims that were not the last slot
  for (int round = 0; round < 300; ++round) {
    VertexSet candidate;
    int size = 1 + static_cast<int>(next() % 12);
    for (int i = 0; i < size; ++i) {
      candidate.push_back(static_cast<VertexId>(next() % 60));
    }
    std::sort(candidate.begin(), candidate.end());
    candidate.erase(std::unique(candidate.begin(), candidate.end()),
                    candidate.end());
    const bool was_full = index.full();
    const int victim = was_full ? index.MinExclusiveSlot() : -1;
    const int64_t before = index.cover_size();
    const bool updated = index.Update(candidate, L({round}));
    index.CheckInvariants();
    if (updated && was_full) {
      ++replacements;
      if (victim != index.size() - 1) ++inner_deletions;
      // Rule 2 only fires on a (1 + 1/k) improvement.
      EXPECT_GE(index.cover_size() * 4, before * 5);
    }
    EXPECT_LE(index.size(), 4);
  }
  EXPECT_GT(replacements, 0);
  EXPECT_GT(inner_deletions, 0);
}

TEST(CoverageIndexTest, CoverNeverDecreasesUnderRule2) {
  CoverageIndex index(3);
  uint64_t state = 0x2545F4914F6CDD1DULL;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  int64_t previous_cover = 0;
  int replacements = 0;
  for (int round = 0; round < 200; ++round) {
    VertexSet candidate;
    int size = 1 + static_cast<int>(next() % 15);
    for (int i = 0; i < size; ++i) {
      candidate.push_back(static_cast<VertexId>(next() % 80));
    }
    std::sort(candidate.begin(), candidate.end());
    candidate.erase(std::unique(candidate.begin(), candidate.end()),
                    candidate.end());
    bool was_full = index.full();
    if (index.Update(candidate, L({round})) && was_full) ++replacements;
    if (was_full) {
      EXPECT_GE(index.cover_size(), previous_cover);
    }
    previous_cover = index.cover_size();
  }
  EXPECT_GT(replacements, 0);
}

// R keyed by layer set, independent of slot order.
std::map<LayerSet, VertexSet> Contents(const std::vector<ResultCore>& entries) {
  std::map<LayerSet, VertexSet> contents;
  for (const ResultCore& entry : entries) {
    contents[entry.layers] = entry.vertices;
  }
  return contents;
}

// Everything the index reports, recomputed from `entries()` alone.
struct CoverOracle {
  explicit CoverOracle(const CoverageIndex& index) : k(index.capacity()) {
    entries = index.entries();
    for (size_t slot = 0; slot < entries.size(); ++slot) {
      for (VertexId v : entries[slot].vertices) owners[v].push_back(slot);
    }
    exclusive.assign(entries.size(), 0);
    for (const auto& [v, slots] : owners) {
      if (slots.size() == 1) ++exclusive[slots[0]];
    }
    for (size_t slot = 1; slot < entries.size(); ++slot) {
      if (exclusive[slot] < exclusive[star] ||
          (exclusive[slot] == exclusive[star] &&
           entries[slot].layers < entries[star].layers)) {
        star = slot;
      }
    }
  }

  int64_t cover() const { return static_cast<int64_t>(owners.size()); }

  int64_t MarginalGain(const VertexSet& candidate) const {
    int64_t gain = 0;
    for (VertexId v : candidate) gain += owners.count(v) == 0 ? 1 : 0;
    return gain;
  }

  // |Cov((R − {C*}) ∪ {candidate})|, by building the union.
  int64_t SizeWithReplacement(const VertexSet& candidate) const {
    std::set<VertexId> cover(candidate.begin(), candidate.end());
    for (size_t slot = 0; slot < entries.size(); ++slot) {
      if (slot == star) continue;
      cover.insert(entries[slot].vertices.begin(),
                   entries[slot].vertices.end());
    }
    return static_cast<int64_t>(cover.size());
  }

  // R after Update(candidate, layers), keyed by layer set.
  std::map<LayerSet, VertexSet> After(const VertexSet& candidate,
                                      const LayerSet& layers) const {
    std::map<LayerSet, VertexSet> result = Contents(entries);
    if (candidate.empty() || result.count(layers) > 0) return result;
    if (static_cast<int>(entries.size()) == k) {
      if (SizeWithReplacement(candidate) * k < (k + 1) * cover()) {
        return result;
      }
      result.erase(entries[star].layers);
    }
    result[layers] = candidate;
    return result;
  }

  int k;
  std::vector<ResultCore> entries;
  std::map<VertexId, std::vector<size_t>> owners;
  std::vector<int64_t> exclusive;
  size_t star = 0;
};

constexpr int64_t kMaxWidth = 2000;

// A candidate drawn around one of a few hot spots, so candidates overlap,
// and up to `max_width` ids wide; with `jump`, the spot lies past every id
// drawn so far (until the spots reach ~10^5).
VertexSet RandomCandidate(Rng& rng, std::vector<int64_t>& spots,
                          int64_t max_width, bool jump) {
  constexpr int64_t kMaxSpot = 100000 - 2 * kMaxWidth;
  if (spots.empty()) spots.push_back(0);
  if (jump) {
    spots.push_back(
        std::min(kMaxSpot, spots.back() + rng.Uniform(2 * kMaxWidth, 20000)));
  }
  const int64_t spot =
      spots[static_cast<size_t>(rng.Uniform(0, spots.size() - 1))];
  const int64_t width = rng.Uniform(1, max_width);
  VertexSet candidate;
  for (int64_t i = rng.Uniform(0, width); i > 0; --i) {
    candidate.push_back(static_cast<VertexId>(spot + rng.Uniform(0, width)));
  }
  std::sort(candidate.begin(), candidate.end());
  candidate.erase(std::unique(candidate.begin(), candidate.end()),
                  candidate.end());
  return candidate;
}

// One seeded Update checked against the oracle before and after it; returns
// whether R changed. Candidates widen as `next_layer` grows, so Rule 2 keeps
// firing while |Cov(R)| grows.
bool CheckedUpdate(CoverageIndex& index, Rng& rng, std::vector<int64_t>& spots,
                   int& next_layer) {
  const CoverOracle before(index);
  const int64_t max_width =
      std::min(kMaxWidth, 20 + 4 * static_cast<int64_t>(next_layer));
  const VertexSet candidate =
      RandomCandidate(rng, spots, max_width, rng.Bernoulli(0.05));
  // Mostly a fresh layer set; sometimes one already in R, which Update must
  // reject.
  LayerSet layers = {next_layer++};
  if (!before.entries.empty() && rng.Bernoulli(0.1)) {
    layers = before.entries[static_cast<size_t>(
                                rng.Uniform(0, before.entries.size() - 1))]
                 .layers;
  }
  EXPECT_EQ(index.MarginalGain(candidate), before.MarginalGain(candidate));
  if (!before.entries.empty()) {
    EXPECT_EQ(index.SizeWithReplacement(candidate),
              before.SizeWithReplacement(candidate));
  }
  const auto expected = before.After(candidate, layers);
  const bool changed = index.Update(candidate, layers);
  EXPECT_EQ(changed, expected != Contents(before.entries));
  EXPECT_EQ(Contents(index.entries()), expected);

  const CoverOracle after(index);
  EXPECT_EQ(index.cover_size(), after.cover());
  for (int slot = 0; slot < index.size(); ++slot) {
    EXPECT_EQ(index.ExclusiveSize(slot),
              after.exclusive[static_cast<size_t>(slot)]);
  }
  if (index.size() > 0) {
    EXPECT_EQ(index.MinExclusiveSlot(), static_cast<int>(after.star));
    EXPECT_EQ(index.MinExclusiveSize(), after.exclusive[after.star]);
  }
  for (int probe = 0; probe < 3; ++probe) {
    const VertexSet p = RandomCandidate(rng, spots, max_width, false);
    EXPECT_EQ(index.MarginalGain(p), after.MarginalGain(p));
    if (index.size() > 0) {
      EXPECT_EQ(index.SizeWithReplacement(p), after.SizeWithReplacement(p));
    }
  }
  index.CheckInvariants();
  return changed;
}

TEST(CoverageIndexTest, MatchesBruteForceOracle) {
  int replacements = 0;
  for (int k : {1, 3, 8}) {
    SCOPED_TRACE(k);
    Rng rng(1000 + static_cast<uint64_t>(k));
    std::vector<int64_t> spots;
    int next_layer = 0;
    CoverageIndex index(k);
    for (int round = 0; round < 150; ++round) {
      const bool was_full = index.full();
      if (CheckedUpdate(index, rng, spots, next_layer) && was_full) {
        ++replacements;
      }
    }
    // The Engine copies its seeded prototype for every query: two copies
    // driven by different streams must each stay consistent.
    CoverageIndex copy = index;
    Rng copy_rng(2000 + static_cast<uint64_t>(k));
    std::vector<int64_t> copy_spots = spots;
    int copy_next_layer = next_layer;
    for (int round = 0; round < 150; ++round) {
      const bool index_full = index.full();
      const bool copy_full = copy.full();
      if (CheckedUpdate(index, rng, spots, next_layer) && index_full) {
        ++replacements;
      }
      if (CheckedUpdate(copy, copy_rng, copy_spots, copy_next_layer) &&
          copy_full) {
        ++replacements;
      }
    }
    EXPECT_NE(Contents(index.entries()), Contents(copy.entries()));
  }
  EXPECT_GT(replacements, 0);
}

}  // namespace
}  // namespace mlcore
