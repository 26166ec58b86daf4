// Unit tests for the hybrid branch predictor.
#include <gtest/gtest.h>

#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "core/bpred.hpp"

namespace hm {
namespace {

TEST(Bpred, AlwaysTakenLoopConverges) {
  BranchPredictor bp;
  const Addr pc = 0x400;
  int correct = 0;
  for (int i = 0; i < 100; ++i) correct += bp.update(pc, true, 0x100) ? 1 : 0;
  EXPECT_GT(correct, 95);  // only the first iterations can miss
}

TEST(Bpred, AlternatingPatternLearnedByGshare) {
  BranchPredictor bp;
  const Addr pc = 0x400;
  // Warm up: T N T N ... — bimodal saturates wrong, gshare learns it.
  for (int i = 0; i < 200; ++i) bp.update(pc, i % 2 == 0, 0x100);
  int correct = 0;
  for (int i = 200; i < 300; ++i) correct += bp.update(pc, i % 2 == 0, 0x100) ? 1 : 0;
  EXPECT_GT(correct, 90);
}

TEST(Bpred, RandomBranchesMispredictOften) {
  BranchPredictor bp;
  Rng rng(7);
  std::uint64_t before = bp.stats().value("mispredictions");
  for (int i = 0; i < 1000; ++i) bp.update(0x400, rng.chance(0.5), 0x100);
  const auto missed = bp.stats().value("mispredictions") - before;
  EXPECT_GT(missed, 300u);  // near 50% is unpredictable
}

TEST(Bpred, BtbMissOnFirstTakenBranch) {
  BranchPredictor bp;
  EXPECT_FALSE(bp.update(0x400, true, 0xABC));  // no target known yet
  EXPECT_TRUE(bp.stats().value("target_misses") >= 1);
  // Second time the BTB has the target (direction may still train).
  for (int i = 0; i < 4; ++i) bp.update(0x400, true, 0xABC);
  EXPECT_TRUE(bp.update(0x400, true, 0xABC));
}

TEST(Bpred, TargetChangeMispredicts) {
  BranchPredictor bp;
  for (int i = 0; i < 8; ++i) bp.update(0x400, true, 0xABC);
  EXPECT_FALSE(bp.update(0x400, true, 0xDEF));  // new target
  EXPECT_TRUE(bp.update(0x400, true, 0xDEF));   // learned
}

TEST(Bpred, NotTakenBranchNeedsNoTarget) {
  BranchPredictor bp;
  // Train not-taken; direction correct => prediction correct without BTB.
  bp.update(0x800, false, 0);
  bp.update(0x800, false, 0);
  EXPECT_TRUE(bp.update(0x800, false, 0));
  EXPECT_EQ(bp.stats().value("target_misses"), 0u);
}

TEST(Bpred, PredictCountsLookups) {
  BranchPredictor bp;
  bp.predict(0x400);
  bp.predict(0x404);
  EXPECT_EQ(bp.stats().value("predictions"), 2u);
}

TEST(Bpred, RasPushPopLifo) {
  BranchPredictor bp;
  bp.ras_push(0x100);
  bp.ras_push(0x200);
  EXPECT_EQ(bp.ras_pop(), 0x200u);
  EXPECT_EQ(bp.ras_pop(), 0x100u);
  EXPECT_EQ(bp.ras_pop(), 0u);  // underflow
}

TEST(Bpred, RasOverflowDropsOldest) {
  BranchPredictor bp(BranchPredictorConfig{.ras_entries = 4});
  for (Addr a = 1; a <= 5; ++a) bp.ras_push(a * 0x10);
  EXPECT_EQ(bp.stats().value("ras_overflows"), 1u);
  EXPECT_EQ(bp.ras_pop(), 0x50u);
  EXPECT_EQ(bp.ras_pop(), 0x40u);
  EXPECT_EQ(bp.ras_pop(), 0x30u);
  EXPECT_EQ(bp.ras_pop(), 0x20u);  // 0x10 was dropped
  EXPECT_EQ(bp.ras_pop(), 0u);
}

TEST(Bpred, ResetForgetsTraining) {
  BranchPredictor bp;
  for (int i = 0; i < 100; ++i) bp.update(0x400, true, 0x100);
  bp.reset();
  // After reset the BTB is empty: the first taken branch must target-miss.
  EXPECT_FALSE(bp.update(0x400, true, 0x100));
}

TEST(Bpred, RejectsNonPow2Tables) {
  BranchPredictorConfig cfg;
  cfg.gshare_entries = 1000;
  EXPECT_THROW(BranchPredictor{cfg}, std::invalid_argument);
}

TEST(Bpred, IndependentBranchesDoNotInterfereViaBimodal) {
  BranchPredictor bp;
  // Two distant PCs with opposite biases must both be predictable.
  for (int i = 0; i < 100; ++i) {
    bp.update(0x1000, true, 0x100);
    bp.update(0x2000, false, 0);
  }
  EXPECT_TRUE(bp.update(0x1000, true, 0x100));
  EXPECT_TRUE(bp.update(0x2000, false, 0));
}

// The predictor as it was before its BTB became sparse: every set's ways
// allocated up front in one dense table.  The sparse BTB must be
// indistinguishable from it, prediction by prediction.
class DenseReferencePredictor {
 public:
  explicit DenseReferencePredictor(BranchPredictorConfig cfg = {})
      : cfg_(cfg),
        bimodal_(cfg.bimodal_entries, 2),
        gshare_(cfg.gshare_entries, 2),
        selector_(cfg.selector_entries, 2),
        btb_(cfg.btb_entries) {}

  BranchPredictor::Prediction predict(Addr pc) {
    ++predictions;
    BranchPredictor::Prediction p;
    const bool use_gshare = selector_[selector_index(pc)] >= 2;
    p.taken = (use_gshare ? gshare_[gshare_index(pc)] : bimodal_[bimodal_index(pc)]) >= 2;
    const std::size_t set = btb_set(pc);
    for (unsigned w = 0; w < cfg_.btb_ways; ++w) {
      const BtbEntry& e = btb_[set * cfg_.btb_ways + w];
      if (e.pc == pc) {
        p.btb_hit = true;
        p.target = e.target;
        ++btb_hits;
        break;
      }
    }
    return p;
  }

  bool update(Addr pc, bool taken, Addr target) {
    const bool use_gshare = selector_[selector_index(pc)] >= 2;
    std::uint8_t& g = gshare_[gshare_index(pc)];
    std::uint8_t& b = bimodal_[bimodal_index(pc)];
    const bool g_pred = g >= 2;
    const bool b_pred = b >= 2;
    const bool predicted_taken = use_gshare ? g_pred : b_pred;
    bool target_ok = true;
    const std::size_t set = btb_set(pc);
    BtbEntry* hit = nullptr;
    BtbEntry* victim = &btb_[set * cfg_.btb_ways];
    for (unsigned w = 0; w < cfg_.btb_ways; ++w) {
      BtbEntry& e = btb_[set * cfg_.btb_ways + w];
      if (e.pc == pc) { hit = &e; break; }
      if (e.lru < victim->lru) victim = &e;
    }
    if (taken) {
      if (hit == nullptr) {
        target_ok = false;
        *victim = BtbEntry{pc, target, ++btb_clock_};
      } else {
        target_ok = hit->target == target;
        hit->target = target;
        hit->lru = ++btb_clock_;
      }
    }
    if (g_pred != b_pred) {
      std::uint8_t& sel = selector_[selector_index(pc)];
      if (g_pred == taken && sel < 3) ++sel;
      if (b_pred == taken && sel > 0) --sel;
    }
    train(g, taken);
    train(b, taken);
    history_ = (history_ << 1) | (taken ? 1u : 0u);
    const bool direction_ok = predicted_taken == taken;
    const bool correct = direction_ok && (!taken || target_ok);
    if (!direction_ok) ++direction_misses;
    if (taken && !target_ok) ++target_misses;
    if (!correct) ++mispredictions;
    return correct;
  }

  void reset() {  // like the real predictor: the BTB clock keeps running
    bimodal_.assign(cfg_.bimodal_entries, 2);
    gshare_.assign(cfg_.gshare_entries, 2);
    selector_.assign(cfg_.selector_entries, 2);
    for (auto& e : btb_) e = BtbEntry{};
    history_ = 0;
  }

  std::uint64_t predictions = 0;
  std::uint64_t mispredictions = 0;
  std::uint64_t direction_misses = 0;
  std::uint64_t target_misses = 0;
  std::uint64_t btb_hits = 0;

 private:
  struct BtbEntry {
    Addr pc = kNoAddr;
    Addr target = 0;
    std::uint64_t lru = 0;
  };
  static void train(std::uint8_t& ctr, bool taken) {
    if (taken && ctr < 3) ++ctr;
    if (!taken && ctr > 0) --ctr;
  }
  std::size_t bimodal_index(Addr pc) const { return (pc >> 2) & (cfg_.bimodal_entries - 1); }
  std::size_t selector_index(Addr pc) const { return (pc >> 2) & (cfg_.selector_entries - 1); }
  std::size_t gshare_index(Addr pc) const {
    return ((pc >> 2) ^ (history_ & low_mask(cfg_.history_bits))) & (cfg_.gshare_entries - 1);
  }
  std::size_t btb_set(Addr pc) const {
    return (pc >> 2) & (cfg_.btb_entries / cfg_.btb_ways - 1);
  }

  BranchPredictorConfig cfg_;
  std::vector<std::uint8_t> bimodal_, gshare_, selector_;
  std::vector<BtbEntry> btb_;
  std::uint64_t history_ = 0;
  std::uint64_t btb_clock_ = 0;
};

TEST(Bpred, SparseBtbMatchesDenseReference) {
  // A pc pool that overfills some BTB sets (8 pcs on each of 16 sets, so
  // LRU victims are exercised), spreads over many others, and includes pcs
  // whose first sighting is not taken (their set stays unallocated until a
  // taken branch lands there).
  constexpr unsigned kSets = 1024;
  std::vector<Addr> pcs;
  std::vector<double> bias;
  Rng rng(0xB7B);
  for (unsigned set = 0; set < 16; ++set)
    for (unsigned k = 0; k < 8; ++k) {
      pcs.push_back((set * 37 % kSets + Addr{k} * kSets) << 2);
      bias.push_back(rng.uniform());
    }
  for (unsigned i = 0; i < 200; ++i) {
    pcs.push_back(rng.below(1u << 24) << 2);
    bias.push_back(i % 4 == 0 ? 0.0 : rng.uniform());  // some start never-taken
  }

  BranchPredictor bp;
  DenseReferencePredictor ref;
  constexpr int kBranches = 120'000;
  for (int i = 0; i < kBranches; ++i) {
    if (i == kBranches / 2) {
      bp.reset();
      ref.reset();
    }
    const std::size_t j = rng.below(pcs.size());
    const Addr pc = pcs[j];
    // Never-taken pcs turn taken late, so their first taken branch comes
    // after many not-taken sightings.
    const double p = bias[j] == 0.0 && i > kBranches / 4 ? 0.5 : bias[j];
    const bool taken = rng.uniform() < p;
    const Addr target = 0x10'0000 + (rng.below(4) << 6);

    const BranchPredictor::Prediction got = bp.predict(pc);
    const BranchPredictor::Prediction want = ref.predict(pc);
    ASSERT_EQ(got.taken, want.taken) << "branch " << i;
    ASSERT_EQ(got.btb_hit, want.btb_hit) << "branch " << i;
    ASSERT_EQ(got.target, want.target) << "branch " << i;
    ASSERT_EQ(bp.update(pc, taken, target), ref.update(pc, taken, target)) << "branch " << i;
  }
  EXPECT_EQ(bp.stats().value("predictions"), ref.predictions);
  EXPECT_EQ(bp.stats().value("mispredictions"), ref.mispredictions);
  EXPECT_EQ(bp.stats().value("direction_misses"), ref.direction_misses);
  EXPECT_EQ(bp.stats().value("target_misses"), ref.target_misses);
  EXPECT_EQ(bp.stats().value("btb_hits"), ref.btb_hits);
  EXPECT_GT(ref.btb_hits, 10'000u);  // the BTB was really exercised
  EXPECT_GT(ref.target_misses, 1'000u);
}

TEST(Bpred, RejectsBtbWithoutPow2SetCount) {
  BranchPredictorConfig cfg;
  cfg.btb_ways = 3;
  EXPECT_THROW(BranchPredictor{cfg}, std::invalid_argument);
}

class BpredBias : public ::testing::TestWithParam<double> {};

TEST_P(BpredBias, AccuracyScalesWithBias) {
  // A branch taken with probability p is predictable no worse than max(p,1-p)
  // minus training noise.
  const double p = GetParam();
  BranchPredictor bp;
  Rng rng(42);
  int correct = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) correct += bp.update(0x400, rng.chance(p), 0x100) ? 1 : 0;
  const double accuracy = static_cast<double>(correct) / n;
  const double best_static = std::max(p, 1.0 - p);
  EXPECT_GT(accuracy, best_static - 0.12);
}

INSTANTIATE_TEST_SUITE_P(Biases, BpredBias, ::testing::Values(0.05, 0.25, 0.5, 0.75, 0.95));

}  // namespace
}  // namespace hm
