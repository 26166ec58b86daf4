// Hybrid branch predictor (Table 1): a 4K-entry selector choosing between a
// 4K-entry G-share and a 4K-entry bimodal predictor, a 4K-entry 4-way BTB
// for targets, and a 32-entry return address stack.
//
// The BTB is stored sparsely: a per-set slot table (2 bytes per set) points
// into a way pool that grows by one set's ways when a taken branch first
// lands in an empty set.  A set that never saw a taken branch holds only
// empty ways, so leaving it unallocated is exact; a 256-tile mesh then pays
// for the sets its kernels touch instead of 96 KB of BTB per tile.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace hm {

struct BranchPredictorConfig {
  unsigned selector_entries = 4096;
  unsigned gshare_entries = 4096;
  unsigned bimodal_entries = 4096;
  unsigned history_bits = 12;
  unsigned btb_entries = 4096;
  unsigned btb_ways = 4;
  unsigned ras_entries = 32;
};

class BranchPredictor {
 public:
  explicit BranchPredictor(BranchPredictorConfig cfg = {});

  struct Prediction {
    bool taken = false;
    Addr target = 0;
    bool btb_hit = false;
  };

  /// Predict the branch at @p pc.
  Prediction predict(Addr pc);

  /// Update with the resolved outcome; returns true iff the prediction was
  /// correct (direction and, for taken branches, target).
  bool update(Addr pc, bool taken, Addr target);

  // Return-address stack (unused by the generated workloads but part of the
  // modeled frontend; exercised by unit tests).
  void ras_push(Addr return_addr);
  Addr ras_pop();

  void reset();

  StatGroup& stats() { return stats_; }
  const StatGroup& stats() const { return stats_; }

 private:
  static void train(std::uint8_t& ctr, bool taken) {
    if (taken && ctr < 3) ++ctr;
    if (!taken && ctr > 0) --ctr;
  }
  std::size_t bimodal_index(Addr pc) const;
  std::size_t gshare_index(Addr pc) const;
  std::size_t selector_index(Addr pc) const;

  BranchPredictorConfig cfg_;
  std::vector<std::uint8_t> bimodal_;   // 2-bit counters
  std::vector<std::uint8_t> gshare_;    // 2-bit counters
  std::vector<std::uint8_t> selector_;  // 2-bit: >=2 prefer gshare
  struct BtbEntry {
    Addr pc = kNoAddr;
    Addr target = 0;
    std::uint64_t lru = 0;
  };
  std::size_t btb_set(Addr pc) const {
    return static_cast<std::size_t>((pc >> 2) & (btb_set_slot_.size() - 1));
  }
  /// Per BTB set: 0 = no way allocated yet, else 1 + the index of the set's
  /// first way in btb_pool_ / btb_ways.
  std::vector<std::uint16_t> btb_set_slot_;
  std::vector<BtbEntry> btb_pool_;  ///< btb_ways entries per allocated set
  std::vector<Addr> ras_;
  std::size_t ras_top_ = 0;
  std::uint64_t history_ = 0;
  std::uint64_t btb_clock_ = 0;

  StatGroup stats_;
  Counter* predictions_;
  Counter* mispredictions_;
  Counter* direction_misses_;
  Counter* target_misses_;
  Counter* btb_hits_;
  Counter* ras_overflows_;
};

}  // namespace hm
