#include "core/bpred.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/bitops.hpp"

namespace hm {

BranchPredictor::BranchPredictor(BranchPredictorConfig cfg) : cfg_(cfg), stats_("bpred") {
  if (!is_pow2(cfg_.selector_entries) || !is_pow2(cfg_.gshare_entries) ||
      !is_pow2(cfg_.bimodal_entries) || !is_pow2(cfg_.btb_entries))
    throw std::invalid_argument("predictor table sizes must be powers of two");
  if (cfg_.btb_ways == 0 || cfg_.btb_entries % cfg_.btb_ways != 0 ||
      !is_pow2(cfg_.btb_entries / cfg_.btb_ways) ||
      cfg_.btb_entries / cfg_.btb_ways > std::numeric_limits<std::uint16_t>::max())
    throw std::invalid_argument("BTB needs a power-of-two set count of at most 65535");
  bimodal_.assign(cfg_.bimodal_entries, 2);   // weakly taken
  gshare_.assign(cfg_.gshare_entries, 2);
  selector_.assign(cfg_.selector_entries, 2); // weakly prefer gshare
  btb_set_slot_.assign(cfg_.btb_entries / cfg_.btb_ways, 0);  // ways allocated on first use
  ras_.assign(cfg_.ras_entries, 0);
  predictions_ = &stats_.counter("predictions");
  mispredictions_ = &stats_.counter("mispredictions");
  direction_misses_ = &stats_.counter("direction_misses");
  target_misses_ = &stats_.counter("target_misses");
  btb_hits_ = &stats_.counter("btb_hits");
  ras_overflows_ = &stats_.counter("ras_overflows");
}

std::size_t BranchPredictor::bimodal_index(Addr pc) const {
  return static_cast<std::size_t>((pc >> 2) & (cfg_.bimodal_entries - 1));
}

std::size_t BranchPredictor::gshare_index(Addr pc) const {
  const std::uint64_t hist = history_ & low_mask(cfg_.history_bits);
  return static_cast<std::size_t>(((pc >> 2) ^ hist) & (cfg_.gshare_entries - 1));
}

std::size_t BranchPredictor::selector_index(Addr pc) const {
  return static_cast<std::size_t>((pc >> 2) & (cfg_.selector_entries - 1));
}

BranchPredictor::Prediction BranchPredictor::predict(Addr pc) {
  predictions_->inc();
  Prediction p;
  const bool use_gshare = selector_[selector_index(pc)] >= 2;
  const std::uint8_t ctr = use_gshare ? gshare_[gshare_index(pc)] : bimodal_[bimodal_index(pc)];
  p.taken = ctr >= 2;

  // BTB: set-associative lookup for the target.  An unallocated set holds
  // no target.
  const std::uint16_t slot = btb_set_slot_[btb_set(pc)];
  if (slot == 0) return p;
  const BtbEntry* ways = &btb_pool_[(slot - 1u) * std::size_t{cfg_.btb_ways}];
  for (unsigned w = 0; w < cfg_.btb_ways; ++w) {
    const BtbEntry& e = ways[w];
    if (e.pc == pc) {
      p.btb_hit = true;
      p.target = e.target;
      btb_hits_->inc();
      break;
    }
  }
  return p;
}

bool BranchPredictor::update(Addr pc, bool taken, Addr target) {
  // Re-derive the prediction the frontend used (same tables, pre-update).
  const bool use_gshare = selector_[selector_index(pc)] >= 2;
  std::uint8_t& g = gshare_[gshare_index(pc)];
  std::uint8_t& b = bimodal_[bimodal_index(pc)];
  const bool g_pred = g >= 2;
  const bool b_pred = b >= 2;
  const bool predicted_taken = use_gshare ? g_pred : b_pred;

  bool target_ok = true;
  std::uint16_t& slot = btb_set_slot_[btb_set(pc)];
  BtbEntry* hit = nullptr;
  BtbEntry* victim = nullptr;
  if (slot != 0) {
    BtbEntry* ways = &btb_pool_[(slot - 1u) * std::size_t{cfg_.btb_ways}];
    victim = ways;
    for (unsigned w = 0; w < cfg_.btb_ways; ++w) {
      BtbEntry& e = ways[w];
      if (e.pc == pc) { hit = &e; break; }
      if (e.lru < victim->lru) victim = &e;  // first way with the smallest lru
    }
  }
  if (taken) {
    if (victim == nullptr) {
      // First taken branch in this set: allocate its ways.  All are empty
      // (lru 0), so the victim rule picks way 0.
      slot = static_cast<std::uint16_t>(btb_pool_.size() / cfg_.btb_ways + 1);
      btb_pool_.resize(btb_pool_.size() + cfg_.btb_ways);
      victim = &btb_pool_[btb_pool_.size() - cfg_.btb_ways];
    }
    if (hit == nullptr) {
      target_ok = false;  // taken branch with no BTB target: frontend stalls
      victim->pc = pc;
      victim->target = target;
      victim->lru = ++btb_clock_;
    } else {
      target_ok = hit->target == target;
      hit->target = target;
      hit->lru = ++btb_clock_;
    }
  }

  // Train the direction tables and the selector.
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
  if (!direction_ok) direction_misses_->inc();
  if (taken && !target_ok) target_misses_->inc();
  if (!correct) mispredictions_->inc();
  return correct;
}

void BranchPredictor::ras_push(Addr return_addr) {
  if (ras_top_ == ras_.size()) {
    ras_overflows_->inc();
    // Overwrite the oldest entry (circular), as real RAS implementations do.
    for (std::size_t i = 1; i < ras_.size(); ++i) ras_[i - 1] = ras_[i];
    ras_top_ = ras_.size() - 1;
  }
  ras_[ras_top_++] = return_addr;
}

Addr BranchPredictor::ras_pop() {
  if (ras_top_ == 0) return 0;  // underflow predicts "unknown"
  return ras_[--ras_top_];
}

void BranchPredictor::reset() {
  bimodal_.assign(cfg_.bimodal_entries, 2);
  gshare_.assign(cfg_.gshare_entries, 2);
  selector_.assign(cfg_.selector_entries, 2);
  std::fill(btb_set_slot_.begin(), btb_set_slot_.end(), std::uint16_t{0});
  btb_pool_.clear();
  ras_top_ = 0;
  history_ = 0;
}

}  // namespace hm
