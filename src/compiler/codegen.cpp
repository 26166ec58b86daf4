#include "compiler/codegen.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/hash.hpp"
#include "compiler/replay.hpp"

namespace hm {

namespace {
// Register-window allocation: four rotating windows of 14 registers give
// cross-iteration ILP without exceeding the 64-register namespace.
constexpr unsigned kWindowRegs = 14;
constexpr unsigned kWindows = 4;
constexpr unsigned kLoadRegs = 8;  // loads cycle over the first 8 of a window

std::uint8_t window_base(std::uint64_t iter) {
  return static_cast<std::uint8_t>(1 + (iter % kWindows) * kWindowRegs);
}
}  // namespace

CompiledKernel::CompiledKernel(LoopNest loop, Classification cls, TilePlan plan,
                               CodegenOptions opt)
    : loop_(std::move(loop)), cls_(std::move(cls)), plan_(std::move(plan)), opt_(opt) {
  tiled_ = opt_.variant != CodegenVariant::CacheOnly && !plan_.buffers.empty();

  // Static code layout: distinct pcs per reference and role (load, store,
  // the double store's plain twin), so the IP-indexed prefetchers see one
  // stream per strided reference; the ALU ops, the back-edge and the data
  // branch follow.
  const auto ref_pc = [this](unsigned ref, unsigned role) {
    return opt_.code_base + 4 * (3 * static_cast<Addr>(ref) + role);
  };
  const unsigned n = static_cast<unsigned>(loop_.refs.size());
  alu_pc_base_ = ref_pc(n, 0);
  branch_pc_ = alu_pc_base_ + 4 * (1 + loop_.int_ops_per_iter + loop_.fp_ops_per_iter);
  data_branch_pc_ = branch_pc_ + 4;

  // Any potentially incoherent reference — indirect, chased, or a demoted
  // strided ref that may alias a live LM chunk — is guarded on the
  // protocol variant; a store among them that may alias a read-only buffer
  // also gets the double store.
  const bool guard_on = tiled_ && opt_.variant == CodegenVariant::HybridProtocol &&
                        !opt_.drop_guards;
  slots_.reserve(n);
  for (const bool writes : {false, true}) {
    for (unsigned i = 0; i < n; ++i) {
      const MemRef& r = loop_.refs[i];
      if (r.is_write != writes) continue;
      const ClassifiedRef& cr = cls_.refs[i];
      const ArrayDecl& arr = loop_.array_of(r);
      const bool guarded = guard_on && cr.cls == RefClass::PotentiallyIncoherent;
      ReplaySlot sl;
      sl.ref = static_cast<std::uint16_t>(i);
      if (r.pattern != PatternKind::Strided) {
        // Data-dependent SM address: the element is drawn per iteration.
        sl.addr = {arr.base, arr.elem_size, /*tile_local=*/false, /*irregular=*/true};
      } else {
        const std::uint64_t stride =
            static_cast<std::uint64_t>(r.stride < 0 ? -r.stride : r.stride);
        if (tiled_ && cr.cls == RefClass::Regular) {
          // LM buffer address: buffer base + offset inside the current chunk.
          const BufferPlan& bp = plan_.buffers[static_cast<unsigned>(cr.lm_buffer)];
          sl.addr = {bp.lm_base, stride * arr.elem_size, /*tile_local=*/true, false};
        } else {
          // SM address (cache variant, or a demoted strided reference).
          sl.addr = {arr.base, stride * arr.elem_size, /*tile_local=*/false, false};
        }
      }
      if (!writes) {
        sl.kind = guarded ? OpKind::GuardedLoad : OpKind::Load;
        sl.pc = ref_pc(i, 0);
      } else {
        sl.kind = guarded ? OpKind::GuardedStore : OpKind::Store;
        sl.double_store = guarded && cr.needs_double_store &&
                          !opt_.disable_readonly_opt && !opt_.suppress_double_store;
        sl.pc = ref_pc(i, 1);
        sl.extra_pc = ref_pc(i, 2);
        sl.has_value = opt_.functional_stores;
      }
      slots_.push_back(sl);
    }
  }

  reset();
}

void CompiledKernel::reset() {
  state_ = State::Init;
  tile_ = 0;
  iter_ = 0;
  queue_.clear();
  queue_pos_ = 0;
  ref_rng_.clear();
  ref_rng_.reserve(loop_.refs.size());
  for (const MemRef& r : loop_.refs)
    ref_rng_.emplace_back(r.irregular.seed ^ opt_.global_seed);
  branch_rng_.reseed(0xB5A3C9E7u ^ opt_.global_seed);
}

std::uint64_t CompiledKernel::store_value(unsigned ref, std::uint64_t iter) {
  return replay_store_value(ref, iter);
}

std::uint32_t CompiledKernel::all_tags_mask() const {
  std::uint32_t mask = 0;
  for (unsigned b = 0; b < plan_.buffers.size(); ++b) mask |= (1u << (b % 32));
  return mask;
}

std::uint64_t CompiledKernel::irregular_element(unsigned ref, std::uint64_t global_iter) {
  const MemRef& r = loop_.refs[ref];
  const ArrayDecl& arr = loop_.array_of(r);
  const IrregularSpec& spec = r.irregular;
  Rng& rng = ref_rng_[ref];

  // The same draws happen in every variant (same RNG state), so the address
  // streams are identical and runs are directly comparable.
  bool in_chunk = spec.in_chunk_fraction > 0.0 && rng.chance(spec.in_chunk_fraction);
  std::uint64_t t = 0;
  if (in_chunk && plan_.iters_per_tile > 0 && plan_.num_tiles > 0) {
    t = std::min(global_iter / plan_.iters_per_tile, plan_.num_tiles - 1);
    if (t * plan_.iters_per_tile >= arr.elements) in_chunk = false;  // array shorter than loop
  } else {
    in_chunk = false;
  }
  std::uint64_t elem;
  if (in_chunk) {
    // Land inside the chunk of the target array covered by the current tile
    // (tile geometry comes from the plan even in the cache variant so the
    // stream does not depend on the machine).
    const std::uint64_t chunk_elems =
        std::min(plan_.tile_iterations(t), arr.elements - t * plan_.iters_per_tile);
    elem = t * plan_.iters_per_tile + rng.below(std::max<std::uint64_t>(chunk_elems, 1));
  } else if (spec.hot_bytes > 0) {
    const std::uint64_t hot_elems = std::max<std::uint64_t>(spec.hot_bytes / arr.elem_size, 1);
    elem = rng.below(std::min(hot_elems, arr.elements));
  } else {
    elem = rng.below(arr.elements);
  }
  return elem;
}

std::uint8_t CompiledKernel::draw_data_branch() {
  if (loop_.data_branch_fraction > 0.0 && branch_rng_.chance(loop_.data_branch_fraction))
    return branch_rng_.chance(0.5) ? 2 : 1;
  return 0;
}

void CompiledKernel::push_mem(OpKind kind, ExecPhase phase, Addr pc, Addr addr,
                              std::uint8_t dst, std::uint8_t src, unsigned ref,
                              std::uint64_t iter) {
  MicroOp op;
  op.kind = kind;
  op.phase = phase;
  op.pc = pc;
  op.addr = addr;
  op.dst = dst;
  op.src1 = src;
  if (opt_.functional_stores &&
      (kind == OpKind::Store || kind == OpKind::GuardedStore)) {
    op.value = store_value(ref, iter);
    op.has_value = true;
  }
  queue_.push_back(op);
}

void CompiledKernel::emit_init() {
  if (!tiled_) return;
  MicroOp op;
  op.kind = OpKind::DirConfig;
  op.phase = ExecPhase::Control;
  op.pc = opt_.code_base - 4;
  op.dir_buffer_size = plan_.buffer_size;
  queue_.push_back(op);
}

void CompiledKernel::emit_control(std::uint64_t tile) {
  // Per buffer: write the previous chunk back (if dirty data can exist),
  // then fetch this tile's chunk.  Two INT ops per DMA command model the
  // address computations of the MAP statements.
  for (unsigned b = 0; b < plan_.buffers.size(); ++b) {
    const BufferPlan& bp = plan_.buffers[b];
    const bool writeback = bp.writeback || opt_.disable_readonly_opt;

    for (int k = 0; k < 2; ++k) {
      MicroOp alu;
      alu.kind = OpKind::IntAlu;
      alu.phase = ExecPhase::Control;
      alu.pc = alu_pc_base_;
      alu.dst = static_cast<std::uint8_t>(60 + (k % 2));
      queue_.push_back(alu);
    }

    if (tile > 0 && writeback) {
      MicroOp put;
      put.kind = OpKind::DmaPut;
      put.phase = ExecPhase::Control;
      put.pc = opt_.code_base - 8;
      put.dma_lm = bp.lm_base;
      put.dma_sm = plan_.chunk_sm_base(loop_, b, tile - 1);
      put.dma_size = plan_.chunk_bytes(b, tile - 1);
      put.dma_tag = static_cast<std::uint8_t>(b % 32);
      queue_.push_back(put);
    }

    // Even write-only chunks are fetched: a partial modification followed by
    // a write-back must not clobber unmodified SM data with garbage (§2.2).
    MicroOp get;
    get.kind = OpKind::DmaGet;
    get.phase = ExecPhase::Control;
    get.pc = opt_.code_base - 12;
    get.dma_sm = plan_.chunk_sm_base(loop_, b, tile);
    get.dma_lm = bp.lm_base;
    get.dma_size = plan_.chunk_bytes(b, tile);
    get.dma_tag = static_cast<std::uint8_t>(b % 32);
    queue_.push_back(get);
  }
}

void CompiledKernel::emit_synch() {
  MicroOp op;
  op.kind = OpKind::DmaSynch;
  op.phase = ExecPhase::Synch;
  op.pc = opt_.code_base - 16;
  op.synch_mask = all_tags_mask();
  queue_.push_back(op);
}

void CompiledKernel::resolve_work_iteration(std::uint64_t g, Addr* addrs,
                                            std::uint8_t& db) {
  if (bound_ != nullptr) {
    // Batch-bound (sampled) mode: the draws were made once when the batch
    // was compiled; decode them without touching the RNGs, which is what
    // makes whole iterations skippable.
    bound_->decode(g, addrs, db);
    return;
  }
  // Strided refs address by induction variable (an LM buffer when mapped,
  // the SM when demoted); the rest draw data-dependent SM addresses.  The
  // draw order — slot order, then the branch draw — is the emission order
  // and must never change: the address streams are pinned by the goldens
  // across all variants.
  const std::uint64_t local = tiled_ ? g % plan_.iters_per_tile : g;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const SlotAddress& a = slots_[s].addr;
    addrs[s] = a.irregular ? a.at(irregular_element(slots_[s].ref, g)) : a.strided(g, local);
  }
  db = draw_data_branch();
}

void CompiledKernel::emit_work_iteration(std::uint64_t g) {
  addr_scratch_.resize(slots_.size());
  std::uint8_t db = 0;
  resolve_work_iteration(g, addr_scratch_.data(), db);

  const std::uint8_t base = window_base(g);
  std::uint8_t last_loaded = 0;
  std::size_t s = 0;

  // Loads (the leading slots), in reference order.
  for (; s < slots_.size() && (slots_[s].kind == OpKind::Load ||
                               slots_[s].kind == OpKind::GuardedLoad);
       ++s) {
    const ReplaySlot& sl = slots_[s];
    const std::uint8_t dst = static_cast<std::uint8_t>(base + (s % kLoadRegs));
    last_loaded = dst;
    push_mem(sl.kind, ExecPhase::Work, sl.pc, addr_scratch_[s], dst, 0, sl.ref, g);
  }

  // Compute chain: INT then FP ops, each depending on a loaded value and on
  // the previous ALU result (a realistic dependence spine).
  std::uint8_t prev = last_loaded;
  unsigned alu_slot = 0;
  const auto emit_alu = [&](OpKind kind) {
    MicroOp op;
    op.kind = kind;
    op.phase = ExecPhase::Work;
    op.pc = alu_pc_base_ + 4 * alu_slot;
    op.dst = static_cast<std::uint8_t>(base + kLoadRegs + (alu_slot % (kWindowRegs - kLoadRegs)));
    op.src1 = last_loaded != 0 ? static_cast<std::uint8_t>(base + (alu_slot % kLoadRegs)) : 0;
    op.src2 = prev;
    prev = op.dst;
    ++alu_slot;
    queue_.push_back(op);
  };
  for (unsigned k = 0; k < loop_.int_ops_per_iter; ++k) emit_alu(OpKind::IntAlu);
  for (unsigned k = 0; k < loop_.fp_ops_per_iter; ++k) emit_alu(OpKind::FpAlu);
  const std::uint8_t computed = prev != 0 ? prev : last_loaded;

  // Stores, in reference order.
  for (; s < slots_.size(); ++s) {
    const ReplaySlot& sl = slots_[s];
    push_mem(sl.kind, ExecPhase::Work, sl.pc, addr_scratch_[s], 0, computed, sl.ref, g);
    if (sl.double_store) {
      // The conventional store of the double store: same operands, same SM
      // address; always updates the copy in the SM (§3.1).
      push_mem(OpKind::Store, ExecPhase::Work, sl.extra_pc, addr_scratch_[s], 0, computed,
               sl.ref, g);
    }
  }

  // Loop back-edge: predictable, taken except when leaving the tile.
  const std::uint64_t tile_for_g = tiled_ ? g / plan_.iters_per_tile : 0;
  const std::uint64_t tile_end =
      tiled_ ? std::min((tile_for_g + 1) * plan_.iters_per_tile, loop_.iterations)
             : loop_.iterations;
  MicroOp br;
  br.kind = OpKind::Branch;
  br.phase = ExecPhase::Work;
  br.pc = branch_pc_;
  br.taken = (g + 1) < tile_end;
  br.target = opt_.code_base;
  queue_.push_back(br);

  // Optional data-dependent branch (hard to predict by construction).
  if (db != 0) {
    MicroOp op;
    op.kind = OpKind::Branch;
    op.phase = ExecPhase::Work;
    op.pc = data_branch_pc_;
    op.taken = db == 2;
    op.target = opt_.code_base + 64;
    op.src1 = computed;
    queue_.push_back(op);
  }
}

void CompiledKernel::emit_epilogue() {
  for (unsigned b = 0; b < plan_.buffers.size(); ++b) {
    const BufferPlan& bp = plan_.buffers[b];
    if (!(bp.writeback || opt_.disable_readonly_opt)) continue;
    MicroOp put;
    put.kind = OpKind::DmaPut;
    put.phase = ExecPhase::Control;
    put.pc = opt_.code_base - 8;
    put.dma_lm = bp.lm_base;
    put.dma_sm = plan_.chunk_sm_base(loop_, b, plan_.num_tiles - 1);
    put.dma_size = plan_.chunk_bytes(b, plan_.num_tiles - 1);
    put.dma_tag = static_cast<std::uint8_t>(b % 32);
    queue_.push_back(put);
  }
}

void CompiledKernel::emit_epilogue_synch() { emit_synch(); }

void CompiledKernel::refill() {
  queue_.clear();
  queue_pos_ = 0;

  while (queue_.empty()) {
    switch (state_) {
      case State::Init:
        emit_init();
        state_ = tiled_ ? State::Control : State::Work;
        break;
      case State::Control:
        emit_control(tile_);
        state_ = State::Synch;
        break;
      case State::Synch:
        emit_synch();
        state_ = State::Work;
        break;
      case State::Work: {
        if (iter_ >= loop_.iterations) {
          state_ = tiled_ ? State::Epilogue : State::Done;
          break;
        }
        emit_work_iteration(iter_);
        ++iter_;
        if (tiled_ && iter_ < loop_.iterations && iter_ % plan_.iters_per_tile == 0) {
          ++tile_;
          state_ = State::Control;
        }
        break;
      }
      case State::Epilogue:
        emit_epilogue();
        state_ = State::EpilogueSynch;
        break;
      case State::EpilogueSynch:
        emit_epilogue_synch();
        state_ = State::Done;
        break;
      case State::Done:
        return;
    }
  }
}

bool CompiledKernel::next(MicroOp& op) {
  if (queue_pos_ >= queue_.size()) {
    refill();
    if (queue_pos_ >= queue_.size()) return false;
  }
  op = queue_[queue_pos_++];
  return true;
}

// ---------------------------------------------------------------------------
// ReplayableStream: the sampled engine's view of the kernel.

std::uint64_t CompiledKernel::tile_end_of(std::uint64_t g) const {
  return tiled_ ? std::min((g / plan_.iters_per_tile + 1) * plan_.iters_per_tile,
                           loop_.iterations)
                : loop_.iterations;
}

std::uint64_t CompiledKernel::work_cursor() const {
  if (queue_pos_ < queue_.size()) return kNoIteration;  // mid-iteration
  if (state_ != State::Work || iter_ >= loop_.iterations) return kNoIteration;
  return iter_;
}

std::uint64_t CompiledKernel::skip_work_iterations(std::uint64_t n) {
  if (bound_ == nullptr || n == 0 || work_cursor() == kNoIteration) return 0;
  // Advance the cursor exactly as refill() would have after emitting these
  // iterations: stop at the tile boundary (the control/synch phases always
  // run detailed) and replicate the tile-advance transition.
  const std::uint64_t k = std::min(n, tile_end_of(iter_) - iter_);
  iter_ += k;
  if (tiled_ && iter_ < loop_.iterations && iter_ % plan_.iters_per_tile == 0) {
    ++tile_;
    state_ = State::Control;
  }
  return k;
}

void CompiledKernel::bind_replay(std::shared_ptr<const ReplayBatch> batch) {
  if (batch != nullptr &&
      (batch->num_slots() != slots_.size() || batch->iterations != loop_.iterations))
    throw std::invalid_argument("replay batch shape does not match kernel");
  bound_ = std::move(batch);
}

std::shared_ptr<const ReplayBatch> CompiledKernel::replay_batch() {
  return cached_replay_batch(*this);
}

CompiledKernel compile(const LoopNest& loop, const CodegenOptions& opt,
                       Addr lm_base, Bytes lm_size, unsigned max_buffers) {
  loop.validate();
  AliasOracle oracle(loop);
  Classification cls = classify(loop, oracle, max_buffers);
  TilePlan plan = plan_tiling(loop, cls, lm_base, lm_size);
  return CompiledKernel(loop, std::move(cls), std::move(plan), opt);
}

}  // namespace hm
