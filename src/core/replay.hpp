// Batch-compiled replay descriptors for sampled simulation.
//
// A ReplayBatch is the compact, pre-resolved form of a kernel's work phase:
// the descriptor compiler (src/compiler/replay.*) walks every work
// iteration ONCE, makes all the data-dependent draws (irregular element
// indices and data-branch outcomes), and stores only those.  Two consumers
// replay it instead of re-walking the IR, both through ReplayBatch::decode:
//
//  * the functional executor (OooCore::replay_functional) fast-forwards
//    skipped sampling intervals by replaying the descriptors against the
//    cache hierarchy / directory / LM — warm state without OoO scheduling;
//  * a batch-bound CompiledKernel emits its detailed work iterations from
//    the decoded addresses, byte-identical to unbound emission by
//    construction (the batch was drawn by the same code and decodes through
//    the same per-slot formula), which is what lets the sampling controller
//    skip whole iterations without replaying RNG draws.
//
// The layout: everything invariant across iterations (op kinds, pcs,
// guard/double-store flags, per-iteration op counts, and each slot's
// address formula) lives once in the static section.  A strided slot's
// address is a pure function of the iteration, so it carries no payload;
// the per-iteration payload is one 32-bit element index per irregular slot,
// plus the data-branch draws when the loop has a data-dependent branch.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "core/isa.hpp"

namespace hm {

/// Address formula of one static memory slot: `base + index * step`.  The
/// index of a strided slot is the global iteration g, or its offset inside
/// the current tile (g % iters_per_tile) when the slot addresses an LM
/// buffer; an irregular slot's index is the element drawn for iteration g.
/// CompiledKernel derives one per reference, and both unbound emission and
/// ReplayBatch::decode evaluate it, so the formula exists exactly once.
struct SlotAddress {
  Addr base = 0;           ///< LM buffer base, or the SM array base
  std::uint64_t step = 0;  ///< bytes per index step
  bool tile_local = false; ///< strided LM slot: indexed by g % iters_per_tile
  bool irregular = false;  ///< index is a per-iteration element draw

  Addr at(std::uint64_t index) const { return base + index * step; }
  /// Strided address at global iteration @p g, whose tile offset is @p local.
  Addr strided(std::uint64_t g, std::uint64_t local) const {
    return at(tile_local ? local : g);
  }
};

/// One static memory slot of a work iteration: a load or store reference in
/// emission order (loads in ref order, then stores in ref order).  A store
/// slot with `double_store` also emits the conventional extra store at
/// `extra_pc` to the same address (§3.1).
struct ReplaySlot {
  Addr pc = 0;
  Addr extra_pc = 0;            ///< pc of the double store's plain twin
  SlotAddress addr;
  OpKind kind = OpKind::Load;   ///< Load/GuardedLoad/Store/GuardedStore
  std::uint16_t ref = 0;        ///< source MemRef index (store-value seed)
  bool double_store = false;    ///< store slot emits the extra plain store
  bool has_value = false;       ///< functional_stores: writes carry a value
};

/// Static per-iteration op counts (the data-dependent branch, when present,
/// is counted separately via ReplayBatch::db_code).
struct ReplayIterShape {
  std::uint32_t uops = 0;        ///< without the optional data branch
  std::uint32_t int_ops = 0;
  std::uint32_t fp_ops = 0;
  std::uint32_t branches = 0;    ///< back-edge only (data branch is dynamic)
  std::uint32_t loads = 0;
  std::uint32_t stores = 0;      ///< double-store twins included
  std::uint32_t guarded_loads = 0;
  std::uint32_t guarded_stores = 0;
  std::uint32_t reg_reads = 0;   ///< without the data branch's src read
  std::uint32_t reg_writes = 0;
};

struct ReplayBatch {
  // Static shape.
  std::vector<ReplaySlot> slots;   ///< one entry per memory slot per iteration
  ReplayIterShape shape;
  std::uint64_t iterations = 0;    ///< work iterations covered (= loop trip)
  std::uint64_t iters_per_tile = 0;  ///< 0 when untiled
  std::uint64_t key = 0;           ///< cache key this batch was built under
  std::uint32_t irregular_slots = 0;  ///< slots whose addr.irregular is set

  // Per-iteration payload, iteration-major over the irregular slots only:
  // elems[i * irregular_slots + k] is the element index of iteration i's
  // k-th irregular slot (in slot order).
  std::vector<std::uint32_t> elems;
  /// Data-dependent branch draw per iteration: 0 = absent, 1 = present and
  /// not taken, 2 = present and taken.  Empty when the loop has no data
  /// branch (every iteration absent).
  std::vector<std::uint8_t> db_code;
  /// Prefix sums of data-branch presence: db_before[i] = count in [0, i).
  /// Sized iterations + 1 so uop totals over any range are O(1); empty
  /// together with db_code.
  std::vector<std::uint32_t> db_before;

  std::size_t num_slots() const { return slots.size(); }

  /// Addresses of iteration @p g's memory slots into @p out (num_slots()
  /// entries) and its data-branch draw into @p db.
  void decode(std::uint64_t g, Addr* out, std::uint8_t& db) const {
    const std::uint64_t local = iters_per_tile != 0 ? g % iters_per_tile : g;
    const std::uint32_t* e = elems.data() + g * irregular_slots;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const SlotAddress& a = slots[s].addr;
      out[s] = a.irregular ? a.at(*e++) : a.strided(g, local);
    }
    db = db_code.empty() ? 0 : db_code[g];
  }
  /// Data-dependent branches emitted by iterations [first, first + count).
  std::uint64_t data_branches_in_range(std::uint64_t first, std::uint64_t count) const {
    return db_before.empty() ? 0 : db_before[first + count] - db_before[first];
  }
  /// Dynamic micro-ops emitted by iterations [first, first + count).
  std::uint64_t uops_in_range(std::uint64_t first, std::uint64_t count) const {
    return count * shape.uops + data_branches_in_range(first, count);
  }
  Bytes bytes() const {
    return elems.size() * sizeof(std::uint32_t) + db_code.size() +
           db_before.size() * sizeof(std::uint32_t) +
           slots.size() * sizeof(ReplaySlot);
  }
};

/// Deterministic value stored by reference @p ref at iteration @p iter when
/// functional_stores is on.  Shared between CompiledKernel::store_value and
/// the functional executor so the two can never drift.
inline std::uint64_t replay_store_value(unsigned ref, std::uint64_t iter) {
  return splitmix64_mix((static_cast<std::uint64_t>(ref) << 48) ^ iter ^ kGoldenGamma);
}

/// An InstrStream whose work phase can be batch-compiled and fast-forwarded.
/// CompiledKernel implements it; the sampling controller consumes it.
class ReplayableStream : public InstrStream {
 public:
  static constexpr std::uint64_t kNoIteration = ~0ull;

  /// The stream's descriptor batch, built on first use and cached per
  /// (kernel identity, variant, seed, engine version).
  virtual std::shared_ptr<const ReplayBatch> replay_batch() = 0;

  /// Bind @p batch: work-phase addresses and branch draws come from the
  /// batch instead of the resolver, leaving the RNGs untouched so whole
  /// iterations can be skipped.  Emission stays byte-identical (the batch
  /// holds exactly what the resolver would produce).  Pass nullptr to
  /// unbind; reset() keeps the binding.
  virtual void bind_replay(std::shared_ptr<const ReplayBatch> batch) = 0;

  /// Index of the work iteration the next refill would emit, or
  /// kNoIteration when the stream is not at a work-iteration boundary
  /// (mid-iteration, or control/synch/epilogue ops are pending).
  virtual std::uint64_t work_cursor() const = 0;

  /// Skip up to @p n whole work iterations without emitting them.  Only
  /// legal when bound and at a work-iteration boundary; never crosses a
  /// tile boundary (control/synch phases always run detailed).  Returns
  /// the number of iterations skipped.
  virtual std::uint64_t skip_work_iterations(std::uint64_t n) = 0;
};

}  // namespace hm
