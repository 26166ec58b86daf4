#include "compiler/replay.hpp"

#include <limits>
#include <list>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/hash.hpp"
#include "sim/report.hpp"

namespace hm {

namespace {

void append_u64(std::string& s, std::uint64_t v) {
  s += std::to_string(v);
  s += '|';
}

void append_dbl(std::string& s, double v) {
  // Exact bit pattern: the key must change iff the stream-shaping input
  // changes, and doubles here are exact configuration constants.
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  __builtin_memcpy(&bits, &v, sizeof bits);
  append_u64(s, bits);
}

}  // namespace

std::uint64_t CompiledKernel::replay_key() const {
  // Digest of everything that shapes the work-phase descriptor stream:
  // the loop (arrays, refs, trip counts, compute mix), the classification
  // verdicts, the tiling geometry, the codegen options (variant + seed +
  // ablation flags) and the engine version — a batch from a previous
  // engine must never replay into a new one.
  std::string s;
  s.reserve(256);
  s += loop_.name;
  s += '|';
  append_u64(s, loop_.iterations);
  append_u64(s, loop_.int_ops_per_iter);
  append_u64(s, loop_.fp_ops_per_iter);
  append_dbl(s, loop_.data_branch_fraction);
  for (const ArrayDecl& a : loop_.arrays) {
    append_u64(s, a.base);
    append_u64(s, a.elem_size);
    append_u64(s, a.elements);
  }
  for (const MemRef& r : loop_.refs) {
    append_u64(s, r.array);
    append_u64(s, static_cast<std::uint64_t>(r.pattern));
    append_u64(s, static_cast<std::uint64_t>(r.stride));
    append_u64(s, r.is_write ? 1 : 0);
    append_u64(s, r.range_known ? 1 : 0);
    append_dbl(s, r.irregular.in_chunk_fraction);
    append_u64(s, r.irregular.hot_bytes);
    append_u64(s, r.irregular.seed);
  }
  for (const ClassifiedRef& c : cls_.refs) {
    append_u64(s, static_cast<std::uint64_t>(c.cls));
    append_u64(s, c.needs_double_store ? 1 : 0);
    append_u64(s, static_cast<std::uint64_t>(c.lm_buffer));
  }
  append_u64(s, plan_.buffer_size);
  append_u64(s, plan_.iters_per_tile);
  append_u64(s, plan_.num_tiles);
  for (const BufferPlan& b : plan_.buffers) {
    append_u64(s, b.ref);
    append_u64(s, b.lm_base);
    append_u64(s, static_cast<std::uint64_t>(b.stride));
    append_u64(s, b.elem_size);
    append_u64(s, b.writeback ? 1 : 0);
  }
  append_u64(s, static_cast<std::uint64_t>(opt_.variant));
  append_u64(s, opt_.code_base);
  append_u64(s, opt_.global_seed);
  append_u64(s, opt_.disable_readonly_opt ? 1 : 0);
  append_u64(s, opt_.functional_stores ? 1 : 0);
  append_u64(s, opt_.drop_guards ? 1 : 0);
  append_u64(s, opt_.suppress_double_store ? 1 : 0);
  append_u64(s, kEngineVersion);
  return fnv1a64(s);
}

ReplayBatch build_replay_batch(const CompiledKernel& kernel) {
  // Draw on a pristine copy: the caller's RNG cursors and stream position
  // stay untouched, and the copy starts from reset() state so the batch
  // holds iteration 0's draws first regardless of where the caller
  // currently is.
  CompiledKernel k = kernel;
  k.bound_.reset();
  k.reset();

  ReplayBatch b;
  b.slots = k.slots_;
  b.iterations = k.loop_.iterations;
  b.iters_per_tile = k.tiled_ ? k.plan_.iters_per_tile : 0;
  b.key = k.replay_key();

  // Static per-iteration op counts, mirroring emit_work_iteration.
  ReplayIterShape& sh = b.shape;
  std::uint32_t load_slots = 0;
  std::uint32_t store_ops = 0;
  for (const ReplaySlot& s : b.slots) {
    switch (s.kind) {
      case OpKind::Load:
        ++load_slots;
        ++sh.loads;
        break;
      case OpKind::GuardedLoad:
        ++load_slots;
        ++sh.loads;
        ++sh.guarded_loads;
        break;
      case OpKind::Store:
        ++store_ops;
        ++sh.stores;
        break;
      case OpKind::GuardedStore:
        ++store_ops;
        ++sh.stores;
        ++sh.guarded_stores;
        if (s.double_store) {
          ++store_ops;
          ++sh.stores;
        }
        break;
      default:
        break;
    }
  }
  sh.int_ops = k.loop_.int_ops_per_iter;
  sh.fp_ops = k.loop_.fp_ops_per_iter;
  sh.branches = 1;  // back-edge; the data branch is counted via db_code
  const std::uint32_t alus = sh.int_ops + sh.fp_ops;
  sh.uops = load_slots + alus + store_ops + 1;
  // Register-operand traffic, matching the core's c_regreads/c_regwrites
  // accounting: every load and ALU op writes a register; ALU k reads its
  // load source (when the iteration has loads) plus the dependence spine
  // (nonzero from ALU 1 on, and for ALU 0 iff a load fed it); stores read
  // `computed` when it is a real register.
  const bool has_loads = load_slots > 0;
  bool prev_nz = has_loads;
  std::uint32_t reads = 0;
  for (std::uint32_t a = 0; a < alus; ++a) {
    reads += (has_loads ? 1u : 0u) + (prev_nz ? 1u : 0u);
    prev_nz = true;
  }
  const bool computed_nz = alus > 0 ? true : has_loads;
  reads += computed_nz ? store_ops : 0;
  sh.reg_reads = reads;
  sh.reg_writes = load_slots + alus;

  // Payload: only the RNG draws.  Strided slots decode from their formula;
  // each irregular slot stores its element index, which must fit 32 bits.
  for (const ReplaySlot& s : b.slots) {
    if (!s.addr.irregular) continue;
    if (k.loop_.array_of(k.loop_.refs[s.ref]).elements >
        std::numeric_limits<std::uint32_t>::max())
      throw std::length_error(k.loop_.name +
                              ": irregular array too large for a replay batch (>= 2^32 elements)");
    ++b.irregular_slots;
  }
  const bool has_db = k.loop_.data_branch_fraction > 0.0;
  b.elems.resize(b.iterations * b.irregular_slots);
  if (has_db) {
    b.db_code.resize(b.iterations);
    b.db_before.resize(b.iterations + 1);
  }
  std::uint32_t* elem = b.elems.data();
  std::uint32_t db_seen = 0;
  for (std::uint64_t g = 0; g < b.iterations; ++g) {
    // Same per-RNG draw order as CompiledKernel::resolve_work_iteration.
    for (const ReplaySlot& s : b.slots)
      if (s.addr.irregular) *elem++ = static_cast<std::uint32_t>(k.irregular_element(s.ref, g));
    if (!has_db) continue;
    b.db_before[g] = db_seen;
    b.db_code[g] = k.draw_data_branch();
    if (b.db_code[g] != 0) ++db_seen;
  }
  if (has_db) b.db_before[b.iterations] = db_seen;
  return b;
}

// ---------------------------------------------------------------------------
// Process-wide descriptor cache.

namespace {

struct ReplayCache {
  // LRU over batch keys, bounded by total payload bytes: big sweeps reuse a
  // handful of kernels per experiment, so a modest footprint already gives
  // the "repeated points never re-walk" behaviour the controller wants.
  static constexpr Bytes kMaxBytes = 256ull << 20;

  std::mutex mu;
  std::list<std::uint64_t> lru;  // front = most recent
  struct Entry {
    std::shared_ptr<const ReplayBatch> batch;
    std::list<std::uint64_t>::iterator pos;
  };
  std::unordered_map<std::uint64_t, Entry> map;
  Bytes bytes = 0;
  ReplayCacheStats stats;
};

ReplayCache& cache() {
  static ReplayCache c;
  return c;
}

}  // namespace

std::shared_ptr<const ReplayBatch> cached_replay_batch(const CompiledKernel& kernel) {
  const std::uint64_t key = kernel.replay_key();
  ReplayCache& c = cache();
  {
    std::lock_guard<std::mutex> lk(c.mu);
    auto it = c.map.find(key);
    if (it != c.map.end()) {
      c.lru.splice(c.lru.begin(), c.lru, it->second.pos);
      ++c.stats.hits;
      return it->second.batch;
    }
    ++c.stats.misses;
  }
  // Build outside the lock: batch compilation is the expensive part and
  // concurrent sweep workers must not serialize on it.  A racing double
  // build of the same key is benign — last one in wins the cache slot.
  auto batch = std::make_shared<const ReplayBatch>(build_replay_batch(kernel));
  std::lock_guard<std::mutex> lk(c.mu);
  auto [it, inserted] = c.map.try_emplace(key);
  if (inserted) {
    c.lru.push_front(key);
    it->second.pos = c.lru.begin();
    c.bytes += batch->bytes();
  }
  it->second.batch = batch;
  while (c.bytes > ReplayCache::kMaxBytes && c.lru.size() > 1) {
    const std::uint64_t victim = c.lru.back();
    auto vit = c.map.find(victim);
    c.bytes -= vit->second.batch->bytes();
    c.map.erase(vit);
    c.lru.pop_back();
    ++c.stats.evictions;
  }
  return batch;
}

ReplayCacheStats replay_cache_stats() {
  ReplayCache& c = cache();
  std::lock_guard<std::mutex> lk(c.mu);
  return c.stats;
}

void clear_replay_cache() {
  ReplayCache& c = cache();
  std::lock_guard<std::mutex> lk(c.mu);
  c.map.clear();
  c.lru.clear();
  c.bytes = 0;
  c.stats = ReplayCacheStats{};
}

}  // namespace hm
