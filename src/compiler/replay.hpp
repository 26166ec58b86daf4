// The descriptor compiler for sampled simulation.
//
// build_replay_batch walks a CompiledKernel's work-phase iterations once —
// making the same RNG draws the emitter makes, on a pristine copy of the
// kernel — and stores the draws in the compact ReplayBatch defined in
// core/replay.hpp: the kernel's static slots with their address formulas,
// a 32-bit element index per irregular slot and iteration, and the
// data-branch draws when the loop has any.  cached_replay_batch fronts it
// with a process-wide cache keyed per (kernel identity, variant, seed,
// engine version), so repeated sweep points over the same kernel and every
// fast-forward region of a sampled run share one batch and never re-walk
// the IR.
#pragma once

#include <cstdint>
#include <memory>

#include "compiler/codegen.hpp"
#include "core/replay.hpp"

namespace hm {

/// Draw every work iteration of @p kernel into a fresh batch.  Pure with
/// respect to @p kernel (works on an internal copy; RNG cursors and the
/// stream position are untouched).  Throws std::length_error when an
/// irregular reference targets an array of 2^32 elements or more.
ReplayBatch build_replay_batch(const CompiledKernel& kernel);

/// build_replay_batch through the process-wide descriptor cache.  Thread
/// safe; entries are evicted LRU beyond a bounded footprint so unbounded
/// sweeps cannot hoard memory.
std::shared_ptr<const ReplayBatch> cached_replay_batch(const CompiledKernel& kernel);

/// Descriptor-cache observability (tests and the sweep summary).
struct ReplayCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};
ReplayCacheStats replay_cache_stats();
void clear_replay_cache();

}  // namespace hm
