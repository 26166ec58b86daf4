// hm_perfbench — the measurement program behind perfbench/run.py.
//
// One invocation is one closed-loop sweep process; run.py launches it
// repeatedly and reduces the figures to medians.  Subcommands:
//
//   hm_perfbench info
//       Build fingerprint (build type, native-arch flag, compiler) as JSON.
//   hm_perfbench sweep --workload W --seed N --jobs J
//                      --cache-dir D --journal-dir D
//                      [--detailed] [--replica] [--points-out FILE]
//       Run every point of workload W with SweepPoint::seed = N and print
//       one JSON line of totals.  At the paper seed this is run_sweep; at
//       any other seed (or with --replica) a replica of run_sweep's
//       composition.  --detailed forces sampling off (the sampled
//       workload's reference).
//   hm_perfbench traced --workload W --seed N --spans FILE
//       Serial run of the points the sweep executes, each followed by
//       per-layer replays that time the layers' public functions on that
//       point's own input streams.  Spans go to FILE (JSONL); per-layer
//       figures to stdout.
//   hm_perfbench traffic
//       Replay-driver call counts beside the RunReport counts on one 1-core
//       flat point and one 16-tile mesh point; exit 1 outside tolerance.
//
// Timings are refused from non-Release builds and when tracing is active.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/occupancy.hpp"
#include "compiler/codegen.hpp"
#include "core/replay.hpp"
#include "driver/experiment.hpp"
#include "driver/journal.hpp"
#include "driver/registry.hpp"
#include "driver/result.hpp"
#include "driver/scheduler.hpp"
#include "driver/sweep.hpp"
#include "memory/hierarchy.hpp"
#include "noc/noc.hpp"
#include "obs/trace.hpp"
#include "sim/report.hpp"
#include "sim/system.hpp"
#include "workloads/microbench.hpp"
#include "workloads/nas.hpp"

#ifndef HM_PERFBENCH_BUILD_TYPE
#define HM_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef HM_PERFBENCH_NATIVE_ARCH
#define HM_PERFBENCH_NATIVE_ARCH "unknown"
#endif
#ifndef HM_PERFBENCH_COMPILER
#define HM_PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace hm;
using namespace hm::driver;
using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------ workloads ----

struct WorkloadDef {
  const char* name;
  std::vector<const char*> experiments;
  bool sampled;
  double scale;  // 0 = each spec's own (full) scale
};

// Each serial sweep takes 2-4 s on a 4-vCPU host, so a run holds five or
// more repetitions.  Scales are absolute WorkloadScale factors (0 = the
// spec's own full scale): scaling_mesh runs at half its full 0.25 (its
// 256-tile System construction is unchanged), and the sampled fig8+fig9 at
// twice their full 0.5, where the fast-forward covers most of each run.
const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"paper_flat", {"fig7", "fig8", "fig9", "fig10", "table3"}, false, 0.0},
      {"mesh_scaling", {"scaling_mesh"}, false, 0.125},
      {"irregular_mix", {"irregular", "irregular_mesh"}, false, 0.0},
      {"paper_sampled", {"fig8", "fig9"}, true, 1.0},
  };
  return defs;
}

const WorkloadDef& find_workload(const std::string& name) {
  for (const WorkloadDef& w : workloads())
    if (name == w.name) return w;
  throw std::invalid_argument("unknown workload: " + name);
}

EngineConfig engine_for(const WorkloadDef& w, bool detailed) {
  EngineConfig e;
  if (w.sampled && !detailed) e.sampling.mode = SamplingConfig::Mode::Interval;
  return e;
}

std::vector<SweepPoint> points_of(const ExperimentSpec& spec, const WorkloadDef& w,
                                  std::uint64_t seed) {
  std::vector<SweepPoint> pts =
      w.scale > 0.0 ? expand(spec, w.scale) : expand(spec);
  for (SweepPoint& p : pts) p.seed = seed;
  return pts;
}

const ExperimentSpec& spec_named(const char* name) {
  const ExperimentSpec* s = find_experiment(name);
  if (s == nullptr) throw std::invalid_argument(std::string("unknown experiment ") + name);
  return *s;
}

// ------------------------------------------------------------ utilities ----

std::uint64_t fnv_update(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// NaN (a figure the tables did not yield) is written as null.
void kv(std::string& out, const char* key, double v) {
  char buf[96];
  if (std::isnan(v))
    std::snprintf(buf, sizeof buf, "\"%s\":null,", key);
  else
    std::snprintf(buf, sizeof buf, "\"%s\":%.17g,", key, v);
  out += buf;
}

void kv(std::string& out, const char* key, const std::string& v) {
  out += '"';
  out += key;
  out += "\":\"";
  append_json_escaped(out, v);
  out += "\",";
}

std::string close_obj(std::string s) {
  if (!s.empty() && s.back() == ',') s.pop_back();
  return "{" + s + "}";
}

long peak_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

bool build_is_release() {
#ifdef NDEBUG
  return std::strcmp(HM_PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

/// Refuse to time a build whose numbers would mislead: debug/unoptimized
/// builds, or a process with a trace sink installed.
void guard_timing() {
  if (!build_is_release())
    throw std::runtime_error(std::string("refusing to time a non-Release build (") +
                             HM_PERFBENCH_BUILD_TYPE + ")");
  if (obs::tracing_active())
    throw std::runtime_error("refusing to time with tracing active");
}

// ------------------------------------------------------- report totals ----

/// Deterministic RunReport counts summed over a set of executed points.
struct Counts {
  double uops = 0, cycles = 0, tile_uops = 0, tile_cycles = 0;
  double replay_uops = 0, flushed_slots = 0;
  double l1 = 0, l1_hits = 0, l2 = 0, l3 = 0, dram = 0, lm = 0;
  double pf_train = 0, pf_issue = 0, dma_lines = 0;
  double occ_req = 0, occ_delayed = 0, occ_queue = 0;
  double dma_bus_queue = 0;
  double noc_msgs = 0, noc_hops = 0, noc_flits = 0;
  double link_req = 0, link_delayed = 0, link_queue = 0;
  double dir_lookups = 0, dir_updates = 0, filtered = 0, broadcasts = 0;
  double ff_uops = 0, max_err_bound = 0;
  double overflows = 0, mismatches = 0;

  void add(const RunReport& r) {
    uops += static_cast<double>(r.core.uops);
    cycles += static_cast<double>(r.core.cycles);
    for (const TileReport& t : r.tiles) {
      tile_uops += static_cast<double>(t.uops);
      tile_cycles += static_cast<double>(t.cycles);
    }
    const ActivityCounts& a = r.activity;
    replay_uops += static_cast<double>(a.replay_uops);
    flushed_slots += static_cast<double>(a.flushed_slots);
    l1 += static_cast<double>(r.l1_accesses);
    l1_hits += static_cast<double>(r.l1_accesses) * r.l1_hit_ratio / 100.0;
    l2 += static_cast<double>(r.l2_accesses);
    l3 += static_cast<double>(r.l3_accesses);
    dram += static_cast<double>(a.mem_accesses);
    lm += static_cast<double>(r.lm_accesses);
    pf_train += static_cast<double>(a.prefetch_trainings);
    pf_issue += static_cast<double>(a.prefetch_issues);
    dma_lines += static_cast<double>(a.dma_lines);
    for (const ResourceContention* c : {&r.l2_port, &r.l3_port, &r.dram, &r.dma_bus}) {
      occ_req += static_cast<double>(c->requests);
      occ_delayed += static_cast<double>(c->delayed);
      occ_queue += static_cast<double>(c->queue_cycles);
    }
    dma_bus_queue += static_cast<double>(r.dma_bus.queue_cycles);
    noc_msgs += static_cast<double>(r.noc_msgs);
    noc_hops += static_cast<double>(r.noc_hops);
    noc_flits += static_cast<double>(r.noc_flits);
    link_req += static_cast<double>(r.noc_links.requests);
    link_delayed += static_cast<double>(r.noc_links.delayed);
    link_queue += static_cast<double>(r.noc_links.queue_cycles);
    dir_lookups += static_cast<double>(a.dir_lookups);
    dir_updates += static_cast<double>(a.dir_updates);
    filtered += static_cast<double>(r.noc_dir_filtered);
    broadcasts += static_cast<double>(r.noc_dir_broadcasts);
    ff_uops += r.sampled_fraction * static_cast<double>(r.core.uops);
    max_err_bound = std::max(max_err_bound, r.sample_error);
    overflows += static_cast<double>(r.contention_overflows());
    mismatches += static_cast<double>(r.core.value_mismatches);
  }

  void emit(std::string& o) const {
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    kv(o, "uops", uops);
    kv(o, "cycles", cycles);
    kv(o, "core.ipc", ratio(tile_uops, tile_cycles));
    kv(o, "core.replay_uops", replay_uops);
    kv(o, "core.flushed_slots", flushed_slots);
    kv(o, "memory.l1_accesses", l1);
    kv(o, "memory.l1_hit_ratio", ratio(l1_hits, l1));
    kv(o, "memory.l2_accesses", l2);
    kv(o, "memory.l3_accesses", l3);
    kv(o, "memory.dram_accesses", dram);
    kv(o, "memory.pf_issue_ratio", ratio(pf_issue, pf_train));
    kv(o, "occupancy.requests", occ_req);
    kv(o, "occupancy.delayed_frac", ratio(occ_delayed, occ_req));
    kv(o, "occupancy.queue_cycles", occ_queue);
    kv(o, "noc.msgs", noc_msgs);
    kv(o, "noc.hops_per_msg", ratio(noc_hops, noc_msgs));
    kv(o, "noc.flits", noc_flits);
    kv(o, "noc.link_delayed_frac", ratio(link_delayed, link_req));
    kv(o, "noc.link_queue_cycles", link_queue);
    kv(o, "coherence.dir_lookups", dir_lookups);
    kv(o, "coherence.dir_updates", dir_updates);
    kv(o, "coherence.filter_ratio", ratio(filtered, filtered + broadcasts));
    kv(o, "lm.accesses", lm);
    kv(o, "lm.dma_lines", dma_lines);
    kv(o, "lm.dma_bus_queue_cycles", dma_bus_queue);
    kv(o, "replay.sampled_frac", ratio(ff_uops, uops));
    kv(o, "replay.err_bound_pct", 100.0 * max_err_bound);
    kv(o, "overflows", overflows);
    kv(o, "mismatches", mismatches);
  }
};

// ------------------------------------------------------------- fidelity ----

/// The reproduced figure values the paper gaps are computed from, parsed
/// from the repo's own rendered tables (so they follow the goldens' format).
struct Fidelity {
  double fig7_wr100 = NAN, fig8_time = NAN, fig8_energy = NAN, fig9_speedup = NAN,
         fig10_saving_pct = NAN;
};

std::vector<std::string> tokens_of_row(const std::string& text, const char* first) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    std::vector<std::string> toks;
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && line[i] == ' ') ++i;
      std::size_t j = i;
      while (j < line.size() && line[j] != ' ') ++j;
      if (j > i) toks.push_back(line.substr(i, j - i));
      i = j;
    }
    if (!toks.empty() && toks.front() == first) return toks;
  }
  return {};
}

void read_fidelity(const std::string& exp, const std::string& table, Fidelity& f) {
  if (exp == "fig7") {
    const auto t = tokens_of_row(table, "100");
    if (t.size() >= 3) f.fig7_wr100 = std::strtod(t[2].c_str(), nullptr);
  } else if (exp == "fig8") {
    const auto t = tokens_of_row(table, "AVG");
    if (t.size() >= 3) {
      f.fig8_time = std::strtod(t[1].c_str(), nullptr);
      f.fig8_energy = std::strtod(t[2].c_str(), nullptr);
    }
  } else if (exp == "fig9") {
    const auto t = tokens_of_row(table, "AVG");
    if (!t.empty()) f.fig9_speedup = std::strtod(t.back().c_str(), nullptr);
  } else if (exp == "fig10") {
    const auto t = tokens_of_row(table, "AVG");
    if (!t.empty()) f.fig10_saving_pct = std::strtod(t.back().c_str(), nullptr);
  }
}

// ---------------------------------------------------------------- sweep ----

struct SweepArgs {
  std::string workload;
  std::uint64_t seed = kPaperSeed;
  unsigned jobs = 1;
  std::string cache_dir, journal_dir, points_out, spans;
  bool detailed = false;
  bool replica = false;
};

/// run_sweep pins every paper point to kPaperSeed and takes no seed, so a
/// run at another seed goes through this replica of its composition:
/// session and disk cache lookups, run_point on the scheduler with a
/// journal append per point, cache stores, journal compaction.  It leaves
/// out what a clean benchmark run never reaches (retries, watchdog, fault
/// injection, trace sinks, sweep metrics).  At the paper seed the sweep is
/// run_sweep itself; test_perfbench.py checks that both give the same bytes.
SweepOutcome replica_sweep(const ExperimentSpec& spec, const std::vector<SweepPoint>& pts,
                           const SweepOptions& opt) {
  SweepOutcome out;
  out.spec = &spec;
  out.points.resize(pts.size());
  const bool alters = engine_alters_results(opt.engine);
  SweepJournal journal(alters ? std::string{} : opt.journal_dir, spec.name);
  const MemoCache disk(alters ? std::string{} : opt.cache_dir);
  RunCache* const session = alters ? nullptr : opt.session_cache;

  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    std::optional<PointResult> hit;
    if (session) hit = session->lookup(pts[i]);
    if (!hit && disk.enabled()) {
      hit = disk.lookup(pts[i]);
      if (hit && session) session->store(*hit);
    }
    if (hit) {
      out.points[i] = std::move(*hit);
      ++out.cache_hits;
    } else {
      todo.push_back(i);
    }
  }
  SweepScheduler sched(opt.jobs);
  const std::vector<std::string> errors = sched.run(todo.size(), [&](std::size_t t) {
    const std::size_t i = todo[t];
    PointResult& r = out.points[i];
    r = run_point(pts[i], opt.engine);
    r.attempts = 1;
    if (!r.ok) r.error_class = ErrorClass::Engine;
    const auto s = Clock::now();
    journal.append(r);
    if (r.profile.measured) r.profile.serialize_seconds = secs(s, Clock::now());
  });
  for (std::size_t t = 0; t < todo.size(); ++t) {
    const std::size_t i = todo[t];
    if (!errors[t].empty()) {
      out.points[i] = PointResult{};
      out.points[i].point = pts[i];
      out.points[i].error = errors[t];
      out.points[i].error_class = ErrorClass::Engine;
      out.points[i].attempts = 1;
      continue;
    }
    if (out.points[i].ok) {
      if (disk.enabled()) disk.store(out.points[i]);
      if (session) session->store(out.points[i]);
    }
  }
  journal.compact(out.points);
  return out;
}

/// Simulated in this process (not a session or disk cache hit).  RunCache
/// hands back the stored point's profile, so profile.measured alone would
/// count a cross-experiment hit twice.
bool executed_here(const PointResult& r) { return r.profile.measured && !r.from_cache; }

/// Host seconds of an executed point: run_point's phases plus the journal
/// append (0 for a cache hit).
double point_seconds(const PointResult& r) {
  if (!executed_here(r)) return 0.0;
  const PointProfile& p = r.profile;
  return p.setup_seconds + p.codegen_seconds + p.simulate_seconds + p.serialize_seconds;
}

/// CPU time this process used before main(): exec, dynamic loading and
/// static initialisation.  Taken inside the process, so the launcher's own
/// spawn cost does not enter it.
double process_start_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int cmd_sweep(const SweepArgs& a, double start_s) {
  guard_timing();
  const WorkloadDef& w = find_workload(a.workload);
  RunCache session;
  SweepOptions opt;
  opt.jobs = a.jobs;
  opt.cache_dir = a.cache_dir;
  opt.journal_dir = a.journal_dir;
  opt.session_cache = &session;
  if (w.scale > 0.0) opt.scale_override = w.scale;
  opt.engine = engine_for(w, a.detailed);
  const bool replica = a.replica || a.seed != kPaperSeed;
  Counts counts;
  Fidelity fid;
  std::uint64_t digest = 0xcbf29ce484222325ull;
  double attempted = 0, failed = 0, cache_hits = 0, point_s_sum = 0, point_max_s = 0;
  double setup_s = 0, codegen_s = 0, run_s = 0, serialize_s = 0, executed = 0;
  std::string points_lines;

  const auto t0 = Clock::now();
  std::vector<SweepOutcome> outs;
  for (const char* name : w.experiments) {
    const ExperimentSpec& spec = spec_named(name);
    outs.push_back(replica ? replica_sweep(spec, points_of(spec, w, a.seed), opt)
                           : run_sweep(spec, opt));
  }
  const double wall = secs(t0, Clock::now());

  for (const SweepOutcome& out : outs) {
    cache_hits += static_cast<double>(out.cache_hits);
    for (const PointResult& r : out.points) {
      attempted += 1;
      // A point fails when quarantined/timed out, or when it reports an
      // occupancy overflow or a data-oracle mismatch.
      const bool bad = !r.ok || r.report.contention_overflows() != 0 ||
                       r.report.core.value_mismatches != 0;
      if (bad) failed += 1;
      const std::string bytes = point_json(r);
      digest = fnv_update(digest, bytes);
      const double ps = point_seconds(r);
      if (executed_here(r)) {
        executed += 1;
        point_s_sum += ps;
        point_max_s = std::max(point_max_s, ps);
        setup_s += r.profile.setup_seconds;
        codegen_s += r.profile.codegen_seconds;
        run_s += r.profile.simulate_seconds;
        serialize_s += r.profile.serialize_seconds;
        if (r.ok) counts.add(r.report);
      }
      if (!a.points_out.empty()) {
        char buf[224];
        std::snprintf(buf, sizeof buf,
                      "\",\"hash\":\"%016llx\",\"ok\":%s,\"cycles\":%llu,\"err_bound\":%.17g,"
                      "\"setup_s\":%.9f}\n",
                      static_cast<unsigned long long>(fnv_update(0xcbf29ce484222325ull, bytes)),
                      bad ? "false" : "true",
                      static_cast<unsigned long long>(r.report.cycles()),
                      r.report.sample_error,
                      executed_here(r) ? r.profile.setup_seconds + r.profile.codegen_seconds
                                       : 0.0);
        points_lines += "{\"key\":\"";
        append_json_escaped(points_lines, out.spec->name + "#" + std::to_string(r.point.index));
        points_lines += buf;
      }
    }
    read_fidelity(out.spec->name, render(out), fid);
  }
  if (!a.points_out.empty()) {
    std::ofstream f(a.points_out, std::ios::trunc);
    f << points_lines;
  }

  std::string o;
  kv(o, "workload", w.name);
  kv(o, "path", std::string(replica ? "replica" : "run_sweep"));
  kv(o, "wall_s", wall);
  kv(o, "start_s", start_s);
  kv(o, "attempted", attempted);
  kv(o, "failed", failed);
  kv(o, "executed", executed);
  kv(o, "cache_hits", cache_hits);
  kv(o, "point_s_sum", point_s_sum);
  kv(o, "point_max_s", point_max_s);
  kv(o, "setup_s", setup_s);
  kv(o, "codegen_s", codegen_s);
  kv(o, "run_s", run_s);
  kv(o, "serialize_s", serialize_s);
  char dbuf[32];
  std::snprintf(dbuf, sizeof dbuf, "%016llx", static_cast<unsigned long long>(digest));
  kv(o, "digest", std::string(dbuf));
  kv(o, "peak_rss_kb", static_cast<double>(peak_rss_kb()));
  kv(o, "fig7_wr100", fid.fig7_wr100);
  kv(o, "fig8_time", fid.fig8_time);
  kv(o, "fig8_energy", fid.fig8_energy);
  kv(o, "fig9_speedup", fid.fig9_speedup);
  kv(o, "fig10_saving_pct", fid.fig10_saving_pct);
  counts.emit(o);
  std::printf("%s\n", close_obj(o).c_str());
  return 0;
}

// --------------------------------------------------------- point replay ----

/// The programs run_point builds for a point, rebuilt so the replays see
/// the same input streams (same workload slices, seeds and codegen).
struct PointProgram {
  MachineConfig cfg;
  unsigned cores = 1;
  std::vector<std::unique_ptr<InstrStream>> streams;
};

/// run_point's per-tile codegen seed (src/driver/sweep.cpp, internal there).
std::uint64_t tile_seed(std::uint64_t seed, unsigned tile) {
  if (tile == 0) return seed;
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (tile + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  return z ^ (z >> 31);
}

PointProgram build_program(const SweepPoint& p) {
  PointProgram pp;
  pp.cfg = make_machine(p.machine);
  const unsigned dir_entries = static_cast<unsigned>(std::stoul(p.knob("dir_entries", "32")));
  pp.cfg.directory.entries = dir_entries;
  const bool prefetch = p.knob("prefetch", "on") != "off";
  pp.cfg.hierarchy.pf_l1.enabled = prefetch;
  pp.cfg.hierarchy.pf_l2.enabled = prefetch;
  pp.cfg.hierarchy.pf_l3.enabled = prefetch;
  pp.cores = static_cast<unsigned>(std::stoul(p.knob("cores", "1")));
  const std::string topology = p.knob("topology", "flat");
  if (topology == "mesh") pp.cfg.noc.topology = Topology::Mesh;
  if (topology == "ring") pp.cfg.noc.topology = Topology::Ring;
  const unsigned mesh_dim = static_cast<unsigned>(std::stoul(p.knob("mesh_dim", "0")));
  if (mesh_dim != 0) {
    pp.cfg.noc.mesh_x = mesh_dim;
    pp.cfg.noc.mesh_y = pp.cores / mesh_dim;
  }
  if (p.workload == "micro") {
    MicrobenchConfig mc;
    const std::string mode = p.knob("micro_mode", "Baseline");
    mc.mode = mode == "RD"     ? MicroMode::RD
              : mode == "WR"   ? MicroMode::WR
              : mode == "RDWR" ? MicroMode::RDWR
                               : MicroMode::Baseline;
    mc.guarded_pct = static_cast<unsigned>(std::stoul(p.knob("micro_pct", "0")));
    mc.iterations = static_cast<std::uint64_t>(std::llround(200'000.0 * p.scale));
    pp.streams.push_back(std::make_unique<Microbenchmark>(mc));
    return pp;
  }
  if (p.workload.empty()) return pp;
  const Workload wl = make_workload(p.workload, {.factor = p.scale});
  CodegenOptions co;
  co.variant = pp.cfg.kind == MachineKind::HybridCoherent ? CodegenVariant::HybridProtocol
               : pp.cfg.kind == MachineKind::HybridOracle ? CodegenVariant::HybridOracle
                                                          : CodegenVariant::CacheOnly;
  co.disable_readonly_opt = p.knob("readonly_opt", "on") == "off";
  const MachineConfig geometry = MachineConfig::hybrid_coherent();
  for (unsigned t = 0; t < pp.cores; ++t) {
    const Workload slice = pp.cores == 1 ? wl : make_spmd_slice(wl, t, pp.cores);
    if (slice.loop.iterations == 0) break;
    CodegenOptions cot = co;
    cot.global_seed = tile_seed(p.seed, t);
    pp.streams.push_back(std::make_unique<CompiledKernel>(
        compile(slice.loop, cot, geometry.lm.virtual_base, geometry.lm.size, dir_entries)));
  }
  return pp;
}

/// Host time and call counts of each layer's replay over one point.
struct LayerReplay {
  double stream_s = 0, stream_uops = 0;
  double mem_s = 0, mem_calls = 0, lm_calls = 0;
  double dir_s = 0, dir_calls = 0;
  double dma_s = 0, dma_lines = 0;
  double noc_s = 0, noc_calls = 0, noc_hops = 0;
  double occ_s = 0, occ_calls = 0;
  double replay_s = 0, replay_uops = 0;

  void add(const LayerReplay& o) {
    stream_s += o.stream_s; stream_uops += o.stream_uops;
    mem_s += o.mem_s; mem_calls += o.mem_calls; lm_calls += o.lm_calls;
    dir_s += o.dir_s; dir_calls += o.dir_calls;
    dma_s += o.dma_s; dma_lines += o.dma_lines;
    noc_s += o.noc_s; noc_calls += o.noc_calls; noc_hops += o.noc_hops;
    occ_s += o.occ_s; occ_calls += o.occ_calls;
    replay_s += o.replay_s; replay_uops += o.replay_uops;
  }
};

struct MemReq {
  Addr addr;
  Addr pc;
  Cycle now;
  bool write;
};
struct DirOp {
  enum Kind : std::uint8_t { Configure, Map, Lookup } kind;
  Addr a;
  Addr b;
  Cycle now;
};
struct DmaCmd {
  bool put;
  Addr sm, lm;
  Bytes size;
  unsigned tag;
  Cycle now;
};
struct NocReq {
  unsigned src, dst, flits;
  Cycle now;
};
/// One shared-resource booking a memory or DMA replay issued: its resource
/// class (L2 port, L3 port, DRAM, DMA bus), home slice and request cycle.
struct Booking {
  std::uint8_t kind;
  unsigned slice;
  Cycle now;
};
constexpr std::size_t kBookingKinds = 4;

/// Bookings an uncore has granted so far, per resource class.
std::array<std::uint64_t, kBookingKinds> bookings_of(const Uncore& u) {
  return {u.l2_port_contention().requests, u.l3_port_contention().requests,
          u.dram_contention().requests, u.dma_bus_contention().requests};
}

/// Appends one Booking per grant between @p before and the uncore's
/// current counts.
void record_bookings(const std::array<std::uint64_t, kBookingKinds>& before, const Uncore& u,
                     unsigned slice, Cycle now, std::vector<Booking>& out) {
  const auto after = bookings_of(u);
  for (std::size_t k = 0; k < kBookingKinds; ++k)
    for (std::uint64_t n = before[k]; n < after[k]; ++n)
      out.push_back({static_cast<std::uint8_t>(k), slice, now});
}

constexpr std::size_t kChunkUops = 1 << 16;

/// Replays every tile program of @p p through the layers' public entry
/// points: InstrStream::next (drained alone), MemoryHierarchy::access,
/// CoherenceDirectory::configure/map/lookup, DmaController::get/put,
/// Noc::traverse (mesh/ring points), SharedResource::book, and
/// OooCore::replay_functional (sampled points), each fed by the point's own
/// streams at the point's request rate.  Memory and DMA share one flat
/// machine's uncore, as in the engine; a guarded access the directory
/// redirects goes to the LM.  The occupancy layer books the grants the
/// memory and DMA replays made, which an untimed twin machine (same inputs,
/// same state) records call by call.
LayerReplay replay_point(const SweepPoint& p, const RunReport& rep, bool sampled) {
  LayerReplay lr;
  PointProgram prog = build_program(p);
  if (prog.streams.empty()) return lr;
  // The point's machine supplies the home-slice map and the NoC shape; the
  // memory, directory and DMA layers replay on a flat one-tile machine, so
  // no layer's time includes the interconnect's.
  System sys(prog.cfg, prog.cores);
  const Noc* real_noc = sys.uncore().noc();
  std::unique_ptr<Noc> noc;
  if (real_noc != nullptr) noc = std::make_unique<Noc>(real_noc->config(), real_noc->nodes());
  MachineConfig flat_cfg = prog.cfg;
  flat_cfg.noc = NocConfig{};
  System flat(flat_cfg, 1);
  const unsigned line_flits =
      noc ? noc->flits_for(prog.cfg.hierarchy.l1d.line_size) : 1;
  const Addr line_mask = ~static_cast<Addr>(prog.cfg.hierarchy.l1d.line_size - 1);
  System twin(flat_cfg, 1);
  MemoryHierarchy& mem = flat.hierarchy();
  MemoryHierarchy& mem_twin = twin.hierarchy();
  std::vector<Booking> books;
  const auto slice_of = [&](Addr a) {
    return noc ? sys.uncore().home_of(a & line_mask) : 0u;
  };
  // The flat machine has one L2 port and one DMA engine where a mesh has
  // one per slice and tile: tile t's requests start after tile t-1's, not
  // on top of them.
  Cycle base = 0;
  const bool has_lm = prog.cfg.has_lm();
  const Addr lm_base = prog.cfg.lm.virtual_base;
  const Addr lm_end = lm_base + prog.cfg.lm.size;
  const bool guards = prog.cfg.has_directory_hardware();

  std::vector<MemReq> mreq;
  std::vector<DirOp> dops;
  std::vector<DmaCmd> dcmd;
  std::vector<NocReq> nreq;
  std::vector<ServedBy> served;
  for (unsigned t = 0; t < prog.streams.size(); ++t) {
    InstrStream& s = *prog.streams[t];
    const TileReport* tr = t < rep.tiles.size() ? &rep.tiles[t] : nullptr;
    const double cpi = tr != nullptr && tr->uops != 0
                           ? static_cast<double>(tr->cycles) / static_cast<double>(tr->uops)
                           : 1.0;
    // Stream layer: drain alone.
    MicroOp op;
    s.reset();
    std::uint64_t n = 0;
    auto b = Clock::now();
    while (s.next(op)) ++n;
    lr.stream_s += secs(b, Clock::now());
    lr.stream_uops += static_cast<double>(n);

    CoherenceDirectory dir(prog.cfg.directory);
    CoherenceDirectory route(prog.cfg.directory);  // untimed: LM redirects
    DmaController* dmac = flat.dmac();
    DmaController* dmac_twin = twin.dmac();
    Cycle last_now = 0;
    s.reset();
    std::uint64_t idx = 0;
    bool more = true;
    while (more) {
      mreq.clear(); dops.clear(); dcmd.clear(); nreq.clear();
      for (std::size_t k = 0; k < kChunkUops; ++k) {
        if (!s.next(op)) {
          more = false;
          break;
        }
        const Cycle now = static_cast<Cycle>(static_cast<double>(idx++) * cpi);
        last_now = now;
        if (op.is_mem()) {
          bool to_lm = has_lm && op.addr >= lm_base && op.addr < lm_end;
          if (guards && op.is_guarded()) {
            dops.push_back({DirOp::Lookup, op.addr, 0, now});
            to_lm = route.lookup(op.addr, now).hit || to_lm;
          }
          if (to_lm)
            lr.lm_calls += 1;
          else
            mreq.push_back({op.addr, op.pc, base + now, op.is_store()});
        } else if (op.kind == OpKind::DmaGet || op.kind == OpKind::DmaPut) {
          const bool put = op.kind == OpKind::DmaPut;
          dcmd.push_back({put, op.dma_sm, op.dma_lm, op.dma_size, op.dma_tag, base + now});
          if (!put && guards) {
            dops.push_back({DirOp::Map, op.dma_sm, op.dma_lm, now});
            route.map(op.dma_sm, op.dma_lm, now + 1);
          }
        } else if (op.kind == OpKind::DirConfig) {
          // The DMAC updates its tile's directory, so that one is
          // programmed too (untimed; one write per program).
          for (System* f : {&flat, &twin})
            if (CoherenceDirectory* td = f->directory())
              td->configure(op.dir_buffer_size, lm_base, prog.cfg.lm.size);
          if (guards) {
            dops.push_back({DirOp::Configure, op.dir_buffer_size, 0, now});
            route.configure(op.dir_buffer_size, lm_base, prog.cfg.lm.size);
          }
        }
      }
      served.resize(mreq.size());
      b = Clock::now();
      for (std::size_t k = 0; k < mreq.size(); ++k)
        served[k] = mem.access(mreq[k].now, mreq[k].addr,
                               mreq[k].write ? AccessType::Write : AccessType::Read,
                               mreq[k].pc)
                        .served_by;
      lr.mem_s += secs(b, Clock::now());
      lr.mem_calls += static_cast<double>(mreq.size());
      for (const MemReq& m : mreq) {
        const auto before = bookings_of(mem_twin.uncore());
        (void)mem_twin.access(m.now, m.addr, m.write ? AccessType::Write : AccessType::Read,
                              m.pc);
        record_bookings(before, mem_twin.uncore(), slice_of(m.addr), m.now, books);
      }
      // NoC messages of this traffic: a store's write-through request, a
      // load miss's request and line response, and per DMA line the
      // request/response (get) or the line plus one invalidation (put).
      // Each tile's messages run on its own clock from cycle 0, as in the
      // engine.
      for (std::size_t k = 0; k < mreq.size(); ++k) {
        const bool hit = served[k] == ServedBy::CacheL1;
        if (!noc || (hit && !mreq[k].write)) continue;
        const unsigned home = sys.uncore().home_of(mreq[k].addr & line_mask);
        nreq.push_back({t, home, 1, mreq[k].now - base});
        if (!mreq[k].write) nreq.push_back({home, t, line_flits, mreq[k].now - base});
      }
      if (noc) {
        const Bytes line = prog.cfg.hierarchy.l1d.line_size;
        for (const DmaCmd& c : dcmd)
          for (Bytes off = 0; off < c.size; off += line) {
            const unsigned home = sys.uncore().home_of((c.sm + off) & line_mask);
            nreq.push_back({t, home, c.put ? line_flits : 1, c.now - base});
            nreq.push_back({home, t, c.put ? 1 : line_flits, c.now - base});
          }
      }
      b = Clock::now();
      for (const DirOp& d : dops) {
        if (d.kind == DirOp::Lookup)
          (void)dir.lookup(d.a, d.now);
        else if (d.kind == DirOp::Map)
          dir.map(d.a, d.b, d.now + 1);
        else
          dir.configure(d.a, lm_base, prog.cfg.lm.size);
      }
      lr.dir_s += secs(b, Clock::now());
      for (const DirOp& d : dops) lr.dir_calls += d.kind == DirOp::Lookup ? 1 : 0;
      if (dmac != nullptr) {
        b = Clock::now();
        for (const DmaCmd& c : dcmd) {
          if (c.put)
            (void)dmac->put(c.now, c.lm, c.sm, c.size, c.tag);
          else
            (void)dmac->get(c.now, c.sm, c.lm, c.size, c.tag);
        }
        lr.dma_s += secs(b, Clock::now());
        for (const DmaCmd& c : dcmd) {
          lr.dma_lines += static_cast<double>((c.size + prog.cfg.hierarchy.l1d.line_size - 1) /
                                              prog.cfg.hierarchy.l1d.line_size);
          const auto before = bookings_of(twin.uncore());
          if (c.put)
            (void)dmac_twin->put(c.now, c.lm, c.sm, c.size, c.tag);
          else
            (void)dmac_twin->get(c.now, c.sm, c.lm, c.size, c.tag);
          record_bookings(before, twin.uncore(), slice_of(c.sm), c.now, books);
        }
      }
      if (noc) {
        // Time order, as the engine issues them.
        std::stable_sort(nreq.begin(), nreq.end(),
                         [](const NocReq& x, const NocReq& y) { return x.now < y.now; });
        const std::uint64_t hops0 = noc->total_hops();
        b = Clock::now();
        for (const NocReq& r : nreq) (void)noc->traverse(r.src, r.dst, r.now, r.flits);
        lr.noc_s += secs(b, Clock::now());
        lr.noc_calls += static_cast<double>(nreq.size());
        lr.noc_hops += static_cast<double>(noc->total_hops() - hops0);
      }
    }
    base += last_now + 1;
  }

  // Occupancy layer: the recorded grants, in issue order, each booked at
  // its own request cycle on a resource of its class and home slice (one
  // slice on a flat machine), with the machine's gaps.
  if (!books.empty()) {
    const std::size_t slices = noc ? noc->nodes() : 1;
    const Cycle gaps[kBookingKinds] = {prog.cfg.hierarchy.l2_gap, prog.cfg.hierarchy.l3_gap,
                                       prog.cfg.hierarchy.mem.gap, 1};
    std::vector<SharedResource> res;
    res.reserve(slices * kBookingKinds);
    for (std::size_t i = 0; i < slices; ++i)
      for (const Cycle gap : gaps) res.emplace_back("replay", gap);
    const auto b = Clock::now();
    for (const Booking& k : books) (void)res[k.slice * kBookingKinds + k.kind].book(k.now);
    lr.occ_s = secs(b, Clock::now());
    lr.occ_calls = static_cast<double>(books.size());
  }

  // Replay layer: the functional fast-forward over the point's batch.
  if (sampled) {
    auto* rs = dynamic_cast<ReplayableStream*>(prog.streams.front().get());
    if (rs != nullptr) {
      const std::shared_ptr<const ReplayBatch> batch = rs->replay_batch();
      if (batch && batch->iterations != 0) {
        System fresh(prog.cfg, 1);
        OooCore& core = fresh.core();
        prog.streams.front()->reset();
        core.begin_run(*prog.streams.front());
        const double cpi = rep.core.uops != 0 ? static_cast<double>(rep.core.cycles) /
                                                    static_cast<double>(rep.core.uops)
                                              : 1.0;
        const auto b = Clock::now();
        core.replay_functional(*batch, 0, batch->iterations, cpi);
        lr.replay_s = secs(b, Clock::now());
        lr.replay_uops = static_cast<double>(batch->uops_in_range(0, batch->iterations));
        (void)core.finish_run();
      }
    }
  }
  return lr;
}

// --------------------------------------------------------------- traced ----

struct Span {
  std::string name;
  double start_s, end_s;
  long parent;
  long point;
};

struct SpanLog {
  Clock::time_point origin = Clock::now();
  std::vector<Span> spans;
  long open(const std::string& name, long parent, long point) {
    const double t = secs(origin, Clock::now());
    spans.push_back({name, t, t, parent, point});
    return static_cast<long>(spans.size()) - 1;
  }
  void close(long id) { spans[static_cast<std::size_t>(id)].end_s = secs(origin, Clock::now()); }
  /// A child laid out from a measured duration (run_point's phase profile).
  void add(const std::string& name, double start_s, double dur_s, long parent, long point) {
    spans.push_back({name, start_s, start_s + dur_s, parent, point});
  }
  void write(const std::string& path) const {
    std::ofstream f(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\",\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%ld,\"point\":%ld}\n",
                    s.start_s, s.end_s, s.parent, s.point);
      std::string line = "{\"id\":" + std::to_string(i) + ",\"name\":\"";
      append_json_escaped(line, s.name);
      f << line << buf;
    }
  }
};

int cmd_traced(const SweepArgs& a) {
  guard_timing();
  const WorkloadDef& w = find_workload(a.workload);
  const EngineConfig engine = engine_for(w, false);
  SpanLog log;
  Counts counts;
  LayerReplay total;
  std::set<std::string> seen;
  double run_s = 0, point_s = 0;
  // Host seconds attributed to each layer: replay time of the layer's
  // share of the work.  On a sampled point the detailed layers saw only
  // the detailed fraction of the stream; the rest went through replay.
  double h_stream = 0, h_mem = 0, h_dir = 0, h_dma = 0, h_noc = 0, h_occ = 0, h_replay = 0;
  long point_id = 0;
  for (const char* name : w.experiments) {
    for (const SweepPoint& p : points_of(spec_named(name), w, a.seed)) {
      // Cross-experiment dedup, as the sweep's session cache does (it is
      // off when the engine alters results, as sampling does).
      if (!engine_alters_results(engine) && !seen.insert(p.canonical()).second) continue;
      const long pid = point_id++;
      const long top = log.open(p.label, -1, pid);
      const double t_run0 = secs(log.origin, Clock::now());
      const auto b = Clock::now();
      PointResult r = run_point(p, engine);
      const double pt = secs(b, Clock::now());
      const long ser = log.open("serialize", top, pid);
      const std::string bytes = point_json(r);
      log.close(ser);
      if (r.profile.measured) {
        double at = t_run0;
        for (const auto& [ph, d] :
             {std::pair<const char*, double>{"setup", r.profile.setup_seconds},
              {"codegen", r.profile.codegen_seconds},
              {"simulate", r.profile.simulate_seconds}}) {
          log.add(ph, at, d, top, pid);
          at += d;
        }
      }
      if (!r.ok) throw std::runtime_error("point failed: " + r.point.label + ": " + r.error);
      counts.add(r.report);
      run_s += r.profile.simulate_seconds;
      point_s += pt;
      const long rp = log.open("layer_replay", top, pid);
      const LayerReplay lr = replay_point(p, r.report, w.sampled);
      double at = log.spans[static_cast<std::size_t>(rp)].start_s;
      for (const auto& [ln, d] : {std::pair<const char*, double>{"compiler.stream", lr.stream_s},
                                  {"memory.access", lr.mem_s},
                                  {"coherence.lookup", lr.dir_s},
                                  {"lm.dma", lr.dma_s},
                                  {"noc.traverse", lr.noc_s},
                                  {"occupancy.book", lr.occ_s},
                                  {"replay.functional", lr.replay_s}}) {
        if (d > 0) log.add(ln, at, d, rp, pid);
        at += d;
      }
      log.close(rp);
      log.close(top);
      total.add(lr);
      const double detailed = 1.0 - r.report.sampled_fraction;
      h_stream += lr.stream_s * detailed;
      h_mem += lr.mem_s * detailed;
      h_dir += lr.dir_s * detailed;
      h_dma += lr.dma_s * detailed;
      h_noc += lr.noc_s * detailed;
      h_occ += lr.occ_s;
      if (lr.replay_uops > 0)
        h_replay += lr.replay_s / lr.replay_uops * r.report.sampled_fraction *
                    static_cast<double>(r.report.core.uops);
    }
  }
  if (!a.spans.empty()) log.write(a.spans);

  const auto per = [](double s, double n) { return n > 0 ? s / n * 1e9 : 0.0; };
  const auto share = [&](double s) { return run_s > 0 ? s / run_s : 0.0; };
  // The core's own time is what the child layers do not account for.
  const double core_self = run_s - (h_stream + h_mem + h_dir + h_dma + h_noc + h_replay);
  const double detailed_uops = counts.uops - counts.ff_uops;
  std::string o;
  kv(o, "workload", w.name);
  kv(o, "sim.run_s", run_s);
  kv(o, "trace.point_s", point_s);
  kv(o, "compiler.stream_ns_per_uop", per(total.stream_s, total.stream_uops));
  kv(o, "core.self_ns_per_uop", per(core_self, detailed_uops));
  kv(o, "memory.ns_per_access", per(total.mem_s, total.mem_calls));
  kv(o, "occupancy.ns_per_book", per(total.occ_s, total.occ_calls));
  kv(o, "noc.ns_per_hop", per(total.noc_s, total.noc_hops));
  kv(o, "coherence.ns_per_lookup", per(total.dir_s, total.dir_calls));
  kv(o, "lm.ns_per_dma_line", per(total.dma_s, total.dma_lines));
  kv(o, "replay.ns_per_uop", per(total.replay_s, total.replay_uops));
  kv(o, "core.share", share(core_self));
  kv(o, "compiler.share", share(h_stream));
  kv(o, "memory.share", share(h_mem));
  kv(o, "occupancy.share", share(h_occ));
  kv(o, "noc.share", share(h_noc));
  kv(o, "coherence.share", share(h_dir));
  kv(o, "lm.share", share(h_dma));
  kv(o, "replay.share", share(h_replay));
  counts.emit(o);
  std::printf("%s\n", close_obj(o).c_str());
  return 0;
}

// -------------------------------------------------------------- traffic ----

/// Relative tolerances of the approximate traffic rows.  Grants are
/// replayed on the point's own hierarchy state, so they track the report
/// closely; access and NoC message counts leave out traffic the replay
/// does not regenerate.
constexpr double kApproxTolerance = 0.35;
constexpr double kBookingTolerance = 0.05;

/// One replayed point: each replay driver's call count beside the RunReport
/// count of the same traffic.  Returns false when any pair is outside its
/// row's relative tolerance.
bool check_traffic(const char* exp, const char* match_cores, double scale) {
  const ExperimentSpec& spec = spec_named(exp);
  for (SweepPoint p : expand(spec, scale)) {
    if (p.knob("cores") != match_cores || p.machine != "hybrid_coherent") continue;
    const PointResult r = run_point(p, EngineConfig{});
    if (!r.ok) throw std::runtime_error("traffic point failed: " + r.error);
    const LayerReplay lr = replay_point(p, r.report, false);
    const RunReport& rep = r.report;
    struct Row {
      const char* what;
      double replay, report, tol;
    };
    // Exact rows replay the point's own events one for one.  Approximate
    // rows compare replayed traffic with report counters that also include
    // traffic the replay does not regenerate (DMA-side LM writes, sharer
    // invalidation fan-out, other tiles' contention on a shared hierarchy).
    const double exact = 0.0;
    const double approx = kApproxTolerance;
    const double booking = kBookingTolerance;
    const Row rows[] = {
        {"stream uops vs core.uops", lr.stream_uops, static_cast<double>(rep.core.uops), exact},
        {"access+lm calls vs loads+stores", lr.mem_calls + lr.lm_calls,
         static_cast<double>(rep.core.loads + rep.core.stores), exact},
        {"lookup calls vs dir_lookups", lr.dir_calls,
         static_cast<double>(rep.activity.dir_lookups), exact},
        {"dma lines vs dma_lines", lr.dma_lines, static_cast<double>(rep.activity.dma_lines),
         exact},
        {"access+lm calls vs l1_accesses+lm_accesses", lr.mem_calls + lr.lm_calls,
         static_cast<double>(rep.l1_accesses + rep.lm_accesses), approx},
        {"book calls vs port+dram+bus requests", lr.occ_calls,
         static_cast<double>(rep.l2_port.requests + rep.l3_port.requests +
                             rep.dram.requests + rep.dma_bus.requests),
         booking},
        {"traverse calls vs noc_msgs", lr.noc_calls, static_cast<double>(rep.noc_msgs), approx},
    };
    bool ok = true;
    std::printf("%s (%s cores): %s\n", exp, match_cores, p.label.c_str());
    for (const Row& row : rows) {
      const double denom = std::max(row.report, 1.0);
      const double dev = std::fabs(row.replay - row.report) / denom;
      const bool in = dev <= row.tol;
      ok = ok && in;
      std::printf("  %-44s replay %12.0f  report %12.0f  dev %6.2f%%  %s\n", row.what,
                  row.replay, row.report, 100.0 * dev, in ? "ok" : "OUT");
    }
    return ok;
  }
  throw std::runtime_error(std::string("no ") + match_cores + "-core point in " + exp);
}

int cmd_traffic() {
  std::printf("tolerance (relative deviation): exact rows 0%%, book calls %.0f%%, "
              "other approximate rows %.0f%%\n",
              100.0 * kBookingTolerance, 100.0 * kApproxTolerance);
  const bool flat = check_traffic("fig9", "1", 0.25);
  const bool mesh = check_traffic("scaling_mesh", "16", 0.25);
  std::printf("%s\n", flat && mesh ? "traffic check: ok" : "traffic check: FAILED");
  return flat && mesh ? 0 : 1;
}

int cmd_info() {
  std::string o;
  kv(o, "build_type", std::string(HM_PERFBENCH_BUILD_TYPE));
  kv(o, "native_arch", std::string(HM_PERFBENCH_NATIVE_ARCH));
  kv(o, "compiler", std::string(HM_PERFBENCH_COMPILER));
  kv(o, "release_guard", std::string(build_is_release() ? "ok" : "refused"));
  kv(o, "engine_version", static_cast<double>(kEngineVersion));
  std::printf("%s\n", close_obj(o).c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: hm_perfbench info | traffic\n"
               "       hm_perfbench sweep --workload W --seed N --jobs J --cache-dir D\n"
               "                    --journal-dir D [--detailed] [--replica]\n"
               "                    [--points-out FILE]\n"
               "       hm_perfbench traced --workload W --seed N [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const double start_s = process_start_seconds();
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  SweepArgs a;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") a.workload = val();
      else if (arg == "--seed") a.seed = std::stoull(val());
      else if (arg == "--jobs") a.jobs = static_cast<unsigned>(std::stoul(val()));
      else if (arg == "--cache-dir") a.cache_dir = val();
      else if (arg == "--journal-dir") a.journal_dir = val();
      else if (arg == "--points-out") a.points_out = val();
      else if (arg == "--spans") a.spans = val();
      else if (arg == "--detailed") a.detailed = true;
      else if (arg == "--replica") a.replica = true;
      else return usage();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return usage();
    }
  }
  try {
    if (cmd == "info") return cmd_info();
    if (cmd == "sweep") return cmd_sweep(a, start_s);
    if (cmd == "traced") return cmd_traced(a);
    if (cmd == "traffic") return cmd_traffic();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hm_perfbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
