#!/usr/bin/env python3
"""Same-host sweep benchmark for the hybrid-memory simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_flat --seed 42 --seconds 25 --trace 0

Builds the simulator library and perfbench/hm_perfbench.cpp in Release mode
under .bench_build/, then measures one workload closed-loop: repeated
pairs of sweep processes, one at --jobs 1 and one at --jobs nproc, each on
fresh, empty memo-cache and journal directories, until --seconds have
passed (at least three pairs).  Figures are medians over the pairs.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(one plain pair for the driver/sim figures, then a traced run that replays
every point's own input streams through each layer's public functions).
The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Every workload, metric, unit and direction is listed in BENCHMARK.json and
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "runs")
BINARY = os.path.join(BUILD, "hm_perfbench")

WORKLOADS = ("paper_flat", "mesh_scaling", "irregular_mix", "paper_sampled")
MIN_PAIRS = 3
PROCESS_TIMEOUT_S = 120

# The paper's reported values (Alvarez et al., SC'12) the fidelity gaps are
# measured against.  perfbench/test_perfbench.py checks them against the
# "Paper:" lines of tests/golden/fig{7,8,9,10}.txt.
PAPER = {
    "fig7_wr100": 1.28,        # Fig. 7: WR overhead at 100% guarded
    "fig8_time": 1.0026,       # Fig. 8: average execution-time overhead
    "fig8_energy": 1.0203,     # Fig. 8: average energy overhead
    "fig9_speedup": 1.38,      # Fig. 9: average speedup over cache-based
    "fig10_saving_pct": 27.0,  # Fig. 10: average energy saving, percent
}

# Traced-run acceptance on paper_flat and mesh_scaling.  The child layers'
# replayed host time may exceed sim.run_s by at most SHARE_TOLERANCE
# (core.share >= -SHARE_TOLERANCE).  It must also reach at least half the
# non-core share the ROADMAP gprof runs measured (flat: stream ~19% plus
# memory ~21%, rounded to 45% with the directory and DMA; mesh: NoC ~35%),
# so a replay that is far too cheap fails as well.
SHARE_TOLERANCE = 0.10
GPROF_CHILD_SHARE = {"paper_flat": 0.45, "mesh_scaling": 0.35}

UNITS = {}  # metric name -> unit, filled from BENCHMARK.json


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("perfbench: " + msg)
    sys.exit(code)


def load_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for m in bench["end_to_end"] + bench["per_layer"]:
        UNITS[m["name"]] = m["unit"]
    return bench


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("simulator sources (CMakeLists.txt, src/) not found next to perfbench/", 2)
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def fingerprint():
    info = json.loads(subprocess.run([BINARY, "info"], capture_output=True, text=True,
                                     check=True).stdout.strip().splitlines()[-1])
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "none"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            sha = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    info.update({"nproc": os.cpu_count(), "cpu_model": cpu, "git_sha": sha})
    if info.get("release_guard") != "ok":
        fail("refusing to time a non-Release build: %s" % info)
    return info


class RunDir:
    """Fresh per-run scratch directory (caches, journals, point lists)."""

    def __init__(self):
        self.path = os.path.join(RUNS, "%d-%d" % (os.getpid(), time.time_ns()))
        os.makedirs(self.path)
        self.n = 0

    def fresh(self, name):
        self.n += 1
        return os.path.join(self.path, "%03d-%s" % (self.n, name))

    def remove(self):
        shutil.rmtree(self.path, ignore_errors=True)


def run_binary(args, timeout=PROCESS_TIMEOUT_S):
    start = time.perf_counter()
    r = subprocess.run([BINARY] + args, capture_output=True, text=True, timeout=timeout)
    wall = time.perf_counter() - start
    if r.returncode != 0:
        fail("hm_perfbench %s failed (%d): %s" % (" ".join(args), r.returncode,
                                                   r.stderr.strip()[-2000:]))
    return json.loads(r.stdout.strip().splitlines()[-1]), wall


def sweep(rd, workload, seed, jobs, detailed=False):
    """One cold sweep process; returns (totals, process wall, per-point rows)."""
    points = rd.fresh("points.jsonl")
    args = ["sweep", "--workload", workload, "--seed", str(seed), "--jobs", str(jobs),
            "--cache-dir", rd.fresh("cache"), "--journal-dir", rd.fresh("journal"),
            "--points-out", points]
    if detailed:
        args.append("--detailed")
    out, wall = run_binary(args)
    rows = {}
    with open(points) as f:
        for line in f:
            row = json.loads(line)
            rows[row["key"]] = row
    return out, wall, rows


def point_failures(serial_rows, jobs_rows, reference_rows):
    """Points whose serial and jobs-N bytes differ, or (sampled) whose true
    cycle error exceeds their reported bound."""
    bad = set()
    for key, row in serial_rows.items():
        other = jobs_rows.get(key)
        if other is None or other["hash"] != row["hash"]:
            bad.add(key)
        if reference_rows is not None:
            ref = reference_rows.get(key)
            if ref is None:
                bad.add(key)
                continue
            true_err = abs(row["cycles"] - ref["cycles"]) / max(ref["cycles"], 1)
            if true_err > row["err_bound"]:
                bad.add(key)
    bad |= set(jobs_rows) - set(serial_rows)
    return bad


def max_true_error_pct(sampled_rows, reference_rows):
    return 100.0 * max(abs(r["cycles"] - reference_rows[k]["cycles"]) /
                       max(reference_rows[k]["cycles"], 1)
                       for k, r in sampled_rows.items())


def fidelity_probe(rd, nproc):
    """Paper gaps and the sampling error at the paper seed.  Deterministic
    for a given binary, so computed once per build and kept beside it."""
    with open(BINARY, "rb") as f:
        key = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(BUILD, "fidelity-%s.json" % key)
    if os.path.isfile(path):
        with open(path) as f:
            return json.load(f)
    flat, _, _ = sweep(rd, "paper_flat", 42, nproc)
    sampled, _, srows = sweep(rd, "paper_sampled", 42, nproc)
    _, _, rrows = sweep(rd, "paper_sampled", 42, nproc, detailed=True)
    if flat["failed"] or sampled["failed"]:
        fail("fidelity probe had failed points")
    probe = {
        "fig7_wr_gap_pct": 100.0 * abs(flat["fig7_wr100"] - PAPER["fig7_wr100"]) /
        PAPER["fig7_wr100"],
        "fig8_time_gap_pct": 100.0 * abs(flat["fig8_time"] - PAPER["fig8_time"]) /
        PAPER["fig8_time"],
        "fig8_energy_gap_pct": 100.0 * abs(flat["fig8_energy"] - PAPER["fig8_energy"]) /
        PAPER["fig8_energy"],
        "fig9_speedup_gap_pct": 100.0 * abs(flat["fig9_speedup"] - PAPER["fig9_speedup"]) /
        PAPER["fig9_speedup"],
        "fig10_saving_gap_pp": abs(flat["fig10_saving_pct"] - PAPER["fig10_saving_pct"]),
        "sample_true_err_pct": max_true_error_pct(srows, rrows),
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(probe, f)
    os.replace(tmp, path)
    return probe


def metric(name, value):
    return {"value": value, "unit": UNITS[name]}


def measure_pairs(rd, workload, seed, seconds, nproc, min_pairs):
    pairs = []
    start = time.perf_counter()
    while len(pairs) < min_pairs or time.perf_counter() - start < seconds:
        serial = sweep(rd, workload, seed, 1)
        jobs = sweep(rd, workload, seed, nproc)
        pairs.append((serial, jobs))
    return pairs


def check_pairs(pairs, reference_rows):
    """attempted, failed, digests: every point of every process counts, and
    a failing point counts once per process however many checks it fails."""
    attempted = 0
    failed = set()  # (process number, point key)
    digests = set()
    for n, ((s_out, _, s_rows), (j_out, _, j_rows)) in enumerate(pairs):
        procs = ((2 * n, s_rows), (2 * n + 1, j_rows))
        bad = point_failures(s_rows, j_rows, reference_rows)
        for proc, rows in procs:
            failed |= {(proc, key) for key, row in rows.items()
                       if not row["ok"] or key in bad}
        attempted += int(s_out["attempted"]) + int(j_out["attempted"])
        digests.add(s_out["digest"])
        digests.add(j_out["digest"])
    return attempted, len(failed), digests


def end_to_end(args, rd, nproc):
    reference = None
    if args.workload == "paper_sampled":
        # The detailed reference runs outside the timed region.
        _, _, reference = sweep(rd, args.workload, args.seed, nproc, detailed=True)
    pairs = measure_pairs(rd, args.workload, args.seed, args.seconds, nproc, MIN_PAIRS)
    attempted, failed, digests = check_pairs(pairs, reference)
    probe = fidelity_probe(rd, nproc)
    med = statistics.median
    serial = [p[0] for p in pairs]
    jobs = [p[1] for p in pairs]
    metrics = {
        "wall_s": metric("wall_s", med(w for _, w, _ in serial)),
        "wall_jobs_s": metric("wall_jobs_s", med(w for _, w, _ in jobs)),
        "sim_muops_per_s": metric("sim_muops_per_s",
                                  med(o["uops"] / w / 1e6 for o, w, _ in serial)),
        "setup_s": metric("setup_s", med(o["start_s"] + o["setup_s"] + o["codegen_s"]
                                         for o, _, _ in serial)),
        "peak_rss_mb": metric("peak_rss_mb", med(o["peak_rss_kb"] / 1024.0
                                                 for o, _, _ in serial)),
        "ok_frac": metric("ok_frac", (attempted - failed) / attempted),
    }
    for name, value in probe.items():
        metrics[name] = metric(name, value)
    first = serial[0][0]
    log("%s: %d pairs, points/process %d (executed %d), digest %s" % (
        args.workload, len(pairs), first["attempted"], first["executed"],
        ",".join(sorted(digests))))
    log("serial walls %s; jobs walls %s" % (
        " ".join("%.3f" % w for _, w, _ in serial), " ".join("%.3f" % w for _, w, _ in jobs)))
    if args.workload == "paper_flat":
        log("paper_flat own-seed figures: fig7 WR %.3f, fig8 %.4f/%.4f, fig9 %.2fx, "
            "fig10 %.1f%%" % (first["fig7_wr100"], first["fig8_time"], first["fig8_energy"],
                              first["fig9_speedup"], first["fig10_saving_pct"]))
    print(json.dumps({"digest": sorted(digests), "workload": args.workload,
                      "seed": args.seed}))
    correct = failed == 0 and len(digests) == 1
    return correct, attempted, failed, metrics


def per_layer(args, rd, nproc, bench):
    (s_out, s_wall, s_rows), (j_out, j_wall, j_rows) = measure_pairs(
        rd, args.workload, args.seed, 0, nproc, 1)[0]
    reference = None
    if args.workload == "paper_sampled":
        _, _, reference = sweep(rd, args.workload, args.seed, nproc, detailed=True)
    attempted, failed, digests = check_pairs([((s_out, s_wall, s_rows),
                                               (j_out, j_wall, j_rows))], reference)
    spans = os.path.join(RUNS, "spans-%s-%d.jsonl" % (args.workload, args.seed))
    traced, traced_wall = run_binary(["traced", "--workload", args.workload, "--seed",
                                      str(args.seed), "--spans", spans],
                                     timeout=170)
    values = dict(traced)
    for key in list(s_out):
        if "." in key:
            values[key] = s_out[key]
    run_s = s_out["run_s"]
    uops = s_out["uops"]
    values.update({
        "driver.overhead_s": s_out["wall_s"] - s_out["point_s_sum"],
        "driver.cache_hits": s_out["cache_hits"],
        "driver.point_max_s": s_out["point_max_s"],
        "driver.parallel_eff": j_out["point_s_sum"] / (nproc * j_wall),
        "sim.setup_s": s_out["setup_s"],
        "sim.run_s": run_s,
        "sim.ns_per_uop": run_s / uops * 1e9 if uops else 0.0,
        "sim.ns_per_cycle": run_s / s_out["cycles"] * 1e9 if s_out["cycles"] else 0.0,
        "compiler.codegen_s": s_out["codegen_s"],
        "compiler.uops": uops,
        "trace.overhead_ratio": traced["trace.point_s"] / s_out["point_s_sum"],
    })
    correct = failed == 0 and len(digests) == 1
    # Layer-split acceptance.
    if args.workload in GPROF_CHILD_SHARE:
        children = 1.0 - traced["core.share"]
        floor = 0.5 * GPROF_CHILD_SHARE[args.workload]
        if children > 1.0 + SHARE_TOLERANCE:
            log("layer shares exceed sim.run_s by %.1f%% (tolerance %.0f%%)" % (
                100 * (children - 1.0), 100 * SHARE_TOLERANCE))
            correct = False
        if children < floor:
            log("layer shares cover %.1f%% of sim.run_s, below the %.1f%% floor" % (
                100 * children, 100 * floor))
            correct = False
    if args.workload == "paper_flat" and (traced["noc.ns_per_hop"] or traced["noc.share"]):
        log("noc host time is not zero on paper_flat")
        correct = False
    if args.workload != "paper_sampled" and (traced["replay.ns_per_uop"] or
                                              traced["replay.share"]):
        log("replay host time is not zero off paper_sampled")
        correct = False
    log("layer split of sim.run_s %.3f s on %s:" % (traced["sim.run_s"], args.workload))
    for layer in ("core", "compiler", "memory", "occupancy", "noc", "coherence", "lm",
                  "replay"):
        log("  %-10s %6.1f%%" % (layer, 100 * traced[layer + ".share"]))
    log("  (occupancy is nested inside memory and lm; core is the remainder)")
    log("traced run wall %.2f s, spans in %s" % (traced_wall, spans))
    metrics = {}
    for m in bench["per_layer"]:
        metrics[m["name"]] = metric(m["name"], float(values[m["name"]]))
    return correct, attempted, failed, metrics


def print_table(workload, metrics):
    log("%s:" % workload)
    for name, m in metrics.items():
        log("  %-28s %16.6g %s" % (name, m["value"], m["unit"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all four in turn")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = load_units() if os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")) else None
    build()
    if bench is None:
        fail("BENCHMARK.json not found at the repository root", 2)
    host = fingerprint()
    nproc = host["nproc"]
    print(json.dumps({"host": host}))
    results = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        one = argparse.Namespace(**vars(args))
        one.workload = workload
        rd = RunDir()
        try:
            correct, attempted, failed, metrics = (
                per_layer(one, rd, nproc, bench) if args.trace else end_to_end(one, rd, nproc))
        finally:
            rd.remove()
        print_table(workload, metrics)
        results.append((workload, {"correct": bool(correct), "attempted": attempted,
                                   "failed": failed, "metrics": metrics}))
    if len(results) == 1:
        print(json.dumps(results[0][1]))
        return
    # All workloads: one result line each, then the combined line with
    # metrics named <workload>/<metric>.
    for workload, result in results:
        print(json.dumps(dict(result, workload=workload)))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {"%s/%s" % (w, k): v for w, r in results for k, v in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
