#!/usr/bin/env python3
"""perfbench: the repository's end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `perfbench_runner` from source on first use, then runs passes of the
workload, each in a fresh process, until S seconds are spent. With
`--trace 0` every pass is untraced and the end-to-end metrics are printed;
with `--trace 1` untraced and traced passes alternate and the per-layer
metrics are printed. Every pass's outputs are checked: checksums agree
across configs and with the recorded golden values, and every run's
simulated digest repeats exactly in every pass, traced or not.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

    python3 perfbench/run.py --record-golden   # rewrite golden.json
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
RUNNER = BUILD_DIR / "perfbench_runner"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("qmcpack_zc", "qmcpack_copy", "spec_mem", "service_mix")
MIN_PASSES = 3            # per kind of pass, whatever --seconds says
MAX_MEASURE_S = 150.0     # never start a pass after this much measuring
PASS_TIMEOUT_S = 170.0
TABLE2_TOL = 0.10         # largest accepted Table II ratio error
GOLDEN_SEEDS = range(32)  # seeds whose seed-dependent checksums are recorded

# Per-layer metrics that are host times: medians over the untraced passes.
SPAN_METRICS = {
    "sim.run_s": "sim.run",
    "check.analyze_s": "check.analyze",
    "service.run_s": "service.run",
    "workloads.make_s": "workloads.make",
    "core.stack_build_s": "core.stack_build",
    "workloads.setup_threads_s": "workloads.setup_threads",
    "workloads.finalize_s": "workloads.finalize",
}
UNTRACED_LAYERS = ("proc.user_s", "proc.sys_s", "proc.minflt",
                   "proc.nivcsw", "race.overhead_x")
# Host ns per layer op, each reported where that op carries the work:
# name -> (workloads, op-count layers, ops per count unit).
RATIOS = {
    "sim.ns_per_event": (("qmcpack_zc",), ("sim.events",), 1.0),
    "mem.ns_per_tlb_access": (("spec_mem",),
                              ("mem.tlb_hits", "mem.tlb_misses"), 1.0),
    "hsa.ns_per_copied_kb": (("qmcpack_copy", "service_mix"),
                             ("hsa.copy_bytes",), 1.0 / 1024.0),
}
DERIVED = set(SPAN_METRICS) | set(UNTRACED_LAYERS) | set(RATIOS) | {
    "trace.overhead_s", "bench.passes"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(1)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no apuzc sources at {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", "4"],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_pass(workload, seed, traced, trace_out=None):
    """One pass in a fresh process; None if the process failed."""
    cmd = [str(RUNNER), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: pass timed out: {' '.join(cmd)}")
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        log(f"perfbench: pass exited {proc.returncode}: {proc.stderr.strip()}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def golden_for(golden, workload, seed):
    """Recorded group -> checksum map for (workload, seed), or None."""
    entry = golden.get(workload, {})
    return entry.get("*", entry.get(str(seed)))


def check_passes(passes, workload, seed, golden):
    """Count attempted and failed runs; collect what went wrong.

    A run fails if it threw or failed its own check, if its checksum differs
    from its group's or from the golden value, or if its checksum or digest
    differs from the first pass's (traced and untraced passes alike).
    """
    expected = golden_for(golden, workload, seed)
    reference = None
    attempted = failed = 0
    problems = []
    for p in passes:
        if p is None:
            attempted += max(1, len(reference or {}))
            failed += max(1, len(reference or {}))
            problems.append("a pass process failed")
            continue
        groups = {}
        for r in p["runs"]:
            groups.setdefault(r["group"], r["checksum"])
        if reference is None:
            reference = {r["label"]: r for r in p["runs"]}
        for r in p["runs"]:
            attempted += 1
            why = r["error"]
            ref = reference.get(r["label"])
            if not why and r["checksum"] != groups[r["group"]]:
                why = f"checksum differs from other configs of {r['group']}"
            if not why and expected is not None and \
                    r["checksum"] != expected.get(r["group"]):
                why = f"checksum {r['checksum']!r} differs from golden"
            if not why and (ref is None or r["checksum"] != ref["checksum"] or
                            r["sim_digest"] != ref["sim_digest"]):
                why = "simulated outputs differ between passes"
            if why:
                failed += 1
                problems.append(f"{r['label']}: {why}")
    return attempted, failed, problems


def median(values):
    return float(statistics.median(values)) if values else 0.0


def measure(workload, seed, seconds, traced):
    """Run passes for about `seconds`; untraced and traced alternate when
    `traced`. Returns (untraced passes, traced passes)."""
    OUT_DIR.mkdir(exist_ok=True)
    trace_out = OUT_DIR / f"{workload}-seed{seed}.trace.json"
    plain, with_hooks = [], []
    start = time.monotonic()
    longest = 0.0
    while True:
        want_traced = traced and len(with_hooks) < len(plain)
        t0 = time.monotonic()
        result = run_pass(workload, seed, want_traced,
                          trace_out if want_traced else None)
        longest = max(longest, time.monotonic() - t0)
        (with_hooks if want_traced else plain).append(result)
        if result is None:
            break
        elapsed = time.monotonic() - start
        enough = len(plain) >= MIN_PASSES and \
            (not traced or len(with_hooks) >= MIN_PASSES)
        if elapsed > MAX_MEASURE_S or \
                (enough and elapsed + longest > seconds):
            break
    return plain, with_hooks


def end_to_end(passes):
    ok = [p for p in passes if p is not None]
    return {
        "host_s": median([p["host_s"] for p in ok]),
        "setup_s": median([p["setup_s"] for p in ok]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in ok]),
        "sim_ms": float(ok[0]["sim_ms"]) if ok else 0.0,
    }


def per_layer(workload, plain, with_hooks, names):
    """Deterministic counts from the traced passes, host times as medians
    over the untraced passes. Returns (metrics, problems)."""
    ok_plain = [p for p in plain if p is not None]
    ok_traced = [p for p in with_hooks if p is not None]
    problems = []
    counts = {}
    if ok_traced:
        counts = {k: v for k, v in ok_traced[0]["layers"].items()
                  if k not in DERIVED}
        for p in ok_traced[1:]:
            again = {k: v for k, v in p["layers"].items() if k not in DERIVED}
            if again != counts:
                problems.append("per-layer counts differ between traced passes")
    out = {name: float(counts.get(name, 0.0)) for name in names}
    for name, span in SPAN_METRICS.items():
        out[name] = median([p["spans"].get(span, 0.0) for p in ok_plain])
    for name in UNTRACED_LAYERS:
        out[name] = median([p["layers"].get(name, 0.0) for p in ok_plain])
    run_s = out["sim.run_s"] + out["service.run_s"]
    for name, (where, ops, scale) in RATIOS.items():
        total = sum(ok_plain[0]["layers"].get(k, 0.0) for k in ops) * scale \
            if ok_plain else 0.0
        out[name] = run_s * 1e9 / total if workload in where and total else 0.0
    out["trace.overhead_s"] = median([p["host_s"] for p in ok_traced]) - \
        median([p["host_s"] for p in ok_plain])
    out["bench.passes"] = float(len(ok_plain))
    missing = (set(out) | set(counts)) - set(names)
    if missing:
        problems.append(f"metrics missing from BENCHMARK.json: {missing}")
    return out, problems


def report(workload, seed, plain, with_hooks, metrics):
    """Human-readable summary on stdout, ahead of the JSON line."""
    ok = [p for p in plain + with_hooks if p is not None]
    print(f"perfbench {workload} seed={seed}: {len(plain)} untraced + "
          f"{len(with_hooks)} traced passes")
    if ok:
        print(f"  sim_digest={ok[0]['sim_digest']} sim_ms={ok[0]['sim_ms']}")
        for r in ok[0]["runs"]:
            print(f"  run {r['label']:<18} checksum={r['checksum']!r} "
                  f"sim_ms={r['sim_ms']} digest={r['sim_digest']}")
        selfs = {}
        for p in plain:
            for k, v in (p or {}).get("self_s", {}).items():
                selfs.setdefault(k, []).append(v)
        print("  host self time per span (median over untraced passes):")
        for k, v in sorted(selfs.items(), key=lambda kv: -median(kv[1])):
            if median(v) > 0:
                print(f"    {k:<28} {median(v):.6f} s")
    for k, v in metrics.items():
        print(f"  {k} = {v}")
    if with_hooks:
        print(f"  chrome trace: {OUT_DIR / f'{workload}-seed{seed}.trace.json'}")


def record_golden():
    """Record golden checksums; a workload whose checksums do not depend on
    the seed is recorded once under "*" after checking seeds 1 and 7."""
    golden = {}
    for workload in WORKLOADS:
        seeds = [1, 7] if workload != "service_mix" else list(GOLDEN_SEEDS)
        per_seed = {}
        for seed in seeds:
            p = run_pass(workload, seed, traced=False)
            if p is None or any(r["error"] for r in p["runs"]):
                fail(f"{workload} seed {seed} failed; nothing recorded")
            groups = {}
            for r in p["runs"]:
                if groups.setdefault(r["group"], r["checksum"]) != r["checksum"]:
                    fail(f"{workload} seed {seed}: configs disagree")
            per_seed[str(seed)] = groups
            log(f"{workload} seed {seed}: {groups}")
        values = list(per_seed.values())
        if workload != "service_mix":
            if any(v != values[0] for v in values):
                fail(f"{workload}: checksums depend on the seed")
            golden[workload] = {"*": values[0]}
        else:
            golden[workload] = per_seed
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    log(f"wrote {GOLDEN}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()

    build()
    if args.record_golden:
        record_golden()
        return
    if args.workload is None:
        parser.error("--workload is required")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    bench = spec()

    plain, with_hooks = measure(args.workload, args.seed, args.seconds,
                                traced=bool(args.trace))
    attempted, failed, problems = check_passes(
        plain + with_hooks, args.workload, args.seed, golden)
    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        values, more = per_layer(args.workload, plain, with_hooks, names)
        problems += more
        if values.get("paper.table2_err", 0.0) > TABLE2_TOL:
            problems.append(f"Table II error {values['paper.table2_err']:.3f}"
                            f" exceeds {TABLE2_TOL}")
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        values = end_to_end(plain)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    report(args.workload, args.seed, plain, with_hooks, values)
    for p in problems:
        log("perfbench: FAIL " + p)
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
