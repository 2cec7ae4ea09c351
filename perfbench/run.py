#!/usr/bin/env python3
"""Host-time benchmark of the simulator on three paper-scale Montage cells.

Usage (from the repository root):

    python3 perfbench/run.py --workload montage-nfs4 --seed 42 --seconds 30 --trace 0

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), then:

--trace 0  repeats timed workload runs, one process each, until --seconds
           have passed (at least MIN_REPS); each process first times three
           set-ups. Then runs the recomposed run once, checks every output,
           and reports the end-to-end metrics as medians.
--trace 1  runs the traced pass once (rounds of timed passes within
           --seconds) and reports the per-layer metrics, with the layer
           shares of the traced Off-level run.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("montage-nfs4", "montage-pvfs4", "montage-nufa8-export")
MIN_REPS = 3
PAPER_TASKS = 10429
BUILD_TIMEOUT_S = 840
# Every measurement after the build must end within this many seconds.
RUN_DEADLINE_S = 170

# Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    "storage.plan_s": ("s", "lower"),
    "storage.calls": ("count", "lower"),
    "storage.ns_per_call": ("ns", "lower"),
    "storage.legs": ("count", "lower"),
    "storage.cache_hit_ratio": ("ratio", "higher"),
    "solver.replay_s": ("s", "lower"),
    "solver.flows": ("count", "lower"),
    "solver.ns_per_flow": ("ns", "lower"),
    "solver.path_len_mean": ("count", "lower"),
    "solver.same_instant_frac": ("ratio", "higher"),
    "solver.replay_mismatches": ("count", "lower"),
    "loop.residual_s": ("s", "lower"),
    "loop.events": ("count", "lower"),
    "loop.ns_per_event": ("ns", "lower"),
    "obs.digest_ratio": ("ratio", "lower"),
    "obs.full_ratio": ("ratio", "lower"),
    "obs.events_recorded": ("count", "lower"),
    "export.otlp_trace_s": ("s", "lower"),
    "export.otlp_metrics_s": ("s", "lower"),
    "export.chrome_s": ("s", "lower"),
    "export.folded_s": ("s", "lower"),
    "export.metrics_csv_s": ("s", "lower"),
    "export.mb": ("MB", "lower"),
    "setup.wfgen_s": ("s", "lower"),
    "setup.provision_s": ("s", "lower"),
    "setup.storage_world_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

# Outputs compared between runs: everything simulated. Digests and export
# bytes are compared within one invocation only; the pinned references
# hold the figure outputs, which must stay bit-identical across commits.
SUMMARY_KEYS = ("makespan_bits", "tasks", "events", "op_stats", "billing", "digest")
PINNED_KEYS = ("makespan_bits", "tasks", "op_stats", "billing",
               "cost_per_hour_bits", "cost_per_second_bits")


def log(msg):
    print(msg, flush=True)


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: build failed (exit {proc.returncode})")
    return os.path.join(target, "release", "perfbench")


def call(binary, deadline, *args):
    """Run one perfbench measurement; its JSON line, or an error string."""
    try:
        proc = subprocess.run([binary, *args], capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()), check=False)
    except subprocess.TimeoutExpired:
        return None, f"{args[0]} timed out"
    if proc.returncode != 0:
        return None, proc.stderr.strip() or f"{args[0]} exited {proc.returncode}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, f"{args[0]} printed no JSON"


def load_reference(workload, seed):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        return json.load(f).get(workload, {}).get(str(seed))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def outputs_of(rep):
    """The simulated outputs of a timed run, host times stripped."""
    out = {k: rep[k] for k in SUMMARY_KEYS}
    out["cost_per_hour_bits"] = rep["cost_per_hour_bits"]
    out["cost_per_second_bits"] = rep["cost_per_second_bits"]
    out["exports"] = [(e["name"], e["bytes"], e["hash"]) for e in rep["exports"]]
    return out


def pinned_problems(outputs, ref):
    return [f"{k} {outputs.get(k)} != pinned {ref[k]}"
            for k in PINNED_KEYS if k in ref and k in outputs and outputs[k] != ref[k]]


def timed(binary, deadline, args):
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    reps, errors = [], []
    problems = []
    started = time.monotonic()
    while time.monotonic() < deadline and (
            len(reps) + len(errors) < MIN_REPS or time.monotonic() - started < args.seconds):
        rep, err = call(binary, deadline, "rep", *common)
        if err:
            errors.append(err)
            log(f"run failed: {err}")
        else:
            reps.append(rep)
    measured = time.monotonic() - started

    verify, err = call(binary, deadline, "verify", *common)
    if err:
        errors.append(err)
        log(f"recomposed run failed: {err}")

    checks = ["run completes every task (%d expected at paper scale)" % PAPER_TASKS]
    failed = len(errors)
    first = outputs_of(reps[0]) if reps else None
    ref = load_reference(args.workload, args.seed)
    checks.append("pinned reference for seed %d" % args.seed if ref
                  else "no pinned reference for seed %d: determinism and recomposition only"
                  % args.seed)
    checks.append("all %d runs agree on every output%s" % (
        len(reps), ", digest and export hashes included" if first and first["digest"] else ""))
    checks.append("recomposed run equals run_workflow")
    for i, rep in enumerate(reps):
        outs = outputs_of(rep)
        bad = []
        if outs["tasks"] != PAPER_TASKS:
            bad.append(f"tasks {outs['tasks']}")
        if outs != first:
            bad.append("outputs differ from run 1")
        if ref:
            bad += pinned_problems(outs, ref)
        if bad:
            failed += 1
            problems.append(f"run {i + 1}: " + "; ".join(bad))
    if verify and first:
        diff = [k for k in SUMMARY_KEYS if verify[k] != first[k]]
        if diff:
            failed += 1
            problems.append("recomposed run differs from run_workflow in " + ", ".join(diff))

    attempted = len(reps) + len(errors) + (1 if verify else 0)
    walls = [r["wall_s"] for r in reps]
    rss = [r["peak_rss_mb"] for r in reps]
    setups = [s for r in reps for s in r["setup_s"]]
    log(f"workload {args.workload}, seed {args.seed}: {len(reps)} timed runs in {measured:.1f} s")
    for name, vals in (("wall_s", walls), ("peak_rss_mb", rss), ("setup_s", setups)):
        if vals:
            q1, q3 = quartiles(vals)
            log(f"  {name:<12} median {statistics.median(vals):.6g}  "
                f"q1 {q1:.6g}  q3 {q3:.6g}  n {len(vals)}")
    if first:
        log(f"  makespan {first['makespan_bits']} ({reps[0]['makespan_s']} s simulated), "
            f"digest {first['digest']}")
    log("checks: " + "; ".join(checks))
    for p in problems:
        log("CHECK FAILED: " + p)

    correct = not problems and not errors and bool(reps) and bool(setups)
    metrics = {}
    if walls:
        metrics["wall_s"] = {"value": statistics.median(walls), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": statistics.median(rss), "unit": "MB"}
    if setups:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return correct, attempted, failed, metrics


def traced(binary, deadline, args):
    out, err = call(binary, deadline, "trace", "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds))
    if err:
        log(f"traced run failed: {err}")
        return False, 1, 1, {}
    m = out["metrics"]
    problems = list(out["failures"])
    ref = load_reference(args.workload, args.seed)
    if ref:
        problems += ["traced run: " + p for p in pinned_problems(out["summary"], ref)]
    if out["summary"]["tasks"] != PAPER_TASKS:
        problems.append(f"traced run completed {out['summary']['tasks']} tasks")

    off = m["storage.plan_s"] + m["solver.replay_s"] + m["loop.residual_s"]
    log(f"workload {args.workload}, seed {args.seed}: traced pass, "
        f"{out['rounds']} round(s), {out['passes']} simulation passes")
    log(f"  traced Off-level run {off:.3f} s, split:")
    for name, label in (("storage.plan_s", "wfstorage (timed calls)"),
                        ("solver.replay_s", "simcore::flow (replayed schedule)"),
                        ("loop.residual_s", "sim + driver (residual)")):
        log(f"    {label:<34} {m[name]:8.3f} s  {100 * m[name] / off:5.1f}%")
    exports = sum(v for k, v in m.items() if k.startswith("export.") and k.endswith("_s"))
    if exports:
        full_extra = (m["obs.full_ratio"] - 1) * off
        log(f"  Full-level bus +{full_extra:.3f} s, exporters {exports:.3f} s "
            f"({m['export.mb']:.1f} MB)")
    if not out["solver_verified"]:
        log(f"  solver numbers UNVERIFIED: {m['solver.replay_mismatches']:.0f} replay mismatches")
    else:
        log("  solver replay reproduced every rate and completion")
    log("checks: recomposed runs equal run_workflow at Off, Digest and Full"
        + ("; pinned reference for seed %d" % args.seed if ref else
           "; no pinned reference for seed %d" % args.seed))
    for p in problems:
        log("CHECK FAILED: " + p)
    metrics = {name: {"value": m[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
    failed = min(len(problems), out["passes"])
    return not problems, out["passes"], failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2 ** 64:
        ap.error("--seed must fit in 64 bits")
    binary = build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.trace:
        correct, attempted, failed, metrics = traced(binary, deadline, args)
    else:
        correct, attempted, failed, metrics = timed(binary, deadline, args)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
