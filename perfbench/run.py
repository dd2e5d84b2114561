"""bornexact benchmark: one workload, measured for a fixed time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run builds the workload's inputs from the seed, then runs workload passes
one after another (a single-process closed loop) until S seconds have
passed and the workload's least number of passes was made (three, five on
transfer_dyson), checking every output.  A pass of transfer_dyson takes
7-10 s, so there that count, not S, sets how long a run measures.  With
``--trace 0`` it reports the end-to-end metrics named in BENCHMARK.json:

* ``setup_s``: median of several cold set-ups, each in a fresh interpreter
  (import bornexact, build the media, fill their lazy caches);
* ``run_s``: median wall time of one pass.  A run holds fewer than twenty
  passes, so no percentile above the median has ten samples beyond it and
  the median is the only one reported (``result.json`` keeps every pass
  time);
* ``peak_rss_mb``: peak resident memory of the measuring process.

``--workload all`` runs every workload in turn, each in its own process,
and prints each metric by name with its unit, plus each workload's share
of failed checks.

With ``--trace 1`` it interleaves untraced and traced passes and reports
the per-layer metrics of BENCHMARK.json, each the median over traced
passes; ``trace.overhead_s`` is the traced minus the untraced median pass
time.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The run manifest, the
failed checks and the spans of traced passes are written under
``perfbench/out/``.  Without the bornexact sources under ``src/`` the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's reference values in reference.json")
    return ap.parse_args(argv)


def probe_setup(name: str, seed: int, out_dir: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(out_dir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "bornexact").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def manifest(root: Path, args, argv) -> dict:
    import numpy as np
    import scipy

    import bornexact

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "argv": list(argv),
        "nproc": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": bootstrap.BLAS_THREADS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bornexact": bornexact.__version__,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
    }


def compare_reference(name, seed, values, spec, reference, checks) -> None:
    """Check a pass's deterministic outputs against the recorded reference.

    Compares every output the pass returned that the workload lists as
    reference-checked; outputs that depend on the seed only at the seed the
    reference was recorded at.
    """
    import numpy as np

    ref = reference.get(name, {})
    for key, (rtol, per_seed) in spec.items():
        if key not in values or (per_seed and seed != ref.get("seed")):
            continue
        got, want = values[key], ref.get("values", {}).get(key)
        if want is None:
            checks.check(f"reference.{key}", False, "no reference value recorded")
            continue
        got_a, want_a = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        err = np.linalg.norm(got_a - want_a) / max(np.linalg.norm(want_a), 1e-300)
        checks.check(f"reference.{key}", got_a.shape == want_a.shape and err <= rtol,
                     f"relative difference {err:.3e} > {rtol:g}")


def record_reference(name, seed, values) -> None:
    ref = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    ref[name] = {"seed": seed, "values": values}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def run(args, argv, root: Path) -> dict:
    import bornexact

    bootstrap.check_imported(bornexact)
    import tracer as tracing
    import workloads

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {names}")
    wl = workloads.WORKLOADS[args.workload]
    out_dir = HERE / "out" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}

    setup_samples = []
    if not args.trace:
        setup_samples = [probe_setup(wl.name, args.seed, out_dir / "probe")
                         for _ in range(SETUP_REPEATS)]
    state = wl.setup(args.seed, out_dir)

    checks = workloads.Checks()
    tracer = tracing.Tracer()
    plain, traced, summaries, errs, recorded = [], [], [], {}, {}
    start = time.perf_counter()
    i = 0
    while True:
        # untraced, traced, traced, untraced, ...: both kinds see the same drift
        # and, on transfer_dyson, both media
        trace_this = bool(args.trace) and i % 4 in (1, 2)
        if trace_this:
            tracer.run = i
            tracer.reset_counts()
            tracer.install()
        t0 = time.perf_counter()
        try:
            observed = wl.run_pass(state, checks)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            checks.check("pass", False, traceback.format_exc(limit=3))
            observed = None
        finally:
            if trace_this:
                tracer.uninstall()
        dt = time.perf_counter() - t0
        if trace_this:
            traced.append(dt)
            summaries.append(tracer.run_summary(i, dt))
        else:
            plain.append(dt)
        if observed is None:  # a failed pass ends the run; its time still counts
            break
        errs = {k: v for k, v in observed.items() if k.startswith("err.")}
        recorded.update((k, v) for k, v in observed.items() if k in wl.reference)
        if not args.record_reference:
            compare_reference(wl.name, args.seed, observed, wl.reference, reference, checks)
        i += 1
        # three passes hold an untraced and a traced one, and on transfer_dyson both media
        if time.perf_counter() - start >= args.seconds and i >= wl.min_passes:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.record_reference:
        record_reference(wl.name, args.seed, recorded)

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if summaries and plain:
            layer = {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
            layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            for key in ("err.f2_selfconv", "err.route_n128"):
                layer[key] = errs.get(key, 0.0)  # 0 where the workload has no such error
            values = {k: layer[k] for k in names}
        else:  # the first untraced or the first traced pass raised
            values = dict.fromkeys(names, 0.0)
        tracer.dump(out_dir / "spans.jsonl")
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "setup_s": statistics.median(setup_samples),
            "run_s": statistics.median(plain),
            "peak_rss_mb": peak_rss_mb,
        }
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in names},
    }
    top = max(tracing.SELF_TIME, key=lambda L: values[tracing.SELF_TIME[L]]) if args.trace else None
    record = {
        "manifest": manifest(root, args, argv),
        "passes": {"untraced_s": plain, "traced_s": traced},
        "setup_s_samples": setup_samples,
        "failures": checks.failures,
        "top_self_layer": top,
        "predicted_top": list(wl.predicted_top),
        "result": result,
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("manifest " + json.dumps(record["manifest"], sort_keys=True))
    for failure in checks.failures:
        print(f"FAILED {failure}")
    if top is not None:
        verdict = "as predicted" if top in wl.predicted_top else "NOT as predicted"
        print(f"top self-time layer: {top} ({verdict}: {', '.join(wl.predicted_top)})")
    return result


def run_all(args, root: Path) -> dict:
    """Run every workload in its own process and print each metric with its unit."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=True,
        )
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        for key in ("attempted", "failed"):
            total[key] += res[key]
        total["correct"] = total["correct"] and res["correct"]
        for name, m in res["metrics"].items():
            print(f"{w['name']:16s} {name:24s} {m['value']:.6g} {m['unit']}")
            total["metrics"][f"{w['name']}/{name}"] = m
        print(f"{w['name']:16s} {'fail_ratio':24s} {res['failed'] / res['attempted']:.6g} "
              f"({res['failed']} of {res['attempted']} checks)")
    return total


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    try:
        root = bootstrap.prepare()
    except bootstrap.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = run_all(args, root) if args.workload == "all" else run(args, argv, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
