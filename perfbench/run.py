"""bcft benchmark: the paper's pipeline, timed end to end and per layer.

Run from the root of a bcft checkout:

    python3 perfbench/run.py --workload e6-su2_10 --seed 1 --seconds 40 --trace 0

Each sample is a fresh interpreter running ``perfbench/workload.py`` with BLAS
pinned to one thread, so set-up cost, caches and peak memory belong to that
sample alone, as in one CLI invocation.  Samples of a run share the seed (a
rerun of the same inputs) and are started one after another, at least
``MIN_SAMPLES`` of them, until the next one would end after ``--seconds``.
Times are scaled to a fixed machine speed by a probe after every public call
(see ``workload.py``); the raw wall times are kept in the results file.  The
end-to-end and per-layer metrics are medians over the samples.

Workloads (``--seed`` is the Q-system search seed; the workloads without a
search are deterministic):

* ``e6-su2_10``: qsearch su2_10 theta = 0+6, Q-system checks, induce with
  field bases; Z must be the E6 invariant.
* ``validate-ladder``: ring, modular and F/R validators on Ising, Fibonacci
  and su2_1 .. su2_8.
* ``nimrep-su2_4``: invariants, nimreps (su2_4 sizes 4 and 5, Ising 1 to 4),
  Cardy and compatibility on every orbit, the Ising annulus transform.

A sample that exits with an error or outlives the run's time limit counts as a
failed check, with the seed, and is not retried.  With ``--trace 0`` the last
line of output carries the end-to-end metrics; with ``--trace 1`` samples
alternate untraced and traced, and it carries the per-layer metrics from the
traced samples plus ``trace.overhead_s``.  Metric names and units come from
``BENCHMARK.json``.  Spans, per-layer time, every sample, the machine and the
source revision are written to
``perfbench/results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
MIN_SAMPLES = 3
RUN_LIMIT_S = 150  # every sample ends by then, so a run exits well within 180 s
PROBE_TIMEOUT_S = 60
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# spans whose summed time is reported as the per-layer metric "<span>_s"
TIMED_SPANS = (
    "catalog.build",
    "io.save",
    "io.load",
    "category.validate_axioms",
    "modular.validate",
    "qsystems.search",
    "qsystems.axioms",
    "qsystems.charged_algebra",
    "induction.coupling",
    "induction.field_basis",
    "classify.invariants",
    "classify.nimreps",
    "classify.cardy",
    "characters.build",
    "characters.transform_check",
)


def child_env() -> dict:
    env = dict(os.environ, **PINNED, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def software(env: dict) -> dict:
    """Import bcft once, untimed (this also compiles its bytecode), and report versions."""
    probe = (
        "import json, platform, bcft, numpy, scipy\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'scipy': scipy.__version__, 'blas': f\"{blas.get('name')} {blas.get('version')}\","
        " 'bcft': bcft.__version__}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
    )
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(1)
    return json.loads(out.stdout.splitlines()[-1])


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "blas_threads": PINNED}


def revision() -> dict:
    """Git commit when the checkout is a repository, and a digest of the bcft sources."""
    rev = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            rev = git.stdout.strip() if git.returncode == 0 else None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "bcft").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git": rev, "source_sha256": digest.hexdigest()}


def run_sample(args, traced: bool, workdir: Path, env: dict, timeout: float) -> dict:
    """One sample; one that fails or times out comes back with an ``error`` instead of results."""
    started = time.monotonic()
    cmd = [
        sys.executable, str(BENCH / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(int(traced)), "--workdir", str(workdir), "--started", repr(started),
    ]
    try:
        out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
        rec = json.loads(out.stdout.splitlines()[-1]) if out.returncode == 0 else None
        error = None if rec else f"exit code {out.returncode}: {out.stderr.strip()[-2000:]}"
    except subprocess.TimeoutExpired:
        rec, error = None, f"timed out after {timeout:.0f} s"
    rec = rec or {"error": error}
    rec["traced"] = traced
    rec["wall_s"] = time.monotonic() - started
    return rec


def span_times(spans: list, key) -> dict:
    """Summed scaled seconds of spans grouped by ``key(name)``."""
    out: dict = defaultdict(float)
    for sp in spans:
        out[key(sp["name"])] += sp["seconds"]
    return dict(out)


def layer_metrics(traced: list, untraced: list) -> dict:
    """Medians over the traced samples; counts repeat exactly, so they stay integers."""
    own = [span_times(r["spans"], lambda name: name) for r in traced]
    metrics = {f"{name}_s": statistics.median(o.get(name, 0.0) for o in own) for name in TIMED_SPANS}
    for name in traced[0]["counts"]:
        metrics[name] = statistics.median_low(r["counts"][name] for r in traced)
    metrics["category.us_per_f_entry"] = 1e6 * metrics["category.validate_axioms_s"] / metrics["category.f_entries"]
    starts = metrics["qsystems.starts"]
    metrics["qsystems.s_per_start"] = metrics["qsystems.search_s"] / starts if starts else 0.0
    metrics["trace.overhead_s"] = statistics.median(r["answer_s"] for r in traced) - statistics.median(
        r["answer_s"] for r in untraced
    )
    return metrics


def main(argv=None) -> int:
    if not SPEC.is_file() or not (SRC / "bcft" / "__init__.py").is_file():
        print(f"no BENCHMARK.json or bcft sources under {ROOT}: run from the root of a bcft checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    ap = argparse.ArgumentParser(description="bcft pipeline benchmark")
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    env = child_env()
    versions = software(env)
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    samples: list = []
    try:
        start = time.monotonic()
        while len(samples) < MIN_SAMPLES or (
            time.monotonic() - start + statistics.median(r["wall_s"] for r in samples) <= args.seconds
        ):
            left = start + RUN_LIMIT_S - time.monotonic()
            if left <= 0:
                break
            samples.append(run_sample(args, bool(args.trace) and len(samples) % 2 == 1, workdir, env, left))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = [r for r in samples if "error" not in r]
    traced = [r for r in done if r["traced"]]
    untraced = [r for r in done if not r["traced"]]
    checks = [c for r in done for c in r["checks"]]
    checks += [
        {"name": "sample ran to completion", "ok": False, "detail": f"sample {i}: {r['error']}"}
        for i, r in enumerate(samples)
        if "error" in r
    ]
    shas = {r["report_sha256"] for r in done}
    checks.append(
        {
            "name": "report bytes identical across reruns of the seed",
            "ok": None not in shas and len(shas) == 1,
            "detail": sorted(map(str, shas)),
        }
    )
    failed_checks = [c for c in checks if not c["ok"]]
    for c in failed_checks:
        print(f"FAILED CHECK (seed {args.seed}): {c['name']}: {c['detail']}")
    if not untraced or (args.trace and not traced):
        print(f"{args.workload} seed {args.seed}: too few samples completed to measure", file=sys.stderr)
        return 1

    attempted = len(checks)
    if args.trace:
        metrics = layer_metrics(traced, untraced)
        declared = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in done),
            "answer_s": statistics.median(r["answer_s"] for r in done),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
            "pass_ratio": (attempted - len(failed_checks)) / attempted,
        }
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    result = {
        "correct": not failed_checks,
        "attempted": attempted,
        "failed": len(failed_checks),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "software": versions,
        "revision": revision(),
        "result": result,
        "failed_checks": failed_checks,
        "samples": [{k: v for k, v in r.items() if k != "spans"} for r in samples],
        "layer_s": [span_times(r["spans"], lambda name: name.split(".")[0]) for r in traced],
        "spans": [dict(sp, sample=i) for i, r in enumerate(samples) for sp in r.get("spans", ())],
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(samples)} samples ({len(traced)} traced); details in {out}")
    for k, v in result["metrics"].items():
        print(f"  {k:32s} {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
