"""One sample of one bcft benchmark workload, in a fresh interpreter.

``run.py`` starts this file once per sample with BLAS pinned to one thread.
It imports bcft, round-trips every category of the workload through a
category file (what a CLI user pays before any answer), runs the workload's
pipeline through bcft's public functions in CLI order, checks every answer
against a reference that does not come from the run itself, writes the
canonical report with ``io.write_report`` and prints one JSON line.

Every public call is a step of a ``Clock``.  After each step, and every
``TICK_S`` seconds, a short fixed probe runs outside the measured time, and the
wall time since the previous probe is scaled to a fixed machine speed: times
``REFERENCE_PROBE_S`` over the mean of the two probes around it.  On a shared
VM whose CPU speed drifts with its neighbours' load, different kinds of code
(Python loops, dict work, matrix products) slow down together, so this removes
most of the drift from ``setup_s`` and ``answer_s``, which span the sample from
interpreter start; the raw wall times are reported beside them.  With
``--trace 1`` each step is also kept as a span and printed with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from bcft import (
    BcftError,
    cardy_solve,
    cardy_transform_check,
    catalog,
    charged_algebra,
    charged_field_basis,
    compatibility,
    coupling_from_qsystem,
    enumerate_modular_invariants,
    enumerate_nimreps,
    frobenius_check,
    index_ledger,
    is_local,
    minimal_model_characters,
    quantum_dimensions,
    regular_nimrep,
    search_qsystems,
    theta_plus,
    validate_axioms,
    validate_modular,
    validate_qsystem,
    validate_ring,
    verlinde_fusion,
)
from bcft.io import load_category, save_category, save_qsystem, write_report

TOL = 1e-9  # the CLI's default --tolerance

# E6 Q-system search inputs, at the start count of the repository's su2_4
# search tests.
E6_THETA = tuple(1 if a in (0, 6) else 0 for a in range(11))
E6_STARTS = 12

# The speed probe, a fixed mix of the kinds of work bcft does (an arithmetic
# loop, dict work on tuple keys, small matrix products, a dense SVD): kinds of
# code slow down by different factors on a loaded machine, and this mix tracks
# the workloads' slowdown closer than any one of them.  Its time at the speed
# all times are scaled to is about its fast-state time on the 2-core Xeon VM
# the benchmark was tuned on.  It also runs every TICK_S seconds.
_rng = np.random.default_rng(0)
PROBE_SMALL = _rng.standard_normal((40, 6, 6))
PROBE_DENSE = _rng.standard_normal((80, 80))
REFERENCE_PROBE_S = 0.008
TICK_S = 0.2

LADDER = ("ising", "fibonacci") + tuple(f"su2_{k}" for k in range(1, 9))


def probe() -> float:
    started = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i % 7
    counts: dict = {}
    for i in range(10_000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    for _ in range(20):
        for m in PROBE_SMALL:
            (m @ m).sum()
    for _ in range(2):
        np.linalg.svd(PROBE_DENSE)
    return time.perf_counter() - started


class Clock:
    """Speed-scaled time of a sample, cut into segments by probes.

    A probe runs after every step and on a timer every ``TICK_S`` seconds, so
    long steps are cut too.  ``segments`` holds, per segment, its wall time and
    its scale factor ``REFERENCE_PROBE_S / mean(probe before, probe after)``;
    the first segment, from interpreter start, has only the probe after it.
    Probe time lies between segments, outside every measured time.  With
    ``trace`` every step is kept as a span (name, start, end, scaled seconds,
    parent phase, workload, seed).
    """

    def __init__(self, started: float, trace: bool, workload: str, seed: int):
        self.mark = started
        self.trace = trace
        self.workload = workload
        self.seed = seed
        self.last_probe = None
        self.segments: list[tuple[float, float]] = []
        self.spans: list[dict] = []
        self.phase = None
        self.busy = False  # a timer tick does nothing while the clock itself runs

    def start_ticks(self):
        signal.signal(signal.SIGALRM, lambda *_: self.busy or self.cut())
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop_ticks(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def cut(self):
        """End the current segment with a probe."""
        self.busy = True
        end = time.monotonic()
        p = probe()
        ref = p if self.last_probe is None else (p + self.last_probe) / 2
        self.segments.append((end - self.mark, REFERENCE_PROBE_S / ref))
        self.last_probe = p
        self.mark = time.monotonic()
        self.busy = False

    @staticmethod
    def totals(segments) -> tuple[float, float]:
        """Scaled and wall seconds of some segments."""
        return sum(w * k for w, k in segments), sum(w for w, _ in segments)

    @contextmanager
    def step(self, name: str):
        self.busy = True
        first, start = len(self.segments), time.monotonic()
        offset = start - self.mark
        self.busy = False
        try:
            yield
        finally:
            self.busy = True
            end = time.monotonic()
            self.cut()
            if self.trace:
                self.spans.append(
                    {
                        "name": name,
                        "start": start,
                        "end": end,
                        "seconds": self.totals(self.segments[first:])[0] - offset * self.segments[first][1],
                        "parent": self.phase,
                        "workload": self.workload,
                        "seed": self.seed,
                    }
                )


class Sample:
    """State of one workload sample: categories, spans, checks and counts."""

    def __init__(self, workload: str, seed: int, clock: Clock, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.clock = clock
        self.workdir = workdir
        self.cats: dict = {}
        self.files: dict = {}
        self.checks: list = []
        self.counts = {
            "io.category_bytes": 0,
            "category.f_entries": 0,
            "qsystems.starts": 0,
            "qsystems.solution_classes": 0,
            "induction.kernel_pairs": 0,
            "induction.fields": 0,
            "classify.invariants": 0,
            "classify.nimrep_orbits": 0,
        }

    def check(self, name: str, ok, detail="") -> bool:
        self.checks.append({"name": name, "ok": bool(ok), "detail": str(detail)})
        return bool(ok)

    def setup(self, names):
        """Build each catalog category, save it and load it back, as the CLI does."""
        for name in names:
            base, _, level = name.partition("_")
            path = self.workdir / f"{name}.json"
            with self.clock.step("catalog.build"):
                data = catalog(base, int(level) if level else None)
            with self.clock.step("io.save"):
                save_category(data, path)
            with self.clock.step("io.load"):
                data = load_category(path)
            self.cats[name] = data
            self.files[name] = str(path)
            self.counts["io.category_bytes"] += path.stat().st_size
            self.counts["category.f_entries"] += f_entries(data.ring.N)

    def report(self, operation: str, inputs: dict, settings: dict, payload: dict) -> str:
        path = self.workdir / f"{self.workload}.report.json"
        with self.clock.step("io.report"):
            write_report(path, operation, inputs, settings, payload)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def f_entries(N: np.ndarray) -> int:
    """Admissible F 6-tuples (a,b,c,d,e,f): N_ab^e N_ec^d N_bc^f N_af^d != 0."""
    N = (np.asarray(N) != 0).astype(np.int64)
    return int(np.einsum("abe,ecd,bcf,afd->", N, N, N, N))


def reference_dims(name: str) -> np.ndarray:
    """Quantum dimensions from closed formulas, independent of the catalog."""
    if name == "ising":
        return np.array([1.0, math.sqrt(2.0), 1.0])
    if name == "fibonacci":
        return np.array([1.0, (1.0 + math.sqrt(5.0)) / 2.0])
    k = int(name.split("_")[1])
    return np.array([math.sin((a + 1) * math.pi / (k + 2)) for a in range(k + 1)]) / math.sin(
        math.pi / (k + 2)
    )


def block_invariant(n: int, blocks) -> np.ndarray:
    """Type-I invariant sum_blocks |sum_{a in block} chi_a|^2."""
    Z = np.zeros((n, n), dtype=np.int64)
    for block in blocks:
        v = np.zeros(n, dtype=np.int64)
        v[list(block)] = 1
        Z += np.outer(v, v)
    return Z


def d4_invariant() -> np.ndarray:
    """su2_4 D4 invariant |chi_0 + chi_4|^2 + 2 |chi_2|^2 (tests/test_induction.py)."""
    Z = block_invariant(5, [(0, 4)])
    Z[2, 2] = 2
    return Z


# -- workload pipelines -------------------------------------------------------


def induce(s: Sample, name: str, theta, starts: int, want_Z) -> str | None:
    """qsearch, then the Q-system checks, then induce (Z, Theta_plus, ledger, fields)."""
    data = s.cats[name]
    cat, ring = data.presentation, data.ring
    with s.clock.step("qsystems.search"):
        res = search_qsystems(cat, theta, n_starts=starts, seed=s.seed, tol=TOL)
    s.counts["qsystems.starts"] += starts
    s.counts["qsystems.solution_classes"] += len(res.solutions)
    if not s.check(
        "search finds exactly one gauge class",
        res.status == "ok" and len(res.solutions) == 1,
        f"status={res.status} classes={len(res.solutions)} search_seed={s.seed} starts={starts}",
    ):
        return None
    q = res.solutions[0]
    qpath = s.workdir / f"{name}.qsystem.json"
    with s.clock.step("io.save_qsystem"):
        save_qsystem(q, qpath)

    with s.clock.step("qsystems.axioms"):
        rep = validate_qsystem(q, cat, TOL)
        frob = frobenius_check(q, cat)
        local, local_res = is_local(q, cat, TOL)
    s.check("Q-system axioms", rep["valid"], rep)
    s.check("Frobenius property", frob < TOL, frob)
    s.check("chiral locality (the invariant comes from a conformal inclusion)", local, local_res)
    with s.clock.step("qsystems.charged_algebra"):
        alg = charged_algebra(q, cat, TOL)
    s.check(
        "charged-algebra residuals",
        alg.associativity_residual < TOL and alg.completeness_residual < TOL,
        (alg.associativity_residual, alg.completeness_residual),
    )

    with s.clock.step("induction.coupling"):
        Z = coupling_from_qsystem(cat, q)
    s.counts["induction.kernel_pairs"] += ring.size**2
    s.check("Z equals the reference invariant", np.array_equal(Z, want_Z), Z.tolist())
    with s.clock.step("induction.ledger"):
        m, d_plus = theta_plus(ring, Z)
        ledger = index_ledger(ring, q, Z, TOL)
    d = reference_dims(name)
    mu = float(d @ d)
    s.check(
        "ledger: lambda = d(theta), lambda_plus = d(Theta_plus) = mu_A, Haag dual",
        math.isclose(ledger.lam, float(np.dot(theta, d)), rel_tol=1e-9)
        and math.isclose(ledger.lam_plus, mu, rel_tol=1e-9)
        and math.isclose(ledger.mu_A, mu, rel_tol=1e-9)
        and math.isclose(d_plus, mu, rel_tol=1e-9)
        and ledger.haag_dual,
        ledger.as_dict(),
    )
    with s.clock.step("classify.invariants"):
        invs = enumerate_modular_invariants(data.modular)
    s.counts["classify.invariants"] += len(invs)
    s.check("Z is an enumerated modular invariant", any(np.array_equal(Z, W) for W in invs))

    fields = {}
    for sigma, tau in zip(*np.nonzero(Z)):
        with s.clock.step("induction.field_basis"):
            basis = charged_field_basis(cat, q, int(sigma), int(tau))
        fields[f"{sigma},{tau}"] = {
            "dim": len(basis.fields),
            "projector": [[[float(z.real), float(z.imag)] for z in row] for row in basis.projector],
            "gram_residual": basis.gram_residual,
        }
    s.counts["induction.fields"] += sum(f["dim"] for f in fields.values())
    s.check(
        "field bases: Gram residuals within tolerance, dimensions sum to sum(Z)",
        all(f["gram_residual"] < TOL for f in fields.values())
        and sum(f["dim"] for f in fields.values()) == int(Z.sum()),
        {k: (f["dim"], f["gram_residual"]) for k, f in fields.items()},
    )
    return s.report(
        "induce",
        {"category": s.files[name], "qsystem": str(qpath)},
        {"tolerance": TOL, "handedness": "plus"},
        {
            "Z": Z.tolist(),
            "theta_plus": {"multiplicities": m.tolist(), "dimension": d_plus},
            "ledger": ledger.as_dict(),
            "charged_fields": fields,
        },
    )


def e6_su2_10(s: Sample) -> str | None:
    # E6 = |chi_0 + chi_6|^2 + |chi_3 + chi_7|^2 + |chi_4 + chi_10|^2 from the
    # conformal inclusion SU(2)_10 in Spin(5)_1, so the Q-system is local.
    e6 = block_invariant(11, [(0, 6), (3, 7), (4, 10)])
    return induce(s, "su2_10", E6_THETA, E6_STARTS, e6)


def validate_ladder(s: Sample) -> str:
    results = {}
    for name, data in s.cats.items():
        with s.clock.step("modular.validate"):
            ring_bad = validate_ring(data.ring, TOL)
            mod_bad = validate_modular(data.modular, TOL)
            fused = verlinde_fusion(data.modular)
            dims = quantum_dimensions(data.modular, TOL)
        s.check(f"{name}: ring and modular validators", not ring_bad and not mod_bad, ring_bad + mod_bad)
        s.check(f"{name}: Verlinde fusion reproduces the ring", fused == data.ring)
        s.check(
            f"{name}: quantum dimensions match the closed form",
            np.allclose(dims, reference_dims(name), rtol=0, atol=1e-9),
            dims,
        )
        with s.clock.step("category.validate_axioms"):
            rep = validate_axioms(data.presentation, TOL)
        s.check(f"{name}: pentagon, hexagon and unitarity", rep.valid, rep)
        results[name] = {
            "pentagon_residual": rep.pentagon_residual,
            "hexagon_residual": rep.hexagon_residual,
            "unitarity_residual": rep.unitarity_residual,
        }
    return s.report(
        "validate",
        {name: s.files[name] for name in sorted(s.files)},
        {"tolerance": TOL},
        {name: results[name] for name in sorted(results)},
    )


# Nimrep orbit counts: su2_4 has the A5 graph (size 5) and the D4 graph
# (size 4); Ising has only A3 (size 3), so sizes 1, 2 and 4 are empty.
NIMREP_SIZES = (
    ("su2_4", 4, 1),
    ("su2_4", 5, 1),
    ("ising", 1, 0),
    ("ising", 2, 0),
    ("ising", 3, 1),
    ("ising", 4, 0),
)
# A nimrep is compatible with Z exactly when its exponents are diag(Z).
COMPATIBLE = {("su2_4", "A5", 5), ("su2_4", "D4", 4), ("ising", "A3", 3)}
ISING_H = (0.0, 1.0 / 16.0, 0.5)  # conformal weights of 1, sigma, psi


def nimrep_su2_4(s: Sample) -> str:
    invariants = {
        "ising": {"A3": np.eye(3, dtype=np.int64)},
        "su2_4": {"A5": np.eye(5, dtype=np.int64), "D4": d4_invariant()},
    }
    for name, want in invariants.items():
        with s.clock.step("classify.invariants"):
            invs = enumerate_modular_invariants(s.cats[name].modular)
        s.counts["classify.invariants"] += len(invs)
        s.check(
            f"{name}: modular invariants are {sorted(want)}",
            len(invs) == len(want) and all(any(np.array_equal(W, Z) for Z in invs) for W in want.values()),
            [Z.tolist() for Z in invs],
        )

    payload = {"orbits": []}
    for name, size, want_count in NIMREP_SIZES:
        data = s.cats[name]
        with s.clock.step("classify.nimreps"):
            nims = enumerate_nimreps(data.ring, size, TOL)
        s.counts["classify.nimrep_orbits"] += len(nims)
        s.check(f"{name}: {want_count} nimrep orbit(s) of size {size}", len(nims) == want_count, len(nims))
        for nr in nims:
            with s.clock.step("classify.cardy"):
                sol = cardy_solve(nr, data.modular, TOL)
                compatible = {
                    label: compatibility(Z, nr, data.modular)[0] for label, Z in invariants[name].items()
                }
            s.check(f"{name} size {size}: Cardy residual", sol.residual < TOL, sol.residual)
            s.check(
                f"{name} size {size}: compatible invariants",
                all(ok == ((name, label, size) in COMPATIBLE) for label, ok in compatible.items()),
                compatible,
            )
            payload["orbits"].append(
                {
                    "category": name,
                    "n": [m.tolist() for m in nr.matrices],
                    "cardy_residual": sol.residual,
                    "compatible": sorted(label for label, ok in compatible.items() if ok),
                }
            )

    ising = s.cats["ising"]
    with s.clock.step("characters.build"):
        series = minimal_model_characters(3, 4, 60)
    chars = [next(c for c in series.values() if math.isclose(c.h, h, abs_tol=1e-12)) for h in ISING_H]
    with s.clock.step("classify.cardy"):
        sol = cardy_solve(regular_nimrep(ising.ring), ising.modular, TOL)
    with s.clock.step("characters.transform_check"):
        reports = [
            cardy_transform_check(sol, ising.modular, chars, a, b, beta, window=(2.9, 13.2))
            for beta in (3.0, 2 * math.pi, 9.0)
            for a in range(3)
            for b in range(3)
        ]
    s.check("ising: annulus modular transform", all(r.passed for r in reports), max(r.residual for r in reports))
    payload["transform_residuals"] = [r.residual for r in reports]
    return s.report(
        "nimreps",
        {name: s.files[name] for name in sorted(s.files)},
        {"tolerance": TOL},
        payload,
    )


# workload -> (categories, pipeline)
WORKLOADS = {
    "e6-su2_10": (("su2_10",), e6_su2_10),
    "validate-ladder": (LADDER, validate_ladder),
    "nimrep-su2_4": (("su2_4", "ising"), nimrep_su2_4),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--started", type=float, required=True, help="time.monotonic() before this interpreter started")
    args = ap.parse_args(argv)

    names, pipeline = WORKLOADS[args.workload]
    clock = Clock(args.started, bool(args.trace), args.workload, args.seed)
    s = Sample(args.workload, args.seed, clock, args.workdir)
    clock.cut()  # interpreter start and imports
    clock.start_ticks()
    clock.phase = "setup"
    s.setup(names)
    ready = len(clock.segments)
    clock.phase = "pipeline"
    sha = None
    try:
        sha = pipeline(s)
    except BcftError as exc:
        s.check("pipeline raised no bcft error", False, repr(exc))
    clock.stop_ticks()
    clock.cut()  # the last checks
    setup_s, setup_wall_s = clock.totals(clock.segments[:ready])
    answer_s, answer_wall_s = clock.totals(clock.segments[ready:])
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "answer_s": answer_s,
                "setup_wall_s": setup_wall_s,
                "answer_wall_s": answer_wall_s,
                "speed": statistics.median(k for _, k in clock.segments),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "checks": s.checks,
                "counts": s.counts,
                "report_sha256": sha,
                "spans": clock.spans,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
