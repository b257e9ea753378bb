"""Command-line surface tying the pipeline together.

Each ``cmd_*`` takes the parsed arguments and the loaded category, prints a
human-readable summary to stdout and returns its exit code with, if it has a
report, its own settings and payload.  ``main`` owns the rest of the run:
it loads the category, writes the ``--out`` report (operation = subcommand,
inputs = fingerprints of the file arguments given, settings = ``tolerance``
plus the command's own) and maps errors to exit codes: 0 success,
1 validation/verification failure, 2 malformed input or an unreadable or
unwritable file, 3 numeric degeneracy.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .catalog import CATALOG_NAMES, CategoryData, catalog
from .category import validate_axioms
from .characters import annulus_partition, cardy_transform_check, sector_characters
from .classify import (
    INVARIANT_TOL,
    Nimrep,
    cardy_solve,
    check_coupling,
    compatibility,
    enumerate_modular_invariants,
    enumerate_nimreps,
)
from .errors import BcftError, DataInconsistencyError, NumericDegeneracyError, StructuralError
from .induction import charged_field_basis, coupling_from_qsystem, index_ledger, theta_plus
from .io import (
    load_category,
    load_coupling_matrix,
    load_nimrep_matrices,
    load_qsystem,
    save_category,
    write_report,
)
from .modular import quantum_dimensions, validate_modular, verlinde_fusion
from .qsystems import DEFAULT_STARTS, search_qsystems, validate_qsystem
from .rings import DEFAULT_TOL, validate_ring

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MALFORMED = 2
EXIT_DEGENERATE = 3


FILE_ARGUMENTS = ("category", "qsystem", "nimrep", "invariant")  # fingerprinted in a report


def cmd_validate(args, data: CategoryData):
    rows = []
    ring_bad = validate_ring(data.ring)
    rows.append(("fusion ring axioms", "ok" if not ring_bad else "; ".join(ring_bad)))
    mod_bad = validate_modular(data.modular, args.tolerance)
    rows.append(("modular S/T", "ok" if not mod_bad else "; ".join(mod_bad)))
    verlinde_ok = True
    if not ring_bad and not mod_bad:
        try:
            verlinde_ok = verlinde_fusion(data.modular) == data.ring
            quantum_dimensions(data.modular)
        except BcftError as exc:
            verlinde_ok = False
            rows.append(("verlinde", str(exc)))
        else:
            rows.append(("verlinde fusion == ring", "ok" if verlinde_ok else "mismatch"))
    axiom_ok = True
    if data.presentation is not None:
        rep = validate_axioms(data.presentation, args.tolerance)
        rows.append(("pentagon residual", f"{rep.pentagon_residual:.3e}"))
        rows.append(("hexagon residual", f"{rep.hexagon_residual:.3e}"))
        rows.append(("F/R unitarity residual", f"{rep.unitarity_residual:.3e}"))
        axiom_ok = rep.valid
    width = max(len(r[0]) for r in rows)
    for name, status in rows:
        print(f"{name:<{width}}  {status}")
    ok = not ring_bad and not mod_bad and verlinde_ok and axiom_ok
    print("VALID" if ok else "INVALID")
    return (EXIT_OK if ok else EXIT_INVALID), None


def cmd_invariants(args, data: CategoryData):
    invs = enumerate_modular_invariants(data.modular, args.max_entry)
    print(f"{len(invs)} modular invariant(s)")
    for Z in invs:
        print(np.array2string(Z), "\n")
    return EXIT_OK, ({"max_entry": args.max_entry}, {"count": len(invs), "Z": invs})


def cmd_nimreps(args, data: CategoryData):
    if args.invariant:
        Z = check_coupling(load_coupling_matrix(args.invariant), data.ring.size)
    if args.invariant and args.size >= 1 and args.size != np.trace(Z):
        nims = []  # the projectors P_t sum to the identity: a compatible nimrep has tr Z boundaries
    else:
        nims = enumerate_nimreps(data.ring, args.size)
        if args.invariant:
            nims = [nr for nr in nims if compatibility(Z, nr, data.modular)[0]]
    print(f"{len(nims)} nimrep orbit(s) of size {args.size}")
    return EXIT_OK, ({"size": args.size}, {"count": len(nims), "nimreps": [{"n": nr.matrices} for nr in nims]})


def _require_invariant(Z, md) -> None:
    """An induced Z commutes with S and T, within the enumeration's ``INVARIANT_TOL``,
    and is one of the enumerated modular invariants."""
    off = max(np.max(np.abs(md.S @ Z - Z @ md.S)), np.max(np.abs(md.T[:, None] * Z - Z * md.T)))
    if off > INVARIANT_TOL:
        raise DataInconsistencyError(f"induced Z does not commute with S and T (residual {off:.2e})")
    if not any(np.array_equal(Z, W) for W in enumerate_modular_invariants(md)):
        raise DataInconsistencyError("induced Z is not among the modular invariants of the category")


def cmd_induce(args, data: CategoryData):
    if data.presentation is None:
        raise StructuralError("induce requires F/R data in the category file")
    q = load_qsystem(args.qsystem)
    rep = validate_qsystem(q, data.presentation, args.tolerance)
    if not rep["valid"]:
        print(f"q-system invalid: {rep}")
        return EXIT_INVALID, None
    Z = coupling_from_qsystem(data.presentation, q)
    _require_invariant(Z, data.modular)
    m, d_total = theta_plus(data.ring, Z)
    ledger = index_ledger(data.ring, q, Z, args.tolerance)
    print("Z =")
    print(np.array2string(Z))
    print("Theta_plus multiplicities:", m.tolist(), f"d(Theta_plus) = {d_total:.9g}")
    for key, val in ledger.as_dict().items():
        print(f"{key:>12}: {val}")
    fields = {}
    for sigma in range(data.ring.size):
        for tau in range(data.ring.size):
            if Z[sigma, tau] == 0:
                continue
            basis = charged_field_basis(data.presentation, q, sigma, tau)
            fields[f"{sigma},{tau}"] = {
                "dim": Z[sigma, tau],
                # rounded as psi in cmd_cardy: the last digits carry the rounding of K's arithmetic
                "projector": [[[round(z.real, 12), round(z.imag, 12)] for z in row] for row in basis.projector],
                "gram_residual": round(basis.gram_residual, 12),
            }
    payload = {
        "Z": Z,
        "theta_plus": {"multiplicities": m, "dimension": d_total},
        "ledger": ledger.as_dict(),
        "charged_fields": fields,
    }
    return EXIT_OK, ({}, payload)


def _load_nimrep(args, data: CategoryData):
    """The nimrep named by ``args``; None, once the first reason is printed,
    if it is invalid.  :class:`Nimrep` rejects a malformed one (StructuralError)."""
    nr = Nimrep(data.ring, load_nimrep_matrices(args.nimrep))
    bad = nr.validate()
    if bad:
        print(f"nimrep invalid: {bad[0]}")
        return None
    return nr


def cmd_cardy(args, data: CategoryData):
    nr = _load_nimrep(args, data)
    if nr is None:
        return EXIT_INVALID, None
    sol = cardy_solve(nr, data.modular)
    print("psi =")
    # + 0.0 turns a rounded -0.0 into 0.0 in both parts, so output does not carry the sign of noise
    print(np.array2string(np.round(sol.psi, 9) + (0.0 + 0.0j)))
    print("exponents:", list(sol.exponents))
    print(f"Cardy-equation residual: {sol.residual:.3e}")
    payload = {
        "psi": [[[round(z.real, 12), round(z.imag, 12)] for z in row] for row in sol.psi],
        "exponents": sol.exponents,
        "residual": sol.residual,
    }
    return (EXIT_OK if sol.residual < max(args.tolerance, 1e-9) else EXIT_INVALID), ({}, payload)


def cmd_partition(args, data: CategoryData):
    nr = _load_nimrep(args, data)
    if nr is None:
        return EXIT_INVALID, None
    chars = sector_characters(data, args.order)
    value, tail = annulus_partition(nr, chars, args.a, args.b, args.beta)
    print(f"Z_({args.a},{args.b})(beta={args.beta:g}) = {value:.12g}  (tail <= {tail:.3e})")
    payload = {"value": value, "tail_bound": tail}
    ok = True
    if args.check_transform:
        sol = cardy_solve(nr, data.modular)
        report = cardy_transform_check(
            sol, data.modular, chars, args.a, args.b, args.beta,
            window=(min(args.beta, math.pi), max(args.beta, 4 * math.pi)),
        )
        print(
            f"transform residual {report.residual:.3e} "
            f"(tolerance {report.tolerance:.3e})"
        )
        payload["transform_residual"] = report.residual
        payload["transform_tolerance"] = report.tolerance
        ok = report.passed
    settings = {"a": args.a, "b": args.b, "beta": args.beta, "order": args.order}
    return (EXIT_OK if ok else EXIT_INVALID), (settings, payload)


def cmd_qsearch(args, data: CategoryData):
    if data.presentation is None:
        raise StructuralError("qsearch requires F/R data in the category file")
    try:
        theta = [int(x) for x in args.theta.split(",")]
    except ValueError:
        raise StructuralError(
            f"--theta must be comma-separated integers, got {args.theta!r}"
        ) from None
    result = search_qsystems(
        data.presentation,
        theta,
        n_starts=args.starts,
        seed=args.seed,
        tol=max(args.tolerance, 1e-12),
    )
    print(f"status: {result.status}; {len(result.solutions)} solution class(es)")
    for fp in result.fingerprints:
        print("  fingerprint:", fp)
    payload = {
        "status": result.status,
        "count": len(result.solutions),
        "fingerprints": [
            [{"sectors": key, "gram_spectra": spectra, "exchange": exchange} for key, spectra, exchange in fp]
            for fp in result.fingerprints
        ],
    }
    settings = {"theta": theta, "starts": args.starts}
    return (EXIT_OK if result.status == "ok" else EXIT_DEGENERATE), (settings, payload)


def cmd_catalog(args, _category: None):
    data = catalog(args.name, args.level)
    save_category(data, args.out)
    print(f"wrote {args.name}{'_%d' % args.level if args.level else ''} to {args.out}")
    return EXIT_OK, None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bcft",
        description="Boundary CFT classification pipeline over braided fusion categories",
    )
    ap.add_argument("--tolerance", type=float, default=DEFAULT_TOL, help="residual tolerance")
    ap.add_argument("--seed", type=int, default=0, help="search seed (runtime only)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run all applicable validators")
    p.add_argument("category")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariants", help="enumerate modular invariants")
    p.add_argument("category")
    p.add_argument("--max-entry", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("nimreps", help="enumerate nimreps of a given size")
    p.add_argument("category")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--invariant", help="coupling file {'Z': ...} to filter by compatibility")
    p.add_argument("--out")
    p.set_defaults(func=cmd_nimreps)

    p = sub.add_parser("induce", help="coupling matrix, Theta_plus and index ledger")
    p.add_argument("category")
    p.add_argument("qsystem")
    p.add_argument("--out")
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("cardy", help="solve the Cardy equation for a nimrep")
    p.add_argument("category")
    p.add_argument("nimrep")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cardy)

    p = sub.add_parser("partition", help="annulus partition value and modular check")
    p.add_argument("category")
    p.add_argument("nimrep")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--order", type=int, default=60)
    p.add_argument("--check-transform", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("qsearch", help="search Q-systems for a given theta")
    p.add_argument("category")
    p.add_argument("--theta", required=True, help="comma-separated multiplicities")
    p.add_argument("--starts", type=int, default=DEFAULT_STARTS)
    p.add_argument("--out")
    p.set_defaults(func=cmd_qsearch)

    p = sub.add_parser("catalog", help="emit a built-in category file")
    p.add_argument("name", choices=CATALOG_NAMES)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_catalog)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not 0 < args.tolerance < 1:  # nan fails too
            raise StructuralError(f"--tolerance must lie in (0, 1), got {args.tolerance}")
        data = load_category(args.category) if hasattr(args, "category") else None
        code, report = args.func(args, data)
        if report is not None and args.out:
            settings, payload = report
            inputs = {name: getattr(args, name) for name in FILE_ARGUMENTS if getattr(args, name, None)}
            # runtime-only knobs (the search seed) never enter reports, so reports are
            # byte-identical across reruns
            write_report(args.out, args.command, inputs, {"tolerance": args.tolerance, **settings}, payload)
        return code
    except (StructuralError, OSError) as exc:  # malformed, missing, unreadable or unwritable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except NumericDegeneracyError as exc:
        print(f"numeric degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except BcftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
