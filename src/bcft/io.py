"""File formats: category files, Q-system files, nimrep/coupling files, reports.

All schemas are strict (unknown keys are rejected; silent typos in physics
data are the dominant failure mode).  Serialization is canonical: fixed key
order, entries sorted, floats printed with 17 significant digits, so that
save(load(f)) is byte-identical and report fingerprints are stable.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .catalog import CategoryData
from .category import CategoryPresentation
from .errors import StructuralError
from .modular import ModularData
from .qsystems import QSystemSpec
from .rings import FusionRing

__all__ = [
    "category_to_dict",
    "dict_to_category",
    "save_category",
    "load_category",
    "qsystem_to_dict",
    "dict_to_qsystem",
    "save_qsystem",
    "load_qsystem",
    "load_nimrep_matrices",
    "load_coupling_matrix",
    "dump_canonical",
    "write_report",
    "file_fingerprint",
]


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x) or math.isinf(x):
            raise StructuralError("cannot serialize non-finite float")
        if x == 0.0:
            x = 0.0  # canonicalize the sign of zero
        return format(x, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        items = (f"{json.dumps(k)}:{_fmt(v)}" for k, v in value.items())
        return "{" + ",".join(items) + "}"
    if isinstance(value, np.ndarray):
        return _fmt(value.tolist())
    raise StructuralError(f"cannot serialize {type(value).__name__}")


def dump_canonical(obj: dict) -> str:
    """Deterministic JSON text: insertion-ordered keys, 17-digit floats."""
    return _fmt(obj) + "\n"


def _pair(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def _check_keys(doc: dict, required, optional, what: str):
    keys = set(doc)
    missing = set(required) - keys
    if missing:
        raise StructuralError(f"{what}: missing members {sorted(missing)}")
    unknown = keys - set(required) - set(optional)
    if unknown:
        raise StructuralError(f"{what}: unknown members {sorted(unknown)}")


def _read_json(path, what: str) -> dict:
    """Parse the JSON object in ``path``; malformed input is a StructuralError.

    Non-finite numbers are malformed too: the ``NaN``/``Infinity`` constants
    Python's json accepts, and literals such as ``1e999`` that overflow a float.
    """

    def finite(text):
        x = float(text)
        if not math.isfinite(x):
            raise StructuralError(f"{what}: non-finite number {text}")
        return x

    try:
        doc = json.loads(Path(path).read_text(), parse_float=finite, parse_constant=finite)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StructuralError(f"{what}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StructuralError(f"{what} must be a JSON object")
    return doc


@contextmanager
def _document(what: str):
    """Report a wrong-typed value met while building objects from a parsed
    document as malformed input (one-line StructuralError), not a traceback."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        msg = " ".join(str(exc).split())
        raise StructuralError(f"{what}: malformed value: {msg}") from exc


def _int(value, what) -> int:
    """A JSON integer; a fractional value or a boolean is malformed, never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise StructuralError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _int_matrix(rows, what) -> np.ndarray:
    return np.array([[_int(v, what) for v in row] for row in rows], dtype=np.int64)


def _real(value, what) -> float:
    """A JSON number; a string or a boolean is malformed, never converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise StructuralError(f"{what} must be a number, got {value!r}")
    return float(value)


def _complex(pair, what):
    if not (isinstance(pair, list) and len(pair) == 2):
        raise StructuralError(f"{what} must be [re, im], got {pair!r}")
    return complex(_real(pair[0], what), _real(pair[1], what))


def category_to_dict(data: CategoryData) -> dict:
    ring = data.ring
    doc = {
        "labels": list(ring.labels),
        "dual": list(ring.dual),
        "N": [[s, t, u, int(ring.N[s, t, u])] for s, t, u in ring.r_keys],
        "S": [[_pair(z) for z in row] for row in data.modular.S],
        "T": [_pair(z) for z in data.modular.T],
    }
    if data.presentation is not None:
        F = data.presentation.F
        R = data.presentation.R
        doc["F"] = [{"labels": list(key), "value": _pair(F[key])} for key in ring.f_keys]
        doc["R"] = [{"labels": list(key), "value": _pair(R[key])} for key in ring.r_keys]
    if data.central_charge is not None:
        doc["central_charge"] = float(data.central_charge)
    return doc


@_document("category file")
def dict_to_category(doc: dict, name: str = "file") -> CategoryData:
    _check_keys(
        doc,
        required=("labels", "dual", "N", "S", "T"),
        optional=("F", "R", "central_charge"),
        what="category file",
    )
    labels = doc["labels"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise StructuralError("labels must be an array of strings")
    n = len(labels)
    N = np.zeros((n, n, n), dtype=np.int64)
    for quad in doc["N"]:
        if not (isinstance(quad, list) and len(quad) == 4):
            raise StructuralError(f"N entries must be [s,t,u,mult], got {quad}")
        s, t, u, mult = (_int(v, "N entry") for v in quad)
        if not all(0 <= i < n for i in (s, t, u)) or mult < 0:
            raise StructuralError(f"N entry out of range: {quad}")
        N[s, t, u] = mult
    ring = FusionRing(labels, [_int(d, "dual entry") for d in doc["dual"]], N)
    S = np.array(
        [[_complex(z, "S entry") for z in row] for row in doc["S"]], dtype=complex
    )
    T = np.array([_complex(z, "T entry") for z in doc["T"]], dtype=complex)
    md = ModularData(ring, S, T)

    cat = None
    if ("F" in doc) != ("R" in doc):
        raise StructuralError("F and R must be supplied together")
    if "F" in doc:
        F = {}
        for item in doc["F"]:
            _check_keys(item, ("labels", "value"), (), "F entry")
            key = tuple(_int(v, "F label") for v in item["labels"])
            if len(key) != 6:
                raise StructuralError(f"F labels must have 6 entries: {item}")
            F[key] = _complex(item["value"], "F value")
        R = {}
        for item in doc["R"]:
            _check_keys(item, ("labels", "value"), (), "R entry")
            key = tuple(_int(v, "R label") for v in item["labels"])
            if len(key) != 3:
                raise StructuralError(f"R labels must have 3 entries: {item}")
            R[key] = _complex(item["value"], "R value")
        cat = CategoryPresentation(ring, F, R)
    cc = _real(doc["central_charge"], "central_charge") if "central_charge" in doc else None
    return CategoryData(name, ring, md, cat, cc)


def save_category(data: CategoryData, path) -> None:
    Path(path).write_text(dump_canonical(category_to_dict(data)))


def load_category(path) -> CategoryData:
    return dict_to_category(_read_json(path, "category file"), name=Path(path).stem)


def qsystem_to_dict(q: QSystemSpec) -> dict:
    return {
        "theta": list(q.theta),
        "lambda": [
            {"summands": list(key), "channel": 0, "value": _pair(q.lam[key])}
            for key in sorted(q.lam)
        ],
    }


@_document("q-system file")
def dict_to_qsystem(doc: dict) -> QSystemSpec:
    _check_keys(doc, ("theta", "lambda"), (), "q-system file")
    lam = {}
    for item in doc["lambda"]:
        _check_keys(item, ("summands", "channel", "value"), (), "lambda entry")
        key = tuple(_int(v, "lambda summand") for v in item["summands"])
        if len(key) != 3:
            raise StructuralError(f"lambda summands must have 3 entries: {item}")
        if _int(item["channel"], "lambda channel") != 0:
            raise StructuralError(
                "multiplicity-free categories have a single fusion channel; "
                "channel must be 0"
            )
        lam[key] = _complex(item["value"], "lambda value")
    return QSystemSpec([_int(m, "theta entry") for m in doc["theta"]], lam)


def save_qsystem(q: QSystemSpec, path) -> None:
    Path(path).write_text(dump_canonical(qsystem_to_dict(q)))


def load_qsystem(path) -> QSystemSpec:
    return dict_to_qsystem(_read_json(path, "q-system file"))


@_document("nimrep file")
def load_nimrep_matrices(path) -> list[np.ndarray]:
    """Nimrep file: ``{"n": [matrix per sector]}`` with integer entries."""
    doc = _read_json(path, "nimrep file")
    _check_keys(doc, ("n",), (), "nimrep file")
    mats = [_int_matrix(m, "nimrep entry") for m in doc["n"]]
    if not mats or any(m.ndim != 2 or m.shape != mats[0].shape for m in mats):
        raise StructuralError("nimrep matrices must be square and same-sized")
    return mats


@_document("coupling file")
def load_coupling_matrix(path) -> np.ndarray:
    """Coupling file: ``{"Z": matrix}`` with integer entries."""
    doc = _read_json(path, "coupling file")
    _check_keys(doc, ("Z",), (), "coupling file")
    Z = _int_matrix(doc["Z"], "Z entry")
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise StructuralError("Z must be a square matrix")
    return Z


def file_fingerprint(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_report(path, operation: str, inputs: dict, settings: dict, payload: dict) -> None:
    """Machine-readable result file with input fingerprints; stable bytes."""
    doc = {
        "operation": operation,
        "inputs": {k: file_fingerprint(v) for k, v in sorted(inputs.items())},
        "settings": dict(sorted(settings.items())),
        "payload": payload,
    }
    Path(path).write_text(dump_canonical(doc))
