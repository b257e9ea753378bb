"""File formats: category files, Q-system files, nimrep/coupling files, reports.

All schemas are strict (unknown keys are rejected; silent typos in physics
data are the dominant failure mode).  Serialization is canonical: fixed key
order, entries sorted, floats printed with 17 significant digits, so that
save(load(f)) is byte-identical and report fingerprints are stable.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .catalog import CategoryData
from .category import CategoryPresentation
from .errors import StructuralError
from .modular import ModularData
from .qsystems import QSystemSpec
from .rings import FusionRing

__all__ = [
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


_ROWS_PER_CHUNK = 1 << 16  # F/R rows formatted at a time, to bound the temporary lists


class _Json(str):
    """Text that is already canonical JSON; ``_fmt`` emits it unchanged."""


def _fmt(value) -> str:
    if isinstance(value, _Json):
        return value
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
def _collector_paused():
    """Pause the cyclic garbage collector.  A category file parses into
    millions of containers, none of them in a reference cycle, so the
    collector's passes over them would only cost time."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


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


def _entry_rows(labels: np.ndarray, values: np.ndarray) -> _Json:
    """F or R entries ``{"labels": [...], "value": [re, im]}`` as canonical JSON:
    one row template filled from the label columns and the value columns, with
    the floats of ``_fmt`` (17 digits, ``-0.0`` written as ``0.0``)."""
    pairs = np.stack([values.real, values.imag], axis=1)
    if not np.isfinite(pairs).all():
        raise StructuralError("cannot serialize non-finite float")
    pairs += 0.0  # canonicalize the sign of zero
    row = '{"labels":[' + ",".join(["%d"] * labels.shape[1]) + '],"value":[%.17g,%.17g]}'
    text = []
    for start in range(0, len(labels), _ROWS_PER_CHUNK):
        part = slice(start, start + _ROWS_PER_CHUNK)
        columns = [*labels[part].T.tolist(), *pairs[part].T.tolist()]
        text.append(",".join(map(row.__mod__, zip(*columns))))
    return _Json("[" + ",".join(text) + "]")


def _entry_columns(items, width: int, what: str):
    """The entries ``{"labels": [width integers], "value": [re, im]}`` of a
    category file's F or R section as an int64 ``(M, width)`` label array and
    the M complex values, in file order.  The checks are those of reading one
    entry at a time, made on whole columns; a failure names the first
    offending entry."""
    if not isinstance(items, list):
        raise StructuralError(f"{what} must be an array of entries, got {type(items).__name__}")
    if set(map(type, items)) - {dict}:
        bad = next(item for item in items if type(item) is not dict)
        raise StructuralError(f"{what} entries must be objects, got {bad!r}")
    members = {"labels", "value"}
    if set(map(frozenset, items)) - {frozenset(members)}:
        _check_keys(next(item for item in items if item.keys() != members), members, (), f"{what} entry")
    labels = [item["labels"] for item in items]
    if set(map(type, labels)) - {list} or set(map(len, labels)) - {width}:
        bad = next(item for item in items if type(item["labels"]) is not list or len(item["labels"]) != width)
        raise StructuralError(f"{what} labels must have {width} entries: {bad}")
    if set(map(type, chain.from_iterable(labels))) - {int}:
        for v in chain.from_iterable(labels):
            _int(v, f"{what} label")
    values = [item["value"] for item in items]
    if set(map(type, values)) - {list} or set(map(len, values)) - {2}:
        bad = next(v for v in values if type(v) is not list or len(v) != 2)
        raise StructuralError(f"{what} value must be [re, im], got {bad!r}")
    if set(map(type, chain.from_iterable(values))) - {int, float}:
        for v in chain.from_iterable(values):
            _real(v, f"{what} value")
    return (
        np.fromiter(chain.from_iterable(labels), np.int64, width * len(items)).reshape(-1, width),
        np.fromiter(chain.from_iterable(values), float, 2 * len(items)).view(complex),
    )


def _category_doc(data: CategoryData) -> dict:
    ring = data.ring
    doc = {
        "labels": list(ring.labels),
        "dual": list(ring.dual),
        "N": np.column_stack([ring.r_key_array, ring.N[ring.N > 0]]).tolist(),
        "S": [[_pair(z) for z in row] for row in data.modular.S],
        "T": [_pair(z) for z in data.modular.T],
    }
    if data.presentation is not None:
        doc["F"] = _entry_rows(ring.f_key_array, data.presentation.f_values)
        doc["R"] = _entry_rows(ring.r_key_array, data.presentation.R[ring.N > 0])
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
    seen = set()
    for quad in doc["N"]:
        if not (isinstance(quad, list) and len(quad) == 4):
            raise StructuralError(f"N entries must be [s,t,u,mult], got {quad}")
        s, t, u, mult = (_int(v, "N entry") for v in quad)
        if not all(0 <= i < n for i in (s, t, u)) or mult < 0:
            raise StructuralError(f"N entry out of range: {quad}")
        if (s, t, u) in seen:
            raise StructuralError(f"duplicate N entry {(s, t, u)}")
        seen.add((s, t, u))
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
        F = _entry_columns(doc["F"], 6, "F")
        R = _entry_columns(doc["R"], 3, "R")
        cat = CategoryPresentation(ring, F, R)
    cc = _real(doc["central_charge"], "central_charge") if "central_charge" in doc else None
    return CategoryData(name, ring, md, cat, cc)


def save_category(data: CategoryData, path) -> None:
    Path(path).write_text(dump_canonical(_category_doc(data)))


def load_category(path) -> CategoryData:
    with _collector_paused():
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
        if key in lam:
            raise StructuralError(f"duplicate lambda entry {key}")
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
    if not mats or any(m.shape != (len(mats[0]),) * 2 for m in mats):
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
