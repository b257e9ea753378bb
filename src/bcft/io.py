"""File formats: category files, Q-system files, nimrep/coupling files, reports.

All schemas are strict (unknown keys are rejected; silent typos in physics
data are the dominant failure mode).  Serialization is canonical: fixed key
order, entries sorted, floats printed with 17 significant digits, so that
save(load(f)) is byte-identical and report fingerprints are stable.  A
category file in that layout has its F and R rows read by columns, without
the parsed JSON document; any other layout is read through the document.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
from collections.abc import Iterator
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


_ROWS_PER_CHUNK = 1 << 13  # F/R rows written at a time, to bound the temporaries
_CHUNK_BYTES = 1 << 18  # F/R text parsed, or file bytes hashed, at a time
_COLUMNS_MIN_BYTES = 1 << 14  # json.loads reads a smaller category file faster than the columns
# an F/R row: its start, the comma between numbers, the text between labels and values, its end
_ROW_TEXT = ('{"labels":[', ",", '],"value":[', "]}")


def _fmt(value) -> str:
    """Canonical JSON text of ``value``, the one converter of file and report values: tuples and
    numpy arrays become arrays, numpy scalars numbers, floats 17 digits with ``-0.0`` written as ``0``."""
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
    return [np.real(z), np.imag(z)]


def _check_keys(doc: dict, required, optional, what: str):
    keys = set(doc)
    missing = set(required) - keys
    if missing:
        raise StructuralError(f"{what}: missing members {sorted(missing)}")
    unknown = keys - set(required) - set(optional)
    if unknown:
        raise StructuralError(f"{what}: unknown members {sorted(unknown)}")


def _read_json(path, what: str) -> dict:
    """Parse the JSON object in ``path``; malformed input is a StructuralError."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise StructuralError(f"{what}: not valid JSON: {exc}") from exc
    return _json_object(text, what)


def _json_object(text: str, what: str, **hooks) -> dict:
    """Parse the JSON object ``text``; malformed input is a StructuralError.

    Non-finite numbers are malformed too: the ``NaN``/``Infinity`` constants
    Python's json accepts, and literals such as ``1e999`` that overflow a float.
    """

    def finite(text):
        x = float(text)
        if not math.isfinite(x):
            raise StructuralError(f"{what}: non-finite number {text}")
        return x

    try:
        doc = json.loads(text, parse_float=finite, parse_constant=finite, **hooks)
    except json.JSONDecodeError as exc:
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


def _entry_rows(labels: np.ndarray, values: np.ndarray):
    """F or R entries ``{"labels": [...], "value": [re, im]}`` as canonical JSON
    text, yielded a chunk of rows at a time.  Each distinct label and float is
    formatted once (17 digits, ``-0.0`` written as ``0.0``), with the template
    text around it, and the rows are gathered from those cells.  The values are
    checked on the call, before any text is made."""
    pairs = np.stack([values.real, values.imag], axis=1)
    if not np.isfinite(pairs).all():
        raise StructuralError("cannot serialize non-finite float")
    floats, at = np.unique(pairs + 0.0, return_inverse=True)  # + 0.0: the sign of zero
    digits = [*map(str, range(labels.max(initial=0) + 1))]
    numbers = [*map("%.17g".__mod__, floats.tolist())]
    width, at = labels.shape[1], at.reshape(-1, 2)
    opening, comma, middle, closing = _ROW_TEXT
    # (text before, numbers, text after, index column) per cell; the first row drops its leading comma
    cells = [
        ("," + opening if j == 0 else "", digits, comma if j < width - 1 else middle, labels[:, j])
        for j in range(width)
    ]
    cells += [("", numbers, comma, at[:, 0]), ("", numbers, closing, at[:, 1])]
    cells = [(np.array([a + x + b for x in texts], dtype=object), index) for a, texts, b, index in cells]

    def chunks():
        yield "["
        for start in range(0, len(labels), _ROWS_PER_CHUNK):
            rows = np.stack([texts[index[start : start + _ROWS_PER_CHUNK]] for texts, index in cells], axis=1)
            if start == 0:
                rows[0, 0] = rows[0, 0][1:]
            yield "".join(rows.ravel().tolist())
        yield "]"

    return chunks()


def _entry_columns(items, width: int, what: str):
    """The entries ``{"labels": [width integers], "value": [re, im]}`` of a
    category file's F or R section as an int64 ``(M, width)`` label array and
    the M complex values, in file order.  One pass checks each entry in turn
    and names the first that fails; then the labels must be integers and the
    values numbers."""
    if isinstance(items, tuple):  # the columns, read by _columns_doc
        return items
    if not isinstance(items, list):
        raise StructuralError(f"{what} must be an array of entries, got {type(items).__name__}")
    members = {"labels", "value"}
    labels, values = [], []
    for item in items:
        if type(item) is not dict:
            raise StructuralError(f"{what} entries must be objects, got {item!r}")
        if item.keys() != members:
            _check_keys(item, members, (), f"{what} entry")
        row, value = item["labels"], item["value"]
        if type(row) is not list or len(row) != width:
            raise StructuralError(f"{what} labels must have {width} entries: {item}")
        if type(value) is not list or len(value) != 2:
            raise StructuralError(f"{what} value must be [re, im], got {value!r}")
        labels += row
        values += value
    if set(map(type, labels)) - {int}:
        for v in labels:
            _int(v, f"{what} label")
    if set(map(type, values)) - {int, float}:
        for v in values:
            _real(v, f"{what} value")
    return np.array(labels, np.int64).reshape(-1, width), np.array(values, float).view(complex)


def _columns_doc(text: bytes):
    """The category document in ``text`` with its F and R members read as
    columns, if they are laid out as ``save_category`` writes them, else None.

    The two members are cut out of the text and the rest goes through
    ``_json_object``.  Each cut must be the writer's rows exactly, so the
    columns equal, bit for bit, those ``_entry_columns`` reads from the parsed
    document, and ``dict_to_category`` checks them the same way."""
    if len(text) < _COLUMNS_MIN_BYTES:
        return None
    f_start = text.find(b'"F":[') + 5
    f_stop = text.find(b'],"R":[', f_start)
    r_stop = text.rfind(b"]")
    if f_start < 5 or f_stop < 0:
        return None
    names = []  # the member names of every object in the rest, which must hold one F and one R
    try:
        doc = _json_object(
            (text[:f_start] + text[f_stop : f_stop + 7] + text[r_stop:]).decode("ascii"),
            "category file",
            object_pairs_hook=lambda pairs: names.extend(name for name, _ in pairs) or dict(pairs),
        )
    except (StructuralError, UnicodeDecodeError):
        return None
    if names.count("F") != 1 or names.count("R") != 1 or doc.get("F") != [] or doc.get("R") != []:
        return None
    if not isinstance(doc.get("labels"), list) or len(doc["labels"]) > 100:
        return None
    n = len(doc["labels"])
    sectors = np.full(1 << 16, -1, np.int8)  # the label whose text is each two bytes, or -1
    sectors[np.array([b"%d" % label for label in range(n)], "S2").view("<u2")] = range(n)
    doc["F"] = _section_columns(text, f_start, f_stop, 6, sectors)
    doc["R"] = _section_columns(text, f_stop + 7, r_stop, 3, sectors)
    return doc if doc["F"] and doc["R"] else None


def _section_columns(text: bytes, start: int, stop: int, width: int, sectors: np.ndarray):
    """The label and value columns of the rows in ``text[start:stop]``, read a
    chunk of rows at a time, if they are the rows ``_entry_rows`` writes with
    the labels of ``sectors`` (see ``_columns_doc``), else None."""
    opening, comma, middle, closing = _ROW_TEXT
    row = opening + comma.join("0" * width) + middle + "0" + comma + "0" + closing + ","
    at = [i for i, c in enumerate(row) if c in ",[]"]
    gaps = [row[i + 1 : j] for i, j in zip([-1, *at], at)]  # the text before each mark; "0" is a number
    marks = np.frombuffer(row.encode(), np.uint8)[at]
    rows = text.count(b"{", start, stop)  # one per row
    labels, values = np.empty((rows, width), np.int64), np.empty(rows, complex)
    floats = {}  # value text -> its float, once checked
    done = 0
    while start < stop:
        end = text.find(b"},{", start + _CHUNK_BYTES, stop) + 1 or stop
        columns = _rows_columns(text[start:end], marks, gaps, sectors, floats)
        if columns is None:
            return None
        size = len(columns[1])
        labels[done : done + size], values[done : done + size] = columns
        done, start = done + size, end + 1
    return labels, values


# the low n bytes of a word, and of each of three words (n = 0 .. 24)
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], np.uint64)
_LOW_WORDS = _LOW_BYTES[np.clip(np.arange(25)[:, None] - [0, 8, 16], 0, 8)]


def _rows_columns(chunk: bytes, marks: np.ndarray, gaps: list, sectors: np.ndarray, floats: dict):
    """The columns of the rows in ``chunk`` (see ``_section_columns``), or None.

    The commas and brackets must be the template's ``marks``, row after row,
    with the template's text between them.  Each label must be the text of
    one of ``sectors``, and each value the ``%.17g`` text of a finite float
    that is not ``-0``; ``floats`` holds each value text parsed so far."""
    if b"\0" in chunk:  # so that a token of up to 24 bytes is the low bytes of the words it starts
        return None
    buf = np.frombuffer(chunk + b"," + bytes(24), np.uint8)  # each row ends in a comma; padding to read words

    def from_each_byte(dtype):  # the item of ``dtype`` that starts at each byte
        return np.ndarray(buf.size - np.dtype(dtype).itemsize + 1, dtype, buf, 0, (1,))

    head = buf[: len(chunk) + 1]
    at = np.flatnonzero((head == 44) | (head == 91) | (head == 93))  # , [ ]
    if at.size == 0 or at.size % marks.size or (buf[at].reshape(-1, marks.size) != marks).any():
        return None
    begin = np.empty_like(at)  # of the text before each mark
    begin[0], begin[1:] = 0, at[:-1] + 1
    begin, length = begin.reshape(-1, marks.size), (at - begin).reshape(-1, marks.size)
    fixed = [k for k, gap in enumerate(gaps) if gap != "0"]
    if (length[:, fixed] != [len(gaps[k]) for k in fixed]).any() or any(
        (from_each_byte(f"S{len(gaps[k])}")[begin[:, k]] != gaps[k].encode()).any() for k in fixed if gaps[k]
    ):
        return None

    numbers = [k for k, gap in enumerate(gaps) if gap == "0"]  # the label columns, then re and im
    columns = slice(numbers[0], numbers[-3] + 1)
    if length[:, columns].max() > 2:
        return None
    labels = sectors[from_each_byte("<u2")[begin[:, columns]] & _LOW_BYTES[length[:, columns]]]
    if (labels < 0).any():
        return None

    begin, length = begin[:, numbers[-2:]].ravel(), length[:, numbers[-2:]].ravel()
    if length.max() > 24:
        return None
    words = from_each_byte("V24")[begin].view("<u8").reshape(-1, 3) & _LOW_WORDS[length]  # cut to length
    texts = words.astype("<u8", copy=False).view("S24").ravel().tolist()
    try:
        for text in set(texts).difference(floats):
            x = floats[text] = float(text)
            if not math.isfinite(x) or b"%.17g" % (x + 0.0) != text:
                return None
    except ValueError:
        return None
    return labels, np.array([floats[text] for text in texts]).view(complex)


def _category_doc(data: CategoryData) -> dict:
    ring = data.ring
    doc = {
        "labels": ring.labels,
        "dual": ring.dual,
        "N": np.column_stack([ring.r_key_array, ring.N[ring.N > 0]]),
        "S": [[_pair(z) for z in row] for row in data.modular.S],
        "T": [_pair(z) for z in data.modular.T],
    }
    if data.presentation is not None:
        doc["F"] = _entry_rows(ring.f_key_array, data.presentation.f_values)
        doc["R"] = _entry_rows(ring.r_key_array, data.presentation.R[ring.N > 0])
    if data.central_charge is not None:
        doc["central_charge"] = data.central_charge
    return doc


@_document("category file")
def dict_to_category(doc: dict, name: str = "file") -> CategoryData:
    _check_keys(doc, ("labels", "dual", "N", "S", "T"), ("F", "R", "central_charge"), "category file")
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
        cat = CategoryPresentation(ring, _entry_columns(doc["F"], 6, "F"), _entry_columns(doc["R"], 3, "R"))
    cc = _real(doc["central_charge"], "central_charge") if "central_charge" in doc else None
    return CategoryData(name, ring, md, cat, cc)


def save_category(data: CategoryData, path) -> None:
    """Write the canonical category file.  Every value is checked, and all but
    the F and R rows formatted, before the file is opened, so a failing save
    writes nothing; the rows are then written a chunk at a time."""
    members = [
        (json.dumps(key), value if isinstance(value, Iterator) else [_fmt(value)])
        for key, value in _category_doc(data).items()
    ]
    with open(path, "w") as out:
        for i, (key, text) in enumerate(members):
            out.write(("," if i else "{") + key + ":")
            out.writelines(text)
        out.write("}\n")


def load_category(path) -> CategoryData:
    """Read a category file: F and R by columns when they are laid out as
    ``save_category`` writes them, otherwise through the parsed document.
    Both give the same data, or the same StructuralError."""
    with _collector_paused():
        doc = _columns_doc(Path(path).read_bytes()) or _read_json(path, "category file")
        return dict_to_category(doc, name=Path(path).stem)


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
    """Nimrep file: ``{"n": [matrix per sector]}`` with integer entries, whose
    shapes and count :class:`~bcft.classify.Nimrep` checks when built from them."""
    doc = _read_json(path, "nimrep file")
    _check_keys(doc, ("n",), (), "nimrep file")
    return [_int_matrix(m, "nimrep entry") for m in doc["n"]]


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
    """SHA-256 of the file's bytes, read a block at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as file:
        for block in iter(lambda: file.read(_CHUNK_BYTES), b""):
            digest.update(block)
    return digest.hexdigest()


def write_report(path, operation: str, inputs: dict, settings: dict, payload: dict) -> None:
    """Machine-readable result file with input fingerprints; stable bytes."""
    doc = {
        "operation": operation,
        "inputs": {k: file_fingerprint(v) for k, v in sorted(inputs.items())},
        "settings": dict(sorted(settings.items())),
        "payload": payload,
    }
    Path(path).write_text(dump_canonical(doc))
