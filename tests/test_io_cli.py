import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import SECTOR_REFUSALS

from bcft.catalog import catalog, fibonacci, ising
from bcft.classify import compatibility, enumerate_modular_invariants, enumerate_nimreps, regular_nimrep
from bcft import cli
from bcft.cli import main
from bcft.errors import StructuralError
from bcft.io import (
    _columns_doc,
    _read_json,
    dict_to_category,
    file_fingerprint,
    load_category,
    load_qsystem,
    save_category,
    save_qsystem,
)
from bcft.qsystems import DEFAULT_STARTS, QSystemSpec, car_qsystem, fingerprint, regular_qsystem, search_qsystems
from bcft.rings import DEFAULT_TOL


@pytest.fixture()
def ising_file(tmp_path, ising_data):
    path = tmp_path / "ising.json"
    save_category(ising_data, path)
    return path


@pytest.fixture()
def car_file(tmp_path, ising_data):
    path = tmp_path / "car.json"
    save_qsystem(car_qsystem(ising_data.presentation), path)
    return path


@pytest.fixture()
def nimrep_file(tmp_path, ising_data):
    path = tmp_path / "nimrep.json"
    path.write_text(json.dumps({"n": [m.tolist() for m in regular_nimrep(ising_data.ring).matrices]}))
    return path


@pytest.fixture()
def coupling_file(tmp_path):
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"Z": np.eye(3, dtype=int).tolist()}))
    return path


# SHA-256 of the category files written by save_category; these bytes are the
# file format, so a writer that changed them, even consistently, fails here
CATEGORY_FILE_SHA256 = {
    "ising": "d99b28a1628f5e5c44991d67eb16aa3c01021422c792c3956bad29c7a70f2278",
    "fibonacci": "5bbb6caf12bd79b1126ed47b4f53b04d3624b679f55a2506830ab3bb01f5b5d2",
    "spin8_1": "7bc206e0d2d97a6494d1ba35ebc461219e235930bf2cec000a2c28d3e3a59b92",
    "z3": "0780437e4eb43f7631527af8eb75772eabeb1c60ba61cd10d368431e3d8c650a",
    "su2_1": "65c73519d8874bf8b068117744c631c1820eea4ac41bc627f8ca6a000192f77f",
    "su2_2": "fe3a1ce4be3d7bfb071942a3b191f1fb261eb09cd6428ede763489bf95cccde2",
    "su2_3": "364bcc4958d4b2720b13362b69a59c1cddb461cedc559faf949a1eef345a5e6d",
    "su2_4": "84b8b3c98e584c8bd43cd8460c96b96028d21a43ed2f314a1a0f22074672f5ec",
    "su2_5": "be8fb0c3083ce696432084e2135ec3eb68f444b949264c4f573c445c764f4413",
    "su2_6": "70d26075782bc5298ed5b4b97647efeeece660f71d8257c4174bcb2d06dbe422",
    "su2_7": "095b7e3ac42024d8367f3e451ecef470d5867ed35c326267a91e4a2c87e4b1ce",
    "su2_8": "143d44b535c07934ebf872e3c889e670636ce454b92f618f65607c624afbd951",
    "su2_9": "fd3659a72f48183c66eadffe0a82363cf587aed4c8c9f1b5469d5f1000748a7f",
    "su2_10": "9ae7c1a03fe20295bc35f658b171339c12aa47c19ed9c5a680b6e9a7dd2b1cc4",
    "su2_11": "57a9c76f92d863144a287fddb046ab8516fcbe005a25673b2826c8325ecd623f",
    "su2_12": "41ba5dcdcf4d0e6770a4060bbcf9a0acf593197d3bb1c3c8735adc23351c6ced",
}


def test_category_file_bytes_pinned(tmp_path, spin8_data, z3_data, su2_level):
    cats = {"ising": ising(), "fibonacci": fibonacci(), "spin8_1": spin8_data, "z3": z3_data}
    for name, want in CATEGORY_FILE_SHA256.items():
        data = cats[name] if name in cats else su2_level(int(name.removeprefix("su2_")))
        path = tmp_path / f"{name}.json"
        save_category(data, path)
        assert file_fingerprint(path) == want, name


def test_category_round_trip_bytes(tmp_path, su2_level):
    # several sizes, so the sorted F/R key order is covered beyond 3 sectors
    for data in [ising(), fibonacci()] + [su2_level(k) for k in range(1, 11)]:
        first, again = tmp_path / "first.json", tmp_path / "again.json"
        save_category(data, first)
        save_category(load_category(first), again)
        assert again.read_bytes() == first.read_bytes(), data.name


def test_loaded_catalog_passes_validators(ising_file, ising_data):
    from bcft.category import validate_axioms
    from bcft.modular import validate_modular
    from bcft.rings import validate_ring

    data = load_category(ising_file)
    assert validate_ring(data.ring) == []
    assert validate_modular(data.modular) == []
    assert validate_axioms(data.presentation).valid
    assert data.ring == ising_data.ring


def test_qsystem_round_trip(tmp_path, car_file, ising_data):
    q = load_qsystem(car_file)
    assert fingerprint(q, ising_data.presentation) == fingerprint(
        car_qsystem(ising_data.presentation), ising_data.presentation
    )
    out = tmp_path / "car2.json"
    save_qsystem(q, out)
    assert out.read_bytes() == car_file.read_bytes()


def test_unknown_member_rejected(ising_file):
    doc = json.loads(ising_file.read_text())
    doc["typo_key"] = 1
    with pytest.raises(StructuralError, match="unknown members"):
        dict_to_category(doc)


def test_missing_member_rejected(ising_file):
    doc = json.loads(ising_file.read_text())
    del doc["S"]
    with pytest.raises(StructuralError, match="missing members"):
        dict_to_category(doc)


def test_cli_catalog_validate(tmp_path, capsys):
    out = tmp_path / "fib.json"
    assert main(["catalog", "fibonacci", "--out", str(out)]) == 0
    assert main(["validate", str(out)]) == 0
    text = capsys.readouterr().out
    assert "VALID" in text


def test_cli_validate_broken_exits_1(tmp_path, ising_file, capsys):
    doc = json.loads(ising_file.read_text())
    doc["S"][1][0] = [-doc["S"][1][0][0], 0.0]  # breaks symmetry and unitarity
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert main(["validate", str(broken)]) == 1
    text = capsys.readouterr().out
    assert "INVALID" in text
    assert "unitary" in text or "symmetric" in text


def _replaced(path, keys, value) -> bytes:
    """The JSON document in ``path`` with the member at ``keys`` set to ``value``."""
    if not keys:
        return json.dumps(value).encode()
    doc = json.loads(path.read_text())
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return json.dumps(doc).encode()


def _repeated(path, member, index, edit=lambda entry: entry) -> bytes:
    """The JSON document in ``path`` with entry ``index`` of ``member`` listed
    again at the end, passed through ``edit``."""
    doc = json.loads(path.read_text())
    doc[member].append(edit(doc[member][index]))
    return json.dumps(doc).encode()


def test_cli_malformed_exits_2(tmp_path, ising_file, car_file, nimrep_file, coupling_file, capsys):
    bad = str(tmp_path / "bad.json")
    nan = [math.nan, 0.0]  # json writes NaN, which Python's json reads back
    two_matrices = _replaced(nimrep_file, ("n",), json.loads(nimrep_file.read_text())["n"][:2])
    folder = tmp_path / "folder"
    folder.mkdir()
    cases = [
        (["validate", bad], b'{"labels": ["0"], "oops": 1}'),
        (["cardy", str(ising_file), bad], b"{not json"),
        (["nimreps", str(ising_file), "--size", "3", "--invariant", bad], b"{not json"),
        (["induce", str(ising_file), bad], b"5"),
        (["induce", bad, str(car_file)], b"[1, 2]"),
        (["validate", bad], b"\xff"),  # not UTF-8
        # non-finite numbers
        (["validate", bad], _replaced(ising_file, ("F", 0, "value"), nan)),
        (["validate", bad], _replaced(ising_file, ("R", 0, "value"), nan)),
        (["validate", bad], _replaced(ising_file, ("T", 1), nan)),
        (["validate", bad], ising_file.read_bytes().replace(b":0.5}", b":1e999}")),
        # wrong-typed values inside the document
        (["validate", bad], _replaced(ising_file, ("N",), 7)),
        (["validate", bad], _replaced(ising_file, ("N", 0), ["zz", 0, 0, 1])),
        (["validate", bad], _replaced(ising_file, ("dual",), 5)),
        (["validate", bad], _replaced(ising_file, ("S",), 5)),
        (["validate", bad], _replaced(ising_file, ("F", 0, "labels"), "abcdef")),
        (["validate", bad], _replaced(ising_file, ("central_charge",), "x")),
        (["validate", bad], _replaced(ising_file, ("S", 0, 0), "a\nb")),  # still one line
        (["induce", str(ising_file), bad], _replaced(car_file, ("theta",), 5)),
        (["induce", str(ising_file), bad], _replaced(car_file, ("lambda", 0, "value"), 5)),
        (["induce", str(ising_file), bad], _replaced(car_file, ("lambda", 0, "value"), [])),
        (["induce", str(ising_file), bad], _replaced(car_file, ("theta",), [1, 0, 1, 0])),
        # integer fields take JSON integers only: no truncated fractions, no booleans
        (["validate", bad], _replaced(ising_file, ("F", 0, "labels"), [0.7, 0, 0, 0, 0, 0])),
        (["validate", bad], _replaced(ising_file, ("R", 0, "labels", 0), 0.0)),
        (["validate", bad], _replaced(ising_file, ("N", 0), [0.2, 0, 0, 1.9])),
        (["validate", bad], _replaced(ising_file, ("N", 0, 3), True)),
        (["validate", bad], _replaced(ising_file, ("dual", 1), 1.5)),
        (["induce", str(ising_file), bad], _replaced(car_file, ("theta", 2), 1.5)),
        (["induce", str(ising_file), bad], _replaced(car_file, ("theta", 0), True)),
        (["induce", str(ising_file), bad], _replaced(car_file, ("lambda", 1, "summands", 1), 1.2)),
        # a lambda entry that names 2 or 4 summands, not 3
        (["induce", str(ising_file), bad], _replaced(car_file, ("lambda", 1, "summands"), [0, 1])),
        (["induce", str(ising_file), bad], _replaced(car_file, ("lambda", 1, "summands"), [0, 1, 1, 0])),
        (["induce", str(ising_file), bad], _replaced(car_file, ("lambda", 0, "channel"), 0.5)),
        (["cardy", str(ising_file), bad], _replaced(nimrep_file, ("n", 1, 1, 0), 1.6)),
        # non-square nimrep matrices, 2x3 and 1x0, are malformed, not an invalid nimrep
        (["cardy", str(ising_file), bad], json.dumps({"n": [[[1, 0, 0], [0, 1, 0]]] * 3}).encode()),
        (["partition", str(ising_file), bad, "--a", "0", "--b", "0", "--beta", "3.2"], b'{"n": [[[]], [[]], [[]]]}'),
        (["cardy", str(ising_file), bad], b'{"n": [[[]], [[]], [[]]]}'),
        (["partition", str(ising_file), bad, "--a", "0", "--b", "0", "--beta", "3.2"],
         json.dumps({"n": [[[1, 0, 0], [0, 1, 0]]] * 3}).encode()),
        # a nimrep file with one matrix too few for the 3 Ising sectors
        (["cardy", str(ising_file), bad], two_matrices),
        (["partition", str(ising_file), bad, "--a", "0", "--b", "0", "--beta", "3.2"], two_matrices),
        (["nimreps", str(ising_file), "--size", "3", "--invariant", bad],
         _replaced(coupling_file, ("Z", 0, 0), 1.6)),
        (["nimreps", str(ising_file), "--size", "3", "--invariant", bad],
         _replaced(coupling_file, ("Z",), [[1, 0], [0, 1]])),  # a 2x2 Z for 3 sectors
        (["qsearch", str(ising_file), "--theta", "1,x,1"], b"{}"),
        # a search without starts, a negative truncation order or entry bound
        (["qsearch", str(ising_file), "--theta", "1,0,1", "--starts", "0"], b"{}"),
        (["qsearch", str(ising_file), "--theta", "1,0,1", "--starts", "-3"], b"{}"),
        (["partition", str(ising_file), str(nimrep_file), "--a", "0", "--b", "0",
          "--beta", "3.2", "--order", "-1"], b"{}"),
        (["invariants", str(ising_file), "--max-entry", "-1"], b"{}"),
        # real fields take JSON numbers only: no numeric strings, no booleans
        (["validate", bad], _replaced(ising_file, ("central_charge",), "nan")),
        (["validate", bad], _replaced(ising_file, ("central_charge",), True)),
        (["validate", bad], _replaced(ising_file, ("S", 0, 0, 0), "0.5")),
        (["validate", bad], _replaced(ising_file, ("S", 0, 0, 1), False)),
        (["validate", bad], _replaced(ising_file, ("T", 0, 0), "1")),
        (["validate", bad], _replaced(ising_file, ("F", 0, "value", 0), "0.5")),
        (["validate", bad], _replaced(ising_file, ("F", 0, "value", 1), False)),
        (["validate", bad], _replaced(ising_file, ("R", 0, "value", 0), True)),
        (["induce", str(ising_file), bad], _replaced(car_file, ("lambda", 0, "value", 0), "1")),
        # malformed F rows
        (["validate", bad], _replaced(ising_file, ("F", 0, "labels"), [0, 0, 0, 0, 0])),
        (["validate", bad], _replaced(ising_file, ("F", 0, "labels"), [0, 0, 0, 0, 0, 0, 0])),
        (["validate", bad], _replaced(ising_file, ("F", 0, "extra"), 1)),
        (["validate", bad], _replaced(ising_file, ("F", 0), 5)),
        (["validate", bad], _replaced(ising_file, ("F", 0, "value"), [1.0, 0.0, 0.0])),
        # an entry listed twice, even with another value, is not a silent overwrite
        (["validate", bad], _repeated(ising_file, "F", 5, lambda entry: {**entry, "value": [0.123, 0]})),
        (["validate", bad], _repeated(ising_file, "F", 0)),
        (["validate", bad], _repeated(ising_file, "R", 0)),
        (["validate", bad], _repeated(ising_file, "N", 0)),
        (["induce", str(ising_file), bad], _repeated(car_file, "lambda", 0)),
        # a level for a catalog without levels
        (["catalog", "ising", "--level", "5", "--out", bad], b"{}"),
        (["catalog", "fibonacci", "--level", "1", "--out", bad], b"{}"),
        # a tolerance outside (0, 1), checked before any command runs
        *((["--tolerance", t, "nimreps", str(ising_file), "--size", "2"], b"{}") for t in ("nan", "inf", "1e6")),
        *((["--tolerance", t, "validate", str(ising_file)], b"{}") for t in ("nan", "0", "-1", "inf")),
        # a non-finite beta
        *((["partition", str(ising_file), str(nimrep_file), "--a", "0", "--b", "0", "--beta", b], b"{}")
          for b in ("nan", "inf")),
        # an F section that is not a list, an F without R
        (["validate", bad], _replaced(ising_file, ("F",), 5)),
        (["validate", bad],
         json.dumps({k: v for k, v in json.loads(ising_file.read_text()).items() if k != "R"}).encode()),
        # a directory where a file is read or written
        (["validate", str(folder)], b"{}"),
        (["invariants", str(ising_file), "--out", str(folder)], b"{}"),
        (["nimreps", str(ising_file), "--size", "3", "--invariant", str(folder)], b"{}"),
    ]
    for argv, content in cases:
        Path(bad).write_bytes(content)
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cli_tolerance_leaves_the_multiplicity_bound(tmp_path, fib_data, capsys):
    """theta = 1 + 2 tau breaks m_tau <= floor(phi) at every --tolerance: the
    tolerance thresholds residuals, and the bound is the ring's."""
    category = tmp_path / "fib.json"
    save_category(fib_data, category)
    for prefix in ([], ["--tolerance", "0.5"]):
        capsys.readouterr()
        assert main([*prefix, "qsearch", str(category), "--theta", "1,2"]) == 2, prefix
        out, err = capsys.readouterr()
        assert out == "" and err == "error: theta violates the multiplicity bound at sector 1: 2 > floor(d_1)\n"


def test_cli_defaults_are_the_library_defaults():
    args = cli.build_parser().parse_args(["qsearch", "fib.json", "--theta", "1,1"])
    assert args.tolerance == DEFAULT_TOL == 1e-9 and args.starts == DEFAULT_STARTS == 24


def test_duplicate_entries_name_their_labels(ising_file, car_file, tmp_path):
    for member, index in (("F", 5), ("R", 0), ("N", 0)):
        doc = json.loads(_repeated(ising_file, member, index))
        entry = doc[member][index]
        labels = tuple(entry[:3] if member == "N" else entry["labels"])
        with pytest.raises(StructuralError, match=re.escape(f"duplicate {member} entry {labels}")):
            dict_to_category(doc)
    bad = tmp_path / "bad.json"
    bad.write_bytes(_repeated(car_file, "lambda", 0))
    labels = tuple(json.loads(car_file.read_text())["lambda"][0]["summands"])
    with pytest.raises(StructuralError, match=re.escape(f"duplicate lambda entry {labels}")):
        load_qsystem(bad)


def test_category_entries_load_in_any_order(tmp_path, su2_4_data, rng):
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    save_category(su2_4_data, first)
    doc = json.loads(first.read_text())
    for member in ("N", "F", "R"):
        doc[member] = [doc[member][i] for i in rng.permutation(len(doc[member]))]
    doc["F"] = [{"value": entry["value"], "labels": entry["labels"]} for entry in doc["F"]]
    save_category(dict_to_category(doc), again)
    assert again.read_bytes() == first.read_bytes()


def test_failing_save_writes_nothing(tmp_path, su2_4_data):
    broken = copy.copy(su2_4_data.presentation)
    broken.f_values = np.where(np.arange(broken.f_values.size) == 3, math.nan, broken.f_values)
    path = tmp_path / "broken.json"
    with pytest.raises(StructuralError, match="non-finite"):
        save_category(dataclasses.replace(su2_4_data, presentation=broken), path)
    assert not path.exists()


def test_category_file_memory(tmp_path, su2_level):
    # su2_12: a 2.4 MB file with 43,953 F rows; its parsed JSON document alone
    # takes about 10x the file, so the load bound holds only on the column path
    data, path = su2_level(12), tmp_path / "su2_12.json"
    save_category(data, path)
    size = path.stat().st_size
    for run, bound in ((lambda: load_category(path), 5), (lambda: save_category(data, path), 2.6)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * size, (run, peak / size)


def test_file_fingerprint_reads_blocks(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(np.random.default_rng(0).bytes(5 << 19))  # larger than one block
    assert file_fingerprint(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_cli_catalog_writes_library_bytes(tmp_path, su2_level):
    cli, library = tmp_path / "cli.json", tmp_path / "library.json"
    assert main(["catalog", "su2", "--level", "10", "--out", str(cli)]) == 0
    save_category(su2_level(10), library)
    assert cli.read_bytes() == library.read_bytes()
    assert main(["validate", str(cli)]) == 0


def test_cli_missing_file_exits_2(tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2


def test_cli_induce_report(tmp_path, ising_file, car_file, capsys):
    out = tmp_path / "report.json"
    assert (
        main(["induce", str(ising_file), str(car_file), "--out", str(out)]) == 0
    )
    doc = json.loads(out.read_text())
    assert doc["operation"] == "induce"
    assert doc["payload"]["Z"] == np.eye(3, dtype=int).tolist()
    assert doc["payload"]["theta_plus"]["multiplicities"] == [3, 0, 1]
    assert doc["payload"]["ledger"]["mu_B_plus"] == pytest.approx(1.0)
    assert doc["payload"]["ledger"]["haag_dual"] is True
    assert set(doc["inputs"]) == {"category", "qsystem"}


@pytest.mark.parametrize(
    "argv, inputs, settings",
    [
        (["invariants", "{category}"], ["category"], {"max_entry": None}),
        (["invariants", "{category}", "--max-entry", "1"], ["category"], {"max_entry": 1}),
        (["nimreps", "{category}", "--size", "3"], ["category"], {"size": 3}),
        (["nimreps", "{category}", "--size", "3", "--invariant", "{invariant}"], ["category", "invariant"], {"size": 3}),
        (["induce", "{category}", "{qsystem}"], ["category", "qsystem"], {}),
        (["cardy", "{category}", "{nimrep}"], ["category", "nimrep"], {}),
        # --check-transform changes the payload, not the settings
        (["partition", "{category}", "{nimrep}", "--a", "0", "--b", "1", "--beta", "6.283", "--check-transform"],
         ["category", "nimrep"], {"a": 0, "b": 1, "beta": 6.283, "order": 60}),
        # the seed is runtime only and never enters a report
        (["--seed", "7", "qsearch", "{category}", "--theta", "1,0,1", "--starts", "4"],
         ["category"], {"theta": [1, 0, 1], "starts": 4}),
    ],
)
@pytest.mark.parametrize("tolerance", [None, 1e-8])
def test_cli_report_envelope(tmp_path, ising_file, car_file, nimrep_file, coupling_file, argv, inputs, settings, tolerance):
    """A report names its subcommand, fingerprints the file arguments given and
    records the tolerance plus the command's own options."""
    files = {"category": ising_file, "qsystem": car_file, "nimrep": nimrep_file, "invariant": coupling_file}
    out = tmp_path / "report.json"
    prefix = ["--tolerance", repr(tolerance)] if tolerance else []
    assert main([*prefix, *(arg.format(**files) for arg in argv), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["operation"] == next(arg for arg in argv if arg.isalpha())
    assert doc["inputs"] == {name: file_fingerprint(files[name]) for name in inputs}
    assert doc["settings"] == {"tolerance": tolerance or 1e-9, **settings}


def test_cli_induce_checks_its_invariant(ising_file, car_file, monkeypatch, capsys):
    """A Z that breaks modular invariance is a verification failure, printed nowhere."""
    import bcft.cli as cli

    for Z, message in [
        (np.diag([1, 0, 1]), "does not commute with S and T"),  # commutes with T only
        (2 * np.eye(3, dtype=np.int64), "not among the modular invariants"),  # commutes, but Z[0, 0] = 2
    ]:
        monkeypatch.setattr(cli, "coupling_from_qsystem", lambda cat, q, Z=Z: Z)
        assert main(["induce", str(ising_file), str(car_file)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and message in err


def test_cli_induce_reports_an_invalid_qsystem(tmp_path, ising_file, ising_data, capsys):
    """A Q-system that fails validate_qsystem (the Ising CAR with lambda(0, 1, 1)
    doubled) is a verification failure: exit 1, its residuals on stdout."""
    car = car_qsystem(ising_data.presentation)
    doubled = tmp_path / "doubled.json"
    save_qsystem(QSystemSpec(car.theta, {**car.lam, (0, 1, 1): 2 * car.lam[(0, 1, 1)]}), doubled)
    capsys.readouterr()
    assert main(["induce", str(ising_file), str(doubled)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("q-system invalid: ") and err == ""


def test_cli_fr_commands_refuse_a_file_without_fr(tmp_path, ising_file, car_file, capsys):
    """induce and qsearch need F and R; a category file without them is malformed input."""
    doc = json.loads(ising_file.read_text())
    del doc["F"], doc["R"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    for command, argv in (("induce", [str(car_file)]), ("qsearch", ["--theta", "1,0,1"])):
        capsys.readouterr()
        assert main([command, str(bare), *argv]) == 2, command
        assert capsys.readouterr() == ("", f"error: {command} requires F/R data in the category file\n")


def test_cli_induce_reruns_identical(tmp_path, ising_file, car_file):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["induce", str(ising_file), str(car_file), "--out", str(out1)]) == 0
    assert main(["induce", str(ising_file), str(car_file), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    induce = ["induce", str(ising_file), str(car_file)]
    for argv in (["--threads", "2", *induce], [*induce, "--handedness", "minus"]):  # neither option exists
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_cli_induce_report_rounds_field_floats(tmp_path, fib_data):
    # the projector entries and Gram residuals carry the rounding of the kernel
    # arithmetic in their last digits, so the report keeps 12 decimals, without -0.0
    category, qsystem, out = tmp_path / "fib.json", tmp_path / "regular.json", tmp_path / "report.json"
    save_category(fib_data, category)
    save_qsystem(regular_qsystem(fib_data.presentation), qsystem)
    assert main(["induce", str(category), str(qsystem), "--out", str(out)]) == 0

    fields = json.loads(out.read_text())["payload"]["charged_fields"].values()
    # the writer prints 1.0 as 1, so the floats read back as ints or floats
    found = [float(x) for field in fields for x in [*np.ravel(field["projector"]), field["gram_residual"]]]
    assert len(found) == 12
    assert [x for x in found if repr(x) != repr(round(x, 12) + 0.0)] == []


def test_cli_invariants_and_reruns_identical(tmp_path, ising_file):
    out1, out2 = tmp_path / "i1.json", tmp_path / "i2.json"
    assert main(["invariants", str(ising_file), "--out", str(out1)]) == 0
    assert main(["invariants", str(ising_file), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["payload"]["count"] == 1


def test_cli_qsearch_seed_independent_reports(tmp_path, ising_file):
    out1, out2 = tmp_path / "q1.json", tmp_path / "q2.json"
    assert main(["--seed", "3", "qsearch", str(ising_file), "--theta", "1,0,1", "--out", str(out1)]) == 0
    assert main(["--seed", "77", "qsearch", str(ising_file), "--theta", "1,0,1", "--out", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    assert a["payload"] == b["payload"]
    assert a["payload"]["count"] == 1
    assert a["payload"]["status"] == "ok"
    assert a["payload"]["fingerprints"][0][0] == {
        "sectors": [0, 0, 0], "gram_spectra": [[1], [1], [1]], "exchange": [1, 0]
    }


def test_cli_nimreps_cardy_partition(tmp_path, ising_file, capsys):
    nim_report = tmp_path / "nims.json"
    assert main(["nimreps", str(ising_file), "--size", "3", "--out", str(nim_report)]) == 0
    payload = json.loads(nim_report.read_text())["payload"]
    assert payload["count"] == 1
    nimrep_file = tmp_path / "nimrep.json"
    nimrep_file.write_text(json.dumps({"n": payload["nimreps"][0]["n"]}))

    cardy_out = tmp_path / "cardy.json"
    assert main(["cardy", str(ising_file), str(nimrep_file), "--out", str(cardy_out)]) == 0
    cardy_doc = json.loads(cardy_out.read_text())
    assert cardy_doc["payload"]["residual"] < 1e-9

    assert (
        main(
            [
                "partition", str(ising_file), str(nimrep_file),
                "--a", "0", "--b", "1", "--beta", str(2 * math.pi),
                "--order", "60", "--check-transform",
            ]
        )
        == 0
    )
    text = capsys.readouterr().out
    assert "transform residual" in text


def test_cli_cardy_prints_no_negative_zero(tmp_path, su2_4_data, capsys):
    """On the D4 nimrep of su2_4 the eigensolver leaves signed noise in psi; the
    stdout and the report carry neither its sign nor its last bits."""
    block = enumerate_modular_invariants(su2_4_data.modular)[1]
    d4 = [nr for nr in enumerate_nimreps(su2_4_data.ring, 4) if compatibility(block, nr, su2_4_data.modular)[0]]
    assert len(d4) == 1
    category, nimrep, out = tmp_path / "su2_4.json", tmp_path / "d4.json", tmp_path / "cardy.json"
    save_category(su2_4_data, category)
    nimrep.write_text(json.dumps({"n": [m.tolist() for m in d4[0].matrices]}))
    assert main(["cardy", str(category), str(nimrep), "--out", str(out)]) == 0
    negative_zero = re.compile(r"-0\.0*(?!\d)")
    assert not negative_zero.search(capsys.readouterr().out)
    assert not negative_zero.search(out.read_text())
    parts = [x for row in json.loads(out.read_text())["payload"]["psi"] for z in row for x in z]
    assert len(parts) == 32 and all(x == round(x, 12) for x in parts)


# SHA-256 of json.dumps([psi, exponents]) from the payload of `bcft cardy --out`,
# recorded when psi came from a numerical joint diagonalization of the nimrep
CARDY_REPORT_SHA256 = {
    "ising regular": "ba34c0bf202849e1f8736d7e2d357d1fb14b4969106fc43fb536a6747232426d",
    "su2_4 D4": "752598e5bcaa6acf226789fee25d3b962866a5e4964219a2b5e513003afc65b5",
}


def test_cli_cardy_report_psi_pinned(tmp_path, ising_file, nimrep_file, su2_4_data):
    block = enumerate_modular_invariants(su2_4_data.modular)[1]
    d4 = [nr for nr in enumerate_nimreps(su2_4_data.ring, 4) if compatibility(block, nr, su2_4_data.modular)[0]]
    category, nimrep = tmp_path / "su2_4.json", tmp_path / "d4.json"
    save_category(su2_4_data, category)
    nimrep.write_text(json.dumps({"n": [m.tolist() for m in d4[0].matrices]}))
    got = {}
    for name, files in (("ising regular", (ising_file, nimrep_file)), ("su2_4 D4", (category, nimrep))):
        out = tmp_path / "cardy.json"
        assert main(["cardy", *map(str, files), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["residual"] < 1e-14
        got[name] = hashlib.sha256(json.dumps([payload["psi"], payload["exponents"]]).encode()).hexdigest()
    assert got == CARDY_REPORT_SHA256


# SHA-256 of the whole `--out` report of the commands that read a nimrep's
# matrix stack: the `nimreps` payload lists every matrix, and `partition`
# reads its entries and, with --check-transform, solves for psi
NIMREP_REPORT_SHA256 = {
    "nimreps su2_4 size 4": "6b9210b8ea7fcc5af6b5e2a753e78766a8976a5a7f6bda1182426f586f2458e2",
    "nimreps su2_4 size 5": "8a067370af4e4255da171e57e4d3f989a7474774c2c1ac36a04401f45d5b61d9",
    "nimreps ising size 3": "f51305e1799d03d38ecba5b7c0d0b23a65730f1acffa33091fdad692578ed40b",
    "partition ising regular": "129c366c17a9d367e74f19fbb3316d785b18ecce27cbd6a7b2f128dc973ae0f2",
}


def test_cli_nimrep_reports_pinned(tmp_path, ising_file, nimrep_file, su2_4_data):
    category = tmp_path / "su2_4.json"
    save_category(su2_4_data, category)
    runs = {
        "nimreps su2_4 size 4": ["nimreps", str(category), "--size", "4"],
        "nimreps su2_4 size 5": ["nimreps", str(category), "--size", "5"],
        "nimreps ising size 3": ["nimreps", str(ising_file), "--size", "3"],
        "partition ising regular": ["partition", str(ising_file), str(nimrep_file),
                                    "--a", "0", "--b", "1", "--beta", str(2 * math.pi), "--check-transform"],
    }
    got = {}
    for name, argv in runs.items():
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 0
        got[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == NIMREP_REPORT_SHA256


# SHA-256 of the whole `bcft induce --out` report: Z, Theta_plus, the ledger
# and the projector of every nonzero field space (E6: su2_10 theta = 0+6)
INDUCE_REPORT_SHA256 = {
    "ising CAR": "8242c81f0e50fb53294ad3a815849881ebf7efa21006947e7a0101f4712d324f",
    "fibonacci regular": "7ec8200e4701ed3689dfc441263fd4aff07587b6dc4757435626e3e0ecacdd73",
    "su2_4 D4": "7972c59a1a75e7889532eb6d239f579aca27a19baa79253ead229d029de69b7d",
    "su2_10 E6": "4be55c248cf72511ac11ce58948972b779544d5f64206c0bad8849044ffc340d",
}


def test_cli_induce_reports_pinned(tmp_path, ising_data, fib_data, su2_level):
    def searched(k, theta, starts, seed):
        res = search_qsystems(su2_level(k).presentation, theta, n_starts=starts, seed=seed)
        assert res.status == "ok" and len(res.solutions) == 1, (k, theta)
        return su2_level(k), res.solutions[0]

    cases = {
        "ising CAR": (ising_data, car_qsystem(ising_data.presentation)),
        "fibonacci regular": (fib_data, regular_qsystem(fib_data.presentation)),
        "su2_4 D4": searched(4, (1, 0, 0, 0, 1), 10, 3),
        "su2_10 E6": searched(10, (1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0), 12, 1),
    }
    got = {}
    for name, (data, q) in cases.items():
        category, qsystem, out = (tmp_path / f"{name}.{part}.json" for part in ("category", "qsystem", "report"))
        save_category(data, category)
        save_qsystem(q, qsystem)
        assert main(["induce", str(category), str(qsystem), "--out", str(out)]) == 0
        got[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == INDUCE_REPORT_SHA256


def test_cli_invalid_nimrep_exits_1(tmp_path, ising_file, ising_data, capsys):
    # the Ising fusion matrices with n^1 and n^2 swapped: square, right-sized, not a representation
    bad = tmp_path / "bad.json"
    mats = [m.tolist() for m in regular_nimrep(ising_data.ring).matrices]
    bad.write_text(json.dumps({"n": [mats[0], mats[2], mats[1]]}))
    for argv in (["cardy", str(ising_file), str(bad)],
                 ["partition", str(ising_file), str(bad), "--a", "0", "--b", "0", "--beta", "3.2"]):
        capsys.readouterr()
        assert main(argv) == 1, argv
        assert capsys.readouterr().out == "nimrep invalid: representation property fails at (1,1)\n"


def test_cli_nimreps_invariant_filter(tmp_path, ising_file, coupling_file):
    out = tmp_path / "nims.json"
    assert main(["nimreps", str(ising_file), "--size", "3", "--invariant", str(coupling_file), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["payload"]["count"] == 1


def test_cli_nimreps_invariant_enumerates_only_at_its_trace(tmp_path, su2_4_data, monkeypatch, capsys):
    # the spectral projectors sum to the identity: a nimrep compatible with Z has tr Z boundaries
    block = enumerate_modular_invariants(su2_4_data.modular)[1]
    d4 = [nr for nr in enumerate_nimreps(su2_4_data.ring, 4) if compatibility(block, nr, su2_4_data.modular)[0]]
    category, coupling, out = tmp_path / "su2_4.json", tmp_path / "d4.json", tmp_path / "nims.json"
    save_category(su2_4_data, category)
    coupling.write_text(json.dumps({"Z": block.tolist()}))
    argv = ["nimreps", str(category), "--invariant", str(coupling), "--out", str(out), "--size"]
    assert main([*argv, "4"]) == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload == {"count": 1, "nimreps": [{"n": [m.tolist() for m in d4[0].matrices]}]}

    def never(*args):
        raise AssertionError("enumerated at a size other than tr Z")

    monkeypatch.setattr(cli, "enumerate_nimreps", never)
    capsys.readouterr()
    assert main([*argv, "5"]) == 0
    assert capsys.readouterr().out == "0 nimrep orbit(s) of size 5\n"
    assert json.loads(out.read_text())["payload"] == {"count": 0, "nimreps": []}
    monkeypatch.undo()
    assert main([*argv, "0"]) == 2


def test_cli_partition_short_order_exits_3(ising_file, nimrep_file):
    code = main(
        [
            "partition", str(ising_file), str(nimrep_file),
            "--a", "0", "--b", "0", "--beta", "3.2",
            "--order", "5", "--check-transform",
        ]
    )
    assert code == 3


def test_cli_partition_character_overflow_exits_3(ising_file, nimrep_file, capsys):
    argv = ["partition", str(ising_file), str(nimrep_file), "--a", "0", "--b", "0", "--beta", "1e5"]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric degeneracy: ") and "beta=100000" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("case", SECTOR_REFUSALS)
def test_cli_partition_refuses_sectors_without_a_character(tmp_path, case, capsys):
    make, message = SECTOR_REFUSALS[case]
    data = make()
    category, nimrep = tmp_path / "category.json", tmp_path / "nimrep.json"
    save_category(data, category)
    nimrep.write_text(json.dumps({"n": regular_nimrep(data.ring).matrices.tolist()}))
    capsys.readouterr()
    assert main(["partition", str(category), str(nimrep), "--a", "0", "--b", "0", "--beta", "5"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_out_of_range_n_entry_and_lambda_channel_are_malformed(ising_file, car_file, tmp_path, capsys):
    """An N entry naming sector 3 of 3, or a lambda entry on channel 1, is
    refused by the loader with its own message (exit 2 through the CLI)."""
    bad = tmp_path / "bad.json"
    cases = [
        (["validate", str(bad)], _replaced(ising_file, ("N", 0), [0, 0, 3, 1]), "N entry out of range: [0, 0, 3, 1]"),
        (["induce", str(ising_file), str(bad)], _replaced(car_file, ("lambda", 0, "channel"), 1),
         "multiplicity-free categories have a single fusion channel; channel must be 0"),
    ]
    for argv, content, message in cases:
        bad.write_bytes(content)
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "name, level", [("ising", 5), ("fibonacci", 0), ("su2", 2.7), ("su2", True), ("su2", "4")]
)
def test_catalog_rejects_bad_level(name, level):
    with pytest.raises(StructuralError, match="level"):
        catalog(name, level)


def test_cli_su2_catalog_level_required(tmp_path):
    assert main(["catalog", "su2", "--out", str(tmp_path / "x.json")]) == 2
    out = tmp_path / "su2_4.json"
    assert main(["catalog", "su2", "--level", "4", "--out", str(out)]) == 0
    assert main(["validate", str(out)]) == 0


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory, ising_data):
    path = tmp_path_factory.mktemp("fuzz")
    save_category(ising_data, path / "category.json")
    save_qsystem(car_qsystem(ising_data.presentation), path / "qsystem.json")
    nimrep = {"n": [m.tolist() for m in regular_nimrep(ising_data.ring).matrices]}
    (path / "nimrep.json").write_text(json.dumps(nimrep))
    (path / "coupling.json").write_text(json.dumps({"Z": np.eye(3, dtype=int).tolist()}))
    return path


_FUZZED_KINDS = ("category", "qsystem", "nimrep", "coupling")


@settings(derandomize=True, deadline=None, max_examples=60)
@given(which=st.sampled_from(_FUZZED_KINDS), data=st.data())
def test_cli_fuzzed_file_exits_cleanly(fuzz_dir, which, data):
    """Any one value replaced anywhere: a documented exit code, never a traceback."""
    files = {w: fuzz_dir / f"{w}.json" for w in _FUZZED_KINDS}
    node, keys = json.loads(files[which].read_text()), []
    for _ in range(data.draw(st.integers(0, 4))):
        if not (isinstance(node, (dict, list)) and node):
            break
        members = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(members))
        keys.append(key)
        node = node[key]
    bad = fuzz_dir / "bad.json"
    bad.write_bytes(_replaced(files[which], keys, data.draw(_json_values)))
    files[which] = bad
    category, qsystem, nimrep, coupling = (str(files[w]) for w in _FUZZED_KINDS)
    commands = {
        "category": (["validate", category], ["induce", category, qsystem]),
        "qsystem": (["induce", category, qsystem],),
        "nimrep": (["cardy", category, nimrep],),
        "coupling": (["nimreps", category, "--size", "3", "--invariant", coupling],),
    }
    for argv in commands[which]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), argv
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@pytest.fixture(scope="module")
def su2_4_text(tmp_path_factory, su2_4_data):
    path = tmp_path_factory.mktemp("canonical") / "su2_4.json"
    save_category(su2_4_data, path)
    return path.read_bytes()


def _sections(text: bytes):
    """A canonical category file as [head, F rows, middle, R rows, tail], each
    row without its braces."""
    f = text.index(b'"F":[{') + 6
    r = text.index(b'}],"R":[{', f)
    end = text.rindex(b"}]")
    return [text[:f], text[f:r].split(b"},{"), text[r : r + 9], text[r + 9 : end].split(b"},{"), text[end:]]


def _joined(sections) -> bytes:
    head, f_rows, middle, r_rows, tail = sections
    return head + b"},{".join(f_rows) + middle + b"},{".join(r_rows) + tail


def _outcome(load):
    """The loaded N, F and R bytes, or the StructuralError message."""
    try:
        data = load()
    except StructuralError as exc:
        return str(exc)
    return data.ring.N.tobytes(), data.presentation.f_values.tobytes(), data.presentation.R.tobytes()


_MUTATIONS = (
    *("digit", "01", "-0", "1e999", "NaN", "inf", "long"),
    *("dropped", "repeated", "swapped", "space", "NUL", "extra member"),
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(kind=st.sampled_from(_MUTATIONS), member=st.sampled_from((1, 3)), data=st.data())
def test_column_reader_matches_document(tmp_path_factory, su2_4_text, kind, member, data):
    """A canonical su2_4 file with one F or R row mutated loads as the parsed
    document does: the same data, bit for bit, or the same error."""
    sections = _sections(su2_4_text)
    rows = sections[member]
    i, j = (data.draw(st.integers(0, len(rows) - 1)) for _ in range(2))
    row = rows[i]
    numbers = list(re.finditer(rb"-?[0-9][0-9.e+-]*", row))  # the labels, then re and im
    if kind == "digit":
        at = data.draw(st.sampled_from([k for k, c in enumerate(row) if chr(c).isdigit()]))
        row = row[:at] + str(data.draw(st.integers(0, 9))).encode() + row[at + 1 :]
    elif kind in ("01", "-0", "1e999", "NaN", "inf"):
        number = data.draw(st.sampled_from(numbers[:-2] if kind == "01" else numbers[-2:]))
        row = row[: number.start()] + (b"0" + number[0] if kind == "01" else kind.encode()) + row[number.end() :]
    elif kind == "long":  # the same number in more than 24 characters
        number = data.draw(st.sampled_from(numbers[-2:]))
        mantissa, e, exponent = number[0].partition(b"e")
        longer = mantissa + b"." * (b"." not in mantissa) + b"0" * 24 + e + exponent
        row = row[: number.start()] + longer + row[number.end() :]
    elif kind == "space":
        between = [k for k in range(len(row) + 1) if not any(m.start() < k < m.end() for m in numbers)]
        at = data.draw(st.sampled_from(between) | st.integers(0, len(row)))
        row = row[:at] + b" " + row[at:]
    elif kind == "NUL":  # after a number, where it would hide in the number's word
        at = data.draw(st.sampled_from(numbers)).end()
        row = row[:at] + b"\0" + row[at:]
    elif kind == "extra member":
        row += b',"extra":1'
    rows[i] = row
    if kind == "dropped":
        del rows[i]
    elif kind == "repeated":
        rows.insert(j, row)
    elif kind == "swapped":
        rows[i], rows[j] = rows[j], rows[i]
    bad = tmp_path_factory.getbasetemp() / "mutated.json"
    bad.write_bytes(_joined(sections))
    want = _outcome(lambda: dict_to_category(_read_json(bad, "category file"), name=bad.stem))
    assert _outcome(lambda: load_category(bad)) == want


@pytest.mark.parametrize(
    "old, new",
    [
        (b'],"value":[', b',,"value":['),  # a comma for a bracket
        (b'"labels":[', b'"lebals":['),  # other member text
        (b'"labels":[', b'"label":['),
        (b'"labels":[', b'"labels": ['),  # JSON whitespace, read through the document
    ],
)
def test_column_reader_checks_row_text(tmp_path, su2_4_text, old, new):
    sections = _sections(su2_4_text)
    sections[1][3] = sections[1][3].replace(old, new)
    path = tmp_path / "edited.json"
    path.write_bytes(_joined(sections))
    assert _columns_doc(path.read_bytes()) is None
    want = _outcome(lambda: dict_to_category(_read_json(path, "category file"), name=path.stem))
    assert _outcome(lambda: load_category(path)) == want


def _r_before_f(text: bytes) -> bytes:
    head, f_rows, _, r_rows, tail = _sections(text)
    return head[:-6] + b'"R":[{' + b"},{".join(r_rows) + b'}],"F":[{' + b"},{".join(f_rows) + tail


@pytest.mark.parametrize(
    "edit",
    [
        _r_before_f,  # the members in another order
        lambda text: text.replace(b'"1/2"', '"\u00bd"'.encode(), 1),  # a sector label that is not ASCII
        lambda text: b'{"labels":"0"' + text[text.index(b"]") + 1 :],  # labels that are not a list
        lambda text: text.replace(b'"value":[1,', b'"value":[1x,', 1),  # a value text float() rejects
    ],
    ids=["R before F", "non-ASCII label", "labels not a list", "not a float"],
)
def test_column_reader_falls_back_to_the_document(tmp_path, su2_4_text, edit):
    text = edit(su2_4_text)
    assert text != su2_4_text
    path = tmp_path / "edited.json"
    path.write_bytes(text)
    assert _columns_doc(text) is None
    want = _outcome(lambda: dict_to_category(_read_json(path, "category file"), name=path.stem))
    assert _outcome(lambda: load_category(path)) == want


def test_column_reader_takes_canonical_files(tmp_path, su2_4_text):
    assert _joined(_sections(su2_4_text)) == su2_4_text
    assert _columns_doc(su2_4_text) is not None
    sections = _sections(su2_4_text)
    sections[1].reverse()  # rows in another order are still read by columns
    assert _columns_doc(_joined(sections)) is not None
    for text in (su2_4_text, _joined(sections)):
        path = tmp_path / "su2_4.json"
        path.write_bytes(text)
        want = _outcome(lambda: dict_to_category(json.loads(text), name=path.stem))
        assert _outcome(lambda: load_category(path)) == want


def test_column_reader_reads_only_top_level_members(tmp_path, su2_4_text):
    # the canonical rows nested in central_charge, with empty F and R spelled by escapes at the top
    f, end = su2_4_text.index(b',"F":['), su2_4_text.rindex(b"]") + 1
    nested = su2_4_text[:f] + b',"\\u0046":[],"\\u0052":[],"central_charge":{' + su2_4_text[f + 1 : end] + b"}}\n"
    path = tmp_path / "nested.json"
    path.write_bytes(nested)
    assert _columns_doc(nested) is None
    want = _outcome(lambda: dict_to_category(json.loads(nested), name=path.stem))
    assert want == "missing admissible F entry (0, 0, 0, 0, 0, 0)"
    assert _outcome(lambda: load_category(path)) == want


def test_column_reader_reads_whole_labels(tmp_path, su2_level):
    # su2_10 has a two-digit label; a three-digit one is not read as its first two digits
    path = tmp_path / "su2_10.json"
    save_category(su2_level(10), path)
    text = path.read_bytes()
    assert _columns_doc(text) is not None
    path.write_bytes(text.replace(b'"labels":[10,', b'"labels":[100,', 1))
    want = _outcome(lambda: dict_to_category(json.loads(path.read_bytes()), name=path.stem))
    assert want.startswith("missing admissible F entry (10,")  # the row now has label 100
    assert _outcome(lambda: load_category(path)) == want
