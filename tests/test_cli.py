"""Tests for the command-line front end: outputs, determinism, exit codes."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import tnlab
from tnlab.cli import main
from tnlab.polyomino import PolyominoStats


def read_json(path):
    doc = json.loads(path.read_text())
    doc.pop("elapsed_seconds", None)
    return doc


def test_norm_stats_runs_and_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["norm-stats", "--sizes", "2x2", "--samples", "400", "--seed", "123", "--workers", "1"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "norm_stats.csv").read_bytes().replace(str(out1).encode(), b"") \
        == (out2 / "norm_stats.csv").read_bytes().replace(str(out2).encode(), b"")
    j1, j2 = read_json(out1 / "norm_stats.json"), read_json(out2 / "norm_stats.json")
    j1["config"].pop("out"), j2["config"].pop("out")
    assert j1 == j2
    assert j1["records"][0]["ok"] is True
    assert j1["config"]["seed"] == 123


@pytest.mark.parametrize("D, d, z", [(3, 2, 1.0732), (2, 3, 1.0295)])
def test_norm_stats_reports_the_z_of_its_bond_and_physical_dims(tmp_path, D, d, z):
    # at D != d a table built as norm_weights(d, D) gives the other value
    out = tmp_path / "x"
    code = main(["norm-stats", "--sizes", "2x2", "--samples", "2", "--bond-dim", str(D),
                 "--phys-dim", str(d), "--seed", "1", "--out", str(out)])
    assert code not in (2, 4)
    z_exact = read_json(out / "norm_stats.json")["records"][0]["z_exact"]
    assert z_exact == tnlab.exact_partition_function(2, 2, tnlab.norm_weights(D, d)).z
    assert z_exact == pytest.approx(z, abs=1e-4)


def test_var_scan_global(tmp_path):
    out = tmp_path / "scan"
    code = main(["var-scan", "--sizes", "2x2,2x3", "--samples", "40", "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    doc = read_json(out / "var_scan_summary.json")
    assert len(doc["records"]) == 2
    assert "mean" in doc["records"][0]["summary"]
    assert (out / "var_scan_sites_2x2.csv").exists()
    assert (out / "var_scan_sites_2x3.csv").exists()


def test_var_scan_local_emits_distance_profile(tmp_path):
    out = tmp_path / "scan"
    code = main(["var-scan", "--loss", "local_normalized", "--sizes", "2x3",
                 "--samples", "30", "--seed", "8", "--out", str(out)])
    assert code == 0
    doc = read_json(out / "var_scan_summary.json")
    rec = doc["records"][0]
    assert "max" in rec["summary"]
    assert set(rec["distance_profile"]) == {"0", "1", "2"}


def test_var_scan_writes_the_report_of_each_size(tmp_path):
    out = tmp_path / "scan"
    assert main(["var-scan", "--loss", "local_normalized", "--sizes", "2x3", "--samples", "10",
                 "--seed", "19", "--out", str(out)]) == 0
    rec = read_json(out / "var_scan_summary.json")["records"][0]
    assert rec["loss"] == {"kind": "local_normalized", "site": [0, 0]}
    assert (rec["l1"], rec["l2"], rec["D"], rec["d"]) == (2, 3, 2, 2)
    assert len(rec["variance"]) == 2 and len(rec["variance"][0]) == 3
    assert "samples" not in rec
    rows = (out / "var_scan_sites_2x3.csv").read_text().splitlines()
    assert rows[0].startswith("# config: ")
    assert rows[1] == "site_x,site_y,variance,std_error,n"
    assert len(rows[2:]) == 6


def test_var_scan_past_dense_cap(tmp_path):
    # 26 sites: 2**26 dense amplitudes, which no command builds, well within the network budget
    code = main(["var-scan", "--sizes", "2x13", "--samples", "3", "--seed", "9",
                 "--out", str(tmp_path / "scan")])
    assert code == 0


def _refuse_constant(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


@pytest.mark.parametrize("loss, n_undefined", [("global_normalized", 4), ("local_normalized", 7)])
def test_undefined_statistics_are_null_in_json_and_nan_in_csv(tmp_path, loss, n_undefined):
    # the jackknife errors of 2 samples are undefined: every site's, and with the local loss
    # those of the distance profile too
    out = tmp_path / "scan"
    assert main(["var-scan", "--loss", loss, "--sizes", "2x2", "--samples", "2", "--seed", "1",
                 "--out", str(out)]) == 0
    text = (out / "var_scan_summary.json").read_text()
    rec = json.loads(text, parse_constant=_refuse_constant)["records"][0]
    assert text.count("null") == n_undefined
    assert rec["std_error"] == [[None, None], [None, None]]
    rows = (out / "var_scan_sites_2x2.csv").read_text().splitlines()[2:]
    assert [row.split(",")[3] for row in rows] == ["nan"] * 4


def _output_lines(out):
    """Each output file's lines as bytes, without its elapsed_seconds line and the out path."""
    files = {}
    for path in sorted(out.iterdir()):
        lines = path.read_bytes().replace(str(out).encode(), b"").split(b"\n")
        files[path.name] = [line for line in lines if b'"elapsed_seconds"' not in line]
    return files


def test_polyomino_command(tmp_path):
    out, out2 = tmp_path / "poly", tmp_path / "poly2"
    args = ["polyomino", "--sizes", "2x2,3x3", "--max-area", "6", "--seed", "1"]
    assert main(args + ["--out", str(out)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert len(_output_lines(out)) == 4
    assert _output_lines(out) == _output_lines(out2)
    doc = read_json(out / "polyomino_counts.json")
    assert [(rec["L"], rec["n_valid"]) for rec in doc["decomposition"]] == [(2, 9), (3, 124)]
    assert doc["series_matches_enumeration"] is True
    assert doc["reference_shape"]["area"] == 6
    assert doc["reference_shape"]["perimeter"] == 14
    assert doc["reference_shape"]["upper_perimeter"] == 3
    assert all(rec["n_violations"] == 0 for rec in doc["decomposition"])
    ref_csv = (out / "polyomino_reference.csv").read_text()
    assert "6,14,3" in ref_csv


def test_polyomino_command_on_the_one_cell_torus(tmp_path):
    out = tmp_path / "poly"
    assert main(["polyomino", "--sizes", "1x1", "--max-area", "3", "--seed", "0",
                 "--out", str(out)]) == 0
    doc = read_json(out / "polyomino_counts.json")
    assert doc["decomposition"] == [{"L": 1, "n_valid": 1, "n_violations": 0}]


@pytest.mark.parametrize("size, code, message", [
    ("2x3", 2, "needs square sizes"),
    ("0x0", 2, "torus side must be at least 1, got 0"),
    ("5x5", 4, "toric enumeration capped at L = 4"),
])
def test_polyomino_rejects_bad_sizes_before_enumerating(tmp_path, capsys, monkeypatch,
                                                        size, code, message):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerate_directed ran before the sizes were checked")

    monkeypatch.setattr(tnlab.cli, "enumerate_directed", no_enumeration)
    assert main(["polyomino", "--sizes", size, "--max-area", "12", "--seed", "1",
                 "--out", str(tmp_path / "x")]) == code
    assert message in capsys.readouterr().err


def test_polyomino_reference_shape_mismatch_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(tnlab.cli, "stats", lambda cells: PolyominoStats(6, 14, 4))
    assert main(["polyomino", "--sizes", "2x2", "--max-area", "4", "--seed", "1",
                 "--out", str(tmp_path / "x")]) == 3


@pytest.mark.parametrize("max_area, code", [(13, 0), (25, 4)])
def test_polyomino_max_area_reaches_the_series_cap(tmp_path, capsys, max_area, code):
    # the directed counts and the series share one cap, area 24
    assert main(["polyomino", "--sizes", "2x2", "--max-area", str(max_area), "--seed", "1",
                 "--out", str(tmp_path / "x")]) == code
    assert ("capped at area 24" in capsys.readouterr().err) == (code == 4)


@pytest.mark.parametrize("max_area, code, message", [
    (0, 2, "maximum area must be at least 1"), (25, 4, "capped at area 24")])
def test_polyomino_checks_the_area_before_any_toric_check(tmp_path, capsys, monkeypatch,
                                                          max_area, code, message):
    def no_check(L):
        raise AssertionError("verify_decomposition ran before --max-area was checked")

    monkeypatch.setattr(tnlab.cli, "verify_decomposition", no_check)
    assert main(["polyomino", "--sizes", "2x2,3x3,4x4", "--max-area", str(max_area),
                 "--seed", "1", "--out", str(tmp_path / "x")]) == code
    assert message in capsys.readouterr().err


def test_bounds_command(tmp_path):
    out = tmp_path / "bounds"
    code = main(["bounds", "--sizes", "2x2,3x3", "--seed", "5", "--out", str(out)])
    assert code == 0
    doc = read_json(out / "bounds.json")
    assert all(r["satisfied"] for r in doc["reports"])
    names = {r["name"] for r in doc["reports"]}
    assert {"norm_excess", "global_variance_ratio", "onsite_floor_prefactor"} <= names


@pytest.mark.parametrize("phys_dim", [10**15, 10**17, 10**40, 10**152])
def test_bounds_command_at_a_huge_physical_dimension(tmp_path, phys_dim):
    # the norm bound takes the generating function at q of order 1/d, where the unrationalized
    # p/2 (sqrt(rad) - 1) cancels to 0 and log(0) ends the command with "math domain error";
    # at 10**152 the generic on-site prefactor, 2.5e-305, is still a normal float
    out = tmp_path / "bounds"
    assert main(["bounds", "--sizes", "2x2", "--seed", "1", "--phys-dim", str(phys_dim),
                 "--out", str(out)]) == 0
    assert all(r["satisfied"] for r in read_json(out / "bounds.json")["reports"])


@pytest.mark.parametrize("out", ["file", "file/below"])
def test_bad_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch, out):
    # an existing file, or a path whose directory cannot be made below one
    (tmp_path / "file").write_text("kept\n")

    def no_work(*args, **kwargs):
        raise AssertionError("the command ran before --out was checked")

    monkeypatch.setattr(tnlab.cli, "exact_partition_function", no_work)
    monkeypatch.setattr(tnlab.bounds, "reports", no_work)
    assert main(["bounds", "--sizes", "2x2", "--seed", "5", "--out", str(tmp_path / out)]) == 2
    assert "is not a writable directory" in capsys.readouterr().err
    assert (tmp_path / "file").read_text() == "kept\n"


def test_seed_is_mandatory(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["norm-stats", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_resource_cap_exit_code(tmp_path):
    # the 6x6 bra-ket ring (about 5 GiB) exceeds the network budget
    code = main(["norm-stats", "--sizes", "6x6", "--samples", "10", "--seed", "2",
                 "--out", str(tmp_path / "x")])
    assert code == 4


def test_oversized_state_exit_code(tmp_path):
    # bond dimension 64 makes 8192 x 8192 site unitaries: build_state refuses them
    code = main(["norm-stats", "--bond-dim", "64", "--sizes", "2x2", "--samples", "2",
                 "--seed", "2", "--out", str(tmp_path / "x")])
    assert code == 4


def test_bounds_rejects_non_square_sizes(tmp_path, capsys):
    assert main(["bounds", "--sizes", "2x3", "--seed", "5", "--out", str(tmp_path / "x")]) == 2
    assert "norm bound reports use square sizes" in capsys.readouterr().err


def test_resource_cap_message_keeps_its_figures_short(tmp_path, capsys):
    # the 200x200 ring needs about 3.9e114 GiB
    assert main(["bounds", "--sizes", "200x200", "--seed", "5",
                 "--out", str(tmp_path / "x")]) == 4
    assert capsys.readouterr().err == ("resource cap: a ring of 200 columns of 200 sites needs "
                                       "about 3.89e+114 GiB, above the network budget of 1 GiB\n")


# an integer past the float range, as a command line spells it out
PAST_FLOATS = str(10**160)


@pytest.mark.parametrize("args, code, message", [
    ("bounds --sizes 600x600", 4, "needs about 7.72e+355 GiB"),
    ("norm-stats --sizes 2x2 --samples 2 --bond-dim " + PAST_FLOATS, 4, "need about 3.58e+634 GiB"),
    ("var-scan --sizes 2x2 --samples 2 --bond-dim " + PAST_FLOATS, 4, "need about 3.58e+634 GiB"),
    ("bounds --sizes 2x2 --bond-dim " + PAST_FLOATS, 2, "on-site floor prefactors underflow"),
    ("var-scan --sizes 2x100000000000 --samples 2", 4, "need about 2.86e+06 GiB"),
    ("norm-stats --sizes 100000000000000000x2 --samples 2", 4, "above the network budget"),
    ("norm-stats --sizes 99999999999999999999x2 --samples 2", 4, "above the network budget"),
    ("bounds --sizes 1000000000000000000x1000000000000000000", 4, "above the network budget"),
], ids=["bounds_600x600", "norm_stats_bond_dim", "var_scan_bond_dim", "bounds_bond_dim",
        "var_scan_long_side", "norm_stats_1e17_rows", "norm_stats_1e20_rows",
        "bounds_1e18_sides"])
def test_inputs_past_the_float_range_exit_without_a_traceback(tmp_path, capsys, args, code,
                                                               message):
    # an OverflowError in a GiB figure or a closed form, numpy's MemoryError for a target
    # of 2e11 site vectors, or numpy refusing a spin-model grid too large to index, would
    # escape main as a traceback or exit 2 with numpy's words
    assert main([*args.split(), "--seed", "1", "--out", str(tmp_path / "x")]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


UNDERFLOW = ("invalid configuration: the on-site floor prefactors underflow at this D and d: "
             "{} and {}, below 2.23e-308\n")


@pytest.mark.parametrize("flag, dim, message", [
    ("--bond-dim", 10**77, None), ("--bond-dim", 10**150, None),
    ("--bond-dim", 10**154, UNDERFLOW.format("1.25e-309", "5e-309")),
    ("--phys-dim", 10**300, UNDERFLOW.format(0, 0))])
def test_bounds_refuses_only_dims_whose_prefactors_underflow(tmp_path, capsys, flag, dim,
                                                             message):
    # the on-site prefactors fall like 1 / (D d)^2; below the least normal float they lose
    # digits, and at 0.0 their ratio divides by zero
    out = tmp_path / "bounds"
    code = main(["bounds", "--sizes", "2x2", "--seed", "1", flag, str(dim), "--out", str(out)])
    if message is None:
        assert code == 0
        assert all(r["satisfied"] for r in read_json(out / "bounds.json")["reports"])
    else:
        assert code == 2 and capsys.readouterr().err == message
        assert not out.exists()


@settings(max_examples=200, deadline=None)
@given(dims=hst.tuples(*2 * [hst.integers(1, 200).flatmap(
    lambda k: hst.integers(max(2, 10 ** (k - 1)), 10**k))]))
def test_bounds_at_any_dims_reports_finite_values_or_names_the_underflow(dims):
    # D and d of 1 to 200 digits, about log-uniform in [2, 10**200]: a run either writes
    # finite, satisfied reports or exits 2 before writing anything
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(io.StringIO()) as err:
        out = Path(tmp) / "bounds"
        code = main(["bounds", "--sizes", "2x2", "--seed", "1", "--bond-dim", str(dims[0]),
                     "--phys-dim", str(dims[1]), "--out", str(out)])
        if code == 0:
            reports = read_json(out / "bounds.json")["reports"]
            assert all(r[k] is not None for r in reports for k in ("bound", "compared", "slack"))
            assert all(r["satisfied"] for r in reports)
        else:
            assert code == 2 and "on-site floor prefactors underflow" in err.getvalue()
            assert not out.exists()
        assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("command, doc", [("polyomino", "polyomino_counts"), ("bounds", "bounds")])
def test_square_only_commands_run_with_their_default_sizes(tmp_path, command, doc):
    # the common default, 2x2,2x3,3x3, holds a rectangle, which these two commands refuse
    assert main([command, "--seed", "1", "--out", str(tmp_path / "x")]) == 0
    sizes = read_json(tmp_path / "x" / f"{doc}.json")["config"]["sizes"]
    assert sizes == [[2, 2], [3, 3], [4, 4]]


@pytest.mark.parametrize("command", ("norm-stats", "var-scan", "polyomino", "bounds"))
def test_negative_seed_exits_2_naming_the_flag(tmp_path, capsys, command):
    assert main([command, "--sizes", "2x2", "--seed", "-1", "--out", str(tmp_path / "x")]) == 2
    assert "--seed must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_bounds_rejects_single_row(tmp_path):
    code = main(["bounds", "--sizes", "1x1", "--seed", "5", "--out", str(tmp_path / "x")])
    assert code == 2


@pytest.mark.parametrize("max_area", ("-3", "0"))
def test_polyomino_rejects_max_area_below_one(tmp_path, capsys, max_area):
    code = main(["polyomino", "--max-area", max_area, "--sizes", "2x2", "--seed", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "maximum area must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("workers", (0, (os.cpu_count() or 1) + 1))
def test_workers_outside_cpu_count_rejected(tmp_path, monkeypatch, workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was created")

    monkeypatch.setattr(tnlab.variance, "ProcessPoolExecutor", no_pool)
    code = main(["var-scan", "--sizes", "2x2", "--samples", "4", "--seed", "1",
                 "--workers", str(workers), "--out", str(tmp_path / "x")])
    assert code == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ("norm-stats", "polyomino", "bounds"))
def test_workers_above_one_rejected_outside_var_scan(tmp_path, monkeypatch, capsys, command):
    # only var-scan runs workers; the others exit 2 rather than run serially unasked
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    for name, (_, options) in tnlab.cli.COMMANDS.items():
        monkeypatch.setitem(tnlab.cli.COMMANDS, name, (no_work, options))
    code = main([command, "--sizes", "2x2", "--seed", "1", "--workers", "2",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "only var-scan runs in parallel" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_invalid_size_string(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["norm-stats", "--sizes", "2x", "--seed", "3", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
