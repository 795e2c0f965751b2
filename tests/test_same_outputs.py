"""Tests for the comparison of the hand-run byte-identity check, tests/same_outputs.py."""

from same_outputs import compare

CONFIG = '# config: {"command": "var-scan", "out": "%s", "seed": 2}\nl1,l2,var\n2,2,%s\n'
SUMMARY = '{\n "config": {\n  "out": "%s"\n },\n "elapsed_seconds": %s,\n "records": [\n  {\n' \
          '   "elapsed_seconds": %s,\n   "var": %s\n  }\n ]\n}\n'


def _tree(root, out, seconds, value, extra=None):
    """An output tree as `tnlab var-scan` writes it, with a run file beside it."""
    (root / "scan").mkdir(parents=True)
    (root / "scan" / "sites.csv").write_text(CONFIG % (out, value))
    (root / "scan" / "summary.json").write_text(SUMMARY % (out, seconds, seconds / 2, value))
    (root / "scan.run").write_text("exit 0\n")
    if extra:
        (root / "scan" / extra).write_text("x\n")
    return root


def test_runs_that_differ_only_in_time_and_out_path_are_the_same(tmp_path):
    a = _tree(tmp_path / "a", "/tmp/rev/scan", 0.0291, 0.125)
    b = _tree(tmp_path / "b", "/elsewhere/out/scan", 12.5, 0.125)
    assert compare(a, b) == []


def test_a_changed_digit_and_a_missing_file_are_differences(tmp_path):
    a = _tree(tmp_path / "a", "rev/scan", 0.5, 0.125, extra="only_a.csv")
    b = _tree(tmp_path / "b", "here/scan", 0.5, 0.12500000000000003)
    (b / "scan.run").write_text("exit 3\n")
    assert set(compare(a, b)) == {f"only in {a}: scan/only_a.csv", "differs: scan.run",
                                  "differs: scan/sites.csv", "differs: scan/summary.json"}
    # a value written as np.float64(...) is a difference too, though it reads equal
    (b / "scan" / "sites.csv").write_text(CONFIG % ("here/scan", "np.float64(0.125)"))
    assert "differs: scan/sites.csv" in compare(_tree(tmp_path / "c", "c", 1.0, 0.125), b)
