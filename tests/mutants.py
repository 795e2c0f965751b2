"""Mutation table: one-line edits of the library and the tests that must catch each.

Run by hand; pytest collects only test_*.py, so `python -m pytest` skips it:

    python tests/mutants.py                        # every entry
    python tests/mutants.py gf_factor stats_e_x    # the named entries

Each entry applies one (file, old, new) edit to a fresh copy of src/, tests/ and
pyproject.toml in a temporary directory, and runs only its test ids there, in one
sequential pytest process at --hypothesis-seed=0 with one BLAS thread. A listed id is
caught when it, or one of its parametrized cases, fails. The ids first run once on an
unedited copy, where all must pass. An entry marked equivalent changes nothing that a
test could see; it runs too, and must survive.

Prints a markdown table with one row per entry. Exits 1 if a mutant leaves a listed id
passing or an equivalent one is caught, and 2 if the unedited copy fails a listed id
or an edit's old text is not in its file exactly once.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple
    equivalent: str = ""  # why no test can see the edit


# why |S \ (S + e)| = |S \ (S - e)|, on the plane and on the torus
RUNS = "each run of cells along e has one first and one last cell"


def _ids(module, *names):
    return tuple(f"tests/{module}.py::{name}" for name in names)


MUTANTS = (
    Mutant("haar_no_phase_fix", "src/tnlab/tensors.py",
           "    return q * (diag / np.abs(diag))[..., None, :]", "    return q",
           _ids("test_tensors", "test_first_moment_vanishes",
                "test_channel_matches_monte_carlo_on_random_input")),
    Mutant("generator_sqrt2", "src/tnlab/tensors.py",
           "    return (a + a.conj().swapaxes(-1, -2)) / 2.0",
           "    return (a + a.conj().swapaxes(-1, -2)) / np.sqrt(2.0)",
           _ids("test_tensors", "test_generator_moments_fix_its_scale")),
    Mutant("weingarten_denominator", "src/tnlab/tensors.py",
           "n * (n * n - 1)", "n * (n * n + 1)",
           _ids("test_tensors", "test_channel_trace_preservation_on_pure_state_pair")
           + _ids("test_spinmodel", "test_weingarten_sum_gives_the_closed_forms")),
    Mutant("cli_norm_table_swap", "src/tnlab/cli.py",
           "norm_weights(config.bond_dim, config.phys_dim)",
           "norm_weights(config.phys_dim, config.bond_dim)",
           _ids("test_cli", "test_norm_stats_reports_the_z_of_its_bond_and_physical_dims")),
    Mutant("norm_closure_bond_dim", "src/tnlab/spinmodel.py",
           "_s2_table(D, d, (d * d, d))", "_s2_table(D, d, (D * D, D))",
           _ids("test_spinmodel", "test_bottom_layer_sum_reproduces_tables",
                "test_weingarten_sum_gives_the_closed_forms")
           + _ids("test_cli", "test_norm_stats_reports_the_z_of_its_bond_and_physical_dims")),
    Mutant("chunk_failures_count_one", "src/tnlab/variance.py",
           "failures += len(generators)", "failures += 1",
           _ids("test_variance", "test_sample_values_skips_failed_samples_and_counts_them")),
    Mutant("chunk_ignores_network_budget", "src/tnlab/spinmodel.py",
           "budget = min(_CHUNK_BYTES, network.NETWORK_BUDGET)", "budget = _CHUNK_BYTES",
           _ids("test_spinmodel", "test_a_chunk_never_passes_the_network_budget")),
    Mutant("ring_charge_once_per_chunk", "src/tnlab/network.py",
           "need = n_rings * (", "need = (",
           _ids("test_spinmodel", "test_the_state_and_ring_charges_count_the_sample_axis")),
    Mutant("one_state_value_as_numpy_float", "src/tnlab/network.py",
           "return float(out[0].real) if one else out.real",
           "return out[0].real if one else out.real",
           _ids("test_network",
                "test_one_state_gives_python_numbers_and_a_chunk_one_value_per_state")),
    Mutant("scan_ddof_0", "src/tnlab/variance.py",
           "variance=np.var(samples, axis=0, ddof=1)", "variance=np.var(samples, axis=0, ddof=0)",
           _ids("test_variance", "test_scan_equals_a_loop_over_spawned_children",
                "test_scan_variance_is_the_unbiased_sample_variance")),
    Mutant("profile_plane_distance", "src/tnlab/variance.py",
           "groups.setdefault(spec.toric_manhattan(site, obs), [])",
           "groups.setdefault(abs(site[0] - obs[0]) + abs(site[1] - obs[1]), [])",
           _ids("test_variance", "test_jackknife_errors_match_brute_force_delete_one")
           + _ids("test_cli", "test_var_scan_local_emits_distance_profile")),
    Mutant("bound_without_max", "src/tnlab/bounds.py",
           "max(log_x, L * log_x)", "L * log_x",
           _ids("test_bounds", "test_norm_excess_bound_asymptotic_rate",
                "test_norm_excess_bound_in_log_space_matches_the_direct_form")),
    Mutant("observable_scale", "src/tnlab/losses.py",
           "o[0, 0], o[1, 1] = 1.0, -1.0", "o[0, 0], o[1, 1] = 1.0, -0.9",
           _ids("test_losses", "test_traceless_observable_is_hermitian_traceless_with_unit_scale")),
    Mutant("layer_side_perimeter", "src/tnlab/polyomino.py",
           "exposed = (s & ~(t >> 1)).bit_count()", "exposed = (s & ~t).bit_count()",
           _ids("test_polyomino", "test_counts_match_independent_oracle",
                "test_series_matches_enumeration_exactly"),
           equivalent="counts the side perimeter, which transposition maps to the upper one"),
    Mutant("toric_roll_sign", "src/tnlab/polyomino.py",
           "(grids & ~np.roll(grids, 1, axis))", "(grids & ~np.roll(grids, -1, axis))",
           _ids("test_polyomino", "test_stats_match_a_grid_count",
                "test_decomposition_invariants_exhaustive"),
           equivalent=RUNS),
    Mutant("toric_roll_axis", "src/tnlab/polyomino.py",
           "for axis in (-2, -1))", "for axis in (-1, -2))",
           _ids("test_polyomino", "test_stats_match_a_grid_count",
                "test_area14_reference_configuration", "test_decomposition_invariants_exhaustive")),
    Mutant("toric_perimeter_runs", "src/tnlab/polyomino.py",
           "return m, 2 * (upper + side), upper", "return m, upper + side, upper",
           _ids("test_polyomino", "test_stats_match_a_grid_count")),
    Mutant("toric_last_column_mask", "src/tnlab/polyomino.py",
           "((codes >> 1) & (full ^ last))", "((codes >> 1) & full)",
           _ids("test_polyomino", "test_enumerate_toric_returns_one_bool_array",
                "test_enumerate_toric_successor_rule")),
    Mutant("stats_e_x_sign", "src/tnlab/polyomino.py",
           "for dx, dy in ((1, 0), (-1, 0),", "for dx, dy in ((-1, 0), (-1, 0),",
           _ids("test_polyomino", "test_reference_shape_stats", "test_stats_match_a_grid_count"),
           equivalent=RUNS),
    Mutant("stats_e_x", "src/tnlab/polyomino.py",
           "for dx, dy in ((1, 0),", "for dx, dy in ((0, 1),",
           _ids("test_polyomino", "test_reference_shape_stats", "test_domino_stats",
                "test_stats_match_a_grid_count")),
    Mutant("upper_predecessor_ahead", "src/tnlab/polyomino.py",
           "np.roll(occupied, L, 1) & (np.roll(key, L, 1)",
           "np.roll(occupied, -L, 1) & (np.roll(key, -L, 1)",
           _ids("test_polyomino", "test_piece_statistics_match_the_stats_of_each_walk_piece",
                "test_piece_statistics_match_the_walk_pieces_random_large",
                "test_decomposition_invariants_exhaustive")),
    Mutant("upper_step_in_y", "src/tnlab/polyomino.py",
           "== key + width))", "== key + 1))",
           _ids("test_polyomino", "test_piece_statistics_match_the_stats_of_each_walk_piece",
                "test_piece_statistics_match_the_walk_pieces_random_large",
                "test_decomposition_invariants_exhaustive")),
    Mutant("series_inverse_b_sign", "src/tnlab/polyomino.py",
           "- mul(poly(1, -1), r[k - 2])", "+ mul(poly(1, -1), r[k - 2])",
           _ids("test_polyomino", "test_series_matches_enumeration_exactly")
           + _ids("test_acceptance", "test_criterion_05_polyomino_counts")),
    Mutant("gf_factor", "src/tnlab/polyomino.py",
           "return 2.0 * p * q / (den", "return p * q / (den",
           _ids("test_polyomino", "test_gf_reference_value",
                "test_gf_keeps_its_leading_term_at_small_q",
                "test_gf_matches_truncated_series_with_tail_bound")),
    Mutant("area_accepts_bool", "src/tnlab/polyomino.py",
           "if isinstance(m_max, bool) or not isinstance(m_max, (int, np.integer)):",
           "if not isinstance(m_max, (int, np.integer)):",
           _ids("test_polyomino", *(f"test_sizes_that_are_not_integers_rejected[{f}-True]"
                                    for f in ("enumerate_directed", "series_coefficients")))),
    Mutant("torus_side_accepts_bool", "src/tnlab/polyomino.py",
           "if isinstance(L, bool) or not isinstance(L, (int, np.integer)):",
           "if not isinstance(L, (int, np.integer)):",
           _ids("test_polyomino", *(f"test_sizes_that_are_not_integers_rejected[{f}-True]"
                                    for f in ("enumerate_toric", "verify_decomposition")))),
)


def _copy(dest):
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest)


def _failures(tree, tests):
    """The ids of `tests` that fail in the copy `tree`, and pytest's exit code."""
    env = dict(os.environ, PYTHONPATH="src", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE",
                           "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests],
                          cwd=tree, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    caught = {t for t in tests if any(f == t or f.startswith(t + "[") for f in failed)}
    return caught, done.returncode


def main(names):
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if names and len(chosen) != len(set(names)):
        known = ", ".join(m.name for m in MUTANTS)
        print(f"unknown mutant among {names}; known: {known}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        for m in chosen:
            if (base / m.file).read_text().count(m.old) != 1:
                print(f"{m.name}: the old text is not in {m.file} exactly once", file=sys.stderr)
                return 2
        tests = sorted({t for m in chosen for t in m.tests})
        caught, code = _failures(base, tests)
        if caught or code != 0:
            print(f"the unedited copy fails (exit {code}): {sorted(caught)}", file=sys.stderr)
            return 2
        print("| mutant | edit | caught by | result |\n| --- | --- | --- | --- |")
        status = 0
        for m in chosen:
            tree = Path(tmp) / m.name
            _copy(tree)
            path = tree / m.file
            path.write_text(path.read_text().replace(m.old, m.new))
            caught, _ = _failures(tree, m.tests)
            shutil.rmtree(tree)
            if m.equivalent:
                ok, result = not caught, f"survives; equivalent: {m.equivalent}"
            else:
                ok, result = caught == set(m.tests), "caught"
            if not ok:
                status = 1
                result = f"FAILS THE TABLE: caught by {len(caught)} of {len(m.tests)} ids"
            ids = ", ".join(t.split("::")[1] for t in m.tests)
            print(f"| {m.name} | `{m.old.strip()}` → `{m.new.strip()}` | {ids} | {result} |",
                  flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
