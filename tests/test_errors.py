"""Tests for the one integer rule of `tnlab.errors` and the arguments that follow it."""

import dataclasses
import re
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

import tnlab
from tnlab.bounds import onsite_floor_prefactors
from tnlab.errors import ResourceLimitError, integer, is_integer
from tnlab.lattice import LatticeSpec
from tnlab.losses import LOCAL_NORMALIZED, LossSpec, plus_projector
from tnlab.polyomino import (check_area, enumerate_directed, enumerate_toric,
                             series_coefficients, verify_decomposition)
from tnlab.spinmodel import global_loss_weights, mc_second_moment, norm_weights
from tnlab.states import build_state
from tnlab.variance import variance_scan

NUMPY_INTEGERS = (np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64)
# kind -> what makes an argument of that kind from an int: the integers, then the rest
KINDS = {"int": int, **{f"np.{k.__name__}": k for k in NUMPY_INTEGERS}}
NOT_INTEGERS = {"bool": bool, "np.bool_": np.bool_, "float": float, "str": str,
                "None": lambda value: None}
LOSS = LossSpec(kind=LOCAL_NORMALIZED, observable=plus_projector(2), site=(0, 0))


def _scan(n_samples=3, workers=1):
    with pytest.MonkeyPatch.context() as patch:
        # threads in place of processes: same reports, nothing spawned
        patch.setattr(tnlab.variance, "ProcessPoolExecutor", ThreadPoolExecutor)
        report = variance_scan(LatticeSpec(2, 2, 2, 2), LOSS, n_samples, seed=0, workers=workers)
    return report.n_samples, report.variance.tolist()


def _lattice(**field):
    spec = LatticeSpec(**{"l1": 2, "l2": 2, "D": 2, "d": 2, **field})
    return spec, [type(getattr(spec, f.name)) for f in dataclasses.fields(spec)]


class Argument(NamedTuple):
    name: str  # as the ValueError names it
    call: Callable  # the function at this argument, as a comparable result


ARGUMENTS = {
    **{f"LatticeSpec.{f}": Argument(f, lambda v, f=f: _lattice(**{f: v}))
       for f in ("l1", "l2", "D", "d")},
    "norm_weights.D": Argument("D", lambda v: norm_weights(v, 2).tolist()),
    "norm_weights.d": Argument("d", lambda v: norm_weights(2, v).tolist()),
    "global_loss_weights.D": Argument("D", lambda v: global_loss_weights(v, 2).tolist()),
    "global_loss_weights.d": Argument("d", lambda v: global_loss_weights(2, v).tolist()),
    "onsite_floor_prefactors.D": Argument("D", lambda v: onsite_floor_prefactors(v, 2)),
    "onsite_floor_prefactors.d": Argument("d", lambda v: onsite_floor_prefactors(2, v)),
    "check_area": Argument("the maximum area", lambda v: (check_area(v), type(check_area(v)))),
    "enumerate_directed": Argument("the maximum area", lambda v: enumerate_directed(v).counts),
    "series_coefficients": Argument("the maximum area", lambda v: series_coefficients(v).counts),
    "enumerate_toric": Argument("torus side", lambda v: enumerate_toric(v).tolist()),
    "verify_decomposition": Argument("torus side", verify_decomposition),
    "variance_scan.n_samples": Argument("n_samples", lambda v: _scan(n_samples=v)),
    "variance_scan.workers": Argument("workers", lambda v: _scan(workers=v)),
    "mc_second_moment.n_samples": Argument(
        "n_samples", lambda v: mc_second_moment(LatticeSpec(2, 2, 2, 2), v,
                                                np.random.default_rng(0))),
}


def _outcome(call, value):
    """call(value), or the type and message of the ValueError or ResourceLimitError it raises."""
    try:
        return call(value)
    except (ValueError, ResourceLimitError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("argument", ARGUMENTS)
@settings(max_examples=25, deadline=None)
@given(kind=hst.sampled_from(sorted(KINDS) + sorted(NOT_INTEGERS)), value=hst.integers(-2, 8))
@example(kind="bool", value=1)
@example(kind="np.bool_", value=1)
@example(kind="np.int64", value=25)  # above every size budget
@example(kind="np.uint64", value=2)
def test_every_integer_argument_takes_numpy_integers_as_python_ints(argument, kind, value):
    arg = ARGUMENTS[argument]
    if kind in NOT_INTEGERS:
        with pytest.raises(ValueError, match=f"^{arg.name} must be an integer, got "):
            arg.call(NOT_INTEGERS[kind](value))
        return
    if kind != "int":
        info = np.iinfo(KINDS[kind])
        assume(info.min <= value <= info.max)
    expected = _outcome(arg.call, value)
    assert _outcome(arg.call, KINDS[kind](value)) == expected
    if isinstance(expected, tuple) and expected[0] is ValueError:
        assert expected[1].startswith(f"{arg.name} must be at least ")


# state charges past any budget that int64 cannot give: at D = 2**20 the product D^4 d^2
# wraps to 0 bytes, and at 2**32 sites the charge has no `bit_length` for `errors.gib`
NUMPY_LATTICES = {"bond_2**20": (2, 2, 2**20, 2), "sides_2**16": (2**16, 2**16, 2, 2)}
RUNS = {
    "build_state": lambda spec, rng: build_state(spec, rng),
    "mc_second_moment": lambda spec, rng: mc_second_moment(spec, 10, rng),
    "variance_scan": lambda spec, rng: variance_scan(spec, LOSS, 10, seed=0),
}


@pytest.mark.parametrize("dims", NUMPY_LATTICES.values(), ids=NUMPY_LATTICES)
@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS)
def test_numpy_integer_lattices_are_refused_as_python_ones_before_any_draw(dims, run):
    spec = LatticeSpec(*map(np.int64, dims))
    assert spec == LatticeSpec(*dims)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an int64 overflow warns
        with pytest.raises(ResourceLimitError) as python_ints:
            run(LatticeSpec(*dims), np.random.default_rng(0))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as numpy_ints:
                run(spec, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert str(numpy_ints.value) == str(python_ints.value)
    assert rng.bit_generator.state == before and peak < 2**20


@pytest.mark.parametrize("value, message", [
    (np.uint64(2**64 - 1), None), (10**400, None), (1, "n must be at least 2, got 1"),
    (np.int8(-3), "n must be at least 2, got -3"), (True, "n must be an integer, got True"),
    (2.0, "n must be an integer, got 2.0"), ("3", "n must be an integer, got '3'"),
], ids=["uint64_max", "10**400", "1", "int8", "True", "float", "str"])
def test_integer_is_a_python_int_at_least_the_minimum(value, message):
    if message is None:
        assert is_integer(value)
        result = integer(value, "n", 2)
        assert type(result) is int and result == value
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            integer(value, "n", 2)
