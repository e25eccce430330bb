"""Unit covariance: no result depends on the unit system it is asked in.

A change of units that scales mass by 2^a, length by 2^b and time by 2^c
multiplies every dimensioned input by a power of two, which is exact in
binary floating point wherever nothing under- or overflows.  So a closed
form gives the same bits for a dimensionless cell and exactly the scaled
value for a dimensioned one.  A quadrature's nodes and weights scale as
exactly, but its integrand's exponents round differently, so its cells stay
within a few ulps (2.3e-15 relative measured, 1e-14 required).

Units are exponent triples (mass, length, time).  The tables below declare
the unit of every flag and every output cell, as README lists them.  `verify`
takes no flag with a unit, so it has nothing to scale.
"""

import functools
import io
import json
import shlex
from contextlib import redirect_stderr
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmpart import SystemParams, WavepacketInit, evolve
from bohmpart.trajectories import (RK45Adaptive, TrajectoryConfig,
                                   equivariance_check, integrate)
from bohmpart.wavepacket import default_spectral_grid, spectral_project

NONE, MASS, LENGTH, TIME = (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)
RATE, VELOCITY, MOMENTUM = (0, 0, -1), (0, 1, -1), (1, 1, -1)
ENERGY, ACTION, INVERSE_ENERGY = (1, 2, -2), (1, 2, -1), (-1, -2, 2)
COUPLING = (0, 0, -2)  # c_a in X_a - c_a q / w_a^2, with X_a and q lengths
QUADRATURE = "quadrature"  # dimensionless, within QUADRATURE_REL

QUADRATURE_REL = 1e-14
EXPONENT = st.integers(-20, 20)

FLAG_UNITS = {
    "mass": MASS, "m0": MASS, "omega": RATE, "omega-max": RATE,
    "hbar": ACTION, "kbt": ENERGY, "beta": INVERSE_ENERGY, "p0": MOMENTUM,
    "sigma": LENGTH, "x0": LENGTH, "x-start": LENGTH, "q0": LENGTH,
    "tmax": TIME, "kernel-tmax": TIME, "coupling": COUPLING,
}
# columns by JSON key; limits names its swept column after --var
COLUMN_UNITS = {
    "sigma": LENGTH, "kbt": ENERGY, "hbar": ACTION, "t": TIME, "x": LENGTH,
    "v": VELOCITY, "z": QUADRATURE, "z_u": NONE, "z_cl": NONE, "ratio": NONE,
    "criterion_ratio": NONE, "index": NONE, "mass": MASS, "omega": RATE,
    "coupling": COUPLING, "nu": COUPLING,
}
# the rows of partition's and bath's (quantity, value) tables that carry a
# unit; bath's three Z are raw-measure (dx dp) products, action per oscillator
ROW_UNITS = {"t_min": ENERGY, "thermal_de_broglie": LENGTH}
BATH_ACTION_ROWS = {"z_b", "z_b_unified_exact", "z_b_unified_with_2pi"}

# Cases whose naive products with beta leave the normal doubles, so that
# partition._group does their exponent arithmetic, each with the ranges of
# (a, b, c) under which every scaled flag still passes check_scale and keeps
# its bits.
EDGE_EXPONENTS = {
    # beta hbar is subnormal and beta hbar^2 underflows to 0: README's
    # example, at a kbt whose beta is still normal (from_kbt refuses kbt
    # 1e308, whose beta is subnormal and has lost bits)
    "partition --mass 1e-75 --omega 1e300 --hbar 1e-15 --sigma 1e-75 "
    "--kbt 4e307": ((0, 10), (0, 10), (15, 25)),
    # beta hbar overflows under x = 1e5; omega = 253 2^-1071 scales down by
    # at most 2^3 exactly
    "limits --var kbt --start 1e-250 --stop 2e-250 --num 2 --mass 1 "
    "--omega 1e-320 --hbar 1e75 --sigma 1e75 --kbt 1":
        ((-20, -5), (-10, 0), (-5, 3)),
}

# Each subcommand with every dimensioned input spelled out, since a default
# does not follow the units; each exit code the CLI documents for a result
# (0, 2 and 4) appears.
CASES = [
    "fig1 --mass 1 --omega 1 --hbar 1 --x0 1 --p0 0.3 --sigma 0.45 "
    "--sigma 0.65 --kbt 2 --kbt 5 --tmax 6 --samples 3",
    # exit 4: the integrand overflows a double
    "fig1 --mass 1 --omega 3.7e12 --hbar 1 --x0 1 --p0 0 --sigma 0.45 --kbt 2 "
    "--tmax 12.566370614359172 --samples 3",
    "marginal --mass 2 --omega 0.7 --hbar 0.8 --x0 -0.6 --p0 1.1 --sigma 0.5 "
    "--kbt 3 --tmax 10 --samples 4 --raw",
    # exit 2: divergent from t = 0
    "marginal --mass 1 --omega 1 --hbar 1 --x0 1 --p0 0 --sigma 0.2 --kbt 0.5 "
    "--tmax 6 --samples 3",
    "limits --var sigma --start 1 --stop 0.125 --num 4 --fixed-msigma2 "
    "--mass 1 --omega 1 --hbar 1 --sigma 0.45 --kbt 2",
    # divergent rows at the low temperatures
    "limits --var kbt --start 0.2 --stop 5 --num 4 --mass 1.5 --omega 0.9 "
    "--hbar 1 --sigma 0.3 --kbt 2",
    "limits --var hbar --start 0.5 --stop 3 --num 3 --mass 1 --omega 2 "
    "--sigma 0.7 --kbt 1.3 --hbar 1",
    "bath --n 3 --m0 1.2 --omega-max 1.5 --coupling 0.8 --sigma 2 --q0 0.3 "
    "--beta 0.9 --hbar 1 --kernel-tmax 10 --kernel-samples 3",
    # exit 2, and with --allow-divergent the criterion table alone
    "bath --n 2 --m0 1 --omega-max 1 --coupling 1 --sigma 0.2 --q0 0 "
    "--beta 1 --hbar 1 --kernel-tmax 10 --kernel-samples 3",
    "bath --n 2 --m0 1 --omega-max 1 --coupling 1 --sigma 0.2 --q0 0 "
    "--beta 1 --hbar 1 --kernel-tmax 10 --kernel-samples 3 --allow-divergent",
    "trajectory --mass 1.3 --omega 0.8 --hbar 1 --sigma 0.6 --x0 1 --p0 0.5 "
    "--x-start 1.45 --tmax 5",
    "trajectory --system free --mass 1 --hbar 1 --sigma 0.6 --x0 1 --p0 0.5 "
    "--x-start 0.2 --tmax 5",
    "partition --mass 1 --omega 1 --hbar 1 --sigma 1 --kbt 1 --oracle",
    # divergent gaussian_correction and z_unified cells
    "partition --mass 0.7 --omega 1.4 --hbar 1.1 --sigma 0.2 --kbt 0.5",
    *EDGE_EXPONENTS,
]


def _factor(unit, a: int, b: int, c: int) -> float:
    """The power of two a quantity of this unit is multiplied by."""
    return 2.0 ** (a * unit[0] + b * unit[1] + c * unit[2])


def _scaled_argv(argv: list[str], a: int, b: int, c: int) -> list[str]:
    """argv with each dimensioned flag's value in the new units, written
    --flag=value so that argparse reads a negative value as a value."""
    swept = FLAG_UNITS[argv[argv.index("--var") + 1]] if "--var" in argv else None
    out, tokens = [], iter(argv)
    for token in tokens:
        name = token[2:]
        unit = swept if name in ("start", "stop") else FLAG_UNITS.get(name)
        if unit is None:
            out.append(token)
        else:
            out.append(f"{token}={float(next(tokens)) * _factor(unit, a, b, c)!r}")
    return out


@functools.cache
def _parser():
    from bohmpart import cli
    return cli.build_parser()


def _run(argv: list[str]):
    """(exit code, JSON payload or None) of cli.main on argv, in process."""
    from bohmpart import cli
    payloads, parser = [], _parser()
    with redirect_stderr(io.StringIO()), \
            mock.patch.object(cli, "build_parser", lambda: parser), \
            mock.patch.object(cli, "emit", lambda args, command, config,
                              payload, extra=None: payloads.append(payload)):
        code = cli.main([*argv, "--format", "json"])
    return code, json.loads(payloads[0]) if payloads else None


@functools.cache
def _base(case: str):
    return _run(shlex.split(case))


def _same_cell(base, new, unit, abc: tuple[int, int, int], where):
    """new is base in the units (a, b, c), by the rule for its unit; a list
    is a list of such cells (fig1's echoed sigma and kbt)."""
    if isinstance(base, list):
        assert len(new) == len(base), where
        for was, now in zip(base, new):
            _same_cell(was, now, unit, abc, where)
    elif isinstance(base, (str, int)) or base is None:
        assert new == base, where
    elif unit == QUADRATURE:
        assert abs(new - base) <= QUADRATURE_REL * abs(base), where
    else:  # the bytes the CSV and JSON write
        assert repr(new) == repr(base * _factor(unit, *abc)), where


def _cell_units(record: dict, oscillators: int) -> dict:
    """The unit of each cell of one output record (None for a label)."""
    quantity = record.get("quantity")
    if quantity is None:
        return {key: COLUMN_UNITS.get(key) for key in record}
    if record.get("method") == "quadrature":
        unit = QUADRATURE
    elif quantity in BATH_ACTION_ROWS:
        unit = tuple(oscillators * e for e in ACTION)
    else:
        unit = ROW_UNITS.get(quantity, NONE)
    return {"quantity": None, "method": None, "value": unit, "est_error": unit}


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.split()[0])
@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_cli_payloads_are_unit_covariant(case, data):
    """The same exit code in every unit system, with each dimensionless
    closed-form cell the same bytes, each dimensioned one exactly the scaled
    value, and each quadrature cell within QUADRATURE_REL.  A quadrature's
    est_error is a difference of two rules, so its bound is relative to the
    row's value."""
    a, b, c = (data.draw(EXPONENT if span is None else st.integers(*span), name)
               for span, name in zip(EDGE_EXPONENTS.get(case, (None,) * 3),
                                     "abc"))
    code, base = _base(case)
    new_code, new = _run(_scaled_argv(shlex.split(case), a, b, c))
    assert new_code == code
    if base is None:
        return
    assert new.keys() == base.keys()
    assert new["config"].keys() == base["config"].keys()
    for key, was in base["config"].items():
        _same_cell(was, new["config"][key], FLAG_UNITS[key], (a, b, c),
                   ("config", key))
    oscillators = len(base.get("oscillators", ()))
    for table in base.keys() - {"command", "config"}:
        assert len(new[table]) == len(base[table]), table
        for i, (was, now) in enumerate(zip(base[table], new[table])):
            assert now.keys() == was.keys()
            units = _cell_units(was, oscillators)
            for key in was:
                where = (table, i, key)
                if key == "est_error" and units[key] == QUADRATURE:
                    assert abs(now[key] - was[key]) <= (
                        QUADRATURE_REL * abs(was["value"])), where
                else:
                    _same_cell(was[key], now[key], units[key], (a, b, c), where)


# ---------------------------------------------------------------------------
# The library: trajectories and the spectral grid
# ---------------------------------------------------------------------------

def _packet(a: int, b: int, c: int, free: bool):
    """(params, init, x_start, t) of one packet in the units (a, b, c)."""
    f = lambda unit: _factor(unit, a, b, c)
    params = SystemParams(1.3 * f(MASS), 0.0 if free else 0.8 * f(RATE),
                          1.0 * f(ACTION))
    init = WavepacketInit(1.0 * f(LENGTH), 0.5 * f(MOMENTUM), 0.6 * f(LENGTH))
    return params, init, 1.45 * f(LENGTH), 5.0 * f(TIME)


def _path(params, init, x_start, t):
    return integrate(params, init, x_start, TrajectoryConfig(RK45Adaptive(), t))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(a=EXPONENT, b=EXPONENT, c=EXPONENT, free=st.booleans())
def test_paths_scale_exactly_under_a_change_of_units(a, b, c, free):
    """The Dormand-Prince floor is a multiple of the packet's width and the
    first trial step is the whole span, so the same steps are taken: every
    time scales by exactly 2^c, every position by exactly 2^b, and the
    quantile residual keeps its bits."""
    base, new = _packet(0, 0, 0, free), _packet(a, b, c, free)
    base_path, new_path = _path(*base), _path(*new)
    assert new_path.times == [t * 2.0 ** c for t in base_path.times]
    assert new_path.positions == [x * 2.0 ** b for x in base_path.positions]
    quantiles = (0.1, 0.5, 0.9)
    assert (equivariance_check(*new[:2], quantiles, new[3])
            == equivariance_check(*base[:2], quantiles, base[3]))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(a=EXPONENT, b=EXPONENT, c=EXPONENT)
def test_spectral_grid_and_coefficients_are_unit_covariant(a, b, c):
    """The grid counts points per oscillator length, so it has the same size
    in every unit system and its points scale exactly; the coefficients are
    dimensionless but pass through (m w / hbar)^(1/4), so they agree to
    2 ulp of 1, not to the bit (0.35 ulp measured)."""
    (params, init, _, t), (new_params, new_init, _, new_t) = (
        _packet(0, 0, 0, False), _packet(a, b, c, False))
    grid = default_spectral_grid(params, init, 40)
    new_grid = default_spectral_grid(new_params, new_init, 40)
    assert np.array_equal(new_grid, grid * 2.0 ** b)
    coefficients = [spectral_project(evolve(*state), 40, x).coefficients
                    for state, x in (((params, init, t), grid),
                                     ((new_params, new_init, new_t), new_grid))]
    assert np.max(np.abs(coefficients[1] - coefficients[0])) <= 2 * np.finfo(float).eps
