"""Shared parameter records, the record decorator, the quadrature rule and
the worst-residual reduction of the oracle checks.

All other modules consume the types defined here.  Every record is a class
under `record`, a frozen dataclass without the start-up cost of importing
dataclasses (and inspect), and a grid is a plain numpy array.  Units are
natural: a temperature is the energy k_B T (k_B = 1), and hbar is a field of
the system record, 1 by default, so with m = omega = 1 energies come out in
units of m*omega^2*x0^2 and times in 1/omega.  Every numerical integral in
the package goes through integrate_window, one Gauss-Legendre box rule, its
window and tolerances fixed, except two: wavepacket's composite Simpson rule
of the spectral overlaps, on the caller's grid, and partition's two-point
Gauss-Hermite mean of the marginal rate brackets, exact for quadratics.
integrate_window hands the integrand an open grid (np.ix_) of one slab at
a time, a slab being whole rows of the first axis, and contracts the values
with the 1-D weights one axis at a time.  Values with leading axes beyond the box's
are a batch of integrands on one ladder, each element with the bits it gets
alone: the marginal curves' samples.

numpy loads on first use.  `np` here is a small stand-in for the module that
imports numpy when one of its attributes is first read and then keeps that
attribute on itself, so later reads such as np.exp are plain attribute hits.
The other modules take `np` from here, so `import bohmpart` and the
subcommands that need only `math` (`partition`, `limits`, and `bath` and
`trajectory`, which evaluate their kernels one float at a time) never import
numpy; an array kernel, an oracle or integrate_window loads it when it first
runs.  memory_kernel and scaling_solution, which `bath` and `trajectory`
call one sample at a time, take their functions from functions_of(t), so
one expression serves a float, on math alone, and an array.
"""

from __future__ import annotations

import functools
import math
from typing import Callable


class _LazyNumpy:
    """numpy, imported when an attribute is first read (module docstring)."""

    def __getattr__(self, name: str):
        import numpy
        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _LazyNumpy()


class _FloatMath:
    """The numpy functions a kernel calls, for one float, on math alone.

    Each gives the double numpy gives for that element: cos and sin are
    libm's in both, and hypot goes through abs(complex), which calls libm's
    hypot as np.hypot does (math.hypot rounds differently in the last bit).
    abs(complex) raises OverflowError where both parts are finite and the
    hypot is not, so the kernels pass it one part of size at most 1.
    """

    cos, sin, isfinite, all = math.cos, math.sin, math.isfinite, bool

    @staticmethod
    def hypot(a: float, b: float) -> float:
        return abs(complex(a, b))


def functions_of(x):
    """The namespace a kernel evaluates x with: _FloatMath for a float or an
    int (np.float64 included), numpy for an array."""
    return _FloatMath if isinstance(x, (int, float)) else np


# ---------------------------------------------------------------------------
# Errors shared across modules
# ---------------------------------------------------------------------------

class DivergentIntegral(Exception):
    """The requested integral does not converge for these parameters."""


class QuadratureFailure(Exception):
    """The Gauss-Legendre ladder could not reach the requested tolerance."""


class StepFailure(Exception):
    """The ODE step controller could not meet its tolerance."""


class TruncationInsufficient(Exception):
    """A truncated basis expansion failed to capture the state."""


# ---------------------------------------------------------------------------
# Parameter records
# ---------------------------------------------------------------------------

def record(cls):
    """A frozen dataclasses.dataclass(cls) without exec or its import: the
    fields are the class's own annotations, their defaults its attributes,
    and repr, == and hash go by the field values in order."""
    names = tuple(vars(cls).get("__annotations__", ()))
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    values = lambda self: tuple(getattr(self, name) for name in names)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        given = dict(defaults)
        given.update(zip(names, args), **kwargs)
        if (len(args) > len(names) or given.keys() != set(names)
                or not kwargs.keys().isdisjoint(names[:len(args)])):
            raise TypeError(f"{cls.__name__}() takes {', '.join(names)}")
        for name in names:  # not self.__dict__, which slows every later read
            object.__setattr__(self, name, given[name])
        if post_init:
            post_init(self)

    def refuse(self, name, *value):
        raise AttributeError(f"{cls.__name__} is frozen: cannot set {name!r}")

    cls.__init__ = __init__
    cls.__repr__ = lambda self: type(self).__qualname__ + "(" + ", ".join(
        f"{name}={getattr(self, name)!r}" for name in names) + ")"
    cls.__eq__ = lambda self, other: (values(self) == values(other) if type(
        other) is type(self) else NotImplemented)
    cls.__hash__ = lambda self: hash(values(self))
    cls.__setattr__ = cls.__delattr__ = refuse
    return cls


def check_scale(key: str, value: float) -> None:
    """ValueError naming `key` unless 1e-75 <= value <= 1e75, where value^4
    (the highest power of a mass, hbar or width) and its inverse are normal."""
    if not 0 < value < math.inf:
        raise ValueError(f"{key} must be finite and strictly positive")
    if not 1e-75 <= value <= 1e75:
        raise ValueError(f"{key} = {value:g} lies outside [1e-75, 1e+75], "
                         "where its powers overflow or underflow")


def _finite_positive(name: str, value: float) -> float:
    """value, or ValueError naming it unless it is a positive finite double."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} = {value!r} is not a positive finite double")
    return value


def _worst(residuals) -> float:
    """The largest residual (0.0 for none), or NaN where any residual is
    NaN, which a running max(worst, r) would drop, passing the check."""
    values = list(residuals)
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


@record
class SystemParams:
    """Single particle in V(x) = m*omega^2*x^2/2; omega = 0 is the free particle."""

    mass: float
    omega: float
    hbar: float = 1.0

    def __post_init__(self):
        check_scale("mass", self.mass)
        check_scale("hbar", self.hbar)
        if not 0 <= self.omega < math.inf:
            raise ValueError("omega must be finite and non-negative")

    @property
    def is_harmonic(self) -> bool:
        """True for a well (omega > 0), False for the free particle."""
        return self.omega > 0


def harmonic_system(mass: float, omega: float, hbar: float = 1.0) -> SystemParams:
    if not 0 < omega < math.inf:
        raise ValueError("omega must be finite and strictly positive")
    return SystemParams(mass, omega, hbar)


def free_system(mass: float, hbar: float = 1.0) -> SystemParams:
    return SystemParams(mass, 0.0, hbar)


def potential_value(params: SystemParams, x):
    """V(x): m*omega^2*x^2/2 for the harmonic well, 0 for the free particle."""
    return 0.5 * params.mass * params.omega**2 * (x * x)


@record
class ThermalSpec:
    """Canonical-ensemble inverse temperature beta = 1/(k_B T)."""

    beta: float

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise ValueError("beta must be finite and strictly positive")

    @classmethod
    def from_kbt(cls, kbt: float) -> "ThermalSpec":
        """Build from the thermal energy k_B*T."""
        if not 0 < kbt < math.inf:
            raise ValueError("kbt must be finite and strictly positive")
        if 1.0 / kbt == math.inf:
            raise ValueError(f"kbt = {kbt!r} is so small that beta = 1/kbt "
                             "overflows a double")
        return cls(1.0 / kbt)

    @property
    def kbt(self) -> float:
        return 1.0 / self.beta


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

# Half-width of every truncated Gaussian integral in standard deviations of the
# integrand; 12 keeps the dropped tail below 1e-30, far under the tolerances.
WINDOW_SIGMAS = 12.0
REL_TOL, ABS_TOL = 1e-10, 1e-13
# Gauss-Legendre nodes per axis, tried in turn.  A Gaussian on a 12-sigma
# window is resolved to 1e-12 at 48 nodes, so its 1-D integrals stop at 96.
GL_LADDER = (12, 24, 48, 96, 192, 384)
# Box points handed to the integrand at once; bounds the memory of an N-D box.
# A slab is whole rows of the first axis, at least one, so a call sees at
# most max(SLAB_POINTS, n^(d-1)) points.
SLAB_POINTS = 1 << 14


@functools.lru_cache(maxsize=None)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _box_rule(f: Callable, mid: np.ndarray, half: np.ndarray, n: int):
    """n-point-per-axis tensor-product Gauss-Legendre sum of f over the box,
    one per batch element.

    f sees an open grid (np.ix_) of one slab of whole first-axis rows, so a
    term that depends on one axis is evaluated on that axis's nodes, not on
    every point; the values are contracted with the 1-D weights one axis at
    a time, the last first, as a stacked vals[..., None, :] @ weights: the
    1-D dot of a scalar integrand per batch element, where a (k, n) @ (n,)
    gemv rounds some rows differently.
    """
    nodes, weights = _legendre(n)
    axes = [m + h * nodes for m, h in zip(mid, half)]
    rows = max(1, SLAB_POINTS // n ** (mid.size - 1))
    total = 0.0
    for start in range(0, n, rows):
        grid = np.ix_(axes[0][start:start + rows], *axes[1:])
        vals = np.asarray(f(*grid))
        batch = vals.shape[:max(0, vals.ndim - len(grid))]
        vals = np.broadcast_to(vals, batch + tuple(g.size for g in grid))
        for _ in axes[1:]:
            vals = vals @ weights
        total += (vals[..., None, :] @ weights[start:start + rows])[..., 0]
    return total * float(np.prod(half))


def integrate_window(f: Callable[..., np.ndarray], lo, hi):
    """Gauss-Legendre integral of f over the box [lo, hi].

    lo and hi are floats for a 1-D integral or equal-length tuples of
    per-axis bounds for an N-D box.  f takes one coordinate array per axis,
    the axes of an open grid, and returns the integrand at those points,
    broadcasting like numpy; a result that lacks an axis, or a constant,
    is broadcast over it.  The nodes per axis double along GL_LADDER until
    two successive rules agree to max(ABS_TOL, REL_TOL |Q|); returns
    (Q(2n), |Q(2n) - Q(n)|), where the error estimate is that of the
    coarser rule and so bounds the finer one's for an integrand the rules
    resolve.  Raises QuadratureFailure when the ladder ends first or a rule
    gives a non-finite value.

    Values with leading axes beyond the box's are a batch of integrands:
    the return is a pair of arrays of that shape, each element's pair bit
    for bit its own scalar call's, and the ladder runs until all converge
    (QuadratureFailure quotes the largest last disagreement).  f sees every
    element on each call, so k elements on a 1-D box need k GL_LADDER[-1]
    <= SLAB_POINTS.  A scalar integrand gets floats.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    prev = math.nan
    for n in GL_LADDER:
        rule = np.asarray(_box_rule(f, mid, half, n))
        if n == GL_LADDER[0]:  # the batch shape is known once f has run
            value, err = np.empty_like(rule), np.full_like(rule, math.nan)
        unconverged = np.isnan(err)
        bad = unconverged & ~np.isfinite(rule)
        if np.count_nonzero(bad):
            raise QuadratureFailure(f"non-finite value {rule[bad].flat[0]} "
                                    f"with {n} nodes per axis")
        step = abs(rule - prev)  # NaN on the first rung, so none converges
        done = unconverged & (step <= np.maximum(ABS_TOL, REL_TOL * abs(rule)))
        np.copyto(value, rule, where=done)
        np.copyto(err, step, where=done)
        if not np.count_nonzero(np.isnan(err)):
            return (float(value), float(err)) if value.ndim == 0 else (value, err)
        prev = rule
    raise QuadratureFailure(f"{GL_LADDER[-1]}- and {GL_LADDER[-2]}-node rules "
                            f"differ by {step[unconverged].max():g}")
