"""Shared parameter records, the record decorator, the quadrature rule and
the worst-residual reduction of the oracle checks.

All other modules consume the types defined here.  Every record is a class
under `record`, a frozen dataclass without the start-up cost of importing
dataclasses (and inspect), and a grid is a plain numpy array.  Units are
natural: a temperature is the energy k_B T (k_B = 1), and hbar is a field of
the system record, 1 by default, so with m = omega = 1 energies come out in
units of m*omega^2*x0^2 and times in 1/omega.  Every numerical integral in
the package goes through integrate_window, one Gauss-Legendre rule, its
window and tolerances fixed, except two: wavepacket's composite Simpson rule
of the spectral overlaps, on the caller's grid, and partition's two-point
Gauss-Hermite mean of the marginal rate brackets, exact for quadratics.
Its integrands are Gaussians on WINDOW_SIGMAS of their deviations per axis,
C exp(-72 s^2) in window coordinates s, so GL_LADDER starts at 48 nodes, the
first rule to resolve one; a rule passes on the unit-free REL_TOL alone.
The nodes and weights are pure-Python float tuples (_legendre).  Every
integrand in 2-D and 3-D is a product of one factor per axis, and the
tensor-product rule of a product is the product of the 1-D rules, so
integrate_window runs one rule per axis, on floats, and an integrand on
math alone, each marginal Z sample and each oracle among them, needs no
numpy.

numpy is not a dependency, and loads on first use.  `np` here is a small
stand-in for the module that imports numpy when one of its attributes is
first read and then keeps that attribute on itself, so later reads such as
np.exp are plain attribute hits; where numpy is not installed, that first
read raises ImportError.
The other modules take `np` from here, so `import bohmpart` and every
subcommand, each of which needs only `math` (`partition`, `partition
--oracle`, `limits`, `fig1` and `marginal`, and `bath`, `trajectory` and
`verify`, which evaluate their kernels one float at a time), never import
numpy; an array kernel loads it when it first runs.  memory_kernel and
scaling_solution, which `bath` and `trajectory` call one sample at a time,
take their functions from functions_of(t), so one expression serves a
float, on math alone, and an array.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable

_TINY = sys.float_info.min  # the least positive normal double


class _LazyNumpy:
    """numpy, imported when an attribute is first read (module docstring)."""

    def __getattr__(self, name: str):
        try:
            import numpy
        except ModuleNotFoundError as exc:
            raise ImportError(
                "numpy is not installed: bohmpart needs it for array inputs, "
                "and for density, wavefunction and spectral_project") from exc
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
        beta = 1.0 / kbt
        if beta == math.inf:
            raise ValueError(f"kbt = {kbt!r} is so small that beta = 1/kbt "
                             "overflows a double")
        if beta < _TINY:
            raise ValueError(f"kbt = {kbt!r} is so large that beta = 1/kbt "
                             "is below the normal doubles")
        return cls(beta)

    @property
    def kbt(self) -> float:
        return 1.0 / self.beta


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

# Half-width of every truncated Gaussian integral in standard deviations of the
# integrand; 12 keeps the dropped tail below 1e-30, far under the tolerances.
WINDOW_SIGMAS = 12.0
REL_TOL = 1e-10
# Gauss-Legendre nodes per axis, tried in turn.  Each integrand is C exp(-72
# s^2) per axis s in [-1, 1] of its window: 24 nodes are 6e-4 off, so no pair
# with them agrees to REL_TOL, and 48 are 1e-12 off, so (48, 96) is the first.
GL_LADDER = (48, 96, 192, 384)


@functools.lru_cache(maxsize=None)
def _legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The n-point Gauss-Legendre nodes on [-1, 1], ascending, and their
    weights, for an even n, on math alone.

    Each positive node is found by Newton's method on P_n from the guess
    cos(pi (4i + 3) / (4n + 2)), with P_n and P_(n-1) from the three-term
    recurrence j P_j = (2j - 1) x P_(j-1) - (j - 1) P_(j-2), and its weight
    is 2 / ((1 - x^2) P_n'(x)^2); the negative half mirrors them.  The
    weights are scaled to sum to 2, the length of [-1, 1]: a bias that every
    weight shared would move both rules of a rung alike, where est_error,
    their difference, cannot see it.  The nodes lie within 2 ulp and the
    weights within 1e-11 of their exact values (tests/test_core.py holds
    them to mpmath).
    """
    steps = [((2 * j - 1) / j, (j - 1) / j) for j in range(2, n + 1)]
    positive = []
    for i in range(n // 2):
        x, dx = math.cos(math.pi * (4 * i + 3) / (4 * n + 2)), 1.0
        while abs(dx) > 1e-16:
            p0, p1 = 1.0, x
            for a, b in steps:
                p0, p1 = p1, a * x * p1 - b * p0
            dp = n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))
            dx = p1 / dp
            x -= dx
        positive.append((x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)))
    nodes = [-x for x, _ in positive] + [x for x, _ in reversed(positive)]
    weights = [w for _, w in positive] + [w for _, w in reversed(positive)]
    scale = 2.0 / math.fsum(weights)
    return tuple(nodes), tuple(w * scale for w in weights)


def _rule(f: Callable, mid: float, half: float, n: int) -> float:
    """n-point Gauss-Legendre sum of f over [mid - half, mid + half]: f
    gets each node mid + half x, a float, the terms are added in node
    order, and the sum is multiplied by half."""
    total = 0.0
    for x, w in zip(*_legendre(n)):
        total += w * f(mid + half * x)
    return total * half


def integrate_window(f, lo, hi) -> tuple[float, float]:
    """Gauss-Legendre integral of f over the box [lo, hi].

    For a 1-D integral f is a function of a float and lo and hi are
    floats.  For an N-D box f is a tuple of per-axis factors, the integrand
    their product, and lo and hi are equal-length tuples of per-axis
    bounds; the tensor-product rule of a product is the product of the 1-D
    rules, so each rung is that product.  The nodes per axis double along
    GL_LADDER until two successive rules agree to REL_TOL |Q| (two zeros
    agree); returns the floats (Q(2n), |Q(2n) - Q(n)|), where the error
    estimate is that of the coarser rule and so bounds the finer one's for
    an integrand the rules resolve.  Raises QuadratureFailure when the
    ladder ends first, or a rule's value is not finite or overflows a
    double in f (an OverflowError from math.exp, say).
    """
    if not isinstance(lo, (tuple, list)):
        f, lo, hi = (f,), (lo,), (hi,)
    axes = [(g, 0.5 * (b + a), 0.5 * (b - a)) for g, a, b in zip(f, lo, hi)]
    prev = math.nan
    for n in GL_LADDER:
        try:
            rule = float(math.prod(_rule(g, mid, half, n)
                                   for g, mid, half in axes))
        except OverflowError:
            rule = math.inf
        if not math.isfinite(rule):
            raise QuadratureFailure(f"non-finite value {rule} with {n} nodes "
                                    "per axis")
        step = abs(rule - prev)  # NaN on the first rung, so it never passes
        if step <= REL_TOL * abs(rule):
            return rule, step
        prev = rule
    raise QuadratureFailure(f"{GL_LADDER[-1]}- and {GL_LADDER[-2]}-node rules "
                            f"differ by {step:g}")
