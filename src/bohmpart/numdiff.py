"""Finite-difference stencils used by the oracle cross-checks.

Fourth-order 5-point stencils with one Richardson extrapolation step, which
puts the truncation error far below the double-precision roundoff floor for
the step sizes used here (h ~ 1e-4 in natural units).
"""

from __future__ import annotations

from typing import Callable


def central_first(f: Callable[[float], float], x: float, h: float = 1e-4) -> float:
    """d f/dx via the 5-point central stencil."""
    def stencil(step: float) -> float:
        return (-f(x + 2 * step) + 8 * f(x + step)
                - 8 * f(x - step) + f(x - 2 * step)) / (12 * step)

    d1, d2 = stencil(h), stencil(h / 2)
    return (16 * d2 - d1) / 15


def central_second(f: Callable[[float], float], x: float, h: float = 1e-3) -> float:
    """d^2 f/dx^2 via the 5-point central stencil."""
    def stencil(step: float) -> float:
        return (-f(x + 2 * step) + 16 * f(x + step) - 30 * f(x)
                + 16 * f(x - step) - f(x - 2 * step)) / (12 * step**2)

    d1, d2 = stencil(h), stencil(h / 2)
    return (16 * d2 - d1) / 15
