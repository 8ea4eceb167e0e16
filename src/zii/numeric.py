"""Floating-point reference for the exact pipeline.

This is a reference module: nothing else under `zii` imports it, so the
package and the CLI run without numpy and scipy, which only this module
needs.  The tests and the benchmark import it directly.

Everything here is a control: adaptive Gauss quadrature recomputes
moments that the closed forms produce exactly, and pivoted floating
inversion recomputes mask residuals that the symbolic adjugate settles
in rational arithmetic.  The two sides meeting at tolerance is evidence
each was implemented independently and correctly; neither feeds results
into the other.

Quadrature folds each base weight into the node family that integrates
it exactly: generalized Gauss-Laguerre (weight x^(k-1) e^-x) per axis on
the orthant, Gauss-Legendre on the unit box, and Gauss-Legendre radially
times a uniform midpoint rule angularly on the disk.  Node counts double
until two successive levels agree to the requested tolerance.

The one density evaluated only numerically is the exponentially damped
correlated-gamma law on the orthant with unit shape,

    f(x, y) = e^(-(x+y)/(1-rho)) I0(2 sqrt(rho x y)/(1-rho)) / (1-rho),

whose covariance equals rho exactly; that identity is what the tests pin.
I0 is the order-zero modified Bessel function, taken as scipy's scaled
i0e and recombined in log space so large arguments cannot overflow; the
tests check it against the plain power series.  scipy.special is
imported only by the orthant quadrature and that evaluator, so box and
disk checks never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .equations import compute_mask
from .errors import IllConditioned, NoConvergence, ZiiError
from .measures import DensityFamily, OrthantGamma, UnitBox, UnitDisk
from .moments import build_basis

__all__ = [
    "NumericDensity",
    "numeric_density",
    "kibble_gamma",
    "numeric_moment",
    "numeric_zii_residuals",
    "NumericResiduals",
]

NODE_START = 8
NODE_CAP = 4096
COND_CUTOFF = 1e12


@dataclass(frozen=True)
class NumericDensity:
    """A density evaluated in floats, split as base weight times remainder.

    `relative` is the density divided by the base weight the quadrature
    folds into its nodes; `base` names that weight.  Vectorized over
    numpy arrays.
    """

    label: str
    base: OrthantGamma | UnitBox | UnitDisk
    relative: Callable[[np.ndarray, np.ndarray], np.ndarray]


def numeric_density(family: DensityFamily, point: Mapping[str, Fraction]) -> NumericDensity:
    """Float evaluator for a family at an admissible parameter point."""
    values = family.check_point(point)
    base = family.base
    if isinstance(base, OrthantGamma):
        # symbolic shapes take their value from the parameter point
        sx = values[base.shape_x] if isinstance(base.shape_x, str) else base.shape_x
        sy = values[base.shape_y] if isinstance(base.shape_y, str) else base.shape_y
        base = OrthantGamma(Fraction(sx), Fraction(sy))
    grid = family.coefficient_grid(values)
    coeffs = [[float(c) for c in row] for row in grid]

    def relative(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        out = np.zeros_like(x)
        for i, row in enumerate(coeffs):
            for j, c in enumerate(row):
                if c:
                    out = out + c * x**i * y**j
        return out

    return NumericDensity(family.name, base, relative)


def kibble_gamma(rho: float, sigma1: float = 1.0, sigma2: float = 1.0) -> NumericDensity:
    """Correlated unit-shape gamma density with covariance exactly rho.

    Marginals are exponential with scales sigma1, sigma2.  The evaluator
    works in log space via the scaled Bessel function i0e, so the growing
    I0 factor never overflows.  `relative` divides out the e^(-x-y)
    orthant weight, which is what the quadrature folds back in.
    """
    if not 0 <= rho < 1:
        raise ValueError("correlation must lie in [0, 1)")
    if sigma1 <= 0 or sigma2 <= 0:
        raise ValueError("scales must be positive")

    def relative(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if rho == 0:
            expo = x + y - x / sigma1 - y / sigma2
            return np.exp(expo) / (sigma1 * sigma2)
        from scipy import special

        omr = 1.0 - rho
        z = 2.0 * np.sqrt(rho * x * y / (sigma1 * sigma2)) / omr
        expo = (x + y) - (x / sigma1 + y / sigma2) / omr + z
        return np.exp(expo) * special.i0e(z) / (sigma1 * sigma2 * omr)

    return NumericDensity(f"kibble-gamma(rho={rho})", OrthantGamma(), relative)


# -- quadrature ---------------------------------------------------------------


@lru_cache(maxsize=256)
def _laguerre_nodes(n: int, alpha_num: int, alpha_den: int):
    from scipy import special

    alpha = alpha_num / alpha_den
    nodes, weights = special.roots_genlaguerre(n, alpha)
    return nodes, weights


@lru_cache(maxsize=64)
def _legendre_nodes(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    # map [-1, 1] to [0, 1]
    return (nodes + 1.0) / 2.0, weights / 2.0


def _integrate_orthant(nd: NumericDensity, i: int, j: int, n: int) -> float:
    from scipy import special

    base = nd.base
    kx, ky = Fraction(base.shape_x), Fraction(base.shape_y)
    ax, wx = _laguerre_nodes(n, (kx - 1).numerator, (kx - 1).denominator)
    ay, wy = _laguerre_nodes(n, (ky - 1).numerator, (ky - 1).denominator)
    gx, gy = special.gamma(float(kx)), special.gamma(float(ky))
    fx = ax[:, None] ** i
    fy = ay[None, :] ** j
    vals = nd.relative(ax[:, None], ay[None, :])
    return float((wx[:, None] * wy[None, :] * fx * fy * vals).sum() / (gx * gy))


def _integrate_box(nd: NumericDensity, i: int, j: int, n: int) -> float:
    ax, wx = _legendre_nodes(n)
    vals = nd.relative(ax[:, None], ax[None, :])
    fx = ax[:, None] ** i
    fy = ax[None, :] ** j
    return float((wx[:, None] * wx[None, :] * fx * fy * vals).sum())


def _integrate_disk(nd: NumericDensity, i: int, j: int, n: int) -> float:
    r, wr = _legendre_nodes(n)
    m = 4 * n  # uniform midpoint rule in the angle
    theta = (np.arange(m) + 0.5) * (2.0 * math.pi / m)
    ct, st = np.cos(theta), np.sin(theta)
    x = r[:, None] * ct[None, :]
    y = r[:, None] * st[None, :]
    vals = nd.relative(x, y)
    integrand = vals * (x**i) * (y**j) * r[:, None]
    return float((wr[:, None] * integrand).sum() * (2.0 * math.pi / m))


def numeric_moment(
    nd: NumericDensity, i: int, j: int, tol: float = 1e-10, node_cap: int = NODE_CAP
) -> float:
    """Adaptive moment integral; doubles nodes until two levels agree."""
    if isinstance(nd.base, OrthantGamma):
        one = _integrate_orthant
    elif isinstance(nd.base, UnitBox):
        one = _integrate_box
    elif isinstance(nd.base, UnitDisk):
        one = _integrate_disk
    else:
        raise ZiiError(f"no quadrature for base {nd.base!r}")
    n = NODE_START
    prev = one(nd, i, j, n)
    while n < node_cap:
        n *= 2
        cur = one(nd, i, j, n)
        if abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise NoConvergence(
        f"moment ({i}, {j}) did not stabilize to {tol} within {node_cap} nodes"
    )


# -- numeric mask residuals ------------------------------------------------------


@dataclass(frozen=True)
class NumericResiduals:
    degree: int
    condition: float
    entries: tuple[tuple[tuple[int, int], float], ...]  # (mask pair, inverse entry)
    inverse: np.ndarray

    @property
    def max_abs(self) -> float:
        return max((abs(v) for _, v in self.entries), default=0.0)

    def residual(self, r: int, c: int) -> float:
        return dict(self.entries)[(r, c)]


def numeric_zii_residuals(
    nd: NumericDensity, degree: int, tol: float = 1e-10
) -> NumericResiduals:
    """Invert the float moment matrix and read off the mask entries.

    Raises IllConditioned instead of returning noise when the moment
    matrix condition number exceeds 1e12.
    """
    basis = build_basis(degree)
    mask = compute_mask(basis)
    cache: dict[tuple[int, int], float] = {}
    n = len(basis)
    m = np.empty((n, n))
    for r in range(n):
        pr, qr = basis.exponents[r]
        for c in range(r, n):
            pc, qc = basis.exponents[c]
            key = (pr + pc, qr + qc)
            if key not in cache:
                cache[key] = numeric_moment(nd, *key, tol=tol)
            m[r, c] = m[c, r] = cache[key]
    cond = float(np.linalg.cond(m))
    if cond > COND_CUTOFF:
        raise IllConditioned(
            f"moment matrix at degree {degree} has condition number {cond:.3e}"
        )
    inv = np.linalg.inv(m)
    entries = tuple((pair, float(inv[pair])) for pair in mask.pairs)
    return NumericResiduals(degree, cond, entries, inv)
