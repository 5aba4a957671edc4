"""The ergodicity indicator W = phi_0(0+).

Sequences that terminate at a finite order K are classified
structurally: the terminating continued fraction is a rational function
whose value at z = 0 is exactly 0 for odd K and diverges for even K.
Semi-infinite sequences are classified from phi_0(z) evaluated at a
decreasing ladder of small real z (in units of b_1): a finite limit is
extrapolated polynomially to z = 0, while values scaling like 1/z or
like z classify as infinite / zero.

The even/odd partial products b_2^2 b_4^2.../b_1^2 b_3^2... are attached
as diagnostics only: they do not converge to phi_0(0) in general (for a
constant sequence b != 1 every partial product is 1 while
phi_0(0) = 1/b), so the relaxation-function route is authoritative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConvergenceError
from .observables import relaxation_phi0
from .sequences import LanczosSequence

__all__ = ["WClassification", "w_number", "partial_products"]

_Z_LADDER = (1e-2, 1e-3, 1e-4)
# the defaults of w_number, which config.WnumberSection reads
DEPTH = 20000
TOL = 1e-7


@dataclass(frozen=True)
class WClassification:
    """verdict is one of "zero", "infinite", "finite", "undetermined".

    value (inverse energy) is set only for "finite"; reason only for
    "undetermined".  diagnostics carries the partial even/odd products
    and the (z, phi_0(z)) ladder actually evaluated.
    """

    verdict: str
    value: Optional[float] = None
    reason: Optional[str] = None
    partial_products: Tuple[float, ...] = ()
    cf_trace: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.verdict not in ("zero", "infinite", "finite", "undetermined"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "finite" and not (self.value is not None and self.value > 0):
            raise ValueError("finite verdict requires a positive value")
        if self.verdict == "undetermined" and not self.reason:
            raise ValueError("undetermined verdict requires a reason")


def partial_products(seq: LanczosSequence, terms: int) -> Tuple[float, ...]:
    """Running products prod_{k<=m} b_{2k}^2 / b_{2k-1}^2, m <= terms (diagnostic only).

    Taken from one b_array; the tuple ends at a finite chain's support and
    before the first product that is not finite.
    """
    sup = seq.support
    b = seq.b_array(2 * (terms if sup is None else min(terms, sup // 2)))
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.cumprod((b[1::2] / b[0::2]) ** 2)
    return tuple(p[:np.append(np.isfinite(p), False).argmin()].tolist())


def _extrapolate_to_zero(xs, ys) -> float:
    total = 0.0
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        w = 1.0
        for j, xj in enumerate(xs):
            if j != i:
                w *= (0.0 - xj) / (xi - xj)
        total += yi * w
    return total


def w_number(seq: LanczosSequence, depth: int = DEPTH, tol: float = TOL) -> WClassification:
    """Classify W for a sequence.

    depth bounds the continued-fraction truncation; tol is the relative
    agreement demanded between depth-halved evaluations (non-convergence
    yields an "undetermined" verdict carrying the trace).  The
    depth-averaged truncation converges like 1/depth^2 at small z, so the
    default pairing (20000, 1e-7) leaves the extrapolated W accurate to
    well below 1e-6.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    sup = seq.support
    products = partial_products(seq, min(depth, 48))
    if sup is not None:
        verdict = "zero" if sup % 2 == 1 else "infinite"
        return WClassification(verdict=verdict, partial_products=products)

    b1 = seq.b(1)
    trace = []
    try:
        for zr in _Z_LADDER:
            z = zr * b1
            val = relaxation_phi0(seq, z, depth=depth, tol=tol)
            phi = float(val.real if isinstance(val, complex) else val)
            if not math.isfinite(phi):
                # W ~ phi_0(0+) is past the float range; the trace keeps the finite pairs
                return WClassification(
                    verdict="undetermined",
                    reason=f"phi_0({z!r}) = {phi} overflows float64: W is past the float range",
                    partial_products=products,
                    cf_trace=tuple(trace),
                )
            trace.append((z, phi))
    except ConvergenceError as exc:
        return WClassification(
            verdict="undetermined",
            reason=f"continued fraction not converged at depth {depth}: {exc}",
            partial_products=products,
            cf_trace=tuple(trace),
        )

    # log-slope of phi_0(z) across the two smallest z values
    (z1, v1), (z2, v2) = trace[-2], trace[-1]
    if v1 <= 0 or v2 <= 0:
        slope = 0.0
    else:
        slope = math.log(v1 / v2) / math.log(z1 / z2)
    if abs(slope) >= 0.5:  # phi_0(z) scales like 1/z or like z
        verdict = "infinite" if slope < 0 else "zero"
        return WClassification(verdict=verdict, partial_products=products, cf_trace=tuple(trace))
    value = _extrapolate_to_zero(*zip(*trace))
    if not value > 0:
        return WClassification(
            verdict="undetermined",
            reason=f"extrapolated value {value} is not positive",
            partial_products=products,
            cf_trace=tuple(trace),
        )
    return WClassification(
        verdict="finite",
        value=value,
        partial_products=products,
        cf_trace=tuple(trace),
    )
