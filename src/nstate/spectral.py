"""Exact spectral treatment of degenerate n-state dynamics.

With all level energies equal, the amplitudes obey ``i da/dt = V(t) W a`` and
the propagator depends on time only through the phase area ``A(t)``:

    U(A) = exp(-i A W) = Q diag(exp(-i z_j A)) Q^T,

where ``W = Q diag(z) Q^T`` is the eigendecomposition of the constant coupling
matrix.  For the partially symmetric coupling family the dynamics launched
from state 1 stay inside the 3-dimensional symmetric sector spanned by
(state 1, state 2, the symmetrised manifold of states 3..n), and that sector
is solved in closed form here: sector roots, the mode-mixing inverse, exact
populations, and the complete-transfer design (alpha = -(n-3)/3 together with
a quantised pulse area).  The exact route ``evolve_analytic`` works in that
sector too: for every structured coupling it eigendecomposes the 3-by-3
restriction of W and maps the modes back through the sector basis, while an
explicit matrix goes through the full n-by-n eigensolve.

A universal closed-form population profile in the angle
``theta = 2 pi n0 A(t)/A(t0)`` is also provided.  It is exact for n = 3 and is
audited against the sector-exact populations for larger n (they agree at the
transfer endpoints; mid-pulse they differ, and the deviation is measured by
the test suite rather than assumed away).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import EvenN0Error, NoConvergenceError, NotDegenerateError
from .model import (
    CosinePulse,
    ExplicitCoupling,
    Pulse,
    StructuredCoupling,
    SystemSpec,
    Trajectory,
    build_coupling,
    initial_state,
    make_trajectory,
    pulse_area,
)


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of W."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class ReducedSystem:
    """Closed-form eigensystem of the symmetric 3-sector for a given alpha.

    The sector ansatz ``c = a_1 + x a_2 + y (a_3 + ... + a_n)`` has the root
    pairs ``x = -1, y = 0`` and ``x = 1, y = y_pm``, where ``y_pm`` solve
    ``(n-2) y^2 + (alpha - n + 3) y - 2 = 0``.  The sector eigenvalues are
    ``z = (alpha + (n-2) y_plus, alpha + (n-2) y_minus, -alpha)`` and ``minv``
    maps mode amplitudes back onto (a_1, a_2, a_3).
    """

    n: int
    alpha: float
    y_plus: float
    y_minus: float
    z: np.ndarray
    minv: np.ndarray


@dataclass(frozen=True)
class TransferDesign:
    """Coupling ratio and pulse area that force complete 1 -> 2 transfer.

    ``k`` and ``k_prime`` are the integer sector phase multiples satisfied at
    the transfer area: ``(z1 - z2) A0 / pi = k`` and ``(z2 - z3) A0 / pi = k_prime``.
    """

    n: int
    n0: int
    alpha: float
    beta: float
    area: float
    k: int
    k_prime: int

    def cosine(self, chi: float = 1.0) -> CosinePulse:
        """The default drive ``chi cos(omega t)`` with ``omega = |chi| / (1.05 |A0|)``.

        Its area peaks at ``1.05 |A0|``, so it reaches ``A0`` a little before a
        turning point.
        """
        return CosinePulse(chi=chi, omega=abs(chi) / (1.05 * abs(self.area)))


class UniversalPopulations(NamedTuple):
    """Closed-form populations in theta; ``is_exact`` is False for n > 3.

    For n > 3 the profile is only guaranteed at the endpoints
    theta in {0, 2 pi n0}; use the sector-exact form for mid-pulse values.
    """

    p1: float | np.ndarray
    p2: float | np.ndarray
    p3_per_state: float | np.ndarray
    is_exact: bool


def eigen_decompose(w: np.ndarray) -> EigenSystem:
    """Eigendecompose the real symmetric coupling matrix with cyclic Jacobi sweeps.

    Ordering is deterministic: ascending eigenvalues, and each eigenvector's
    first non-negligible component made positive.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("coupling matrix must be square")
    if not np.array_equal(w, w.T):
        raise ValueError("coupling matrix must be symmetric")
    try:
        vals, vecs = _kernels.jacobi_eigh(w)
    except ValueError as exc:
        raise NoConvergenceError(str(exc)) from exc
    return EigenSystem(values=vals, vectors=vecs)


def propagator(es: EigenSystem, area: float) -> np.ndarray:
    """Unitary n-by-n propagator exp(-i * area * W) from the eigensystem."""
    phases = np.exp(-1j * es.values * area)
    return (es.vectors * phases) @ es.vectors.T


def reduced_system(n: int, alpha: float) -> ReducedSystem:
    """Closed-form symmetric-sector eigensystem (beta = gamma = 1, zero diagonals).

    With ``h = (alpha - n + 3)/(n-2)`` the roots are ``y = (-h +- sqrt(h^2 + 8/(n-2)))/2``,
    real and of opposite sign for every finite alpha, with product ``-2/(n-2)``.
    The root of larger magnitude comes from that formula, where the two terms
    share a sign, and the other one from the product, so neither loses digits.
    """
    if n < 3:
        raise ValueError("the symmetric sector needs n >= 3")
    alpha = float(alpha)
    m = n - 2
    h = (alpha - n + 3.0) / m
    # halved before the sum here and after the division in minv, so that |alpha|
    # near the largest float overflows neither
    big = 0.5 * abs(h) + 0.5 * math.hypot(h, math.sqrt(8.0 / m))
    small = -2.0 / m / big
    y_plus, y_minus = (big, small) if h <= 0.0 else (-small, -big)
    z = np.array([alpha + m * y_plus, alpha + m * y_minus, -alpha])
    gap = y_plus - y_minus
    minv = (
        np.array(
            [
                [-y_minus, y_plus, gap],
                [-y_minus, y_plus, -gap],
                [2.0 / m, -2.0 / m, 0.0],
            ]
        )
        / gap
        / 2.0
    )
    return ReducedSystem(
        n=n,
        alpha=alpha,
        y_plus=y_plus,
        y_minus=y_minus,
        z=z,
        minv=minv,
    )


def populations_exact(rs: ReducedSystem, area):
    """Exact populations (P1, P2, P3 per state) at phase area(s) ``area``.

    Evaluates the double cosine sum over sector modes,
    ``P_k = sum_ij minv[k,i] minv[k,j] cos((z_i - z_j) A)``, which equals
    ``|sum_j minv[k,j] exp(-i z_j A)|^2`` and satisfies
    ``P1 + P2 + (n-2) P3 = 1`` identically.
    """
    a = np.asarray(area, dtype=np.float64)
    zdiff = rs.z[:, None] - rs.z[None, :]
    cosines = np.cos(np.multiply.outer(zdiff, a))
    pk = np.einsum("ki,kj,ij...->k...", rs.minv, rs.minv, cosines)
    if np.ndim(area) == 0:
        return float(pk[0]), float(pk[1]), float(pk[2])
    return pk[0], pk[1], pk[2]


def populations_universal(theta, n: int) -> UniversalPopulations:
    """Closed-form populations in the transfer angle theta.

    ``P1 = (3 + cos theta + 4 cos(theta/2)) / 8``,
    ``P2 = (3 + cos theta - 4 cos(theta/2)) / 8``,
    ``P3 = sin^2(theta/2) / (2 (n-2))`` per manifold state.  Exact for n = 3;
    for larger n the returned flag marks the profile as endpoint-only.
    """
    if n < 3:
        raise ValueError("the universal profile applies to n >= 3")
    th = np.asarray(theta, dtype=np.float64)
    cos_full = np.cos(th)
    cos_half = np.cos(0.5 * th)
    p1 = (3.0 + cos_full + 4.0 * cos_half) / 8.0
    p2 = (3.0 + cos_full - 4.0 * cos_half) / 8.0
    p3 = 0.5 * np.sin(0.5 * th) ** 2 / (n - 2)
    if np.ndim(theta) == 0:
        return UniversalPopulations(float(p1), float(p2), float(p3), n == 3)
    return UniversalPopulations(p1, p2, p3, n == 3)


def design_transfer(n: int, n0: int = 1, negative: bool = False) -> TransferDesign:
    """Coupling ratio and quantised pulse area for complete 1 -> 2 transfer.

    For the partially symmetric family (beta = gamma = 1, zero diagonals) the
    requirements are ``alpha = -(n-3)/3`` and
    ``A0 = +- n0 pi sqrt(9 / (18 (n-2) + 4 (n-3)^2))`` with ``n0`` odd.  The
    ``negative`` flag selects the falling branch of the area; the sector phase
    multiples then flip sign accordingly.

    Two states couple through the envelope alone (alpha = beta = 1, so
    ``W = [[0, 1], [1, 0]]``) and transfer at ``A0 = +- n0 pi / 2``.  Their two
    modes give ``k = +- n0``; there is no third mode, so ``k_prime`` is 0.
    """
    if n < 2:
        raise ValueError(f"designs need n >= 2, got {n}")
    if n0 % 2 == 0:
        raise EvenN0Error(f"n0 must be odd, got {n0}")
    sign = -1 if negative else 1
    if n == 2:
        return TransferDesign(
            n=2, n0=n0, alpha=1.0, beta=1.0, area=sign * n0 * math.pi / 2.0, k=sign * n0, k_prime=0
        )
    s = 18.0 * (n - 2) + 4.0 * (n - 3) ** 2
    area = sign * n0 * math.pi * math.sqrt(9.0 / s)
    return TransferDesign(
        n=n,
        n0=n0,
        alpha=-(n - 3) / 3.0,
        beta=1.0,
        area=area,
        k=2 * sign * n0,
        k_prime=-sign * n0,
    )


def design_spec(n: int, n0: int = 1) -> SystemSpec:
    """A degenerate SystemSpec carrying the designed coupling for n states."""
    return SystemSpec(n=n, coupling=StructuredCoupling(alpha=design_transfer(n, n0).alpha))


def launch_sector(spec: SystemSpec) -> tuple[np.ndarray, np.ndarray]:
    """W restricted to the smallest invariant subspace holding e_1, and its basis.

    For a structured coupling with n >= 3 the basis columns are e_1, e_2 and
    ``s = (e_3 + ... + e_n) / sqrt(n-2)``, and the 3-by-3 matrix holds for every
    alpha, beta, gamma and epsilon.  Explicit matrices and n = 2 return W
    itself with the identity basis.
    """
    c = spec.coupling
    if isinstance(c, ExplicitCoupling) or spec.n == 2:
        return build_coupling(spec), np.eye(spec.n)
    e1, e2, e3 = c.epsilon
    r = math.sqrt(spec.n - 2)
    w = np.array(
        [
            [e1, c.alpha, c.beta * r],
            [c.alpha, e2, c.gamma * r],
            [c.beta * r, c.gamma * r, e3 + c.gamma * (spec.n - 3)],
        ]
    )
    basis = np.zeros((spec.n, 3))
    basis[0, 0] = basis[1, 1] = 1.0
    basis[2:, 2] = 1.0 / r
    return w, basis


def evolve_analytic(spec: SystemSpec, p: Pulse, times) -> Trajectory:
    """Evolve a degenerate system exactly at the given sample times.

    Amplitudes are ``U(A(t)) e_1`` times the global phase from the common
    energy offset.  ``U`` is built from the eigensystem of W in the launch
    sector (:func:`launch_sector`), so a structured coupling costs a 3-by-3
    eigensolve for any n.  Norm is preserved to rounding.  Raises ``NotDegenerate``
    when the levels are split (use the integrator for that regime).
    """
    if not spec.degenerate:
        raise NotDegenerateError("analytic evolution requires equal level energies")
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    w, basis = launch_sector(spec)
    es = eigen_decompose(w)
    vectors = basis @ es.vectors
    areas = np.asarray(pulse_area(p, times), dtype=np.float64)
    launch_weights = vectors.T @ initial_state(spec.n)
    phases = np.exp(-1j * np.outer(areas, es.values))
    amps = (phases * launch_weights) @ vectors.T
    offset = spec.energies[0]
    if offset != 0.0:
        amps = amps * np.exp(-1j * offset * times)[:, None]
    return make_trajectory(times, amps, areas)
