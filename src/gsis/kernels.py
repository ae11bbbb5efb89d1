"""Reproducing kernels whose matrices commute with the graph shifts.

Every such kernel is diagonalized by the common eigenbasis, so a kernel is
described by one nonnegative value per frequency.  Classical families
(diffusion, random walk, regularization, spline) are built by applying a
scalar profile to the eigenvalues of a base shift.  The reproducing-kernel
geometry on the kernel's range is a diagonal quadratic form on the
transform side; the canonical choice is the pseudo-inverse of the kernel's
spectral values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KernelParameterError
from .graphs import ShiftMatrix, ShiftSet, _matrix, _signal, frobenius_tol
from .spaces import SignalSpace
from .spectral import SpectralDecomposition

__all__ = [
    "ShiftInvariantKernel",
    "RkhsMetric",
    "KERNEL_FAMILIES",
    "make_kernel",
    "is_shift_invariant_kernel",
    "gsis_to_rkhs_kernel",
    "kernel_for_metric",
    "is_reproducing_metric",
    "rkhs_inner_product",
    "evaluation_bound",
    "KERNEL_REL",
    "METRIC_REL",
]

KERNEL_FAMILIES = ("diffusion", "random_walk", "regularization", "spline")

_RANK_CUTOFF = 1e-12
KERNEL_REL = 1e-8  # relative tolerance of is_shift_invariant_kernel's three tests
METRIC_REL = 1e-10  # relative tolerance of is_reproducing_metric


@dataclass(frozen=True)
class ShiftInvariantKernel:
    """Positive semidefinite kernel diagonalized by the common eigenbasis.

    Attributes
    ----------
    matrix : (N, N) ndarray
        The kernel matrix ``U diag(spectral_values) U.T``.
    spectral_values : (N,) ndarray
        Nonnegative eigenvalue of the kernel at each frequency.
    omega : tuple of int
        Frequencies where the spectral value exceeds ``1e-12`` times the
        largest one; the kernel's range is bandlimited to these.
    decomp : SpectralDecomposition
    family : str
        Name of the spectral profile, or "custom".
    params : dict, optional
        Parameters the profile was built with.
    """

    matrix: np.ndarray
    spectral_values: np.ndarray
    omega: tuple[int, ...]
    decomp: SpectralDecomposition
    family: str = "custom"
    params: dict | None = None


def _kernel_from_spectrum(
    decomp: SpectralDecomposition,
    values: np.ndarray,
    family: str = "custom",
    params: dict | None = None,
) -> ShiftInvariantKernel:
    values = _signal(values, decomp.n_vertices, "kernel spectral values")
    top = float(values.max(initial=0.0))
    if values.min(initial=0.0) < -_RANK_CUTOFF * max(top, 1.0):
        raise ValueError("kernel spectral values must be nonnegative")
    values = np.maximum(values, 0.0)
    omega = tuple(int(k) for k in np.flatnonzero(values > _RANK_CUTOFF * max(top, 1e-300)))
    mat = (decomp.basis * values) @ decomp.basis.T
    mat = (mat + mat.T) / 2.0
    return ShiftInvariantKernel(mat, values, omega, decomp, family, params)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing profile fails as a non-finite spectrum
def make_kernel(
    decomp: SpectralDecomposition,
    base_shift: ShiftMatrix | np.ndarray,
    family: str,
    **params,
) -> ShiftInvariantKernel:
    """Build a kernel by applying a spectral profile to a base shift.

    Families and parameters (lambda denotes a base-shift eigenvalue):

    - ``diffusion``: ``exp(sigma^2 * lambda / 2)`` with ``sigma > 0``.
    - ``random_walk``: ``(a - lambda)^(-p)`` with ``a > 2`` and integer
      ``p >= 1``; every ``a - lambda`` must be positive.
    - ``regularization``: ``1 + sigma^2 * lambda`` with ``sigma > 0``.
      Note this grows with lambda, so it rewards rather than penalizes
      high frequencies; it is kept in this direct form deliberately.
    - ``spline``: ``lambda^(-alpha)`` on nonzero eigenvalues, 0 on the
      kernel of the base shift, with ``alpha > 0``.

    The base spectrum is read through ``decomp.eigenvalues_of``, so a
    member of ``decomp.shifts`` takes its stored row.

    Raises
    ------
    ValueError
        Unknown family, parameters out of range or not finite, a base
        shift the decomposition does not diagonalize, or a profile that
        turns negative or overflows on the base spectrum.
    KernelParameterError
        A parameter the family needs is missing, or one it does not take
        is given (a ``TypeError``, as for a bad keyword argument).
    """
    lam = decomp.eigenvalues_of(base_shift, "base shift")
    unknown = set(params) - {"sigma", "a", "p", "alpha"}
    if unknown:
        raise KernelParameterError(f"unknown kernel parameters {sorted(unknown)}")
    given = dict(params)
    if family == "diffusion":
        sigma = _take(params, "sigma", family)
        if sigma <= 0:
            raise ValueError("diffusion takes a single parameter sigma > 0")
        values = np.exp(sigma**2 * lam / 2.0)
    elif family == "random_walk":
        a = _take(params, "a", family)
        p = _take(params, "p", family)
        if a <= 2 or p < 1 or not p.is_integer():
            raise ValueError("random_walk takes parameters a > 2 and integer p >= 1")
        p = int(p)
        shifted = a - lam
        if np.any(shifted <= 0):
            raise ValueError(f"a = {a} does not dominate the base spectrum (max {lam.max():.6g})")
        values = shifted ** (-p)
    elif family == "regularization":
        sigma = _take(params, "sigma", family)
        if sigma <= 0:
            raise ValueError("regularization takes a single parameter sigma > 0")
        values = 1.0 + sigma**2 * lam
        # an overflow (inf times a roundoff eigenvalue) fails below as a non-finite spectrum
        if np.any(values < 0) and np.all(np.isfinite(values)):
            raise ValueError("regularization profile is negative on the base spectrum")
    elif family == "spline":
        alpha = _take(params, "alpha", family)
        if alpha <= 0:
            raise ValueError("spline takes a single parameter alpha > 0")
        top = float(np.abs(lam).max())
        positive = lam > _RANK_CUTOFF * max(top, 1e-300)
        if np.any(lam < -_RANK_CUTOFF * max(top, 1.0)):
            raise ValueError("spline needs a positive semidefinite base shift")
        values = np.zeros_like(lam)
        values[positive] = lam[positive] ** (-alpha)
    else:
        raise ValueError(f"unknown kernel family {family!r}; expected one of {KERNEL_FAMILIES}")
    if params:
        raise KernelParameterError(f"{family} kernel got unexpected parameters {sorted(params)}")
    return _kernel_from_spectrum(decomp, values, family, given)


def _take(params: dict, name: str, family: str) -> np.float64:
    try:
        value = np.float64(params.pop(name))
    except KeyError:
        raise KernelParameterError(f"{family} kernel requires parameter {name!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"{family} kernel parameter {name!r} must be finite, got {value}")
    return value


def is_shift_invariant_kernel(k_matrix: np.ndarray, shifts: ShiftSet) -> bool:
    """Symmetric, positive semidefinite and commuting with every shift, within ``KERNEL_REL``."""
    k = _matrix(k_matrix, (shifts.n_vertices,) * 2, "kernel")
    tol = frobenius_tol(k, KERNEL_REL)
    if np.abs(k - k.T).max() > tol:
        return False
    if np.linalg.eigvalsh((k + k.T) / 2.0).min() < -tol:
        return False
    for s in shifts:
        if np.linalg.norm(k @ s - s @ k) > tol:
            return False
    return True


def gsis_to_rkhs_kernel(space: SignalSpace) -> ShiftInvariantKernel:
    """Kernel of a shift-invariant space under the euclidean inner product.

    This is the orthogonal projector onto the space: spectral value 1 on
    the space's frequencies and 0 elsewhere, in ``space.decomp``.
    """
    values = np.zeros(space.n_vertices)
    values[list(space.omega)] = 1.0
    return _kernel_from_spectrum(space.decomp, values)


@dataclass(frozen=True)
class RkhsMetric:
    """Diagonal quadratic form ``<x, y> = x_hat.T diag(values) y_hat``, with ``x_hat = decomp.basis.T @ x``."""

    values: np.ndarray
    decomp: SpectralDecomposition

    def __post_init__(self):
        v = _signal(self.values, self.decomp.n_vertices, "metric values")
        if np.any(v < 0):
            raise ValueError("metric values must be nonnegative")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_kernel(cls, kernel: ShiftInvariantKernel) -> "RkhsMetric":
        """Canonical metric: pseudo-inverse of the kernel's spectral values."""
        lam = kernel.spectral_values
        values = np.zeros_like(lam)
        idx = list(kernel.omega)
        values[idx] = 1.0 / lam[idx]
        return cls(values, kernel.decomp)


def kernel_for_metric(metric: RkhsMetric) -> ShiftInvariantKernel:
    """Kernel reproducing a diagonal metric: pseudo-inverse spectral values."""
    b = metric.values
    top = float(b.max(initial=0.0))
    values = np.zeros_like(b)
    positive = b > _RANK_CUTOFF * max(top, 1e-300)
    values[positive] = 1.0 / b[positive]
    return _kernel_from_spectrum(metric.decomp, values)


def is_reproducing_metric(kernel: ShiftInvariantKernel, metric: RkhsMetric) -> bool:
    """Whether the metric reproduces the kernel on the kernel's range.

    True exactly when the metric agrees with the pseudo-inverse of the
    kernel's spectral values on the kernel's frequencies, within
    :data:`METRIC_REL`; off those frequencies the metric is unconstrained.
    A metric on another decomposition basis than the kernel's raises
    ``ValueError``.
    """
    if not np.array_equal(metric.decomp.basis, kernel.decomp.basis):
        raise ValueError("metric and kernel are built on different decompositions")
    idx = list(kernel.omega)
    if not idx:
        return True
    want = 1.0 / kernel.spectral_values[idx]
    scale = max(1.0, float(np.abs(want).max()))
    return bool(np.abs(metric.values[idx] - want).max() <= METRIC_REL * scale)


def rkhs_inner_product(metric: RkhsMetric, x, y) -> float:
    """Evaluate ``x_hat.T diag(metric) y_hat`` in the metric's decomposition."""
    n = metric.decomp.n_vertices
    xh = metric.decomp.basis.T @ _signal(x, n, "x")
    yh = metric.decomp.basis.T @ _signal(y, n, "y")
    return float(np.sum(xh * metric.values * yh))


def evaluation_bound(metric: RkhsMetric) -> float:
    """Uniform bound on point evaluations: ``(min positive metric value)^(-1/2)``.

    For any x in the space carried by the metric,
    ``max_i |x(i)| <= evaluation_bound(metric) * ||x||_metric``.

    Raises
    ------
    ValueError
        If the metric has no positive entries.
    """
    positive = metric.values[metric.values > 0]
    if positive.size == 0:
        raise ValueError("metric has no positive entries")
    return float(positive.min() ** -0.5)
