"""Closed-form predictors for kernel statistics and training dynamics.

Every predictor is exposed in two flavors: the exact 2-design average, which
is what ensemble experiments are validated against (the 1/D corrections are
large at desk scale), and the leading large-D form, reported alongside.  The
exact average and the leading form differ by a factor approaching 2 for
traceless observables; both are returned rather than resolving the discrepancy.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class DecayRate(NamedTuple):
    leading: float
    exact: float


class MetaFluctuation(NamedTuple):
    primary: float  # learning-rate-free normalization
    with_eta: float  # scaled by the learning rate


class Concentration(NamedTuple):
    kernel_ratio: float
    meta_ratio: float
    analytic_regime: bool


class SupervisedAverage(NamedTuple):
    exact: float
    leading: float


class KernelSpectrum(NamedTuple):
    bulk: float
    bulk_multiplicity: int
    lowest: float


def _check_dim(dim: int):
    if dim < 2:
        raise ValueError("Hilbert dimension must be >= 2")


def kbar_exact(
    dim: int, layers: int, tr_o2: float, tr_o: float = 0.0, sum_tr_x2: float | None = None
) -> float:
    """Exact ensemble-average kernel for 2-design circuits.

    ``sum_tr_x2`` is the generators' summed Tr X^2 - (Tr X)^2 / D, or its mean
    over a random generator ensemble: layers * dim for traceless Pauli
    generators, the default, and 0 for an identity generator.
    """
    _check_dim(dim)
    if sum_tr_x2 is None:
        sum_tr_x2 = float(layers * dim)
    return (2.0 / (dim**2 + dim)) * ((dim * tr_o2 - tr_o**2) / (dim**2 - 1)) * sum_tr_x2


def kbar_leading(dim: int, layers: int, tr_o2: float) -> float:
    """Leading large-D kernel average, layers * Tr(O^2) / D^2."""
    _check_dim(dim)
    return layers * tr_o2 / dim**2


def gamma(dim: int, layers: int, tr_o2: float, tr_o: float, eta: float, sum_tr_x2: float | None = None) -> DecayRate:
    """Per-step exponential decay-rate prediction, leading and exact (``sum_tr_x2`` as in :func:`kbar_exact`)."""
    _check_dim(dim)
    return DecayRate(
        leading=eta * kbar_leading(dim, layers, tr_o2),
        exact=eta * kbar_exact(dim, layers, tr_o2, tr_o, sum_tr_x2),
    )


def delta_k(dim: int, layers: int, tr_o2: float, tr_o4: float) -> float:
    """Leading-order kernel standard deviation for 4-design circuits."""
    _check_dim(dim)
    return (np.sqrt(layers) / dim**2) * np.sqrt(8.0 * tr_o2**2 + 12.0 * tr_o4)


def delta_mu(dim: int, layers: int, tr_o2: float, eta: float) -> MetaFluctuation:
    """Leading-order meta-kernel standard deviation.

    The primary value carries no learning rate (matching the definition of the
    meta-kernel itself); the secondary value is the same expression scaled by
    eta for comparison with the rate-of-change bound.
    """
    _check_dim(dim)
    base = np.sqrt(32.0) * layers * tr_o2**1.5 / dim**3
    return MetaFluctuation(primary=float(base), with_eta=float(eta * base))


def concentration(
    dim: int, layers: int, tr_o2: float, eta: float, threshold: float = 0.1
) -> Concentration:
    """Fluctuation-to-mean ratios and whether the analytic regime applies.

    The regime flag requires both ratios below ``threshold``.
    """
    if layers < 1:
        raise ValueError("layers must be >= 1")
    _check_dim(dim)
    ratio_k = 1.0 / np.sqrt(layers)
    ratio_mu = eta * np.sqrt(tr_o2) / dim
    return Concentration(
        kernel_ratio=float(ratio_k),
        meta_ratio=float(ratio_mu),
        analytic_regime=bool(ratio_k < threshold and ratio_mu < threshold),
    )


def supervised_kbar(
    dim: int,
    layers: int,
    sigma: float,
    tr_o1o2: float,
    tr_o1: float = 0.0,
    tr_o2: float = 0.0,
) -> SupervisedAverage:
    """Average supervised-kernel entry for a feature pair with cross-section sigma.

    ``sigma`` is the squared modulus of the feature overlap; 1 on the diagonal,
    0 for orthogonal features.  The exact form is valid at any D >= 2, the
    leading form drops the 1/D corrections.
    """
    _check_dim(dim)
    if not 0.0 <= sigma <= 1.0:
        raise ValueError("feature cross-section must lie in [0, 1]")
    exact = (
        2.0 * layers * (dim * sigma - 1.0) / (dim**2 - 1) ** 2
    ) * (dim * tr_o1o2 - tr_o1 * tr_o2)
    leading = 2.0 * layers * sigma * tr_o1o2 / dim**2
    return SupervisedAverage(exact=float(exact), leading=float(leading))


def kernel_eigenvalues(
    dim: int, layers: int, train_size: int, tr_o2: float, tr_o: float = 0.0, sum_tr_x2: float | None = None
) -> KernelSpectrum:
    """Spectrum of the average supervised kernel with orthogonal features.

    A (train_size - 1)-fold degenerate bulk eigenvalue independent of the
    training-set size, plus one low eigenvalue that shrinks linearly with the
    set size and hits zero when the set fills the Hilbert space.  Requires
    train_size <= D (orthogonal features are impossible otherwise).
    ``sum_tr_x2`` is as in :func:`kbar_exact`.
    """
    _check_dim(dim)
    if train_size < 1:
        raise ValueError("train_size must be >= 1")
    if dim < train_size:
        raise ValueError(
            f"train_size {train_size} exceeds dimension {dim}; "
            "orthogonal features are impossible and the formula is invalid"
        )
    weight = layers if sum_tr_x2 is None else sum_tr_x2 / dim
    scale = 2.0 * weight * (dim * tr_o2 - tr_o**2) / (dim**2 - 1) ** 2
    return KernelSpectrum(
        bulk=float(dim * scale),
        bulk_multiplicity=train_size - 1,
        lowest=float((dim - train_size) * scale),
    )


__all__ = [
    "Concentration",
    "DecayRate",
    "KernelSpectrum",
    "MetaFluctuation",
    "SupervisedAverage",
    "concentration",
    "delta_k",
    "delta_mu",
    "gamma",
    "kbar_exact",
    "kbar_leading",
    "kernel_eigenvalues",
    "supervised_kbar",
]
