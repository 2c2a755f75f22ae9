"""Gaussian latent-variable realizations of the factor parametrization.

Observed variables are linear combinations of independent hidden factors,
one per face of size >= 2, plus independent noise whose standard deviations
are the singleton parameters; the covariance of the observed vector is then
exactly the image matrix.  A dual system expresses hidden variables from
independent observables and recovers the image matrix as an inverse
conditional covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FactorParams, SimplicialComplex, SymmetricMatrix
from .errors import InternalInconsistency, ZeroDiagonalParam
from .param import phi

SIMULATE_BLOCK, SIMULATE_MAX_ENTRIES = 2 ** 17, 2 ** 27  # simulate_y: block, n * max(k, m) cap


def _faces2(delta: SimplicialComplex):
    return [f for f in delta.faces if len(f) >= 2]


def _gamma2(delta: SimplicialComplex, gamma: FactorParams) -> np.ndarray:
    """Columns of Gamma(gamma) for the faces of size >= 2."""
    faces = _faces2(delta)
    arr = np.zeros((delta.m, len(faces)))
    for k, f in enumerate(faces):
        for i in f:
            arr[i, k] = gamma.values.get((f, i), 0.0)
    return arr


def _noise_sd(delta: SimplicialComplex, gamma: FactorParams) -> np.ndarray:
    return np.array([gamma.values.get(((i,), i), 0.0) for i in range(delta.m)])


@dataclass(frozen=True, eq=False)
class LatentSystem:
    """Block matrices of the structural equations: Omega is the diagonal noise
    covariance, Lambda the unit block-triangular coefficient matrix."""

    complex: SimplicialComplex
    params: FactorParams
    omega: np.ndarray
    lam: np.ndarray

    @classmethod
    def build(cls, delta: SimplicialComplex, gamma: FactorParams) -> "LatentSystem":
        if gamma.complex != delta:
            raise ValueError("parameters belong to a different complex")
        m = delta.m
        g2 = _gamma2(delta, gamma)
        k = g2.shape[1]
        omega = np.zeros((m + k, m + k))
        omega[:m, :m] = np.diag(_noise_sd(delta, gamma) ** 2)
        omega[m:, m:] = np.eye(k)
        lam = np.eye(m + k)
        lam[:m, m:] = -g2
        return cls(delta, gamma, omega, lam)

    def lam_inverse(self) -> np.ndarray:
        """Inverse of the unit block-triangular matrix: negate the upper-right block."""
        inv = np.array(self.lam)
        inv[: self.complex.m, self.complex.m:] *= -1.0
        return inv


def build_digraph(delta: SimplicialComplex) -> str:
    """DOT text of the bipartite acyclic digraph: one node per face, an arc
    from each face of size >= 2 to the singletons of its vertices."""
    lines = ["digraph latent_factors {"]
    for i in range(delta.m):
        lines.append(f'  "Y{i + 1}";')
    faces = _faces2(delta)
    for f in faces:
        name = "H_" + "_".join(str(v + 1) for v in f)
        lines.append(f'  "{name}" [shape=box];')
    for f in faces:
        name = "H_" + "_".join(str(v + 1) for v in f)
        for i in f:
            lines.append(f'  "{name}" -> "Y{i + 1}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def covariance_identity(delta: SimplicialComplex, gamma: FactorParams,
                        rtol: float = 1e-10) -> SymmetricMatrix:
    """Top-left block of Lambda^-1 Omega Lambda^-T; asserted equal to the image."""
    system = LatentSystem.build(delta, gamma)
    inv = system.lam_inverse()
    if np.abs(system.lam @ inv - np.eye(inv.shape[0])).max() != 0.0:
        raise InternalInconsistency("block-negation inverse is not exact")
    joint = inv @ system.omega @ inv.T
    block = SymmetricMatrix(joint[: delta.m, : delta.m])
    target = phi(delta, gamma)
    if not block.allclose(target, rtol):
        raise InternalInconsistency("joint-covariance block deviates from the image")
    return block


def simulate_y(delta: SimplicialComplex, gamma: FactorParams, n: int,
               seed: int) -> SymmetricMatrix:
    """Empirical covariance of n simulated observation vectors.

    Hidden factors, then noise, are standard normal draws from a PCG64 stream,
    a block of rows at a time; the estimator is the uncentered second moment
    (the mean is known zero), so its expectation is exactly the image matrix.
    """
    m, k = delta.m, len(delta.faces) - delta.m  # every vertex is a singleton face
    if not 2 <= n <= SIMULATE_MAX_ENTRIES // max(k, m):
        raise ValueError(f"need 2 <= n <= {SIMULATE_MAX_ENTRIES // max(k, m)}, got {n}")
    g2 = _gamma2(delta, gamma)
    rng = np.random.Generator(np.random.PCG64(seed))
    sd = np.abs(_noise_sd(delta, gamma))
    rows = min(n, 1 << max((SIMULATE_BLOCK // max(k, m)).bit_length() - 1, 0))
    block = np.empty(rows * max(k, m))
    h = block[: rows * k].reshape(rows, k)
    y = np.empty((n, m))
    for lo in range(0, n, rows):
        new = min(rows, n - lo)
        # a short last block also takes earlier rows, so BLAS sees one shape (and kernel)
        h[: rows - new] = h[new:]
        rng.standard_normal(out=h[rows - new:])
        np.matmul(h, g2.T, out=y[lo + new - rows: lo + new])
    eps = block[: rows * m].reshape(rows, m)
    for lo in range(0, n, rows):
        y[lo: lo + rows] += rng.standard_normal(out=eps[: min(rows, n - lo)]) * sd
    cov = (y.T @ y) / n
    return SymmetricMatrix((cov + cov.T) / 2.0)


def conditional_precision(delta: SimplicialComplex, gamma: FactorParams,
                          rtol: float = 1e-9) -> SymmetricMatrix:
    """Inverse conditional covariance of the dual system; equals the image.

    The joint covariance of (observables, hidden sums) has top-left block
    diag(1/gamma_ii^2); conditioning on the hidden block leaves a Schur
    complement whose inverse is asserted against the image matrix via the
    matrix inversion lemma.
    """
    sd = _noise_sd(delta, gamma)
    if np.any(sd == 0.0):
        bad = [i for i in range(delta.m) if sd[i] == 0.0]
        raise ZeroDiagonalParam(f"singleton parameters vanish at vertices {bad}")
    g2 = _gamma2(delta, gamma)
    m = delta.m
    k = g2.shape[1]
    dinv = np.diag(1.0 / sd ** 2)
    top_left = dinv  # asserted exactly below
    joint = np.block([
        [dinv, dinv @ g2],
        [g2.T @ dinv, np.eye(k) + g2.T @ dinv @ g2],
    ])
    if np.abs(joint[:m, :m] - top_left).max() != 0.0:
        raise InternalInconsistency("joint top-left block is not exactly diagonal")
    cond = dinv - dinv @ g2 @ np.linalg.solve(joint[m:, m:], g2.T @ dinv)
    precision = np.linalg.inv((cond + cond.T) / 2.0)
    result = SymmetricMatrix((precision + precision.T) / 2.0)
    target = phi(delta, gamma)
    if not result.allclose(target, rtol):
        raise InternalInconsistency("inverse conditional covariance deviates from the image")
    return result
