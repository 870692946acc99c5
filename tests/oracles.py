"""Reference implementations of the sampler's hot-path kernels.

Each function is the straightforward form of a kernel that ``hbum`` runs in
an optimised form: fresh temporaries, boolean checkerboard masks,
per-cluster index gathers, ``solve_triangular`` and ``Generator.gumbel``.
The kernel-equivalence tests require the optimised kernels to return the
same bits and leave the generator in the same state.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from hbum.errors import InvalidParameterError, NumericalDegeneracyError
from hbum.lattice import neighbor_value_counts
from hbum.sampler import _class_log_partition, _log_nonneg, _require_finite_option


def categorical_log_many(rng: np.random.Generator, log_weights: np.ndarray) -> np.ndarray:
    """Column-wise Gumbel-max draws with ``Generator.gumbel``."""
    lw = np.asarray(log_weights, dtype=np.float64)
    if lw.ndim != 2 or lw.shape[0] < 1:
        raise InvalidParameterError("log_weights must be a (n_choices, n_sites) matrix")
    if np.any(np.isnan(lw)) or np.any(lw == np.inf):
        raise InvalidParameterError("log_weights must be in [-inf, inf)")
    if not np.all(np.any(np.isfinite(lw), axis=0)):
        raise InvalidParameterError("some site has all categorical log-weights at -inf")
    gumbel = rng.gumbel(size=lw.shape)
    return np.argmax(lw + gumbel, axis=0)


def gaussian_cluster_loglik(a: np.ndarray, psi: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """(K, P) Gaussian log-densities with a fresh temporary per cluster."""
    n_clusters, n_dims = psi.shape
    out = np.empty((n_clusters, a.shape[1]))
    log_norm = -0.5 * (n_dims * np.log(2.0 * np.pi) + np.log(sigma2).sum(axis=1))
    for k in range(n_clusters):
        diff = a - psi[k][:, None]
        out[k] = log_norm[k] - 0.5 * np.sum(diff * diff / sigma2[k][:, None], axis=0)
    return out


def _color_masks(lattice) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = np.indices((lattice.height, lattice.width))
    even = (rows + cols) % 2 == 0
    return even, ~even


def sample_cluster_labels(state, config, rng: np.random.Generator):
    """Checkerboard cluster-label sweep over boolean masks."""
    n_clusters = config.n_clusters
    base = gaussian_cluster_loglik(state.A.data, state.clusters.psi, state.clusters.sigma2)
    base += _log_nonneg(state.q.q)[:, state.omega.labels]
    lat = state.z.lattice
    grid = state.z.grid()
    base_grid = base.reshape(n_clusters, lat.height, lat.width)
    for mask in _color_masks(lat):
        weights = base_grid[:, mask]
        if state.effective_beta1 > 0.0:
            counts = neighbor_value_counts(grid, n_clusters)
            weights = weights + state.effective_beta1 * counts[:, mask]
        _require_finite_option(weights, "cluster", state)
        grid[mask] = categorical_log_many(rng, weights)
    return state.z


def sample_class_labels(state, config, rng: np.random.Generator, w1: np.ndarray):
    """Checkerboard class-label sweep over boolean masks."""
    n_classes = config.n_classes
    base = _log_nonneg(state.q.q)[state.z.labels, :].T + w1
    if state.effective_beta1 > 0.0:
        base = base - _class_log_partition(state, state.effective_beta1)
    lat = state.omega.lattice
    grid = state.omega.grid()
    base_grid = base.reshape(n_classes, lat.height, lat.width)
    for mask in _color_masks(lat):
        weights = base_grid[:, mask]
        if config.beta2 > 0.0:
            counts = neighbor_value_counts(grid, n_classes)
            weights = weights + config.beta2 * counts[:, mask]
        _require_finite_option(weights, "class", state)
        grid[mask] = categorical_log_many(rng, weights)
    return state.omega


def sample_abundances_all(state, pre, rng: np.random.Generator) -> None:
    """Abundance sweep with one index gather and three ``solve_triangular``
    calls per cluster."""
    n_dims, n_pixels = state.A.data.shape
    s2 = state.noise.s2
    noise = rng.standard_normal((n_dims, n_pixels))
    for k in range(state.clusters.n_clusters):
        idx = np.flatnonzero(state.z.labels == k)
        if idx.size == 0:
            continue
        sigma2_k = state.clusters.sigma2[k]
        with np.errstate(over="ignore", invalid="ignore"):
            prec = pre.mtm / s2 + np.diag(1.0 / sigma2_k)
            try:
                chol = np.linalg.cholesky(prec)
            except np.linalg.LinAlgError as exc:
                raise NumericalDegeneracyError(
                    f"abundance precision not positive definite for cluster {k}"
                ) from exc
            b = pre.mty[:, idx] / s2 + (state.clusters.psi[k] / sigma2_k)[:, None]
        if not (np.isfinite(chol).all() and np.isfinite(b).all()):
            raise NumericalDegeneracyError(
                f"abundance posterior of cluster {k} is not finite (noise variance {s2:.3g})"
            )
        mean = solve_triangular(
            chol.T, solve_triangular(chol, b, lower=True, check_finite=False),
            lower=False, check_finite=False,
        )
        state.A.data[:, idx] = mean + solve_triangular(
            chol.T, noise[:, idx], lower=False, check_finite=False
        )


def sum_of_squares(Y: np.ndarray) -> float:
    return float(np.sum(Y * Y))


def residual_mean_square(Y: np.ndarray, M: np.ndarray, a: np.ndarray) -> float:
    resid = Y - M @ a
    return float(np.mean(resid * resid))


def init_unmixing(Y: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Ridge unmixing clipped to [0, 1], the initial noise variance from its
    residual, and ||Y||^2, each formed with fresh d x P temporaries."""
    n_dims = M.shape[1]
    mtm = M.T @ M
    ridge = 1e-6 * np.trace(mtm) / n_dims
    a = np.linalg.solve(mtm + ridge * np.eye(n_dims), M.T @ Y)
    np.clip(a, 0.0, 1.0, out=a)
    s2 = max(residual_mean_square(Y, M, a), 1e-12)
    return a, s2, sum_of_squares(Y)
