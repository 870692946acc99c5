"""Reference implementations that the tests check ``hbum`` against.

The kernel references are the straightforward form of a kernel that
``hbum`` runs in an optimised form: fresh temporaries, boolean checkerboard
masks, per-cluster index gathers, fancy-index gathers and tallies,
``solve_triangular``, the unexpanded Gaussian square, ``Generator.gumbel``,
``np.cumsum`` with ``np.argmax``, and a truncated-normal sampler that
validates and masks on every call. The kernel-equivalence tests require the
optimised kernels to leave the generator in the same state and to return
the same bits, or, where the optimised kernel runs its arithmetic as GEMMs
(the abundance draw and the cluster log-likelihood), values within a
tolerance set by the rounding analysis.

The scalar references evaluate one pixel at a time what ``hbum`` computes
for the whole lattice: grid positions and 4-connected neighbors, the Potts
neighbor count, the class log-prior and the closed-form abundance
posterior.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import erfc, erfcinv

from hbum.distributions import (
    _LOG_WEIGHT_FLOOR,
    _TAIL_THRESHOLD,
    _truncnorm_tail,
    project_to_simplex,
    sample_categorical_gumbel,
    sample_inverse_gamma_array,
)
from hbum.errors import InvalidParameterError, NumericalDegeneracyError, ValidationError
from hbum.lattice import neighbor_value_counts
from hbum.model import LabelField
from hbum.sampler import (
    SIGMA2_FLOOR,
    _class_log_partition,
    _cluster_sums,
    _log_nonneg,
)

#: (drow, dcol) offsets of the 4-connected stencil.
NEIGHBOR_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1))


def _check_index(lattice, p: int) -> None:
    if not (0 <= p < lattice.n_pixels):
        raise ValidationError(f"pixel index {p} outside [0, {lattice.n_pixels})")


def index(lattice, row: int, col: int) -> int:
    """Row-major pixel index of grid position (row, col)."""
    if not (0 <= row < lattice.height and 0 <= col < lattice.width):
        raise ValidationError(
            f"position ({row}, {col}) outside {lattice.height}x{lattice.width} grid"
        )
    return row * lattice.width + col


def coords(lattice, p: int) -> tuple[int, int]:
    """Grid position (row, col) of pixel index ``p``."""
    _check_index(lattice, p)
    return divmod(p, lattice.width)


def neighbors(lattice, p: int) -> list[int]:
    """Indices of the 4-connected neighbors of ``p``, clipped at borders:
    interior pixels have 4, edge pixels 3, corners 2 (a 1x1 grid none)."""
    _check_index(lattice, p)
    row, col = divmod(p, lattice.width)
    out = []
    for drow, dcol in NEIGHBOR_OFFSETS:
        r, c = row + drow, col + dcol
        if 0 <= r < lattice.height and 0 <= c < lattice.width:
            out.append(r * lattice.width + c)
    return out


def potts_neighbor_count(field, p: int, value: int) -> int:
    """Number of 4-connected neighbors of pixel ``p`` carrying ``value``."""
    if not (0 <= value < field.domain_size):
        raise ValidationError(f"value {value} outside [0, {field.domain_size})")
    return int(sum(field.labels[q] == value for q in neighbors(field.lattice, p)))


def log_prior_class(p: int, j: int, sup) -> float:
    """Log prior weight of class ``j`` at pixel ``p`` before spatial terms:
    log(eta_p) on a labeled pixel's expert class, the complement split over
    the other J-1 classes, log(pi_j) on unlabeled pixels."""
    if not (0 <= j < sup.n_classes):
        raise ValidationError(f"class {j} outside [0, {sup.n_classes})")
    pos = np.searchsorted(sup.labeled_idx, p)
    if pos < sup.labeled_idx.size and sup.labeled_idx[pos] == p:
        eta = sup.eta[pos]
        if j == sup.c[pos]:
            return float(np.log(eta))
        return float(np.log((1.0 - eta) / (sup.n_classes - 1)))
    with np.errstate(divide="ignore"):
        return float(np.log(sup.pi[j]))


def abundance_posterior(
    y: np.ndarray, M: np.ndarray, s2: float, psi_k: np.ndarray, sigma2_k: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of one pixel's Gaussian abundance conditional:
    precision MᵀM / s2 + diag(1 / sigma2_k), mean balancing the
    back-projected observation against the cluster mean."""
    prec = M.T @ M / s2 + np.diag(1.0 / sigma2_k)
    cov = np.linalg.inv(prec)
    mean = cov @ (M.T @ y / s2 + psi_k / sigma2_k)
    return mean, cov


def _check_log_weights(lw: np.ndarray) -> None:
    if lw.ndim != 2 or lw.shape[0] < 1:
        raise InvalidParameterError("log_weights must be a (n_choices, n_sites) matrix")
    if np.any(np.isnan(lw)) or np.any(lw == np.inf):
        raise InvalidParameterError("log_weights must be in [-inf, inf)")
    if not np.all(np.any(np.isfinite(lw), axis=0)):
        raise InvalidParameterError("some site has all categorical log-weights at -inf")


def categorical_gumbel(rng: np.random.Generator, log_weights: np.ndarray) -> np.ndarray:
    """Column-wise Gumbel-max draws with ``Generator.gumbel``."""
    lw = np.asarray(log_weights, dtype=np.float64)
    _check_log_weights(lw)
    gumbel = rng.gumbel(size=lw.shape)
    return np.argmax(lw + gumbel, axis=0)


def categorical_inverse_cdf(rng: np.random.Generator, log_weights: np.ndarray) -> np.ndarray:
    """Column-wise inverse-CDF draws: max-shifted log-weights floored at
    ``_LOG_WEIGHT_FLOOR``, exact zeros for -inf, ``np.cumsum`` down each
    column and the first row above one scaled uniform per site."""
    lw = np.asarray(log_weights, dtype=np.float64)
    _check_log_weights(lw)
    weights = np.exp(np.maximum(lw - lw.max(axis=0), _LOG_WEIGHT_FLOOR))
    weights[lw == -np.inf] = 0.0
    cum = np.cumsum(weights, axis=0)
    u = rng.random(size=lw.shape[1]) * cum[-1]
    return np.argmax(cum > u, axis=0)


def gaussian_cluster_loglik(a: np.ndarray, psi: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """(K, P) Gaussian log-densities with a fresh temporary per cluster."""
    n_clusters, n_dims = psi.shape
    out = np.empty((n_clusters, a.shape[1]))
    log_norm = -0.5 * (n_dims * np.log(2.0 * np.pi) + np.log(sigma2).sum(axis=1))
    for k in range(n_clusters):
        diff = a - psi[k][:, None]
        out[k] = log_norm[k] - 0.5 * np.sum(diff * diff / sigma2[k][:, None], axis=0)
    return out


def color_masks(lattice) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = np.indices((lattice.height, lattice.width))
    even = (rows + cols) % 2 == 0
    return even, ~even


def _require_finite_option(log_weights: np.ndarray, what: str, state) -> None:
    dead = ~np.any(np.isfinite(log_weights), axis=0)
    if np.any(dead):
        raise NumericalDegeneracyError(
            f"all {what} log-weights are -inf at iteration {state.iteration} "
            f"(first affected site {int(np.flatnonzero(dead)[0])})"
        )


def sample_cluster_labels(state, rng: np.random.Generator):
    """Checkerboard cluster-label sweep over boolean masks."""
    n_clusters = state.z.domain_size
    base = gaussian_cluster_loglik(state.A.data, state.clusters.psi, state.clusters.sigma2)
    base += _log_nonneg(state.q.q)[:, state.omega.labels]
    lat = state.z.lattice
    grid = state.z.grid()
    base_grid = base.reshape(n_clusters, lat.height, lat.width)
    for mask in color_masks(lat):
        weights = base_grid[:, mask]
        if state.effective_beta1 > 0.0:
            counts = neighbor_value_counts(grid, n_clusters)
            weights = weights + state.effective_beta1 * counts[:, mask]
        _require_finite_option(weights, "cluster", state)
        grid[mask] = categorical_inverse_cdf(rng, weights)
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
    for mask in color_masks(lat):
        weights = base_grid[:, mask]
        if config.beta2 > 0.0:
            counts = neighbor_value_counts(grid, n_classes)
            weights = weights + config.beta2 * counts[:, mask]
        _require_finite_option(weights, "class", state)
        grid[mask] = categorical_inverse_cdf(rng, weights)
    return state.omega


def sample_cluster_variances(state, config, rng: np.random.Generator) -> np.ndarray:
    """Cluster-variance draw with the cluster means gathered by fancy
    indexing, which returns them Fortran-ordered."""
    z = state.z.labels
    n_clusters = config.n_clusters
    n_k = np.bincount(z, minlength=n_clusters).astype(np.float64)
    diff2 = (state.A.data - state.clusters.psi[z].T) ** 2
    ssq = _cluster_sums(diff2, z, n_clusters)
    draws = sample_inverse_gamma_array(rng, n_k[:, None] / 2.0 + config.xi,
                                       config.gamma + ssq / 2.0)
    state.clusters.sigma2 = np.maximum(draws, SIGMA2_FLOOR)
    return state.clusters.sigma2


def trace_record(trace, state) -> None:
    """``Trace.record`` with the label tallies updated by a two-axis fancy
    index."""
    n_pixels = trace.a_sum.shape[1]
    trace.a_sum += state.A.data
    trace.s2_sum += state.noise.s2
    trace.psi_sum += state.clusters.psi
    trace.sigma2_sum += state.clusters.sigma2
    trace.q_sum += state.q.q
    trace.z_counts[state.z.labels, np.arange(n_pixels)] += 1
    trace.omega_counts[state.omega.labels, np.arange(n_pixels)] += 1
    trace.n_recorded += 1


def sample_abundances_all(state, pre, rng: np.random.Generator) -> None:
    """Abundance sweep with one index gather and three ``solve_triangular``
    calls per cluster. The rows of one (P, R) block of normals go to the
    pixels in cluster order, and within a cluster in pixel order."""
    n_dims, n_pixels = state.A.data.shape
    s2 = state.noise.s2
    noise = rng.standard_normal((n_pixels, n_dims))
    used = 0
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
            b = pre.mty_t[idx].T / s2 + (state.clusters.psi[k] / sigma2_k)[:, None]
        if not (np.isfinite(chol).all() and np.isfinite(b).all()):
            raise NumericalDegeneracyError(
                f"abundance posterior of cluster {k} is not finite (noise variance {s2:.3g})"
            )
        mean = solve_triangular(
            chol.T, solve_triangular(chol, b, lower=True, check_finite=False),
            lower=False, check_finite=False,
        )
        normals = noise[used : used + idx.size].T
        used += idx.size
        state.A.data[:, idx] = mean + solve_triangular(
            chol.T, normals, lower=False, check_finite=False
        )


def residual_mean_square(Y: np.ndarray, M: np.ndarray, a: np.ndarray) -> float:
    resid = Y - M @ a
    return float(np.mean(resid * resid))


def init_unmixing(Y: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, float]:
    """Ridge unmixing clipped to [0, 1] and the initial noise variance from
    its residual, each formed with fresh d x P temporaries."""
    n_dims = M.shape[1]
    mtm = M.T @ M
    ridge = 1e-6 * np.trace(mtm) / n_dims
    a = np.linalg.solve(mtm + ridge * np.eye(n_dims), M.T @ Y)
    np.clip(a, 0.0, 1.0, out=a)
    s2 = max(residual_mean_square(Y, M, a), 1e-12)
    return a, s2


def generate_potts_field(spec, rng: np.random.Generator) -> LabelField:
    """Potts label map drawn with boolean checkerboard masks on the grid."""
    spec.validate()
    lat = spec.lattice
    n_states = spec.n_clusters
    labels = rng.integers(n_states, size=lat.n_pixels).astype(np.int32)
    grid = labels.reshape(lat.height, lat.width)
    for _ in range(spec.potts_sweeps):
        for mask in color_masks(lat):
            counts = neighbor_value_counts(grid, n_states)
            weights = spec.potts_beta * counts[:, mask].astype(np.float64)
            grid[mask] = sample_categorical_gumbel(rng, weights)
    return LabelField(labels, n_states, lat)


def truncnorm_standard(rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Standard-normal draws on [lo, hi] with boolean-mask gathers of the
    right-tail, left-tail and central intervals on every call."""
    out = np.empty(lo.shape)
    right = lo > _TAIL_THRESHOLD
    left = hi < -_TAIL_THRESHOLD
    central = ~(right | left)
    if np.any(right):
        out[right] = _truncnorm_tail(rng, lo[right], hi[right])
    if np.any(left):
        out[left] = -_truncnorm_tail(rng, -hi[left], -lo[left])
    if np.any(central):
        pl = 0.5 * erfc(lo[central] / np.sqrt(2.0))  # P(X > lo)
        pu = 0.5 * erfc(hi[central] / np.sqrt(2.0))
        u = rng.random(size=int(central.sum()))
        out[central] = np.sqrt(2.0) * erfcinv(2.0 * (pl - (pl - pu) * u))
    return out


def sample_truncated_normal(rng: np.random.Generator, mean, sd, lo, hi) -> np.ndarray:
    """Elementwise Gaussian draws conditioned to [lo, hi]. All arguments
    broadcast; ``sd`` must be positive and ``lo <= hi``. Degenerate
    intervals (lo == hi) return the common bound."""
    mean, sd, lo, hi = np.broadcast_arrays(
        np.asarray(mean, dtype=np.float64),
        np.asarray(sd, dtype=np.float64),
        np.asarray(lo, dtype=np.float64),
        np.asarray(hi, dtype=np.float64),
    )
    if np.any(sd <= 0.0) or np.any(~np.isfinite(sd)):
        raise InvalidParameterError("truncated-normal sd must be positive and finite")
    if np.any(lo > hi):
        raise InvalidParameterError("truncated-normal interval must satisfy lo <= hi")
    lo_std = (lo - mean) / sd
    hi_std = (hi - mean) / sd
    draw = mean + sd * truncnorm_standard(rng, lo_std, hi_std)
    # Guard against round-off pushing a draw infinitesimally outside.
    return np.clip(draw, lo, hi)


def sample_gaussian_simplex_truncated_batch(
    rng: np.random.Generator, means, var_diags, inner_iters: int = 5, init=None
) -> np.ndarray:
    """Simplex-truncated Gaussian draws that form every coordinate's
    conditional afresh and draw it with :func:`sample_truncated_normal`."""
    means = np.asarray(means, dtype=np.float64)
    var_diags = np.asarray(var_diags, dtype=np.float64)
    if means.ndim != 2 or means.shape != var_diags.shape:
        raise InvalidParameterError("means and var_diags must be matching (batch, R) arrays")
    if np.any(var_diags <= 0.0) or np.any(~np.isfinite(var_diags)):
        raise InvalidParameterError("simplex-truncated sampler needs positive finite variances")
    if not np.all(np.isfinite(means)):
        raise InvalidParameterError("simplex-truncated sampler needs finite means")
    if inner_iters < 1:
        raise InvalidParameterError("inner_iters must be >= 1")
    n_batch, n_dim = means.shape
    if n_dim == 1:
        return np.ones((n_batch, 1))
    if init is None:
        x = np.stack([project_to_simplex(m) for m in means])
    else:
        x = np.array(init, dtype=np.float64)
        if x.shape != means.shape:
            raise InvalidParameterError("init must match the shape of means")
    last = n_dim - 1
    for _ in range(inner_iters):
        for r in range(n_dim - 1):
            t = x[:, r] + x[:, last]
            prec = 1.0 / var_diags[:, r] + 1.0 / var_diags[:, last]
            cond_var = 1.0 / prec
            cond_mean = cond_var * (
                means[:, r] / var_diags[:, r] + (t - means[:, last]) / var_diags[:, last]
            )
            x[:, r] = sample_truncated_normal(
                rng, cond_mean, np.sqrt(cond_var), np.zeros(n_batch), t
            )
            x[:, last] = t - x[:, r]
    x[:, last] = np.maximum(1.0 - x[:, :last].sum(axis=1), 0.0)
    return x
