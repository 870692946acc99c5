"""Reference implementations that the tests check ``hbum`` against.

The kernel references are the straightforward form of a kernel that
``hbum`` runs in an optimised form: fresh temporaries, boolean checkerboard
masks, neighbor counts by shifted one-hot adds over the whole grid,
per-cluster index gathers, fancy-index gathers and tallies,
``solve_triangular``, the unexpanded Gaussian square, ``Generator.gumbel``,
``np.cumsum`` with ``np.argmax``, two half-sweeps where the chain draws
an uncoupled field in one pass, one Dirichlet draw per column of Q, a
truncated-normal sampler that validates and masks on every call, and the
scene statistics over whole band blocks. The
kernel-equivalence tests require the optimised kernels to leave the
generator in the same state and to return the same bits, or, where the
optimised kernel runs its arithmetic as GEMMs (the abundance draw and the
cluster log-likelihood), values within a tolerance set by the rounding
analysis.

The scalar references evaluate one pixel at a time what ``hbum`` computes
for the whole lattice: grid positions and 4-connected neighbors, the Potts
neighbor count, the class log-prior and the closed-form abundance
posterior.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy.linalg import solve_triangular

from hbum.distributions import (
    _LOG_WEIGHT_FLOOR,
    _TAIL_THRESHOLD,
    _truncnorm_central,
    _truncnorm_tail,
    project_to_simplex,
    sample_dirichlet,
    sample_inverse_gamma_array,
)
from hbum.errors import (
    GenerationError,
    InvalidParameterError,
    NumericalDegeneracyError,
    ValidationError,
)
from hbum.model import LabelField
from hbum.sampler import (
    SIGMA2_FLOOR,
    _Precomp,
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


def neighbor_value_counts(labels_grid: np.ndarray, n_values: int) -> np.ndarray:
    """(n_values, height, width) int32 counts of each value among every
    pixel's 4-connected neighbors, by adding shifted one-hot grids."""
    onehot = (labels_grid[None, :, :] == np.arange(n_values)[:, None, None]).astype(np.int32)
    counts = np.zeros_like(onehot)
    counts[:, 1:, :] += onehot[:, :-1, :]
    counts[:, :-1, :] += onehot[:, 1:, :]
    counts[:, :, 1:] += onehot[:, :, :-1]
    counts[:, :, :-1] += onehot[:, :, 1:]
    return counts


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


def potts_half_sweeps(rng: np.random.Generator, field, base: np.ndarray, what: str):
    """An uncoupled field swept as two checkerboard half-sweeps of inverse-CDF
    draws from the (n_values, P) log-weights ``base``, by boolean masks. A
    half-sweep with a site whose log-weights are all -inf raises
    ``NumericalDegeneracyError`` naming the first such pixel; one that meets
    any other invalid weight raises the draw's ``InvalidParameterError``.
    Labels drawn before the error stay drawn."""
    for mask in color_masks(field.lattice):
        sites = np.flatnonzero(mask)
        weights = base[:, sites]
        try:
            field.labels[sites] = categorical_inverse_cdf(rng, weights)
        except InvalidParameterError:
            dead = ~np.any(np.isfinite(weights), axis=0)
            if np.any(dead):
                raise NumericalDegeneracyError(
                    f"all {what} log-weights are -inf (first affected pixel {sites[dead][0]})"
                )
            raise
    return field


def _require_finite_option(log_weights: np.ndarray, what: str) -> None:
    dead = ~np.any(np.isfinite(log_weights), axis=0)
    if np.any(dead):
        raise NumericalDegeneracyError(
            f"all {what} log-weights are -inf "
            f"(first affected site {int(np.flatnonzero(dead)[0])})"
        )


def sample_cluster_labels(state, rng: np.random.Generator, beta1: float):
    """Checkerboard cluster-label sweep over boolean masks, coupled at ``beta1``."""
    n_clusters = state.z.domain_size
    base = gaussian_cluster_loglik(state.A.data, state.clusters.psi, state.clusters.sigma2)
    base += _log_nonneg(state.q.q)[:, state.omega.labels]
    lat = state.z.lattice
    grid = state.z.grid()
    base_grid = base.reshape(n_clusters, lat.height, lat.width)
    for mask in color_masks(lat):
        weights = base_grid[:, mask]
        if beta1 > 0.0:
            counts = neighbor_value_counts(grid, n_clusters)
            weights = weights + beta1 * counts[:, mask]
        _require_finite_option(weights, "cluster")
        grid[mask] = categorical_inverse_cdf(rng, weights)
    return state.z


def sample_class_labels(state, config, rng: np.random.Generator, w1: np.ndarray, beta1: float):
    """Checkerboard class-label sweep over boolean masks, with the cluster
    field coupled at ``beta1``."""
    n_classes = config.n_classes
    base = _log_nonneg(state.q.q)[state.z.labels, :].T + w1
    if beta1 > 0.0:
        base = base - _class_log_partition(state, beta1)
    lat = state.omega.lattice
    grid = state.omega.grid()
    base_grid = base.reshape(n_classes, lat.height, lat.width)
    for mask in color_masks(lat):
        weights = base_grid[:, mask]
        if config.beta2 > 0.0:
            counts = neighbor_value_counts(grid, n_classes)
            weights = weights + config.beta2 * counts[:, mask]
        _require_finite_option(weights, "class")
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


def sample_interaction_matrix(state, config, rng: np.random.Generator):
    """Q's columns redrawn one at a time, each from its Dirichlet
    conditional on the (cluster, class) counts tallied by a two-axis
    fancy index."""
    counts = np.zeros((config.n_clusters, config.n_classes))
    np.add.at(counts, (state.z.labels, state.omega.labels), 1.0)
    for j in range(config.n_classes):
        state.q.q[:, j] = sample_dirichlet(rng, counts[:, j] + config.zeta)
    return state.q


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
    for k in range(len(state.clusters.psi)):
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


def kmeans_labels(
    a: np.ndarray, n_clusters: int, rng: np.random.Generator, n_iter: int = 10
) -> np.ndarray:
    """k-means++ seeding plus Lloyd rounds with a fresh distance matrix per
    round and each centre the mean of its members' rows; returns the labels
    and the centres."""
    points = a.T
    n_points, n_dims = points.shape
    centers = np.empty((n_clusters, n_dims))
    centers[0] = points[int(rng.integers(n_points))]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for i in range(1, n_clusters):
        total = d2.sum()
        if total <= 0.0:
            centers[i] = points[int(rng.integers(n_points))]
        else:
            u = rng.random() * total
            pick = min(int(np.searchsorted(np.cumsum(d2), u)), n_points - 1)
            centers[i] = points[pick]
        d2 = np.minimum(d2, np.sum((points - centers[i]) ** 2, axis=1))
    sq_pts = np.sum(points * points, axis=1)
    labels = np.zeros(n_points, dtype=np.int32)
    for _ in range(n_iter):
        dists = sq_pts[:, None] - 2.0 * points @ centers.T + np.sum(centers * centers, axis=1)
        new_labels = dists.argmin(axis=1).astype(np.int32)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
        for k in range(n_clusters):
            members = labels == k
            if np.any(members):
                centers[k] = points[members].mean(axis=0)
    return labels, centers


def cluster_moments(a: np.ndarray, z: np.ndarray, n_clusters: int):
    """Initial (psi, sigma2): per cluster, the simplex projection of its
    members' mean and their variance floored at 1e-6; an empty cluster gets
    the simplex centre and the floored variance over all pixels."""
    n_dims = a.shape[0]
    psi = np.empty((n_clusters, n_dims))
    sigma2 = np.empty((n_clusters, n_dims))
    overall_var = np.maximum(a.var(axis=1), 1e-6)
    for k in range(n_clusters):
        members = z == k
        if np.any(members):
            psi[k] = project_to_simplex(a[:, members].mean(axis=1))
            sigma2[k] = np.maximum(a[:, members].var(axis=1), 1e-6)
        else:
            psi[k] = 1.0 / n_dims
            sigma2[k] = overall_var
    return psi, sigma2


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
            grid[mask] = categorical_gumbel(rng, weights)
    return LabelField(labels, n_states, lat)


def default_cluster_means(n_clusters: int, n_endmembers: int) -> np.ndarray:
    """Separated cluster means from a list of every support of one, two and
    three endmembers, built before the cluster count is checked."""
    supports = [(r,) for r in range(n_endmembers)]
    supports += list(combinations(range(n_endmembers), 2))
    supports += list(combinations(range(n_endmembers), 3))
    if n_clusters > len(supports):
        raise GenerationError(
            f"cannot build {n_clusters} separated means over {n_endmembers} endmembers"
        )
    means = np.full((n_clusters, n_endmembers), 0.1 / n_endmembers)
    for k in range(n_clusters):
        means[k, list(supports[k])] += 0.9 / len(supports[k])
    return means


def signal_and_noise_power(y: np.ndarray, m: np.ndarray, a: np.ndarray) -> tuple[float, float]:
    """Total squares of the signal ``m @ a`` and of the noise ``y - m @ a``,
    the signal formed afresh over blocks of 64 bands and both summed there by
    einsum: the realized SNR of a scene is ``10 log10`` of their ratio."""
    signal_power = noise_power = 0.0
    for start in range(0, y.shape[0], 64):
        block = m[start : start + 64] @ a
        signal_power += float(np.einsum("ij,ij->", block, block))
        np.subtract(y[start : start + 64], block, out=block)
        noise_power += float(np.einsum("ij,ij->", block, block))
    return signal_power, noise_power


def truncnorm_tail(rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Right-tail standard-normal draws on [lo, hi] for arrays of bounds:
    Rayleigh proposals for every interval at once, then again for the
    rejected ones, so one call's uniforms come in that order."""
    c = 0.5 * lo * lo
    f = np.expm1(c - 0.5 * hi * hi)  # hi = inf gives f = -1
    x = c - np.log1p(rng.random(size=lo.shape) * f)
    reject = rng.random(size=lo.shape) ** 2 * x > c
    while np.any(reject):
        n_rej = int(reject.sum())
        y = c[reject] - np.log1p(rng.random(size=n_rej) * f[reject])
        ok = rng.random(size=n_rej) ** 2 * y <= c[reject]
        idx = np.flatnonzero(reject)
        x[idx[ok]] = y[ok]
        reject[idx[ok]] = False
    return np.sqrt(2.0 * x)


def truncnorm_standard(rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Standard-normal draws on [lo, hi] with boolean-mask gathers of the
    right-tail, left-tail and central intervals on every call: the tail
    draws first, then one uniform each for the central ones. The central
    draws use ``hbum``'s own inverse-CDF primitive, which
    ``test_distributions.py`` checks against the erfc/erfcinv formula."""
    out = np.empty(lo.shape)
    right = lo > _TAIL_THRESHOLD
    left = hi < -_TAIL_THRESHOLD
    central = ~(right | left)
    if np.any(right):
        out[right] = truncnorm_tail(rng, lo[right], hi[right])
    if np.any(left):
        out[left] = -truncnorm_tail(rng, -hi[left], -lo[left])
    if np.any(central):
        u = rng.random(size=int(central.sum()))
        out[central] = [_truncnorm_central(a, b, v)
                        for a, b, v in zip(lo[central], hi[central], u)]
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


def _simplex_start(means, var_diags, inner_iters, init):
    """The simplex samplers' checks; the (batch, R) start, or None for R = 1."""
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
    if means.shape[1] == 1:
        return None
    x = np.array(init, dtype=np.float64)
    if x.shape != means.shape or not np.isfinite(x).all():
        raise InvalidParameterError("init must be finite and match the shape of means")
    return x


def sample_gaussian_simplex_truncated_batch(
    rng: np.random.Generator, means, var_diags, inner_iters: int, init
) -> np.ndarray:
    """Simplex-truncated Gaussian draws that scan a coordinate over all rows
    at a time, forming its conditional afresh and drawing it with
    :func:`sample_truncated_normal`. Without a tail draw, ``hbum`` must give
    these bits and leave the generator in this state."""
    x = _simplex_start(means, var_diags, inner_iters, init)
    means = np.asarray(means, dtype=np.float64)
    var_diags = np.asarray(var_diags, dtype=np.float64)
    n_batch, n_dim = means.shape
    if x is None:
        return np.ones((n_batch, 1))
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


def sample_gaussian_simplex_truncated_rows(
    rng: np.random.Generator, means, var_diags, inner_iters: int, init
) -> np.ndarray:
    """Simplex-truncated Gaussian draws one row at a time: the uniforms are
    drawn first as an (inner_iters, R - 1, batch) array, then each row runs
    its scans, forming every conditional afresh. A draw past the tail
    threshold leaves its uniform unused and takes Rayleigh uniforms from
    ``rng`` as it comes."""
    x = _simplex_start(means, var_diags, inner_iters, init)
    means = np.asarray(means, dtype=np.float64)
    var_diags = np.asarray(var_diags, dtype=np.float64)
    n_batch, n_dim = means.shape
    if x is None:
        return np.ones((n_batch, 1))
    last = n_dim - 1
    u = rng.random(size=(inner_iters, last, n_batch))
    for i in range(n_batch):
        for it in range(inner_iters):
            for r in range(last):
                t = x[i, r] + x[i, last]
                if t < 0.0:
                    raise InvalidParameterError("truncated-normal interval must satisfy lo <= hi")
                cond_var = 1.0 / (1.0 / var_diags[i, r] + 1.0 / var_diags[i, last])
                cond_mean = cond_var * (
                    means[i, r] / var_diags[i, r] + (t - means[i, last]) / var_diags[i, last]
                )
                sd = np.sqrt(cond_var)
                if not (sd > 0.0 and np.isfinite(sd)):
                    raise InvalidParameterError("truncated-normal sd must be positive and finite")
                lo, hi = (0.0 - cond_mean) / sd, (t - cond_mean) / sd
                if lo > _TAIL_THRESHOLD:
                    draw = _truncnorm_tail(rng, float(lo), float(hi))
                elif hi < -_TAIL_THRESHOLD:
                    draw = -_truncnorm_tail(rng, float(-hi), float(-lo))
                else:
                    draw = _truncnorm_central(float(lo), float(hi), float(u[it, r, i]))
                x[i, r] = np.clip(cond_mean + sd * draw, 0.0, t)
                x[i, last] = t - x[i, r]
    x[:, last] = np.maximum(1.0 - x[:, :last].sum(axis=1), 0.0)
    return x


def make_precomp(Y, M):
    """The scene statistics as ``_make_precomp`` formed them before it worked
    in column tiles: every 16-band block of Y whole, in both passes."""
    M.validate()
    if Y.n_bands != M.n_bands:
        raise ValidationError(
            f"observations have {Y.n_bands} bands but endmembers have {M.n_bands}"
        )
    m = M.data
    q, r = np.linalg.qr(m)
    qty = np.zeros((m.shape[1], Y.lattice.n_pixels))
    part, finite = np.empty_like(qty), True
    for lo, block in Y.band_blocks(16):
        finite = finite and bool(np.isfinite(block).all())
        if finite:
            qty += np.matmul(q[lo : lo + len(block)].T, block, out=part)
    if not finite:
        raise ValidationError("observations contain non-finite entries")
    fit, resid0 = np.empty((min(16, Y.n_bands), qty.shape[1])), 0.0
    for lo, block in Y.band_blocks(16):
        f = np.matmul(q[lo : lo + len(block)], qty, out=fit[: len(block)])
        np.subtract(block, f, out=f)
        resid0 += float(np.einsum("ij,ij->", f, f))
    return _Precomp(
        mtm=m.T @ m, mty_t=qty.T @ r, r=r, qty=qty, resid0=resid0,
        n_obs=Y.n_bands * qty.shape[1], lattice=Y.lattice,
    )
