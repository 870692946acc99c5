"""Gibbs sampler for the joint unmixing / clustering / classification model.

One sweep updates, in order: abundances A, noise variance s2, cluster means
psi, cluster variances sigma2, cluster labels z, interaction matrix Q, class
labels omega. Chains run ``n_burnin`` sweeps with the cluster-field spatial
coupling at ``beta1`` and then ``n_mc`` recorded sweeps with it at zero; at
zero the label-field partition function is constant, so the Dirichlet
conditional used for Q's columns is exact on every recorded sweep.

Every Potts label field is swept by :func:`potts_sweep`: the cluster field
z, the class field omega and the Potts map of ``hbum.synthgen``. It runs a
checkerboard schedule (two half-sweeps of conditionally independent sites)
with the categorical draw it is handed: the chain's fields by inverse CDF,
the synthetic map by Gumbel-max.
A site left without a finite log-weight raises ``NumericalDegeneracyError``
naming its pixel; :func:`run_chain` prefixes the sweep and the stage.

Gathers along the pixel axis use ``np.take``, which returns C-ordered rows;
``a[:, idx]`` returns a Fortran-ordered copy, over which the per-site
reductions of the label draws run one short column at a time. Only values
are copied, so no bit changes. Sums and means keep the layout of their
input, because their rounding can depend on it.

The abundance draw and the Gaussian cluster log-likelihood run as small
GEMMs. They differ from triangular solves and from the unexpanded square
in the last bits only, within the bounds their docstrings state.

Point estimates returned by :func:`run_chain` are posterior means (empirical
averages of the recorded sweeps) for A, s2, psi, sigma2 and Q, and the
per-pixel most frequently sampled label for z and omega.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtri

from .distributions import (
    make_rng,
    sample_categorical_log_many,
    sample_dirichlet,
    sample_gaussian_simplex_truncated_batch,
    sample_inverse_gamma,
    sample_inverse_gamma_array,
)
from .errors import InvalidParameterError, NumericalDegeneracyError, ValidationError
from .lattice import neighbor_value_counts
from .model import (
    AbundanceMatrix,
    ClusterParams,
    EndmemberMatrix,
    InteractionMatrix,
    LabelField,
    ModelConfig,
    NoiseModel,
    ObservationMatrix,
    SupervisionData,
    class_log_prior_matrix,
)

# Post-draw floors preventing degenerate collapse on noiseless data.
SIGMA2_FLOOR = 1e-12
NOISE_SCALE_FLOOR = 1e-300

# Columns of Y per block of the set-up residual; see ``_make_precomp``.
_RESID_BLOCK = 1024


@dataclass
class ChainState:
    """Full parameter state of one chain."""

    A: AbundanceMatrix
    noise: NoiseModel
    clusters: ClusterParams
    z: LabelField
    q: InteractionMatrix
    omega: LabelField
    iteration: int = 0
    effective_beta1: float = 0.0

    def validate(self) -> None:
        self.A.validate()
        self.noise.validate()
        self.clusters.validate()
        self.z.validate()
        self.q.validate()
        self.omega.validate()
        n_clusters, n_dims = self.clusters.psi.shape
        if self.A.data.shape[0] != n_dims:
            raise ValidationError("abundance rows do not match cluster dimensions")
        if self.z.domain_size != n_clusters or self.q.n_clusters != n_clusters:
            raise ValidationError("cluster-count mismatch between z, Q and cluster params")
        if self.omega.domain_size != self.q.n_classes:
            raise ValidationError("class-count mismatch between omega and Q")
        if self.effective_beta1 < 0.0:
            raise ValidationError("effective_beta1 must be nonnegative")


@dataclass
class Trace:
    """Running accumulators over post-burn-in sweeps."""

    a_sum: np.ndarray
    s2_sum: float
    psi_sum: np.ndarray
    sigma2_sum: np.ndarray
    q_sum: np.ndarray
    z_counts: np.ndarray  # (K, P) per-pixel label tallies
    omega_counts: np.ndarray  # (J, P)
    n_recorded: int = 0

    @classmethod
    def empty(cls, n_dims: int, n_pixels: int, n_clusters: int, n_classes: int) -> "Trace":
        return cls(
            a_sum=np.zeros((n_dims, n_pixels)),
            s2_sum=0.0,
            psi_sum=np.zeros((n_clusters, n_dims)),
            sigma2_sum=np.zeros((n_clusters, n_dims)),
            q_sum=np.zeros((n_clusters, n_classes)),
            z_counts=np.zeros((n_clusters, n_pixels), dtype=np.uint32),
            omega_counts=np.zeros((n_classes, n_pixels), dtype=np.uint32),
        )

    def record(self, state: ChainState) -> None:
        self.a_sum += state.A.data
        self.s2_sum += state.noise.s2
        self.psi_sum += state.clusters.psi
        self.sigma2_sum += state.clusters.sigma2
        self.q_sum += state.q.q
        _tally(self.z_counts, state.z.labels)
        _tally(self.omega_counts, state.omega.labels)
        self.n_recorded += 1

    def omega_frequencies(self) -> np.ndarray:
        """(J, P) per-pixel posterior class frequencies."""
        return self.omega_counts.astype(np.float64) / self.n_recorded

    def estimates(self, lattice) -> ChainState:
        """Posterior-mean estimates for continuous parameters, per-pixel
        modal labels for the discrete fields (ties resolve to the lowest
        label)."""
        if self.n_recorded < 1:
            raise ValidationError("no recorded sweeps to estimate from")
        n = float(self.n_recorded)
        return ChainState(
            A=AbundanceMatrix(self.a_sum / n),
            noise=NoiseModel(self.s2_sum / n),
            clusters=ClusterParams(self.psi_sum / n, self.sigma2_sum / n),
            z=LabelField(
                np.argmax(self.z_counts, axis=0).astype(np.int32),
                self.z_counts.shape[0],
                lattice,
            ),
            q=InteractionMatrix(self.q_sum / n),
            omega=LabelField(
                np.argmax(self.omega_counts, axis=0).astype(np.int32),
                self.omega_counts.shape[0],
                lattice,
            ),
            iteration=self.n_recorded,
            effective_beta1=0.0,
        )


def _tally(counts: np.ndarray, labels: np.ndarray) -> None:
    """Add one to ``counts[labels[p], p]`` for every pixel p, through flat
    indices into the C-ordered (n_labels, P) tallies. The indices are intp:
    labels are int32 and n_labels * P can pass 2**31."""
    n_pixels = counts.shape[1]
    flat = labels.astype(np.intp)
    flat *= n_pixels
    flat += np.arange(n_pixels, dtype=np.intp)
    counts.reshape(-1)[flat] += 1


@dataclass
class _Precomp:
    """Quantities fixed for the whole chain; ``M = QR`` is M's reduced QR."""

    mtm: np.ndarray  # (R, R)
    mty_t: np.ndarray  # (P, R), C-ordered: pixel rows for the abundance draws
    r: np.ndarray  # (min(d, R), R)
    qty: np.ndarray  # (min(d, R), P) QᵀY
    resid0: float  # ||Y - QQᵀY||_F^2
    n_obs: int  # P * d
    w1: np.ndarray  # (J, P) class log-prior matrix


def _make_precomp(Y: ObservationMatrix, M: EndmemberMatrix, sup: SupervisionData) -> _Precomp:
    """Chain constants, formed without a d x P temporary: ``resid0`` is
    summed over blocks of ``_RESID_BLOCK`` columns in one reused buffer."""
    y, m = Y.data, M.data
    q, r = np.linalg.qr(m)
    qty = q.T @ y
    n_bands, n_pixels = y.shape
    buf = np.empty(n_bands * min(n_pixels, _RESID_BLOCK))
    resid0 = 0.0
    for lo in range(0, n_pixels, _RESID_BLOCK):
        hi = min(lo + _RESID_BLOCK, n_pixels)
        block = buf[: n_bands * (hi - lo)].reshape(n_bands, hi - lo)
        np.matmul(q, qty[:, lo:hi], out=block)
        np.subtract(y[:, lo:hi], block, out=block)
        resid0 += float(np.vdot(block, block))
    return _Precomp(
        mtm=m.T @ m,
        mty_t=qty.T @ r,  # MᵀY = RᵀQᵀY, pixel rows
        r=r,
        qty=qty,
        resid0=resid0,
        n_obs=y.size,
        w1=class_log_prior_matrix(sup),
    )


def _residual_sq(pre: _Precomp, a: np.ndarray) -> float:
    """``||Y - MA||_F^2 = resid0 + ||QᵀY - RA||^2``, for every A: a sum of
    two sums of squares, which cannot cancel below zero, also when M is
    rank-deficient."""
    fit = pre.qty - pre.r @ a
    return pre.resid0 + float(np.vdot(fit, fit))


def _log_nonneg(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(x)


def potts_sweep(
    rng: np.random.Generator,
    field: LabelField,
    base: np.ndarray,
    beta: float,
    what: str,
    draw: Callable[[np.random.Generator, np.ndarray], np.ndarray],
) -> LabelField:
    """One checkerboard sweep of ``field``, in place. Each half-sweep draws
    the sites of one colour with ``draw(rng, log_weights)`` from the
    (n_values, P) log-weights ``base`` plus, when ``beta`` is positive,
    ``beta`` times the count of each site's neighbours carrying each value.

    ``draw`` (one of the column-wise categorical samplers of
    ``hbum.distributions``) rejects every site without a finite
    log-weight, so its own checks are the only scan of the weights on the
    usual path. When it rejects them and some site has none, that is a
    degeneracy of the field, raised as one that names ``what`` and the
    first such pixel."""
    n_values = field.domain_size
    grid = field.grid()
    for sites in field.lattice.color_sites:
        weights = np.take(base, sites, axis=1)
        if beta > 0.0:
            counts = neighbor_value_counts(grid, n_values).reshape(n_values, -1)
            weights += beta * np.take(counts, sites, axis=1)
        try:
            field.labels[sites] = draw(rng, weights)
        except InvalidParameterError:
            dead = ~np.any(np.isfinite(weights), axis=0)
            if np.any(dead):
                raise NumericalDegeneracyError(
                    f"all {what} log-weights are -inf "
                    f"(first affected pixel {int(sites[np.argmax(dead)])})"
                )
            raise
    return field


# ---------------------------------------------------------------------------
# Conditional draws
# ---------------------------------------------------------------------------


def _sample_abundances_all(state: ChainState, pre: _Precomp, rng: np.random.Generator) -> None:
    """Vectorized abundance sweep: pixels sharing a cluster share their
    posterior precision ``MᵀM/s2 + diag(1/sigma2_k) = L Lᵀ``, so each
    cluster is one batched draw.

    Pixels are sorted by cluster (stably, so each cluster keeps its pixel
    order), and each cluster's right-hand sides ``MᵀY/s2 + psi_k/sigma2_k``
    are one contiguous block B of (P, R) rows. With the covariance
    ``Sigma_k = L⁻ᵀ L⁻¹`` formed from LAPACK's ``trtri``, the block's draw
    is ``B Sigma_k + E L⁻¹``: two small GEMMs in place of three triangular
    solves. E is the next block of rows of one (P, R) draw of iid normals,
    so a sweep uses P·R normals whatever the labels."""
    n_dims, n_pixels = state.A.data.shape
    s2 = state.noise.s2
    noise = rng.standard_normal((n_pixels, n_dims))
    z = state.z.labels
    n_clusters = state.clusters.n_clusters
    # Narrow keys let numpy's stable sort run as a radix sort.
    order = np.argsort(z.astype(np.min_scalar_type(n_clusters - 1)), kind="stable")
    bounds = np.cumsum(np.bincount(z, minlength=n_clusters))
    rhs = np.take(pre.mty_t, order, axis=0)
    lo = 0
    for k, hi in enumerate(bounds):
        if hi == lo:
            continue
        sigma2_k = state.clusters.sigma2[k]
        b = rhs[lo:hi]
        # On noiseless data s2 can fall so low that these overflow. One
        # explicit check of the factor and the right-hand side reports that.
        with np.errstate(over="ignore", invalid="ignore"):
            prec = pre.mtm / s2 + np.diag(1.0 / sigma2_k)
            try:
                chol = np.linalg.cholesky(prec)
            except np.linalg.LinAlgError as exc:
                raise NumericalDegeneracyError(
                    f"abundance precision not positive definite for cluster {k}"
                ) from exc
            np.divide(b, s2, out=b)
            np.add(b, state.clusters.psi[k] / sigma2_k, out=b)
        if not (np.isfinite(chol).all() and np.isfinite(b).all()):
            raise NumericalDegeneracyError(
                f"abundance posterior of cluster {k} is not finite (noise variance {s2:.3g})"
            )
        # A factor numpy returned with a finite, positive diagonal is never
        # singular, so trtri's info needs no check.
        chol_inv = dtrtri(chol, lower=1)[0]
        rhs[lo:hi] = b @ (chol_inv.T @ chol_inv) + noise[lo:hi] @ chol_inv
        lo = hi
    state.A.data.T[order] = rhs


def _sample_noise_fast(state: ChainState, pre: _Precomp, rng: np.random.Generator) -> float:
    """Redraw s2 from its inverse-gamma conditional with shape 1 + Pd/2 and
    scale half the total squared reconstruction residual."""
    scale = max(_residual_sq(pre, state.A.data) / 2.0, NOISE_SCALE_FLOOR)
    state.noise.s2 = sample_inverse_gamma(rng, 1.0 + pre.n_obs / 2.0, scale)
    return state.noise.s2


def _cluster_sums(values: np.ndarray, z: np.ndarray, n_clusters: int) -> np.ndarray:
    """(K, R) per-cluster sums of the columns of an (R, P) matrix."""
    out = np.empty((n_clusters, values.shape[0]))
    for r in range(values.shape[0]):
        out[:, r] = np.bincount(z, weights=values[r], minlength=n_clusters)
    return out


def sample_cluster_variances(
    state: ChainState, config: ModelConfig, rng: np.random.Generator
) -> np.ndarray:
    """Redraw every sigma2[k, r] from its inverse-gamma conditional; empty
    clusters fall back to the prior draw."""
    z = state.z.labels
    n_clusters = config.n_clusters
    n_k = np.bincount(z, minlength=n_clusters).astype(np.float64)
    diff2 = (state.A.data - np.take(state.clusters.psi.T, z, axis=1)) ** 2
    ssq = _cluster_sums(diff2, z, n_clusters)
    shape = n_k[:, None] / 2.0 + config.xi
    scale = config.gamma + ssq / 2.0
    draws = sample_inverse_gamma_array(rng, shape, scale)
    state.clusters.sigma2 = np.maximum(draws, SIGMA2_FLOOR)
    return state.clusters.sigma2


def sample_cluster_means(
    state: ChainState, config: ModelConfig, rng: np.random.Generator
) -> np.ndarray:
    """Redraw every cluster mean from its simplex-truncated Gaussian
    conditional, centered on the cluster's empirical abundance mean with
    covariance shrunk by the cluster size; empty clusters draw from the
    uniform simplex prior."""
    z = state.z.labels
    n_clusters, n_dims = state.clusters.psi.shape
    n_k = np.bincount(z, minlength=n_clusters).astype(np.float64)
    sums = _cluster_sums(state.A.data, z, n_clusters)
    empty = n_k == 0
    denom = np.where(empty, 1.0, n_k)[:, None]
    means = sums / denom
    varis = state.clusters.sigma2 / denom
    means[empty] = 1.0 / n_dims
    varis[empty] = 1.0
    draws = sample_gaussian_simplex_truncated_batch(
        rng, means, varis, inner_iters=config.inner_iters, init=state.clusters.psi
    )
    for k in np.flatnonzero(empty):
        draws[k] = sample_dirichlet(rng, np.ones(n_dims))
    state.clusters.psi = draws
    return state.clusters.psi


def _gaussian_cluster_loglik(
    a: np.ndarray, psi: np.ndarray, sigma2: np.ndarray
) -> np.ndarray:
    """(K, P) log-density of every abundance column under every cluster, as
    one GEMM of ``[-1/(2 sigma2_k), psi_k/sigma2_k]`` (K x 2R) with
    ``[a∘a; a]`` (2R x P), plus a per-cluster constant. The expanded square
    cancels: an entry can be off the direct form by about
    ``(R + 1) eps S / 2``, ``S = sum_r (|a_r| + |psi_r|)² / sigma2_r``."""
    n_clusters, n_dims = psi.shape
    inv = 1.0 / sigma2
    weights = np.hstack([-0.5 * inv, psi * inv])
    stacked = np.empty((2 * n_dims, a.shape[1]))
    np.multiply(a, a, out=stacked[:n_dims])
    stacked[n_dims:] = a
    const = -0.5 * (
        n_dims * np.log(2.0 * np.pi) + np.log(sigma2).sum(axis=1) + (psi * psi * inv).sum(axis=1)
    )
    out = weights @ stacked
    out += const[:, None]
    return out


def sample_cluster_labels(state: ChainState, rng: np.random.Generator) -> LabelField:
    """Redraw the cluster field. Per-site log-weights combine the Gaussian
    abundance likelihood, the interaction weight of the site's current class
    and, while ``effective_beta1`` is positive, the spatial agreement count."""
    base = _gaussian_cluster_loglik(state.A.data, state.clusters.psi, state.clusters.sigma2)
    base += np.take(_log_nonneg(state.q.q), state.omega.labels, axis=1)
    return potts_sweep(
        rng, state.z, base, state.effective_beta1, "cluster", sample_categorical_log_many
    )


def sample_interaction_matrix(
    state: ChainState, config: ModelConfig, rng: np.random.Generator
) -> InteractionMatrix:
    """Redraw every column of Q from its Dirichlet conditional built on the
    joint (cluster, class) label counts. Exact once ``effective_beta1`` is
    zero; during burn-in it serves as the stated approximation."""
    n_clusters, n_classes = config.n_clusters, config.n_classes
    counts = np.bincount(
        state.omega.labels.astype(np.int64) * n_clusters + state.z.labels,
        minlength=n_clusters * n_classes,
    ).reshape(n_classes, n_clusters).T
    for j in range(n_classes):
        state.q.q[:, j] = sample_dirichlet(rng, counts[:, j] + config.zeta)
    return state.q


def _class_log_partition(state: ChainState, beta1: float) -> np.ndarray:
    """(J, P) log of the cluster-side normalizer entering the class-field
    conditional while the cluster coupling is active."""
    n_clusters = state.q.n_clusters
    counts = neighbor_value_counts(state.z.grid(), n_clusters).reshape(n_clusters, -1)
    energy = beta1 * counts
    peak = energy.max(axis=0)
    boosted = np.exp(energy - peak[None, :])
    return (np.log(boosted.T @ state.q.q) + peak[:, None]).T


def sample_class_labels(
    state: ChainState, config: ModelConfig, rng: np.random.Generator, w1: np.ndarray
) -> LabelField:
    """Redraw the class field. Per-site log-weights combine the interaction
    weight of the site's cluster, the (J, P) supervision log-prior ``w1``
    and the spatial agreement count at ``beta2``; while ``effective_beta1``
    is positive the cluster-side normalizer is subtracted (at zero it is
    identically one and skipped)."""
    base = np.take(_log_nonneg(state.q.q).T, state.z.labels, axis=1)
    base += w1
    if state.effective_beta1 > 0.0:
        base -= _class_log_partition(state, state.effective_beta1)
    return potts_sweep(rng, state.omega, base, config.beta2, "class", sample_categorical_log_many)


# ---------------------------------------------------------------------------
# Initialization and the chain driver
# ---------------------------------------------------------------------------


def _kmeans_labels(
    a: np.ndarray, n_clusters: int, rng: np.random.Generator, n_iter: int = 10
) -> np.ndarray:
    """k-means++ seeding plus a few Lloyd rounds on the columns of ``a``."""
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
    return labels


def initialize_state(
    Y: ObservationMatrix,
    M: EndmemberMatrix,
    sup: SupervisionData,
    config: ModelConfig,
    rng: np.random.Generator,
    pre: _Precomp | None = None,
) -> ChainState:
    """Deterministic-given-seed starting point: ridge unmixing clipped to
    [0, 1] for A, k-means++ clustering of the abundance columns for z,
    cluster moments for psi/sigma2, uniform-Dirichlet columns for Q, and the
    expert labels (proportion draws where unlabeled) for omega.

    ``pre`` supplies the chain constants the chain has already formed; it
    does not change the result. Class proportions come from ``sup.pi``:
    :func:`run_chain` puts ``config.pi_override`` there."""
    from .distributions import project_to_simplex

    n_pixels = Y.n_pixels
    n_dims = M.n_endmembers
    if config.n_clusters > n_pixels:
        raise ValidationError(
            f"cannot form {config.n_clusters} clusters from {n_pixels} pixels"
        )
    if pre is None:
        pre = _make_precomp(Y, M, sup)
    ridge = 1e-6 * np.trace(pre.mtm) / n_dims
    a = np.linalg.solve(pre.mtm + ridge * np.eye(n_dims), pre.mty_t.T)
    np.clip(a, 0.0, 1.0, out=a)
    s2 = max(_residual_sq(pre, a) / pre.n_obs, 1e-12)

    z = _kmeans_labels(a, config.n_clusters, rng)
    psi = np.empty((config.n_clusters, n_dims))
    sigma2 = np.empty((config.n_clusters, n_dims))
    overall_var = np.maximum(a.var(axis=1), 1e-6)
    for k in range(config.n_clusters):
        members = z == k
        if np.any(members):
            psi[k] = project_to_simplex(a[:, members].mean(axis=1))
            sigma2[k] = np.maximum(a[:, members].var(axis=1), 1e-6)
        else:
            psi[k] = 1.0 / n_dims
            sigma2[k] = overall_var

    q = np.column_stack(
        [sample_dirichlet(rng, np.ones(config.n_clusters)) for _ in range(config.n_classes)]
    )

    omega = np.empty(n_pixels, dtype=np.int32)
    with np.errstate(divide="ignore"):
        log_pi = np.log(sup.pi)
    unlabeled = ~sup.labeled_mask()
    omega[unlabeled] = sample_categorical_log_many(
        rng, np.tile(log_pi[:, None], (1, int(unlabeled.sum())))
    )
    omega[sup.labeled_idx] = sup.c

    state = ChainState(
        A=AbundanceMatrix(a),
        noise=NoiseModel(s2),
        clusters=ClusterParams(psi, sigma2),
        z=LabelField(z, config.n_clusters, Y.lattice),
        q=InteractionMatrix(q),
        omega=LabelField(omega, config.n_classes, Y.lattice),
        iteration=0,
        effective_beta1=config.beta1,
    )
    state.validate()
    return state


def _check_dimensions(
    Y: ObservationMatrix, M: EndmemberMatrix, sup: SupervisionData, config: ModelConfig
) -> None:
    Y.validate()
    M.validate()
    sup.validate()
    config.validate()
    if Y.n_bands != M.n_bands:
        raise ValidationError(
            f"observations have {Y.n_bands} bands but endmembers have {M.n_bands}"
        )
    if M.n_endmembers != config.n_endmembers:
        raise ValidationError(
            f"config expects {config.n_endmembers} endmembers, matrix has {M.n_endmembers}"
        )
    if sup.n_pixels != Y.n_pixels:
        raise ValidationError("supervision pixel count does not match the observations")
    if sup.n_classes != config.n_classes:
        raise ValidationError("supervision class count does not match the config")


def run_chain(
    Y: ObservationMatrix,
    M: EndmemberMatrix,
    sup: SupervisionData,
    config: ModelConfig,
    rng: np.random.Generator | None = None,
    debug_validate: bool = False,
) -> tuple[ChainState, Trace]:
    """Run one chain and return (point estimates, trace).

    ``rng`` defaults to a fresh stream derived from ``config.seed``. With
    ``debug_validate`` every sweep re-checks all state invariants.
    """
    _check_dimensions(Y, M, sup, config)
    if rng is None:
        rng = make_rng(config.seed)
    if config.pi_override is not None:
        sup = SupervisionData(
            sup.labeled_idx, sup.c, sup.eta,
            np.asarray(config.pi_override, dtype=np.float64),
            sup.n_classes, sup.n_pixels,
        )
        sup.validate()
    pre = _make_precomp(Y, M, sup)
    state = initialize_state(Y, M, sup, config, rng, pre)
    trace = Trace.empty(config.n_endmembers, Y.n_pixels, config.n_clusters, config.n_classes)
    # The lambdas look each stage up on this module when called, so a stage
    # replaced there (by a test or a profiler) still takes part in the sweep.
    stages = (
        ("abundances", lambda: _sample_abundances_all(state, pre, rng)),
        ("noise", lambda: _sample_noise_fast(state, pre, rng)),
        ("cluster_means", lambda: sample_cluster_means(state, config, rng)),
        ("cluster_variances", lambda: sample_cluster_variances(state, config, rng)),
        ("cluster_labels", lambda: sample_cluster_labels(state, rng)),
        ("interaction", lambda: sample_interaction_matrix(state, config, rng)),
        ("class_labels", lambda: sample_class_labels(state, config, rng, pre.w1)),
    )
    total = config.n_burnin + config.n_mc
    for it in range(total):
        state.effective_beta1 = config.beta1 if it < config.n_burnin else 0.0
        for name, stage in stages:
            try:
                stage()
            except NumericalDegeneracyError as exc:
                raise NumericalDegeneracyError(f"sweep {it}, {name}: {exc}") from exc
        state.iteration += 1
        if debug_validate:
            state.validate()
        if it >= config.n_burnin:
            trace.record(state)
    return trace.estimates(Y.lattice), trace
