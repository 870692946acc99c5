"""Gibbs sampler for the joint unmixing / clustering / classification model.

One sweep updates, in order: abundances A, noise variance s2, cluster means
psi, cluster variances sigma2, cluster labels z, interaction matrix Q, class
labels omega. Chains run ``n_burnin`` sweeps with the cluster-field spatial
coupling at ``beta1`` and then ``n_mc`` recorded sweeps with it at zero; at
zero the label-field partition function is constant, so the Dirichlet
conditional used for Q's columns is exact on every recorded sweep.

The chain's label fields z and omega are swept by :func:`potts_sweep`: by
checkerboard (two half-sweeps of conditionally independent sites) with
inverse-CDF categorical draws. An uncoupled field (z in every recorded
sweep) is drawn in one pass with the half-sweeps' uniforms.
A site left without a finite log-weight raises ``NumericalDegeneracyError``
naming its pixel; :func:`run_chain` prefixes the sweep and the stage.

The chain reads the d x P observations Y only through the scene statistics
that :func:`_make_precomp` forms, in band blocks of Y in memory or on disk, so
chains on one scene can share one set of them and no caller holds Y whole.

Gathers along the pixel axis use ``np.take``, which returns C-ordered rows;
``a[:, idx]`` returns a Fortran-ordered copy, over which the per-site
reductions of the label draws run one short column at a time. Only values
are copied, so no bit changes. Sums and means keep the layout of their
input, because their rounding can depend on it.

The abundance normals come from child 0 of the chain generator's seed
sequence, one (P, R) block a sweep, drawn into one reused block on the
chain's helper thread while the other stages of the sweep run.

The abundance draw and the Gaussian cluster log-likelihood run as small
GEMMs. They differ from triangular solves and from the unexpanded square
in the last bits only, within the bounds their docstrings state.

Point estimates returned by :func:`run_chain` are posterior means (empirical
averages of the recorded sweeps) for A, s2, psi, sigma2 and Q, and the
per-pixel most frequently sampled label for z and omega.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (
    make_rng,
    sample_categorical_log_many,
    sample_dirichlet,
    sample_gaussian_simplex_truncated_batch,
    sample_inverse_gamma,
    sample_inverse_gamma_array,
)
from .errors import InvalidParameterError, NumericalDegeneracyError, ValidationError
from .lattice import Lattice, neighbor_value_counts
from .model import (
    AbundanceMatrix,
    ChainState,
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

# Bands of Y per block of the scene statistics, and the least width of a
# column tile of a block; see ``_make_precomp``. OpenBLAS ran products of
# fewer than about 1e6 multiply-adds on another kernel, which rounded
# otherwise once more than 15 terms were summed; tiles 5120 or more wide run
# the whole block's kernel.
_BAND_BLOCK, _TILE = 16, 5120

# Gibbs scans of the simplex-truncated cluster-mean draw per sweep.
_SIMPLEX_SCANS = 5


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
        for counts, field in ((self.z_counts, state.z), (self.omega_counts, state.omega)):
            label = np.arange(len(counts), dtype=field.labels.dtype)[:, None]
            np.add(counts, (field.labels == label).view(np.uint8), out=counts)
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

        def modal(counts: np.ndarray) -> LabelField:
            return LabelField(np.argmax(counts, axis=0).astype(np.int32), len(counts), lattice)

        return ChainState(
            A=AbundanceMatrix(self.a_sum / n),
            noise=NoiseModel(self.s2_sum / n),
            clusters=ClusterParams(self.psi_sum / n, self.sigma2_sum / n),
            z=modal(self.z_counts),
            q=InteractionMatrix(self.q_sum / n),
            omega=modal(self.omega_counts),
        )


@dataclass
class _Precomp:
    """Scene statistics: all the chain reads of Y and M; ``M = QR`` is M's reduced QR.
    MᵀM and R are (R, R), QᵀY (R, P), MᵀY C-ordered (P, R) pixel rows,
    resid0 ``||Y - QQᵀY||_F^2`` and n_obs P * d."""

    mtm: np.ndarray
    mty_t: np.ndarray
    r: np.ndarray
    qty: np.ndarray
    resid0: float
    n_obs: int
    lattice: Lattice


def _make_precomp(Y: ObservationMatrix, M: EndmemberMatrix) -> _Precomp:
    """Check Y and M and form the scene statistics in one pass over Y: the only
    code that reads Y, an ObservationMatrix or an ``io.ObservationFile``. Both
    serve the same blocks of ``_BAND_BLOCK`` bands, so give the same bits.

    The pass updates a QR block of rows by block of rows (Golub & Van Loan,
    *Matrix Computations*, §6.5). ``r`` is the triangular factor of the rows
    of M seen so far, and T, R x P, the coordinates of the rows of Y seen so
    far. For each block b the complete QR ``H`` of ``[r; M[b]]`` rotates
    ``[T; Y[b]]`` by ``Hᵀ``: the top ``min(rows, R)`` rows are the new T, and
    the rows below hold what lies outside M's column space, so the sum of
    their squares adds to resid0 and cannot cancel. At the end ``QᵀY = T``,
    R is ``r`` and ``MᵀY = Tᵀ R``. Each block is checked finite, and a
    non-finite one is reported after the last block, once a file's checksum
    has passed. Blocks are rotated in column tiles of at least ``_TILE``
    pixels, which give every pixel the bits of the whole block; only the
    residual's sum runs over the whole block. Sums of squares use einsum:
    BLAS's dot splits them by its thread count. MᵀM, MᵀY and resid0 must be
    finite, which huge endmembers can break."""
    M.validate()
    if Y.n_bands != M.n_bands:
        raise ValidationError(
            f"observations have {Y.n_bands} bands but endmembers have {M.n_bands}"
        )
    m = M.data
    n_pixels, n_dims = Y.lattice.n_pixels, m.shape[1]
    # The columns past the last full tile join it, so that no tile is narrower
    # than _TILE unless the whole block is.
    cuts = [*range(0, max(n_pixels - _TILE, 0) + 1, _TILE), n_pixels]
    tiles = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    # Pixel rows: stack[:, :k] holds Tᵀ, and the block's bands follow it. With
    # the pixels as the GEMM's rows, no BLAS thread count moves a bit.
    stack = np.empty((n_pixels, n_dims + _BAND_BLOCK))
    part = np.empty((max(c.stop - c.start for c in tiles), stack.shape[1]))
    k, r, resid0, finite = 0, np.empty((0, n_dims)), 0.0, True
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        for lo, block in Y.band_blocks(_BAND_BLOCK):
            n = k + len(block)
            h, r = np.linalg.qr(np.vstack([r, m[lo : lo + len(block)]]), mode="complete")
            for cols in tiles:
                finite = finite and bool(np.isfinite(block[:, cols]).all())
                if finite:
                    rows = stack[cols, :n]
                    rows[:, k:] = block[:, cols].T
                    rows[...] = np.matmul(rows, h, out=part[: len(rows), :n])
            k, r = min(n, n_dims), r[:n_dims]
            if finite:
                resid0 += float(np.einsum("ij,ij->", stack[:, k:n], stack[:, k:n]))
        if not finite:
            raise ValidationError("observations contain non-finite entries")
        qty = stack[:, :k].T.copy()
        mtm, mty_t = m.T @ m, stack[:, :k] @ r  # MᵀY = (QᵀY)ᵀR, pixel rows
    if not (np.isfinite(mtm).all() and np.isfinite(mty_t).all() and np.isfinite(resid0)):
        raise ValidationError("the endmembers overflow M^T M, M^T Y or the residual")
    return _Precomp(mtm, mty_t, r, qty, resid0, Y.n_bands * n_pixels, Y.lattice)


def _residual_sq(pre: _Precomp, a: np.ndarray) -> float:
    """``||Y - MA||_F^2 = resid0 + ||QᵀY - RA||^2``, for every A: a sum of
    two sums of squares, which cannot cancel below zero, also when M is
    rank-deficient."""
    fit = pre.r @ a
    np.subtract(pre.qty, fit, out=fit)
    return pre.resid0 + float(np.einsum("ij,ij->", fit, fit))


def _log_nonneg(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(x)


def potts_sweep(
    rng: np.random.Generator, field: LabelField, base: np.ndarray, beta: float, what: str
) -> LabelField:
    """One sweep of ``field``, in place, by inverse-CDF draws from the
    (n_values, P) log-weights ``base`` plus, when ``beta`` is positive,
    ``beta`` times the count of each site's neighbours carrying each value.
    Each checkerboard half-sweep draws one colour's sites; an uncoupled field
    (independent sites) is drawn in one call with ``base`` as scratch, its
    uniforms given out in colour order.

    The draw rejects every site without a finite log-weight, so its own
    checks are the only scan of the weights on the usual path. When it
    rejects them and some site has none, that is a degeneracy of the field,
    raised as one naming ``what`` and the first such pixel. A rejected
    one-pass call changes neither ``base`` nor ``rng``: the half-sweeps raise."""
    if not beta > 0.0:
        try:
            field.labels[:] = sample_categorical_log_many(
                rng, base, overwrite=True, order=np.concatenate(field.lattice.color_sites)
            )
            return field
        except InvalidParameterError:
            pass
    for color, sites in enumerate(field.lattice.color_sites):
        weights = np.take(base, sites, axis=1)
        if beta > 0.0:
            weights += beta * neighbor_value_counts(field.grid(), field.domain_size, color)
        try:
            field.labels[sites] = sample_categorical_log_many(rng, weights, overwrite=True)
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


def _sample_abundances_all(state: ChainState, pre: _Precomp, noise: np.ndarray) -> None:
    """Vectorized abundance sweep: pixels sharing a cluster share their
    posterior precision ``MᵀM/s2 + diag(1/sigma2_k) = L Lᵀ``, so each
    cluster is one batched draw.

    Pixels are sorted by cluster (stably, so each cluster keeps its pixel
    order), and each cluster's right-hand sides ``MᵀY/s2 + psi_k/sigma2_k``
    are one contiguous block B of (P, R) rows. The occupied clusters'
    precisions are factored and their factors inverted as one stack each.
    With the covariance ``Sigma_k = L⁻ᵀ L⁻¹``, the block's draw is
    ``B Sigma_k + E L⁻¹``: two small GEMMs in place of three triangular
    solves. E is the next block of rows of ``noise``, one (P, R) block of
    iid standard normals, so a sweep uses P·R normals whatever the labels."""
    n_dims = state.A.data.shape[0]
    s2 = state.noise.s2
    z = state.z.labels
    n_clusters = len(state.clusters.psi)
    # Narrow keys let numpy's stable sort run as a radix sort.
    order = np.argsort(z.astype(np.min_scalar_type(n_clusters - 1)), kind="stable")
    sizes = np.bincount(z, minlength=n_clusters)
    used = np.flatnonzero(sizes)
    ends = np.cumsum(sizes)[used]
    starts = ends - sizes[used]
    rhs = np.take(pre.mty_t, order, axis=0)
    # On noiseless data s2 can fall so low that these overflow. One
    # explicit check of the factors and the right-hand sides reports that.
    with np.errstate(over="ignore", invalid="ignore"):
        prec = np.repeat((pre.mtm / s2)[None], used.size, axis=0)
        prec.reshape(used.size, -1)[:, :: n_dims + 1] += 1.0 / state.clusters.sigma2[used]
        try:
            chol = np.linalg.cholesky(prec)
        except np.linalg.LinAlgError:
            for k, prec_k in zip(used, prec):  # name the first cluster whose factor fails
                try:
                    np.linalg.cholesky(prec_k)
                except np.linalg.LinAlgError as exc:
                    raise NumericalDegeneracyError(
                        f"abundance precision not positive definite for cluster {k}"
                    ) from exc
            raise
        np.divide(rhs, s2, out=rhs)
        for k, lo, hi, chol_k in zip(used, starts, ends, chol):
            rhs[lo:hi] += state.clusters.psi[k] / state.clusters.sigma2[k]
            if not (np.isfinite(chol_k).all() and np.isfinite(rhs[lo:hi]).all()):
                raise NumericalDegeneracyError(
                    f"abundance posterior of cluster {k} is not finite (noise variance {s2:.3g})"
                )
    chol_inv = np.linalg.inv(chol)  # finite, with a positive diagonal: never singular
    cov = chol_inv.transpose(0, 2, 1) @ chol_inv
    for lo, hi, cov_k, chol_inv_k in zip(starts, ends, cov, chol_inv):
        rhs[lo:hi] = rhs[lo:hi] @ cov_k + noise[lo:hi] @ chol_inv_k
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
    diff = np.take(state.clusters.psi.T, z, axis=1)
    np.subtract(state.A.data, diff, out=diff)
    ssq = _cluster_sums(np.square(diff, out=diff), z, n_clusters)
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
        rng, means, varis, inner_iters=_SIMPLEX_SCANS, init=state.clusters.psi
    )
    if empty.any():
        draws[empty] = sample_dirichlet(rng, np.ones((int(empty.sum()), n_dims)))
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


def sample_cluster_labels(
    state: ChainState, rng: np.random.Generator, beta1: float
) -> LabelField:
    """Redraw the cluster field. Per-site log-weights combine the Gaussian
    abundance likelihood, the interaction weight of the site's current class
    and, while the sweep's coupling ``beta1`` is positive, the spatial
    agreement count."""
    base = _gaussian_cluster_loglik(state.A.data, state.clusters.psi, state.clusters.sigma2)
    base += np.take(_log_nonneg(state.q.q), state.omega.labels, axis=1)
    return potts_sweep(rng, state.z, base, beta1, "cluster")


def sample_interaction_matrix(
    state: ChainState, config: ModelConfig, rng: np.random.Generator
) -> InteractionMatrix:
    """Redraw every column of Q from its Dirichlet conditional built on the
    joint (cluster, class) label counts. Exact once the cluster coupling is
    zero; during burn-in it serves as the stated approximation."""
    n_clusters, n_classes = config.n_clusters, config.n_classes
    counts = np.bincount(
        state.omega.labels.astype(np.int64) * n_clusters + state.z.labels,
        minlength=n_clusters * n_classes,
    ).reshape(n_classes, n_clusters)
    state.q.q[:] = sample_dirichlet(rng, counts + config.zeta).T
    return state.q


def _class_log_partition(state: ChainState, beta1: float) -> np.ndarray:
    """(J, P) log of the cluster-side normalizer entering the class-field
    conditional while the cluster coupling is active."""
    n_clusters = len(state.q.q)
    counts = neighbor_value_counts(state.z.grid(), n_clusters).reshape(n_clusters, -1)
    boosted = beta1 * counts
    peak = boosted.max(axis=0)
    np.exp(np.subtract(boosted, peak, out=boosted), out=boosted)
    return (np.log(boosted.T @ state.q.q) + peak[:, None]).T


def sample_class_labels(
    state: ChainState, config: ModelConfig, rng: np.random.Generator, w1: np.ndarray,
    beta1: float,
) -> LabelField:
    """Redraw the class field. Per-site log-weights combine the interaction
    weight of the site's cluster, the (J, P) supervision log-prior ``w1``
    and the spatial agreement count at ``beta2``; while the sweep's cluster
    coupling ``beta1`` is positive the cluster-side normalizer is subtracted
    (at zero it is identically one and skipped)."""
    base = np.take(_log_nonneg(state.q.q).T, state.z.labels, axis=1)
    base += w1
    if beta1 > 0.0:
        base -= _class_log_partition(state, beta1)
    return potts_sweep(rng, state.omega, base, config.beta2, "class")


# ---------------------------------------------------------------------------
# Initialization and the chain driver
# ---------------------------------------------------------------------------


def _kmeans_labels(
    a: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ seeding plus up to ten Lloyd rounds on the columns of ``a``; a
    centre is its members' bincount sums, added in pixel order, over their
    count. Returns the labels and the (K, R) centres they were drawn to."""
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
    sq_pts = np.sum(points * points, axis=1)[:, None]
    dists = np.empty((n_points, n_clusters))
    labels = np.zeros(n_points, dtype=np.int32)
    for _ in range(10):
        # 2 p·c as p·(2c): doubling is exact, so every product and sum is
        # the old one doubled, bit for bit, unless a product is subnormal.
        np.matmul(points, (2.0 * centers).T, out=dists)
        np.subtract(sq_pts, dists, out=dists)
        dists += np.sum(centers * centers, axis=1)
        new_labels = dists.argmin(axis=1).astype(np.int32)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        sizes = np.bincount(labels, minlength=n_clusters)
        used = sizes > 0
        centers[used] = _cluster_sums(a, labels, n_clusters)[used] / sizes[used, None]
    return labels, centers


def initialize_state(
    pre: _Precomp, sup: SupervisionData, config: ModelConfig, rng: np.random.Generator
) -> ChainState:
    """Deterministic-given-seed starting point: ridge unmixing clipped to
    [0, 1] for A, k-means++ clustering of the abundance columns for z,
    cluster moments for psi/sigma2, uniform-Dirichlet columns for Q, and the
    expert labels (proportion draws where unlabeled) for omega.

    ``pre`` holds the scene statistics of :func:`_make_precomp`. Class
    proportions come from ``sup.pi``: :func:`run_chain` puts
    ``config.pi_override`` there."""
    from .distributions import project_to_simplex

    n_pixels = pre.lattice.n_pixels
    n_dims = pre.mtm.shape[0]
    if config.n_clusters > n_pixels:
        raise ValidationError(
            f"cannot form {config.n_clusters} clusters from {n_pixels} pixels"
        )
    ridge = 1e-6 * np.trace(pre.mtm) / n_dims
    a = np.linalg.solve(pre.mtm + ridge * np.eye(n_dims), pre.mty_t.T)
    np.clip(a, 0.0, 1.0, out=a)
    s2 = max(_residual_sq(pre, a) / pre.n_obs, 1e-12)

    # Moments from bincount sums, in pixel order as a[:, members] sums them.
    z, _ = _kmeans_labels(a, config.n_clusters, rng)
    sizes = np.bincount(z, minlength=config.n_clusters)[:, None]
    means = _cluster_sums(a, z, config.n_clusters) / np.maximum(sizes, 1)
    dev = np.take(means.T, z, axis=1)
    np.square(np.subtract(a, dev, out=dev), out=dev)
    sigma2 = _cluster_sums(dev, z, config.n_clusters) / np.maximum(sizes, 1)
    empty = sizes[:, 0] == 0
    if empty.any():
        sigma2[empty] = a.var(axis=1)
    np.maximum(sigma2, 1e-6, out=sigma2)
    psi = np.full((config.n_clusters, n_dims), 1.0 / n_dims)
    for k in np.flatnonzero(sizes):
        psi[k] = project_to_simplex(means[k])

    # C order: Q feeds a GEMM in _class_log_partition.
    q = sample_dirichlet(rng, np.ones((config.n_classes, config.n_clusters))).T.copy()

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
        z=LabelField(z, config.n_clusters, pre.lattice),
        q=InteractionMatrix(q),
        omega=LabelField(omega, config.n_classes, pre.lattice),
    )
    state.validate()
    return state


def run_chain(
    Y: ObservationMatrix | _Precomp,
    M: EndmemberMatrix,
    sup: SupervisionData,
    config: ModelConfig,
    rng: np.random.Generator | None = None,
    debug_validate: bool = False,
) -> tuple[ChainState, Trace]:
    """Run one chain and return (point estimates, trace).

    ``Y`` is the observations (in memory or a file) or the scene statistics
    ``_make_precomp(Y, M)`` formed from them; chains on one scene can share
    those, and M is then not read. ``rng`` defaults to a fresh stream derived
    from ``config.seed``. With ``debug_validate`` every sweep re-checks all
    state invariants. Once ``initialize_state`` has returned, one helper
    thread draws each sweep's abundance normals; it ends before this returns
    or raises.
    """
    # glibc raises its mmap threshold (and twice it, its heap trim threshold)
    # to the largest mmapped block freed, up to 32 MiB. This untouched block
    # lifts both above every per-sweep temporary, so the sweeps reuse heap
    # pages: without it the scene-2 benchmark's chains ran about 10 % longer.
    np.empty(28 << 20, dtype=np.uint8)
    pre = Y if isinstance(Y, _Precomp) else _make_precomp(Y, M)
    sup.validate()
    config.validate()
    n_dims, n_pixels = pre.mtm.shape[0], pre.lattice.n_pixels
    if n_dims != config.n_endmembers:
        raise ValidationError(
            f"config expects {config.n_endmembers} endmembers, matrix has {n_dims}"
        )
    if sup.n_pixels != n_pixels:
        raise ValidationError("supervision pixel count does not match the observations")
    if sup.n_classes != config.n_classes:
        raise ValidationError("supervision class count does not match the config")
    rng = make_rng(config.seed) if rng is None else rng
    # The normals' stream is ``rng.spawn(1)[0]`` of a fresh rng, whatever rng spawned.
    ss = rng.bit_generator.seed_seq
    ss = np.random.SeedSequence(ss.entropy, spawn_key=(*ss.spawn_key, 0), pool_size=ss.pool_size)
    normals = np.random.Generator(type(rng.bit_generator)(ss))
    if config.pi_override is not None:
        sup = replace(sup, pi=np.asarray(config.pi_override, dtype=np.float64))
        sup.validate()
    w1 = class_log_prior_matrix(sup)
    state = initialize_state(pre, sup, config, rng)
    # The helper draws each sweep's normals into one block, the next as soon
    # as the abundance stage is done with it, and none after the last.
    block, n_sweeps = np.empty((n_pixels, n_dims)), config.n_burnin + config.n_mc
    with ThreadPoolExecutor(1) as pool:
        drawn = pool.submit(normals.standard_normal, out=block)
        trace = Trace.empty(config.n_endmembers, n_pixels, config.n_clusters, config.n_classes)
        # The lambdas look each stage up on this module when called, so a stage
        # replaced there (by a test or a profiler) still takes part in the sweep.
        stages = (
            ("abundances", lambda: _sample_abundances_all(state, pre, drawn.result())),
            ("noise", lambda: _sample_noise_fast(state, pre, rng)),
            ("cluster_means", lambda: sample_cluster_means(state, config, rng)),
            ("cluster_variances", lambda: sample_cluster_variances(state, config, rng)),
            ("cluster_labels", lambda: sample_cluster_labels(state, rng, beta1)),
            ("interaction", lambda: sample_interaction_matrix(state, config, rng)),
            ("class_labels", lambda: sample_class_labels(state, config, rng, w1, beta1)),
        )
        for it in range(n_sweeps):
            beta1 = config.beta1 if it < config.n_burnin else 0.0
            for name, stage in stages:
                try:
                    stage()
                except NumericalDegeneracyError as exc:
                    raise NumericalDegeneracyError(f"sweep {it}, {name}: {exc}") from exc
                if name == "abundances" and it + 1 < n_sweeps:
                    drawn = pool.submit(normals.standard_normal, out=block)
            if debug_validate:
                state.validate()
            if it >= config.n_burnin:
                trace.record(state)
    return trace.estimates(pre.lattice), trace
