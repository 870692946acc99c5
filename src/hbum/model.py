"""Domain types of the three-stage hierarchical model and its local priors.

Conventions
-----------
* Observations ``Y`` are a d x P matrix (one spectrum per column), latent
  abundances ``A`` are R x P, endmembers ``M`` are d x R.
* Discrete label fields are stored 0-based internally (``0 .. domain-1``)
  and converted to the 1-based on-disk convention only at the I/O boundary.
* ``Q`` is a K x J matrix whose columns live on the probability simplex;
  ``q[k, j]`` is the prior weight of cluster ``k`` inside class ``j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lattice import Lattice

_SIMPLEX_TOL = 1e-9


def _check_simplex_rows(mat: np.ndarray, what: str) -> None:
    if np.any(mat < 0.0):
        raise ValidationError(f"{what} has negative entries")
    if np.any(np.abs(mat.sum(axis=1) - 1.0) > _SIMPLEX_TOL):
        raise ValidationError(f"{what} rows must sum to 1 within {_SIMPLEX_TOL}")


@dataclass
class ObservationMatrix:
    """Pixel spectra: d x P matrix, one column per lattice pixel. Only its shape
    is checked here: Y's values are checked where they are read."""

    data: np.ndarray
    lattice: Lattice

    def validate(self) -> None:
        if self.data.ndim != 2:
            raise ValidationError("observations must be a d x P matrix")
        if self.data.shape[1] != self.lattice.n_pixels:
            raise ValidationError(
                f"observation columns ({self.data.shape[1]}) do not match "
                f"lattice pixels ({self.lattice.n_pixels})"
            )

    def band_blocks(self, n_rows: int):
        """Yield ``(first band, block)`` for float64 blocks of ``n_rows``
        bands, after the shape checks of :meth:`validate`; the caller checks
        the values."""
        self.validate()
        for lo in range(0, self.n_bands, n_rows):
            yield lo, self.data[lo : lo + n_rows].astype(np.float64, copy=False)

    @property
    def n_bands(self) -> int:
        return self.data.shape[0]

    @property
    def n_pixels(self) -> int:
        return self.data.shape[1]


@dataclass
class EndmemberMatrix:
    """Elementary spectral signatures: d x R matrix, one column per material."""

    data: np.ndarray

    def validate(self) -> None:
        if self.data.ndim != 2:
            raise ValidationError("endmembers must be a d x R matrix")
        d, r = self.data.shape
        if r > d:
            raise ValidationError(f"more endmembers ({r}) than bands ({d})")
        if not np.all(np.isfinite(self.data)):
            raise ValidationError("endmembers contain non-finite entries")
        if np.any(np.all(self.data == 0.0, axis=0)):
            raise ValidationError("endmember columns must not be identically zero")

    @property
    def n_bands(self) -> int:
        return self.data.shape[0]

    @property
    def n_endmembers(self) -> int:
        return self.data.shape[1]


@dataclass
class AbundanceMatrix:
    """Latent mixing coefficients: R x P matrix, one column per pixel.

    Columns are not hard-constrained to the simplex; nonnegativity and
    sum-to-one act softly through the cluster means they are shrunk toward.
    """

    data: np.ndarray


@dataclass
class NoiseModel:
    """Isotropic Gaussian observation noise with variance ``s2``."""

    s2: float


@dataclass
class ClusterParams:
    """Per-cluster Gaussian parameters: mean rows ``psi`` (each on the
    simplex) and diagonal variances ``sigma2``, both K x R."""

    psi: np.ndarray
    sigma2: np.ndarray


@dataclass
class LabelField:
    """Discrete field over the lattice; values in ``0 .. domain_size-1``."""

    labels: np.ndarray
    domain_size: int
    lattice: Lattice

    def __post_init__(self) -> None:
        # grid() must be a writable view, which needs a contiguous buffer
        self.labels = np.ascontiguousarray(self.labels)

    def grid(self) -> np.ndarray:
        """(height, width) view of the flat label vector."""
        return self.labels.reshape(self.lattice.height, self.lattice.width)

    def copy(self) -> "LabelField":
        return LabelField(self.labels.copy(), self.domain_size, self.lattice)


@dataclass
class InteractionMatrix:
    """Cluster-to-class link weights: K x J matrix with simplex columns."""

    q: np.ndarray


@dataclass
class ChainState:
    """The parameters one chain samples: A, s2, (psi, sigma2), z, Q and omega."""

    A: AbundanceMatrix
    noise: NoiseModel
    clusters: ClusterParams
    z: LabelField
    q: InteractionMatrix
    omega: LabelField

    def validate(self) -> None:
        """Check every part and that the parts fit one R, K, J and grid."""
        a, s2, psi, sigma2, q = (
            self.A.data, self.noise.s2, self.clusters.psi, self.clusters.sigma2, self.q.q
        )
        if a.ndim != 2:
            raise ValidationError("abundances must be an R x P matrix")
        if not np.all(np.isfinite(a)):
            raise ValidationError("abundances contain non-finite entries")
        if not (math.isfinite(s2) and s2 > 0.0):
            raise ValidationError(f"noise variance must be positive, got {s2}")
        if psi.ndim != 2 or psi.shape != sigma2.shape:
            raise ValidationError("psi and sigma2 must be matching K x R matrices")
        _check_simplex_rows(psi, "cluster mean matrix")
        if np.any(sigma2 <= 0.0) or not np.all(np.isfinite(sigma2)):
            raise ValidationError("cluster variances must be positive and finite")
        if q.ndim != 2:
            raise ValidationError("interaction matrix must be K x J")
        _check_simplex_rows(q.T, "interaction matrix column")
        for field in (self.z, self.omega):
            labels, domain = field.labels, field.domain_size
            if labels.shape != (field.lattice.n_pixels,):
                raise ValidationError("label field length must equal the pixel count")
            if not np.issubdtype(labels.dtype, np.integer):
                raise ValidationError("labels must be integers")
            if labels.size and (labels.min() < 0 or labels.max() >= domain):
                raise ValidationError(f"labels must lie in [0, {domain})")
        if self.omega.lattice != self.z.lattice:
            raise ValidationError("z and omega lie on different grids")
        if a.shape[0] != psi.shape[1]:
            raise ValidationError("abundance rows do not match cluster dimensions")
        if a.shape[1] != self.z.lattice.n_pixels:
            raise ValidationError("abundance columns do not match the pixel count")
        if self.z.domain_size != psi.shape[0] or q.shape[0] != psi.shape[0]:
            raise ValidationError("cluster-count mismatch between z, Q and cluster params")
        if self.omega.domain_size != q.shape[1]:
            raise ValidationError("class-count mismatch between omega and Q")


@dataclass
class SupervisionData:
    """Partial expert labeling: indices of labeled pixels, their class
    labels, the per-pixel confidence that each label is correct, and the
    class proportions observed among the labeled pixels."""

    labeled_idx: np.ndarray  # sorted pixel indices of the labeled set
    c: np.ndarray  # 0-based class label per labeled pixel
    eta: np.ndarray  # confidence in (0, 1) per labeled pixel
    pi: np.ndarray  # length-J class-proportion vector
    n_classes: int
    n_pixels: int

    @classmethod
    def from_labels(
        cls,
        labeled_idx: np.ndarray,
        c: np.ndarray,
        eta,
        n_classes: int,
        n_pixels: int,
        require_all_classes: bool = True,
    ) -> "SupervisionData":
        """Build supervision data, computing ``pi`` from the labels.

        With ``require_all_classes`` every class in ``0..n_classes-1`` must
        appear among the labels (the usual configuration-time check).
        """
        labeled_idx = np.asarray(labeled_idx, dtype=np.int64)
        order = np.argsort(labeled_idx)
        labeled_idx = labeled_idx[order]
        c = np.asarray(c, dtype=np.int32)[order]
        eta = np.asarray(eta, dtype=np.float64)
        eta = np.full(labeled_idx.shape, float(eta)) if eta.ndim == 0 else eta[order]
        if require_all_classes:
            present = np.unique(c)
            if present.size != n_classes:
                raise ValidationError(
                    f"training labels cover {present.size} classes but the model "
                    f"declares {n_classes}"
                )
        counts = np.bincount(c, minlength=n_classes).astype(np.float64)
        pi = counts / counts.sum() if counts.sum() > 0 else counts
        sup = cls(labeled_idx, c, eta, pi, n_classes, n_pixels)
        sup.validate()
        return sup

    def validate(self) -> None:
        if self.labeled_idx.size == 0:
            raise ValidationError("the labeled set is empty")
        if self.labeled_idx.min() < 0 or self.labeled_idx.max() >= self.n_pixels:
            raise ValidationError("labeled indices outside the pixel range")
        if np.unique(self.labeled_idx).size != self.labeled_idx.size:
            raise ValidationError("labeled indices must be unique")
        if self.c.shape != self.labeled_idx.shape or self.eta.shape != self.labeled_idx.shape:
            raise ValidationError("labels and confidences must match the labeled set")
        if self.c.min() < 0 or self.c.max() >= self.n_classes:
            raise ValidationError(f"class labels must lie in [0, {self.n_classes})")
        if not np.all((self.eta > 0.0) & (self.eta < 1.0)):  # also rejects NaN
            raise ValidationError("confidences must lie strictly inside (0, 1)")
        if self.pi.shape != (self.n_classes,):
            raise ValidationError("pi must have one entry per class")
        if np.any(self.pi < 0.0) or abs(self.pi.sum() - 1.0) > _SIMPLEX_TOL:
            raise ValidationError("pi must lie on the probability simplex")
        present = np.unique(self.c)
        if np.any(self.pi[present] <= 0.0):
            raise ValidationError("pi must be positive for every class present in the labels")

    @property
    def n_labeled(self) -> int:
        return self.labeled_idx.size

    def labeled_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_pixels, dtype=bool)
        mask[self.labeled_idx] = True
        return mask


@dataclass
class ModelConfig:
    """Inference configuration.

    ``n_burnin`` sweeps run with the cluster-field spatial coupling at
    ``beta1``; the following ``n_mc`` recorded sweeps run with it at zero,
    which makes the interaction-matrix conditional exact.
    """

    n_clusters: int
    n_classes: int
    n_endmembers: int
    beta1: float = 0.8
    beta2: float = 0.8
    zeta: np.ndarray | None = None  # Dirichlet prior weights for Q columns
    xi: float = 1.0  # shape of the cluster-variance prior
    gamma: float = 0.1  # scale of the cluster-variance prior
    n_mc: int = 250
    n_burnin: int = 50
    seed: int = 0
    pi_override: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.zeta is None:
            self.zeta = np.ones(self.n_clusters)
            return
        try:
            self.zeta = np.broadcast_to(
                np.asarray(self.zeta, dtype=np.float64), (self.n_clusters,)
            ).copy()
        except ValueError:
            raise ValidationError(
                f"zeta must be a scalar or have one entry per cluster, "
                f"got shape {np.shape(self.zeta)} for {self.n_clusters} clusters"
            ) from None

    def validate(self) -> None:
        if min(self.n_clusters, self.n_classes, self.n_endmembers) < 1:
            raise ValidationError("K, J and R must all be >= 1")
        # The range checks below compare with <, which NaN passes.
        require_finite(
            beta1=self.beta1, beta2=self.beta2, zeta=self.zeta, xi=self.xi,
            gamma=self.gamma, class_proportions=self.pi_override,
        )
        if self.beta1 < 0.0 or self.beta2 < 0.0:
            raise ValidationError("granularity parameters must be nonnegative")
        for name, beta in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not math.isfinite(4.0 * float(beta)):
                raise ValidationError(f"{name} times 4 neighbours must be finite, got {beta}")
        if np.any(self.zeta <= 0.0):
            raise ValidationError("zeta entries must be positive")
        if self.xi <= 0.0 or self.gamma <= 0.0:
            raise ValidationError("variance-prior parameters must be positive")
        if self.n_mc < 1 or self.n_burnin < 0:
            raise ValidationError("need n_mc >= 1 and n_burnin >= 0")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


def require_finite(**values) -> None:
    """Raise ValidationError naming the first of ``values`` (scalars or
    arrays; None is skipped) that holds a NaN or an infinity."""
    for name, value in values.items():
        if value is not None and not np.all(np.isfinite(value)):
            raise ValidationError(f"{name} must be finite, got {np.asarray(value).tolist()}")


def class_log_prior_matrix(sup: SupervisionData) -> np.ndarray:
    """(J, P) log prior weight of every class at every pixel before spatial
    terms, precomputed for sweeps.

    Labeled pixels put log(eta_p) on the expert label and split the
    complement evenly over the other J-1 classes; unlabeled pixels use the
    log of the class proportion observed in the expert map (-inf for classes
    never observed there).
    """
    n_classes, n_pixels = sup.n_classes, sup.n_pixels
    with np.errstate(divide="ignore"):
        w = np.tile(np.log(sup.pi)[:, None], (1, n_pixels))
    if n_classes > 1:
        off = np.log((1.0 - sup.eta) / (n_classes - 1))
        w[:, sup.labeled_idx] = off[None, :]
    w[sup.c, sup.labeled_idx] = np.log(sup.eta)
    return w
