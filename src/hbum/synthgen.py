"""Synthetic scene generation.

A scene is built hierarchically: a spatially coherent cluster map is drawn
from a Potts field, classes are defined by merging clusters through a fixed
cluster-to-class map, every pixel's abundance vector is drawn from a
Dirichlet distribution whose mean depends on the pixel's cluster, and the
observed spectra are linear mixtures of the endmember signatures corrupted
by white Gaussian noise scaled to a target signal-to-noise ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .distributions import sample_categorical_gumbel
from .errors import GenerationError, InvalidParameterError, ValidationError
from .lattice import Lattice
from .model import (
    AbundanceMatrix,
    EndmemberMatrix,
    LabelField,
    ObservationMatrix,
    SupervisionData,
    require_finite,
)
from .sampler import potts_sweep

#: Band count of the default synthetic endmember library.
DEFAULT_BANDS = 413


@dataclass
class SceneSpec:
    """Parameters of one synthetic scene.

    ``cluster_to_class`` maps every cluster (0-based) onto a class and must
    hit every class. ``dirichlet_means`` holds one mean abundance vector per
    cluster; ``concentration`` scales them into Dirichlet parameters (larger
    values give tighter clusters). ``snr_db`` may be ``inf`` for noiseless
    scenes.
    """

    height: int
    width: int
    n_clusters: int
    n_classes: int
    n_endmembers: int
    cluster_to_class: np.ndarray
    dirichlet_means: np.ndarray
    # Defaults calibrated so the cluster map stays patchy enough that a
    # top-rows training strip remains representative of the class mix.
    concentration: float = 30.0
    snr_db: float = 30.0
    potts_beta: float = 1.1
    potts_sweeps: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        self.cluster_to_class = np.asarray(self.cluster_to_class, dtype=np.int32)
        self.dirichlet_means = np.asarray(self.dirichlet_means, dtype=np.float64)

    @property
    def lattice(self) -> Lattice:
        return Lattice(self.height, self.width)

    def validate(self) -> None:
        if self.height < 1 or self.width < 1:
            raise ValidationError("scene dimensions must be positive")
        if min(self.n_clusters, self.n_classes, self.n_endmembers) < 1:
            raise ValidationError("cluster, class and endmember counts must be >= 1")
        if self.cluster_to_class.shape != (self.n_clusters,):
            raise ValidationError("cluster_to_class needs one entry per cluster")
        if np.any(self.cluster_to_class < 0) or np.any(self.cluster_to_class >= self.n_classes):
            raise ValidationError("cluster_to_class entries outside the class range")
        if np.unique(self.cluster_to_class).size != self.n_classes:
            raise ValidationError("cluster_to_class must hit every class")
        if self.dirichlet_means.shape != (self.n_clusters, self.n_endmembers):
            raise ValidationError("dirichlet_means must be (clusters, endmembers)")
        require_finite(
            dirichlet_means=self.dirichlet_means, concentration=self.concentration,
            potts_beta=self.potts_beta,
        )
        if np.any(self.dirichlet_means <= 0.0):
            raise ValidationError("dirichlet_means must be strictly positive")
        if self.concentration <= 0.0:
            raise ValidationError("concentration must be positive")
        if self.potts_beta < 0.0:
            raise ValidationError("potts_beta must be nonnegative")
        if not math.isfinite(4.0 * float(self.potts_beta)):
            raise ValidationError(
                f"potts_beta times 4 neighbours must be finite, got {self.potts_beta}"
            )
        if self.potts_sweeps < 1:
            raise ValidationError("potts_sweeps must be >= 1")
        if np.isnan(self.snr_db):
            raise ValidationError("snr_db must be a real number or inf")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainingSplit:
    """How the training set is carved out of the true class map."""

    kind: str = "top_rows"  # or "random"
    fraction: float = 0.25
    eta: float = 0.95

    def validate(self) -> None:
        if self.kind not in ("top_rows", "random"):
            raise ValidationError(f"unknown training split kind '{self.kind}'")
        if not (0.0 < self.fraction <= 1.0):
            raise ValidationError("training fraction must lie in (0, 1]")
        if not (0.0 < self.eta < 1.0):
            raise ValidationError("training confidence must lie strictly inside (0, 1)")


def default_cluster_means(n_clusters: int, n_endmembers: int) -> np.ndarray:
    """Well-separated per-cluster Dirichlet mean vectors.

    Each mean spreads 10% of its mass evenly and concentrates the remaining
    90% on a small support set: single endmembers first, then pairs, then
    triples. Any two means differ by at least 0.9 in L1 distance (for
    n_endmembers >= 2), keeping clusters distinguishable at moderate
    concentrations.
    """
    if min(n_clusters, n_endmembers) < 1:
        raise ValidationError("cluster and endmember counts must be >= 1")
    supports: list[tuple[int, ...]] = [(r,) for r in range(n_endmembers)]
    supports += list(combinations(range(n_endmembers), 2))
    supports += list(combinations(range(n_endmembers), 3))
    if n_clusters > len(supports):
        raise GenerationError(
            f"cannot build {n_clusters} separated means over {n_endmembers} endmembers"
        )
    means = np.full((n_clusters, n_endmembers), 0.1 / n_endmembers)
    for k in range(n_clusters):
        sup = supports[k]
        means[k, list(sup)] += 0.9 / len(sup)
    return means


def _smooth_spectrum(n_bands: int, rng: np.random.Generator) -> np.ndarray:
    """One nonnegative smooth spectrum in [0, 1]: a random baseline plus a
    few Gaussian bumps, rescaled to a random peak level."""
    x = np.arange(n_bands, dtype=np.float64)
    y = np.full(n_bands, rng.uniform(0.02, 0.15))
    for _ in range(int(rng.integers(2, 6))):
        center = rng.uniform(0.0, n_bands)
        width = rng.uniform(n_bands / 30.0, n_bands / 6.0)
        amp = rng.uniform(0.2, 1.0)
        y += amp * np.exp(-0.5 * ((x - center) / width) ** 2)
    y *= rng.uniform(0.5, 1.0) / y.max()
    return np.clip(y, 0.0, 1.0)


def _angle_deg(u: np.ndarray, v: np.ndarray) -> float:
    cosine = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.degrees(np.arccos(np.clip(cosine, -1.0, 1.0))))


def make_endmembers(
    n_bands: int,
    n_endmembers: int,
    rng: np.random.Generator,
    min_angle_deg: float = 5.0,
    max_attempts: int = 100,
) -> EndmemberMatrix:
    """Random smooth synthetic endmember signatures.

    Spectra are resampled until every pair is separated by at least
    ``min_angle_deg`` of spectral angle; generation fails after
    ``max_attempts`` rejections of a single spectrum.
    """
    if n_endmembers > n_bands:
        raise ValidationError("cannot place more endmembers than bands")
    spectra: list[np.ndarray] = []
    for _ in range(n_endmembers):
        for _attempt in range(max_attempts):
            cand = _smooth_spectrum(n_bands, rng)
            if all(_angle_deg(cand, s) >= min_angle_deg for s in spectra):
                spectra.append(cand)
                break
        else:
            raise GenerationError(
                f"could not reach {min_angle_deg} degrees of pairwise separation "
                f"after {max_attempts} attempts"
            )
    out = EndmemberMatrix(np.column_stack(spectra))
    out.validate()
    return out


def generate_potts_field(spec: SceneSpec, rng: np.random.Generator) -> LabelField:
    """Spatially coherent label map: ``potts_sweeps`` checkerboard Gibbs
    sweeps of a ``n_clusters``-state Potts model at coupling ``potts_beta``,
    started from uniform random labels."""
    spec.validate()
    lat = spec.lattice
    n_states = spec.n_clusters
    labels = rng.integers(n_states, size=lat.n_pixels).astype(np.int32)
    field = LabelField(labels, n_states, lat)
    base = np.zeros((n_states, lat.n_pixels))
    for _ in range(spec.potts_sweeps):
        potts_sweep(rng, field, base, spec.potts_beta, "Potts", sample_categorical_gumbel)
    return field


def _dirichlet_rows(rng: np.random.Generator, alpha: np.ndarray, n_rows: int) -> np.ndarray:
    """(n_rows, len(alpha)) independent Dirichlet(alpha) draws."""
    rows = rng.standard_gamma(alpha, size=(n_rows, alpha.size))
    totals = rows.sum(axis=1)
    for _ in range(100):
        bad = totals <= 0.0
        if not np.any(bad):
            return rows / totals[:, None]
        rows[bad] = rng.standard_gamma(alpha, size=(int(bad.sum()), alpha.size))
        totals = rows.sum(axis=1)
    raise GenerationError(f"Dirichlet draws underflowed for alpha={alpha}")


def generate_scene(
    spec: SceneSpec, M: EndmemberMatrix, rng: np.random.Generator
) -> tuple[ObservationMatrix, AbundanceMatrix, LabelField, LabelField]:
    """Draw one full scene.

    Returns the noisy observations together with the ground-truth abundance
    matrix, cluster map and class map. The noise variance is set so that the
    ratio of total signal power to noise power matches ``snr_db``.
    """
    spec.validate()
    M.validate()
    if M.n_endmembers != spec.n_endmembers:
        raise ValidationError(
            f"scene expects {spec.n_endmembers} endmembers, matrix has {M.n_endmembers}"
        )
    lat = spec.lattice
    z = generate_potts_field(spec, rng)
    omega = LabelField(spec.cluster_to_class[z.labels], spec.n_classes, lat)

    a = np.empty((spec.n_endmembers, lat.n_pixels))
    for k in range(spec.n_clusters):
        idx = np.flatnonzero(z.labels == k)
        if idx.size == 0:
            continue
        alpha = spec.concentration * spec.dirichlet_means[k]
        a[:, idx] = _dirichlet_rows(rng, alpha, idx.size).T

    signal = M.data @ a
    if np.isinf(spec.snr_db):
        y = signal
    else:
        power = float(np.mean(signal * signal))
        s2 = power / 10.0 ** (spec.snr_db / 10.0)
        sd = np.sqrt(s2)
        y = signal
        # Add noise in band blocks to keep the extra allocation small.
        for start in range(0, y.shape[0], 64):
            stop = min(start + 64, y.shape[0])
            y[start:stop] += sd * rng.standard_normal((stop - start, y.shape[1]))

    obs = ObservationMatrix(y, lat)
    obs.validate()
    return obs, AbundanceMatrix(a), z, omega


def split_training(
    omega_true: LabelField,
    split: TrainingSplit,
    rng: np.random.Generator | None = None,
) -> SupervisionData:
    """Carve the training set out of the true class map.

    ``top_rows`` takes the topmost ``fraction`` of grid rows; ``random``
    samples that fraction of pixels uniformly (and needs ``rng``). Every
    class must appear among the selected labels.
    """
    split.validate()
    lat = omega_true.lattice
    if split.kind == "top_rows":
        n_rows = int(round(lat.height * split.fraction))
        if n_rows < 1:
            raise ValidationError("training fraction selects no grid rows")
        idx = np.arange(n_rows * lat.width, dtype=np.int64)
    else:
        if rng is None:
            raise ValidationError("random training split needs a generator")
        n_sel = int(round(lat.n_pixels * split.fraction))
        if n_sel < 1:
            raise ValidationError("training fraction selects no pixels")
        idx = np.sort(rng.choice(lat.n_pixels, size=n_sel, replace=False)).astype(np.int64)
    return SupervisionData.from_labels(
        idx, omega_true.labels[idx], split.eta, omega_true.domain_size, lat.n_pixels
    )


def corrupt_labels(
    sup: SupervisionData, alpha: float, rng: np.random.Generator
) -> SupervisionData:
    """Corrupted copy of the supervision data.

    Every expert label is independently replaced, with probability
    ``alpha``, by one of the other labels chosen uniformly. Confidences are
    set to ``1 - alpha`` capped at 0.95, and the class proportions are
    recomputed from the corrupted labels.
    """
    if not (0.0 <= alpha < 1.0):
        raise InvalidParameterError(f"corruption probability must lie in [0, 1), got {alpha}")
    c = sup.c.copy()
    n_classes = sup.n_classes
    flip = rng.random(c.size) < alpha
    if n_classes > 1 and np.any(flip):
        shift = rng.integers(1, n_classes, size=int(flip.sum()))
        c[flip] = (c[flip] + shift) % n_classes
    eta = min(1.0 - alpha, 0.95)
    return SupervisionData.from_labels(
        sup.labeled_idx, c, eta, n_classes, sup.n_pixels, require_all_classes=False
    )
