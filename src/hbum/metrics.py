"""Evaluation metrics: abundance error, chance-corrected label agreement,
confusion matrices and cluster alignment.

Cluster identities are only defined up to permutation, so cluster-level
scores go through :func:`align_clusters` first. Class labels need no
alignment (they are anchored by the supervision).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import AbundanceMatrix, LabelField


@dataclass
class ConfusionMatrix:
    """Label-agreement counts; rows are truth, columns are prediction."""

    counts: np.ndarray

    @classmethod
    def from_labels(
        cls,
        truth: LabelField,
        pred: LabelField,
        pixel_idx: np.ndarray | None = None,
    ) -> "ConfusionMatrix":
        """Count (truth, prediction) pairs, optionally restricted to a pixel
        subset."""
        if truth.domain_size != pred.domain_size:
            raise ValidationError("confusion matrix needs matching label domains")
        if truth.labels.shape != pred.labels.shape:
            raise ValidationError("confusion matrix needs matching field sizes")
        t = truth.labels if pixel_idx is None else truth.labels[pixel_idx]
        p = pred.labels if pixel_idx is None else pred.labels[pixel_idx]
        n = truth.domain_size
        counts = np.bincount(t.astype(np.int64) * n + p, minlength=n * n).reshape(n, n)
        return cls(counts)

    def validate(self) -> None:
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValidationError("confusion matrix must be square")
        if np.any(self.counts < 0):
            raise ValidationError("confusion matrix counts must be nonnegative")

    @property
    def n_total(self) -> int:
        return int(self.counts.sum())


def rgmse(a_hat: AbundanceMatrix, a_true: AbundanceMatrix) -> float:
    """Root mean square abundance error over all entries:
    sqrt(||A_hat - A_true||_F^2 / (P * R))."""
    if a_hat.data.shape != a_true.data.shape:
        raise ValidationError(
            f"abundance shapes differ: {a_hat.data.shape} vs {a_true.data.shape}"
        )
    diff = a_hat.data - a_true.data
    return float(np.sqrt(np.mean(diff * diff)))


def cohen_kappa(cm: ConfusionMatrix) -> float:
    """Chance-corrected agreement between truth and prediction.

    kappa = (p_o - p_e) / (1 - p_e) with p_o the observed agreement rate and
    p_e the rate expected from the marginals alone. Perfect agreement gives
    1; agreement at chance gives 0.
    """
    cm.validate()
    n = cm.n_total
    if n < 1:
        raise ValidationError("confusion matrix is empty")
    counts = cm.counts.astype(np.float64)
    p_obs = np.trace(counts) / n
    p_exp = float(np.sum(counts.sum(axis=1) * counts.sum(axis=0))) / (n * n)
    if p_exp >= 1.0:
        if p_obs >= 1.0:
            return 1.0
        raise ValidationError("kappa undefined: expected agreement is 1 without full agreement")
    return float((p_obs - p_exp) / (1.0 - p_exp))


def _max_weight_assignment(w: np.ndarray) -> np.ndarray:
    """Distinct columns for the rows of ``w`` (no more rows than columns) of
    greatest total weight: the Hungarian method by shortest augmenting paths
    with row and column potentials (Kuhn 1955; Jonker & Volgenant 1987).
    Index 0 of ``u``, ``v`` and ``row_of`` is a virtual row and column."""
    n, m = w.shape
    cost = -np.pad(w, ((1, 0), (1, 0)))
    u, v = np.zeros(n + 1), np.zeros(m + 1)
    row_of = np.zeros(m + 1, dtype=np.int64)  # each column's row, 1-based; 0 while free
    way = np.zeros(m + 1, dtype=np.int64)  # each column's predecessor on its shortest path
    for i in range(1, n + 1):
        row_of[0], j = i, 0
        dist, used = np.full(m + 1, np.inf), np.zeros(m + 1, dtype=bool)
        while row_of[j]:  # grow the shortest-path tree from row i until it reaches a free column
            used[j] = True
            reduced = cost[row_of[j]] - u[row_of[j]] - v
            closer = ~used & (reduced < dist)
            dist[closer], way[closer] = reduced[closer], j
            j = int(np.argmin(np.where(used, np.inf, dist)))
            delta = dist[j]
            u[row_of[used]] += delta
            v[used] -= delta
            dist[~used] -= delta
        while j:  # shift the matches along the path back to the virtual column
            row_of[j], j = row_of[way[j]], way[j]
    return np.argsort(row_of[1:])[m - n:]  # the m - n free columns sort first


def align_clusters(z_hat: LabelField, z_true: LabelField) -> np.ndarray:
    """Assignment resolving label switching between two cluster fields.

    Returns ``perm`` with ``perm[k]`` the true-label identity assigned to
    estimated label ``k``, chosen to maximize the number of matched pixels:
    an exact assignment on the co-occurrence counts by the Hungarian method.
    The two fields may have different cluster counts. With more estimated
    labels than true ones, the assignment is solved on the transposed counts
    and the estimated labels left over map to -1, so their pixels never match.
    """
    if z_hat.labels.shape != z_true.labels.shape:
        raise ValidationError("cluster alignment needs matching field sizes")
    n_hat, n_true = z_hat.domain_size, z_true.domain_size
    co = np.bincount(
        z_hat.labels.astype(np.int64) * n_true + z_true.labels, minlength=n_hat * n_true
    ).reshape(n_hat, n_true)
    if n_hat <= n_true:
        return _max_weight_assignment(co)
    perm = np.full(n_hat, -1, dtype=np.int64)
    perm[_max_weight_assignment(co.T)] = np.arange(n_true)
    return perm


def aligned_cluster_accuracy(z_hat: LabelField, z_true: LabelField) -> float:
    """Fraction of pixels matching the truth after optimal relabeling."""
    perm = align_clusters(z_hat, z_true)
    return float(np.mean(perm[z_hat.labels] == z_true.labels))
