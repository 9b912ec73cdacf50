"""Density clustering (the HDBSCAN role).

Two clusterers share the label convention ``-1 = noise``:

* :class:`DBSCAN` — the classic algorithm, exact, O(n²) distances
  computed blockwise; right for corpora up to a few thousand posts and
  for validating the scalable path against ground truth;
* :class:`ScalableDensityClusterer` — for the full 200K-post corpus:
  k-means++ seeding, Lloyd iterations, single-link merging of centroids
  within a merge radius (recovering irregular dense regions the way a
  density method does), then small clusters demoted to noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.obs.telemetry import NULL_TELEMETRY, Telemetry


def _sq_norms(points: np.ndarray) -> np.ndarray:
    """Squared L2 norm of each row."""
    return (points * points).sum(axis=1)


def _pairwise_sq_dists(block: np.ndarray, points: np.ndarray,
                       block_norms: Optional[np.ndarray] = None,
                       point_norms: Optional[np.ndarray] = None) -> np.ndarray:
    """Squared Euclidean distances between block rows and all points.

    Callers that reuse one side across many calls pass its
    :func:`_sq_norms` in rather than have it recomputed each time.
    """
    cross = block @ points.T
    if block_norms is None:
        block_norms = _sq_norms(block)
    if point_norms is None:
        point_norms = _sq_norms(points)
    d2 = block_norms[:, None] + point_norms[None, :] - 2.0 * cross
    np.maximum(d2, 0.0, out=d2)
    return d2


class DBSCAN:
    """Exact DBSCAN with blockwise distance computation.

    >>> import numpy as np
    >>> pts = np.array([[0, 0], [0, 0.1], [5, 5], [5, 5.1], [9, 9]])
    >>> DBSCAN(eps=0.5, min_samples=2).fit_predict(pts).tolist()
    [0, 0, 1, 1, -1]
    """

    def __init__(self, eps: float, min_samples: int, block_size: int = 512,
                 telemetry: Optional[Telemetry] = None) -> None:
        if eps <= 0:
            raise ValueError("eps must be positive")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.eps = eps
        self.min_samples = min_samples
        self.block_size = block_size
        self.telemetry = telemetry or NULL_TELEMETRY

    def fit_predict(self, points: np.ndarray) -> np.ndarray:
        with self.telemetry.tracer.span("nlp.cluster.dbscan", n=len(points)):
            return self._fit_predict(points)

    def _fit_predict(self, points: np.ndarray) -> np.ndarray:
        n = len(points)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        eps2 = self.eps * self.eps
        point_norms = _sq_norms(points)
        # Neighbor lists, computed blockwise to bound memory.
        neighbors: List[np.ndarray] = []
        for start in range(0, n, self.block_size):
            block = points[start : start + self.block_size]
            d2 = _pairwise_sq_dists(block, points, point_norms=point_norms)
            for row in d2:
                neighbors.append(np.nonzero(row <= eps2)[0])
        labels = np.full(n, -1, dtype=np.int64)
        visited = np.zeros(n, dtype=bool)
        cluster = 0
        for i in range(n):
            if visited[i]:
                continue
            visited[i] = True
            if len(neighbors[i]) < self.min_samples:
                continue  # noise (may later be claimed as a border point)
            # Grow a new cluster from this core point.
            labels[i] = cluster
            queue = list(neighbors[i])
            head = 0
            while head < len(queue):
                j = queue[head]
                head += 1
                if labels[j] == -1:
                    labels[j] = cluster  # border point
                if visited[j]:
                    continue
                visited[j] = True
                labels[j] = cluster
                if len(neighbors[j]) >= self.min_samples:
                    queue.extend(neighbors[j])
            cluster += 1
        return labels


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding."""
    n = len(points)
    centers = np.empty((k, points.shape[1]), dtype=points.dtype)
    first = rng.integers(0, n)
    centers[0] = points[first]
    norms = _sq_norms(points)
    closest = _pairwise_sq_dists(points, centers[0:1], block_norms=norms).ravel()
    for c in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[c:] = points[rng.integers(0, n, size=k - c)]
            break
        probs = closest / total
        index = rng.choice(n, p=probs)
        centers[c] = points[index]
        d2 = _pairwise_sq_dists(points, centers[c : c + 1], block_norms=norms).ravel()
        np.minimum(closest, d2, out=closest)
    return centers


def _assign_blockwise(points: np.ndarray, centers: np.ndarray,
                      block_size: int = 8192) -> np.ndarray:
    """argmin-distance assignment computed in row blocks (memory-bounded)."""
    assignments = np.empty(len(points), dtype=np.int64)
    for start in range(0, len(points), block_size):
        block = points[start : start + block_size]
        d2 = _pairwise_sq_dists(block, centers)
        assignments[start : start + len(block)] = d2.argmin(axis=1)
    return assignments


def kmeans(points: np.ndarray, k: int, iterations: int = 25,
           seed: int = 0) -> np.ndarray:
    """Lloyd's k-means; returns per-point center assignments.

    Assignment steps run blockwise, so a 200K x 64 corpus never
    materializes a full distance matrix.
    """
    n = len(points)
    k = min(k, n)
    rng = np.random.default_rng(seed)
    # Seed k-means++ on a sample for large corpora: the seeding pass is
    # O(n*k) distance evaluations and the sample preserves density.
    if n > 50_000:
        sample = points[rng.choice(n, size=20_000, replace=False)]
        centers = _kmeans_pp_init(sample, k, rng)
    else:
        centers = _kmeans_pp_init(points, k, rng)
    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(iterations):
        new_assignments = _assign_blockwise(points, centers)
        if np.array_equal(new_assignments, assignments):
            assignments = new_assignments
            break
        assignments = new_assignments
        sums = np.zeros_like(centers)
        np.add.at(sums, assignments, points)
        counts = np.bincount(assignments, minlength=k).astype(points.dtype)
        occupied = counts > 0
        centers[occupied] = sums[occupied] / counts[occupied, None]
    return assignments


@dataclass
class ClusterStats:
    """Shape of a clustering result."""

    n_clusters: int
    n_noise: int
    sizes: List[int]


class ScalableDensityClusterer:
    """Large-corpus density clustering: k-means -> centroid merge -> prune.

    Parameters
    ----------
    k:
        Over-segmentation target for the k-means stage; ``None`` picks
        ``min(max_k, n // 40 + 8)``.
    merge_eps:
        Centroids within this Euclidean distance are merged (single
        link), re-joining template families k-means split.
    min_cluster_size:
        Merged clusters smaller than this are demoted to noise, like
        HDBSCAN's minimum cluster size.
    refine_min / refine_divisor:
        Clusters of at least ``refine_min`` points are re-clustered with a
        local k-means (``k = size // refine_divisor``) whose sub-centroids
        are then re-merged under ``merge_eps``.  Homogeneous clusters
        survive intact (their sub-centroids merge back together); mixed
        clusters split, letting small template families surface.  Set
        ``refine_min=None`` to disable.
    """

    def __init__(self, k: Optional[int] = None, merge_eps: float = 0.35,
                 min_cluster_size: int = 8, max_k: int = 256, seed: int = 0,
                 refine_min: Optional[int] = 24, refine_divisor: int = 12,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.k = k
        self.merge_eps = merge_eps
        self.min_cluster_size = min_cluster_size
        self.max_k = max_k
        self.seed = seed
        self.refine_min = refine_min
        self.refine_divisor = refine_divisor
        self.telemetry = telemetry or NULL_TELEMETRY

    def fit_predict(self, points: np.ndarray) -> np.ndarray:
        with self.telemetry.tracer.span("nlp.cluster.scalable", n=len(points)):
            return self._fit_predict(points)

    def _fit_predict(self, points: np.ndarray) -> np.ndarray:
        n = len(points)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        k = self.k if self.k is not None else min(self.max_k, n // 40 + 8)
        k = max(1, min(k, n))
        assignments = kmeans(points, k, seed=self.seed)
        centers = np.vstack([
            points[assignments == c].mean(axis=0) if (assignments == c).any()
            else np.full(points.shape[1], np.inf)
            for c in range(k)
        ])
        merged = self._merge_centroids(centers)
        labels = merged[assignments]
        if self.refine_min is not None:
            labels = self._refine(points, labels)
        return self._prune_small(labels)

    def _refine(self, points: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Split heterogeneous clusters; re-merge what belongs together."""
        output = labels.copy()
        next_label = int(labels.max()) + 1 if len(labels) else 0
        for label in np.unique(labels):
            if label < 0:
                continue
            indices = np.nonzero(labels == label)[0]
            if len(indices) < self.refine_min:
                continue
            k = max(2, len(indices) // self.refine_divisor)
            sub = kmeans(points[indices], k, seed=self.seed + int(label) + 1)
            sub_centers = np.vstack([
                points[indices[sub == c]].mean(axis=0) if (sub == c).any()
                else np.full(points.shape[1], np.inf)
                for c in range(k)
            ])
            merged = self._merge_centroids(sub_centers)
            for group in np.unique(merged[sub]):
                members = indices[merged[sub] == group]
                output[members] = next_label
                next_label += 1
        return output

    def _merge_centroids(self, centers: np.ndarray) -> np.ndarray:
        """Union-find single-link merge of centroids within merge_eps.

        Empty clusters are marked by all-inf centroids; distances are
        computed over the finite rows only (inf arithmetic would produce
        NaNs).
        """
        k = len(centers)
        parent = list(range(k))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        finite_indices = np.nonzero(np.isfinite(centers).all(axis=1))[0]
        if len(finite_indices) > 1:
            finite_centers = centers[finite_indices]
            d2 = _pairwise_sq_dists(finite_centers, finite_centers)
            eps2 = self.merge_eps * self.merge_eps
            for a in range(len(finite_indices)):
                for b in range(a + 1, len(finite_indices)):
                    if d2[a, b] <= eps2:
                        ra, rb = find(int(finite_indices[a])), find(int(finite_indices[b]))
                        if ra != rb:
                            parent[rb] = ra
        roots = {}
        mapping = np.empty(k, dtype=np.int64)
        for i in range(k):
            root = find(i)
            if root not in roots:
                roots[root] = len(roots)
            mapping[i] = roots[root]
        return mapping

    def _prune_small(self, labels: np.ndarray) -> np.ndarray:
        """Demote undersized clusters to noise and relabel densely."""
        if len(labels) == 0:
            return labels
        valid = labels >= 0
        if not valid.any():
            return np.full(len(labels), -1, dtype=np.int64)
        counts = np.bincount(labels[valid])
        keep = counts >= self.min_cluster_size
        # Dense relabeling: surviving labels -> 0..k-1, everything else -> -1.
        relabel = np.full(len(counts), -1, dtype=np.int64)
        relabel[keep] = np.arange(int(keep.sum()))
        output = np.full(len(labels), -1, dtype=np.int64)
        output[valid] = relabel[labels[valid]]
        return output


def cluster_stats(labels: np.ndarray) -> ClusterStats:
    """Summarize a label array (-1 = noise)."""
    valid = labels >= 0
    if valid.any():
        counts = np.bincount(labels[valid])
        sizes = sorted((int(c) for c in counts if c > 0), reverse=True)
    else:
        sizes = []
    return ClusterStats(
        n_clusters=len(sizes),
        n_noise=int((labels == -1).sum()),
        sizes=sizes,
    )


__all__ = ["ClusterStats", "DBSCAN", "ScalableDensityClusterer", "cluster_stats", "kmeans"]
