"""Property-based tests on K-means invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.discovery import kmeans


@given(
    st.integers(5, 60),
    st.integers(2, 5),
    st.integers(1, 4),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_kmeans_basic_invariants(n_rows, n_features, n_clusters, seed):
    """Labels are in range, every requested cluster structure is consistent, and
    inertia equals the sum of squared distances to assigned centroids."""
    rng = np.random.default_rng(seed)
    n_clusters = min(n_clusters, n_rows)
    data = rng.standard_normal((n_rows, n_features))
    result = kmeans(data, n_clusters, seed=seed, n_restarts=2)

    assert result.labels.shape == (n_rows,)
    assert result.labels.min() >= 0
    assert result.labels.max() < n_clusters
    assert result.cluster_sizes().sum() == n_rows

    distances = np.sum((data - result.centroids[result.labels]) ** 2, axis=1)
    assert np.isclose(result.inertia, distances.sum(), rtol=1e-6)


@given(
    st.integers(5, 60),
    st.integers(2, 5),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_kmeans_assignment_is_nearest_centroid(n_rows, n_clusters, seed):
    """At convergence each row is closer to its own centroid than to any other."""
    rng = np.random.default_rng(seed)
    n_clusters = min(n_clusters, n_rows)
    data = rng.standard_normal((n_rows, 3))
    result = kmeans(data, n_clusters, seed=seed)
    all_distances = np.linalg.norm(
        data[:, None, :] - result.centroids[None, :, :], axis=2
    )
    own = all_distances[np.arange(n_rows), result.labels]
    assert np.all(own <= all_distances.min(axis=1) + 1e-9)

