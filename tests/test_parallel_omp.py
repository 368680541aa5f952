"""Tests for the shared-memory parallel Batch-OMP encoding engine.

The engine's contract is *bit-identical* output: for every worker count
and chunk size, the merged CSC factors and the ``BatchOMPStats`` must
equal the serial path exactly (``data``, ``indices``, ``indptr``, and
every stats field).  These tests pin that contract on random Gaussian
data and on union-of-subspaces data, and cover the Gram cache, the
worker-count resolution, and the parallel dense solver used by the
baselines.
"""

import numpy as np
import pytest

from repro.core.alpha import measure_alpha
from repro.core.dictionary import sample_dictionary
from repro.core.exd import exd_transform
from repro.errors import DictionaryError, ValidationError
from repro.linalg.kernels import BUILTIN_DEFAULT
from repro.linalg.omp import batch_omp_matrix
from repro.linalg.parallel_omp import (
    GRAM_CACHE,
    GramCache,
    _can_fork,
    default_chunk_size,
    fork_map,
    parallel_batch_omp_matrix,
    parallel_least_squares,
    resolve_workers,
)


@pytest.fixture(scope="module")
def gaussian_problem():
    rng = np.random.default_rng(42)
    d = rng.standard_normal((24, 16))
    d /= np.linalg.norm(d, axis=0, keepdims=True)
    coefs = np.zeros((16, 60))
    for j in range(60):
        support = rng.choice(16, size=4, replace=False)
        coefs[support, j] = rng.standard_normal(4)
    a = d @ coefs + 0.01 * rng.standard_normal((24, 60))
    return d, a


@pytest.fixture(scope="module")
def union_problem(union_data):
    a, _model = union_data
    d = sample_dictionary(a, 12, seed=3).atoms
    return d, a


def _assert_identical(serial, candidate):
    c0, s0 = serial
    c1, s1 = candidate
    assert c1.shape == c0.shape
    np.testing.assert_array_equal(c1.indptr, c0.indptr)
    np.testing.assert_array_equal(c1.indices, c0.indices)
    # Bitwise, not approximate: the parallel path must run the exact
    # serial float-op sequence.
    np.testing.assert_array_equal(c1.data, c0.data)
    assert s1.columns == s0.columns
    assert s1.converged_columns == s0.converged_columns
    assert s1.total_iterations == s0.total_iterations
    assert s1.flops == s0.flops
    np.testing.assert_array_equal(s1.converged_mask, s0.converged_mask)


class TestSerialParallelEquality:
    @pytest.mark.parametrize("problem", ["gaussian_problem", "union_problem"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("chunk_size", [None, 1, 7, 13])
    def test_csc_bit_identical(self, problem, workers, chunk_size, request):
        d, a = request.getfixturevalue(problem)
        eps = 0.1
        serial = batch_omp_matrix(d, a, eps)
        par = parallel_batch_omp_matrix(d, a, eps, workers=workers,
                                        chunk_size=chunk_size)
        _assert_identical(serial, par)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_through_batch_omp_matrix_kwarg(self, gaussian_problem, workers):
        d, a = gaussian_problem
        serial = batch_omp_matrix(d, a, 0.05)
        par = batch_omp_matrix(d, a, 0.05, workers=workers)
        _assert_identical(serial, par)

    def test_max_atoms_respected(self, gaussian_problem):
        d, a = gaussian_problem
        serial = batch_omp_matrix(d, a, 0.0, max_atoms=2)
        par = parallel_batch_omp_matrix(d, a, 0.0, max_atoms=2, workers=3)
        _assert_identical(serial, par)
        assert np.max(np.diff(par[0].indptr)) <= 2

    def test_strict_failure_matches_serial(self):
        # One atom cannot code generic 2-D signals: both paths must
        # raise, and the parallel path must report the same message
        # (smallest failing column) regardless of chunking.
        d = np.array([[1.0], [0.0]])
        a = np.array([[1.0, 2.0, 0.5], [1.0, -1.0, 3.0]])
        with pytest.raises(DictionaryError) as serial_exc:
            batch_omp_matrix(d, a, eps=0.01, strict=True)
        with pytest.raises(DictionaryError) as par_exc:
            parallel_batch_omp_matrix(d, a, eps=0.01, strict=True,
                                      workers=2, chunk_size=1)
        assert str(par_exc.value) == str(serial_exc.value)

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            parallel_batch_omp_matrix(np.ones((3, 2)), np.ones((4, 5)), 0.1,
                                      workers=2)

    def test_empty_matrix(self, gaussian_problem):
        d, _ = gaussian_problem
        a = np.empty((24, 0))
        c, stats = parallel_batch_omp_matrix(d, a, 0.1, workers=2)
        assert c.shape == (16, 0) and c.nnz == 0
        assert stats.columns == 0


class TestResolveWorkers:
    def test_none_zero_one_are_serial(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1

    def test_positive_is_literal(self):
        assert resolve_workers(7) == 7

    def test_negative_means_all_cores(self):
        assert resolve_workers(-1) >= 1

    def test_default_chunk_size(self):
        assert default_chunk_size(100, 4) == 7  # ceil(100 / 16)
        assert default_chunk_size(1, 8) == 1
        assert default_chunk_size(0, 4) == 1


class TestGramCache:
    def test_hit_on_same_array(self):
        cache = GramCache()
        d = np.random.default_rng(0).standard_normal((10, 6))
        g1 = cache.get(d)
        g2 = cache.get(d)
        assert g1 is g2
        assert cache.hits == 1 and cache.misses == 1
        np.testing.assert_allclose(g1, d.T @ d)

    def test_distinct_arrays_distinct_entries(self):
        cache = GramCache()
        d1 = np.eye(4)
        d2 = np.eye(4) * 2.0
        cache.get(d1)
        cache.get(d2)
        assert len(cache) == 2 and cache.misses == 2

    def test_weakref_eviction(self):
        cache = GramCache()
        d = np.eye(5)
        cache.get(d)
        assert len(cache) == 1
        del d
        import gc
        gc.collect()
        assert len(cache) == 0

    def test_in_place_mutation_invalidates(self):
        """Regression: K-SVD rewrites atoms of the same array object
        between sweeps; the cache must recompute, not serve the stale
        Gram of the pre-mutation contents."""
        cache = GramCache()
        d = np.eye(4)
        g1 = cache.get(d)
        np.testing.assert_allclose(g1, np.eye(4))
        d[0, 0] = 3.0
        g2 = cache.get(d)
        np.testing.assert_allclose(g2, d.T @ d)
        assert cache.misses == 2
        # And the fresh entry is served on the next unchanged lookup.
        assert cache.get(d) is g2

    def test_lru_bound(self):
        cache = GramCache(max_entries=2)
        keep = [np.eye(3) * i for i in range(1, 5)]
        for d in keep:
            cache.get(d)
        assert len(cache) == 2

    def test_oversized_not_retained(self):
        cache = GramCache(max_bytes=8)   # one float64
        d = np.eye(4)
        g = cache.get(d)
        np.testing.assert_allclose(g, np.eye(4))
        assert len(cache) == 0

    def test_process_cache_used_by_matrix_encode(self, gaussian_problem):
        d, a = gaussian_problem
        GRAM_CACHE.clear()
        batch_omp_matrix(d, a, 0.1)
        misses = GRAM_CACHE.misses
        batch_omp_matrix(d, a, 0.1)
        assert GRAM_CACHE.misses == misses
        assert GRAM_CACHE.hits >= 1


def _backend_probe(shared, payload):
    """Report the kernel a task would resolve, then poison the env.

    With backend pinning every task (and every reused pool worker)
    still resolves the backend the parent chose at ``fork_map`` entry;
    without it the second task re-resolves the poisoned env and raises.
    """
    import os

    from repro.linalg.kernels import resolve_backend

    name = resolve_backend(None).name
    os.environ["REPRO_OMP_BACKEND"] = "no-such-kernel"
    return name


class TestForkMapBackendPinning:
    def test_fallback_path_ignores_env_mutation(self, monkeypatch):
        import os
        monkeypatch.delenv("REPRO_OMP_BACKEND", raising=False)
        try:
            names = fork_map(_backend_probe, range(4), None, workers=1)
        finally:
            os.environ.pop("REPRO_OMP_BACKEND", None)
        assert names == [BUILTIN_DEFAULT] * 4

    def test_fork_pool_path_ignores_env_mutation(self, monkeypatch):
        import os
        if not _can_fork():
            pytest.skip("fork pool unavailable in this process")
        monkeypatch.delenv("REPRO_OMP_BACKEND", raising=False)
        try:
            names = fork_map(_backend_probe, range(6), None, workers=2)
        finally:
            os.environ.pop("REPRO_OMP_BACKEND", None)
        assert names == [BUILTIN_DEFAULT] * 6


class TestParallelLeastSquares:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_matches_serial(self, gaussian_problem, workers):
        d, a = gaussian_problem
        serial = parallel_least_squares(d, a)
        par = parallel_least_squares(d, a, workers=workers, chunk_size=9)
        np.testing.assert_allclose(par, serial, rtol=1e-12, atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            parallel_least_squares(np.ones((3, 2)), np.ones((4, 5)),
                                   workers=2)


class TestWorkersPlumbing:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_exd_transform_identical(self, union_data, workers):
        a, _ = union_data
        t0, s0 = exd_transform(a, 10, 0.2, seed=0)
        t1, s1 = exd_transform(a, 10, 0.2, seed=0, workers=workers)
        np.testing.assert_array_equal(t1.coefficients.data,
                                      t0.coefficients.data)
        np.testing.assert_array_equal(t1.coefficients.indices,
                                      t0.coefficients.indices)
        np.testing.assert_array_equal(t1.coefficients.indptr,
                                      t0.coefficients.indptr)
        assert s1.omp_iterations == s0.omp_iterations

    def test_measure_alpha_identical(self, union_data):
        a, _ = union_data
        e0 = measure_alpha(a, 10, 0.2, trials=3, seed=5)
        e1 = measure_alpha(a, 10, 0.2, trials=3, seed=5, workers=2)
        assert e1.values == e0.values
        assert e1.errors == e0.errors
        assert e1.feasible == e0.feasible


def _double(shared, payload):
    return 2 * payload


class TestForkFallbackCounter:
    def test_second_thread_counts_a_fallback(self):
        import threading

        from repro import observability as obs

        release = threading.Event()
        other = threading.Thread(target=release.wait)
        with obs.observed():
            other.start()
            try:
                assert fork_map(_double, range(4), None, workers=2) == \
                    [0, 2, 4, 6]
                assert obs.REGISTRY.counter("pool.fork_fallbacks") == 1
                # A serial request is not a fallback.
                fork_map(_double, range(4), None, workers=1)
                assert obs.REGISTRY.counter("pool.fork_fallbacks") == 1
                report = obs.collect_report(command="test")
                assert report.to_dict()["metrics"]["counters"][
                    "pool.fork_fallbacks"] == 1
            finally:
                release.set()
                other.join()
