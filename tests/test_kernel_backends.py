"""Conformance suite for the pluggable OMP kernel backends.

Every registered backend is held to the documented contract against the
numpy reference (:mod:`repro.linalg.kernels.numpy_ref`):

* **identical atom-selection sequences** on the golden cases, and
* coefficients within ``COEF_RTOL`` / ``COEF_ATOL``.

Backends whose optional dependency is absent (numba in a bare
environment) are skipped with the backend's own ``unavailable_reason``
so the skip is self-explanatory in CI logs.  The suite also pins the
selection precedence (explicit arg > process default > environment
variable > the built-in ``panel``), the end-to-end invariant that
serial, parallel, streaming and serving paths agree under any one
backend, and the ``panel`` kernel's grouping invariance: a column's
bits never depend on the columns it is batched with.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DictionaryError, KernelError
from repro.linalg import batch_omp_matrix
from repro.linalg.kernels import (
    BUILTIN_DEFAULT,
    COEF_ATOL,
    COEF_RTOL,
    OMP_BACKEND_ENV,
    OMPKernelBackend,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
    registered_backend_names,
    resolve_backend,
    set_default_backend,
    use_backend,
)
from repro.linalg import kernels
from repro.linalg.kernels.numpy_ref import NumpyBackend, batch_omp_column
from repro.linalg.parallel_omp import parallel_batch_omp_matrix


def _backend_or_skip(name: str) -> OMPKernelBackend:
    try:
        return get_backend(name)
    except KernelError as exc:
        pytest.skip(f"backend {name!r} unavailable: {exc}")


def _reference_panel(gram, dta, col_sq, eps, max_atoms):
    return [batch_omp_column(gram, dta[:, j], float(col_sq[j]), eps,
                             max_atoms)
            for j in range(dta.shape[1])]


def _golden_cases():
    """Deterministic (dictionary, signals, eps, max_atoms) cases.

    Well-conditioned by construction (random gaussian atoms, exact
    sparse combinations) so the argmax sequence has no ties a compiled
    backend could legitimately break differently.
    """
    cases = []
    rng = np.random.default_rng(42)
    for m, l, n, sparsity, eps, cap in [
        (20, 12, 9, 3, 0.0, None),
        (32, 24, 16, 4, 0.1, None),
        (16, 40, 11, 2, 0.05, None),     # overcomplete
        (24, 16, 8, 5, 0.0, 3),          # max_atoms cap binds
        (12, 8, 5, 2, 0.5, 1),
    ]:
        d = rng.standard_normal((m, l))
        d /= np.linalg.norm(d, axis=0, keepdims=True)
        c = np.zeros((l, n))
        for j in range(n):
            support = rng.choice(l, size=sparsity, replace=False)
            c[support, j] = rng.standard_normal(sparsity)
        a = d @ c
        noise = 0.01 * rng.standard_normal(a.shape) if eps else 0.0
        cases.append((d, a + noise, eps, cap))
    return cases


def _panel_inputs(d, a):
    gram = d.T @ d
    dta = d.T @ a
    col_sq = np.einsum("ij,ij->j", a, a)
    return gram, dta, col_sq


@pytest.mark.parametrize("name", registered_backend_names())
class TestBackendConformance:
    """Contract: supports identical, coefficients within tolerance."""

    def test_golden_cases_match_reference(self, name):
        kernel = _backend_or_skip(name)
        for d, a, eps, cap in _golden_cases():
            gram, dta, col_sq = _panel_inputs(d, a)
            got = kernel.batch_omp_columns(gram, dta, col_sq, eps, cap)
            want = _reference_panel(gram, dta, col_sq, eps, cap)
            assert len(got) == len(want) == a.shape[1]
            for (gs, gc, gr, gi, gok), (ws, wc, wr, wi, wok) in \
                    zip(got, want):
                np.testing.assert_array_equal(
                    np.asarray(gs), np.asarray(ws),
                    err_msg=f"{name}: atom-selection sequence diverged")
                np.testing.assert_allclose(
                    np.asarray(gc), np.asarray(wc),
                    rtol=COEF_RTOL, atol=COEF_ATOL,
                    err_msg=f"{name}: coefficients out of tolerance")
                assert gi == wi
                assert bool(gok) == bool(wok)
                assert gr == pytest.approx(wr, rel=1e-6, abs=1e-12)

    def test_numpy_backend_is_bit_exact(self, name):
        if name != "numpy":
            pytest.skip("bit-exactness is the numpy backend's contract")
        kernel = _backend_or_skip(name)
        for d, a, eps, cap in _golden_cases():
            gram, dta, col_sq = _panel_inputs(d, a)
            got = kernel.batch_omp_columns(gram, dta, col_sq, eps, cap)
            want = _reference_panel(gram, dta, col_sq, eps, cap)
            for (gs, gc, gr, _, _), (ws, wc, wr, _, _) in zip(got, want):
                np.testing.assert_array_equal(gs, ws)
                np.testing.assert_array_equal(gc, wc)
                assert gr == wr

    def test_zero_columns(self, name):
        kernel = _backend_or_skip(name)
        rng = np.random.default_rng(0)
        d = rng.standard_normal((10, 6))
        d /= np.linalg.norm(d, axis=0, keepdims=True)
        a = np.zeros((10, 3))
        gram, dta, col_sq = _panel_inputs(d, a)
        for support, coef, res_sq, it, ok in kernel.batch_omp_columns(
                gram, dta, col_sq, 0.1, None):
            assert np.asarray(support).size == 0
            assert np.asarray(coef).size == 0
            assert res_sq == 0.0 and it == 0 and ok

    def test_dependent_atoms_are_banned(self, name):
        # A dictionary with a duplicated atom: once one copy is
        # selected, the other has zero Cholesky pivot and must be
        # banned, not selected (which would blow up the solve).
        kernel = _backend_or_skip(name)
        rng = np.random.default_rng(3)
        base = rng.standard_normal((12, 4))
        base /= np.linalg.norm(base, axis=0, keepdims=True)
        d = np.concatenate([base, base[:, :2]], axis=1)  # atoms 4,5 dup 0,1
        a = base @ np.array([[1.0], [0.5], [0.25], [0.1]])
        gram, dta, col_sq = _panel_inputs(d, a)
        results = kernel.batch_omp_columns(gram, dta, col_sq, 0.0, None)
        (support, coef, res_sq, it, ok), = results
        support = np.asarray(support)
        # never both copies of a duplicated atom
        assert not ({0, 4} <= set(support.tolist()))
        assert not ({1, 5} <= set(support.tolist()))
        want = _reference_panel(gram, dta, col_sq, 0.0, None)[0]
        np.testing.assert_array_equal(support, np.asarray(want[0]))
        np.testing.assert_allclose(np.asarray(coef), np.asarray(want[1]),
                                   rtol=COEF_RTOL, atol=COEF_ATOL)

    def test_max_atoms_cap(self, name):
        kernel = _backend_or_skip(name)
        d, a, _, _ = _golden_cases()[0]
        gram, dta, col_sq = _panel_inputs(d, a)
        for cap in (0, 1, 2):
            for support, _, _, it, _ in kernel.batch_omp_columns(
                    gram, dta, col_sq, 0.0, cap):
                assert np.asarray(support).size <= cap
                assert it <= cap

    def test_strict_failure_on_smallest_column(self, name):
        # End-to-end: under strict mode the orchestration layer raises
        # for the first failing column, whichever backend ran the panel.
        _backend_or_skip(name)
        d = np.array([[1.0], [0.0]])
        a = np.array([[1.0, 0.5], [1.0, 0.5]])
        with pytest.raises(DictionaryError) as exc:
            batch_omp_matrix(d, a, eps=0.01, strict=True, backend=name)
        assert "eps" in str(exc.value)


class TestSelectionPrecedence:
    def test_default_is_panel(self, monkeypatch):
        monkeypatch.delenv(OMP_BACKEND_ENV, raising=False)
        set_default_backend(None)
        assert BUILTIN_DEFAULT == "panel"
        assert default_backend_name() == "panel"
        assert resolve_backend().name == "panel"

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(OMP_BACKEND_ENV, "numpy")
        set_default_backend(None)
        assert resolve_backend().name == "numpy"
        monkeypatch.setenv(OMP_BACKEND_ENV, "no-such-backend")
        with pytest.raises(KernelError):
            resolve_backend()

    def test_process_default_beats_env(self, monkeypatch):
        monkeypatch.setenv(OMP_BACKEND_ENV, "no-such-backend")
        try:
            assert set_default_backend("numpy") == "numpy"
            assert resolve_backend().name == "numpy"
        finally:
            set_default_backend(None)

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(OMP_BACKEND_ENV, "no-such-backend")
        assert resolve_backend("numpy").name == "numpy"
        assert resolve_backend(NumpyBackend()).name == "numpy"

    def test_auto_degrades_to_builtin_default_without_warning(
            self, monkeypatch):
        monkeypatch.delenv(OMP_BACKEND_ENV, raising=False)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolved = resolve_backend("auto")
        assert isinstance(resolved, OMPKernelBackend)
        if "numba" in available_backends():
            assert resolved.name == "numba"
        else:
            assert resolved.name == BUILTIN_DEFAULT

    def test_unknown_name_raises_kernel_error(self):
        with pytest.raises(KernelError, match="unknown OMP kernel"):
            get_backend("no-such-backend")
        with pytest.raises(KernelError):
            resolve_backend("no-such-backend")
        with pytest.raises(KernelError):
            set_default_backend("no-such-backend")

    def test_unavailable_backend_reports_reason(self):
        class Missing(OMPKernelBackend):
            name = "test-missing"

            @classmethod
            def available(cls):
                return False

            @classmethod
            def unavailable_reason(cls):
                return "its dependency is absent in this test"

        register_backend(Missing)
        try:
            with pytest.raises(KernelError,
                               match="unavailable: its dependency is absent"):
                get_backend("test-missing")
            assert "test-missing" in registered_backend_names()
            assert "test-missing" not in available_backends()
        finally:
            kernels._REGISTRY.pop("test-missing")

    def test_bad_type_raises(self):
        with pytest.raises(KernelError):
            resolve_backend(42)

    def test_use_backend_restores_previous(self, monkeypatch):
        monkeypatch.delenv(OMP_BACKEND_ENV, raising=False)
        set_default_backend(None)
        with use_backend("numpy"):
            assert default_backend_name() == "numpy"
            with use_backend(None):      # no-op nesting
                assert default_backend_name() == "numpy"
        assert default_backend_name() == "panel"  # built-in default
        try:
            set_default_backend("numpy")
            with use_backend("numpy"):
                pass
            assert default_backend_name() == "numpy"
        finally:
            set_default_backend(None)

    def test_register_rejects_reserved_names(self):
        with pytest.raises(KernelError):
            register_backend(type("Bad", (OMPKernelBackend,),
                                  {"name": "auto"}))


@pytest.mark.parametrize("name", registered_backend_names())
class TestEndToEndConsistency:
    """Serial, parallel, streaming and serve paths agree per backend."""

    def test_serial_vs_parallel_identical(self, name, union_data):
        _backend_or_skip(name)
        a, _ = union_data
        rng = np.random.default_rng(9)
        d = rng.standard_normal((a.shape[0], 10))
        d /= np.linalg.norm(d, axis=0, keepdims=True)
        c1, s1 = batch_omp_matrix(d, a, eps=0.4, backend=name)
        c2, s2 = parallel_batch_omp_matrix(d, a, eps=0.4, workers=2,
                                           backend=name)
        np.testing.assert_array_equal(c1.indptr, c2.indptr)
        np.testing.assert_array_equal(c1.indices, c2.indices)
        np.testing.assert_array_equal(c1.data, c2.data)
        assert s1.total_iterations == s2.total_iterations

    def test_streaming_matches_in_memory(self, name, union_data, tmp_path):
        _backend_or_skip(name)
        from repro.store import ColumnStore, StreamingEncoder

        a, _ = union_data
        from repro.core import exd_transform

        store = ColumnStore.from_matrix(tmp_path / "store", a,
                                        chunk_width=37)
        with use_backend(name):
            t_mem, _ = exd_transform(a, 10, 0.4, seed=3)
        enc = StreamingEncoder(store, 10, 0.4, seed=3, backend=name)
        t_str, _, _ = enc.run()
        assert enc.backend == name
        np.testing.assert_array_equal(t_mem.dictionary.atoms,
                                      t_str.dictionary.atoms)
        np.testing.assert_array_equal(t_mem.coefficients.indices,
                                      t_str.coefficients.indices)
        np.testing.assert_array_equal(t_mem.coefficients.data,
                                      t_str.coefficients.data)

    def test_coefficients_meet_eps(self, name, union_data):
        kernel = _backend_or_skip(name)
        a, _ = union_data
        rng = np.random.default_rng(9)
        d = rng.standard_normal((a.shape[0], 12))
        d /= np.linalg.norm(d, axis=0, keepdims=True)
        c, stats = batch_omp_matrix(d, a, eps=0.5, backend=kernel)
        if stats.converged_columns == stats.columns:
            err = np.linalg.norm(a - d @ c.toarray(), axis=0)
            norms = np.linalg.norm(a, axis=0)
            assert np.all(err <= 0.5 * norms + 1e-9)


@pytest.mark.parametrize("name", registered_backend_names())
class TestDictOperatorConformance:
    """Backends see identical (G, DᵀA) whether D arrives as a dense
    array or as a DictOperator whose factor chain is exact — so their
    outputs must be identical too, per backend.
    """

    @staticmethod
    def _exact_operator(m, seed=0):
        from repro.core.dictionary import Dictionary
        from repro.core.fastdict import FastDict, FastFactor

        rng = np.random.default_rng(seed)
        fd = FastDict((FastFactor.diagonal(0.5 + rng.random(m)),
                       FastFactor.permutation(rng.permutation(m))))
        dense = Dictionary(fd.atoms.copy(),
                           np.arange(m, dtype=np.int64))
        return fd, dense

    def test_operator_precompute_matches_dense(self, name):
        _backend_or_skip(name)
        fd, dense = self._exact_operator(24, seed=5)
        rng = np.random.default_rng(6)
        a = fd.atoms @ rng.standard_normal((24, 90))
        a += 0.05 * rng.standard_normal(a.shape)
        c1, s1 = batch_omp_matrix(dense.atoms, a, 0.3, backend=name)
        c2, s2 = batch_omp_matrix(fd, a, 0.3, backend=name)
        np.testing.assert_array_equal(c1.indptr, c2.indptr)
        np.testing.assert_array_equal(c1.indices, c2.indices)
        np.testing.assert_array_equal(c1.data, c2.data)
        assert s1.total_iterations == s2.total_iterations

    def test_operator_serial_vs_parallel(self, name):
        _backend_or_skip(name)
        fd, _ = self._exact_operator(24, seed=7)
        rng = np.random.default_rng(8)
        a = rng.standard_normal((24, 80))
        c1, _ = batch_omp_matrix(fd, a, 0.4, backend=name)
        c2, _ = parallel_batch_omp_matrix(fd, a, 0.4, workers=2,
                                          backend=name)
        np.testing.assert_array_equal(c1.indices, c2.indices)
        np.testing.assert_array_equal(c1.data, c2.data)


def _panel_codes_rows(codes):
    """Per-column ``(support, coefficients, res_sq, iterations)`` bits."""
    return [(codes.support[j, :t].tolist(),
             codes.coefficients[j, :t].tobytes(),
             codes.res_sq[j].tobytes(), int(t))
            for j, t in enumerate(codes.iterations)]


class TestPanelGroupingInvariance:
    """A column's ``panel`` output depends only on ``(G, DᵀA_j, ‖a_j‖²)``.

    Every comparison is bit for bit: the serve micro-batcher, fork-pool
    chunks, SPMD shards and streaming blocks all regroup columns and
    promise identical output.
    """

    @pytest.fixture(scope="class")
    def problem(self):
        from repro.data import union_of_subspaces

        a, _ = union_of_subspaces(48, 256, n_subspaces=6, dim=5,
                                  noise=0.05, seed=4)
        rng = np.random.default_rng(5)
        d = a[:, rng.choice(256, size=96, replace=False)]
        d = d / np.linalg.norm(d, axis=0, keepdims=True)
        return _panel_inputs(d, a)

    @staticmethod
    def _encode(gram, dta, col_sq, cols, eps=0.05, cap=None):
        cols = np.asarray(cols)
        return get_backend("panel").encode_panel(
            gram, dta[:, cols], col_sq[cols], eps, cap)

    def _grouped(self, problem, groups, **kw):
        gram, dta, col_sq = problem
        rows = {}
        for cols in groups:
            for j, row in zip(cols, _panel_codes_rows(
                    self._encode(gram, dta, col_sq, cols, **kw))):
                rows[int(j)] = row
        return [rows[j] for j in range(dta.shape[1])]

    def test_alone_partitions_and_shuffles_match_full_panel(self, problem):
        n = problem[1].shape[1]
        full = self._grouped(problem, [np.arange(n)])
        assert len({row[3] for row in full}) > 2   # supports differ
        assert full == self._grouped(problem, [[j] for j in range(n)])
        rng = np.random.default_rng(7)
        for size in (1, 37, 256):
            perm = rng.permutation(n)
            groups = [perm[lo:lo + size] for lo in range(0, n, size)]
            assert full == self._grouped(problem, groups), size
        assert full == self._grouped(problem, [rng.permutation(n)])

    def test_capacity_growth_leaves_batch_mates_unchanged(self):
        rng = np.random.default_rng(11)
        d = rng.standard_normal((128, 160))
        d /= np.linalg.norm(d, axis=0, keepdims=True)
        c = np.zeros((160, 9))
        for j in range(9):
            k = 20 if j == 4 else 3
            c[rng.choice(160, size=k, replace=False), j] = \
                1.0 + rng.random(k)
        problem = _panel_inputs(d, d @ c)
        kw = {"eps": 1e-7}
        together = self._grouped(problem, [np.arange(9)], **kw)
        alone = self._grouped(problem, [[j] for j in range(9)], **kw)
        assert together == alone
        assert together[4][3] == 20 > 16          # grew past 16 slots
        assert all(row[3] == 3 for j, row in enumerate(together) if j != 4)
        gram, dta, col_sq = problem
        want = _reference_panel(gram, dta, col_sq, 1e-7, None)[4]
        assert together[4][0] == want[0].tolist()

    def test_zero_capped_and_dependent_columns_in_one_batch(self):
        # Atoms 6, 7 duplicate atoms 0, 1: columns built on 0 and 1 hit
        # a zero pivot on the duplicate and must ban it, in the same
        # batch as zero columns and columns that finish early.
        rng = np.random.default_rng(12)
        base = rng.standard_normal((16, 6))
        base /= np.linalg.norm(base, axis=0, keepdims=True)
        d = np.concatenate([base, base[:, :2]], axis=1)
        coef = rng.standard_normal((6, 7))
        coef[:, 2] = 0.0
        coef[2:, 5] = 0.0
        a = base @ coef
        gram, dta, col_sq = _panel_inputs(d, a)
        for cap in (None, 0, 2, 5):
            codes = get_backend("panel").encode_panel(gram, dta, col_sq,
                                                      0.0, cap)
            want = _reference_panel(gram, dta, col_sq, 0.0, cap)
            for j, (support, coefs, res_sq, it, ok) in enumerate(want):
                t = int(codes.iterations[j])
                assert t == it
                assert codes.support[j, :t].tolist() == support.tolist()
                np.testing.assert_allclose(codes.coefficients[j, :t],
                                           coefs, rtol=COEF_RTOL,
                                           atol=COEF_ATOL)
                assert bool(codes.converged[j]) == bool(ok)
                chosen = set(support.tolist())
                assert not ({0, 6} <= chosen or {1, 7} <= chosen)
            assert codes.iterations[2] == 0 and codes.converged[2]
            assert codes.res_sq[2] == 0.0
            problem = (gram, dta, col_sq)
            assert self._grouped(problem, [np.arange(7)], eps=0.0,
                                 cap=cap) == \
                self._grouped(problem, [[j] for j in range(7)], eps=0.0,
                              cap=cap)

    def test_memory_split_changes_no_bit(self, problem, monkeypatch):
        from repro.linalg.kernels import panel_kernel

        n = problem[1].shape[1]
        full = self._grouped(problem, [np.arange(n)], eps=0.01)
        monkeypatch.setattr(panel_kernel, "INITIAL_CAPACITY", 2)
        monkeypatch.setattr(panel_kernel, "U_BUDGET_BYTES", 1 << 16)
        assert full == self._grouped(problem, [np.arange(n)], eps=0.01)
