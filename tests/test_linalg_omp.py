"""Unit tests for OMP sparse coding (reference and Batch-OMP)."""

import numpy as np
import pytest

from repro.errors import DictionaryError, ValidationError
from repro.linalg import batch_omp_matrix, batch_omp_solve, omp_solve


@pytest.fixture(scope="module")
def dictionary_and_signals():
    rng = np.random.default_rng(5)
    d = rng.standard_normal((20, 12))
    d /= np.linalg.norm(d, axis=0, keepdims=True)
    coefs = np.zeros((12, 8))
    for j in range(8):
        support = rng.choice(12, size=3, replace=False)
        coefs[support, j] = rng.standard_normal(3)
    signals = d @ coefs
    return d, signals, coefs


class TestOmpSolve:
    def test_exact_recovery_at_zero_eps(self, dictionary_and_signals):
        d, signals, _ = dictionary_and_signals
        for j in range(signals.shape[1]):
            res = omp_solve(d, signals[:, j], eps=0.0)
            assert res.converged
            assert res.residual_norm <= 1e-9 * np.linalg.norm(signals[:, j])

    def test_residual_criterion(self, dictionary_and_signals):
        d, signals, _ = dictionary_and_signals
        res = omp_solve(d, signals[:, 0], eps=0.1)
        assert res.residual_norm <= 0.1 * np.linalg.norm(signals[:, 0]) + 1e-12

    def test_zero_signal(self, dictionary_and_signals):
        d, _, _ = dictionary_and_signals
        res = omp_solve(d, np.zeros(20), eps=0.1)
        assert res.converged and res.support.size == 0

    def test_sparsity_cap(self, dictionary_and_signals):
        d, signals, _ = dictionary_and_signals
        res = omp_solve(d, signals[:, 0], eps=0.0, max_atoms=1)
        assert res.support.size <= 1

    def test_strict_raises_when_infeasible(self, rng):
        # A 1-atom dictionary cannot represent a generic 2-D signal.
        d = np.array([[1.0], [0.0]])
        a = np.array([1.0, 1.0])
        with pytest.raises(DictionaryError):
            omp_solve(d, a, eps=0.01, strict=True)

    def test_non_strict_reports_unconverged(self):
        d = np.array([[1.0], [0.0]])
        res = omp_solve(d, np.array([1.0, 1.0]), eps=0.01)
        assert not res.converged

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            omp_solve(np.ones((3, 2)), np.ones(4), eps=0.1)

    def test_support_has_no_duplicates(self, dictionary_and_signals):
        d, signals, _ = dictionary_and_signals
        res = omp_solve(d, signals[:, 2], eps=0.0)
        assert len(set(res.support.tolist())) == res.support.size


class TestBatchOmpSolve:
    def test_agrees_with_reference(self, dictionary_and_signals):
        d, signals, _ = dictionary_and_signals
        for j in range(signals.shape[1]):
            norm = np.linalg.norm(signals[:, j])
            for eps in (0.0, 0.05, 0.2):
                ref = omp_solve(d, signals[:, j], eps)
                fast = batch_omp_solve(d, signals[:, j], eps)
                assert fast.converged == ref.converged
                # Batch-OMP's residual recurrence is accurate only to
                # ~√ε_machine·‖a‖; compare at that granularity.
                assert fast.residual_norm == pytest.approx(
                    ref.residual_norm, abs=1e-6 * max(norm, 1.0))
                if eps > 0:
                    assert set(fast.support.tolist()) == \
                        set(ref.support.tolist())

    def test_precomputed_gram_reused(self, dictionary_and_signals):
        d, signals, _ = dictionary_and_signals
        gram = d.T @ d
        res = batch_omp_solve(d, signals[:, 1], 0.05, gram=gram,
                              dta=d.T @ signals[:, 1])
        ref = batch_omp_solve(d, signals[:, 1], 0.05)
        assert np.allclose(np.sort(res.support), np.sort(ref.support))

    def test_strict_raises(self):
        d = np.array([[1.0], [0.0]])
        with pytest.raises(DictionaryError):
            batch_omp_solve(d, np.array([1.0, 1.0]), eps=0.01, strict=True)

    def test_zero_signal(self, dictionary_and_signals):
        d, _, _ = dictionary_and_signals
        res = batch_omp_solve(d, np.zeros(20), eps=0.1)
        assert res.converged and res.support.size == 0

    def test_duplicate_atom_banned_not_looped(self):
        # Dictionary with a duplicated atom: OMP must not loop forever.
        d = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        res = batch_omp_solve(d, np.array([2.0, 3.0]), eps=0.0)
        assert res.converged
        assert res.support.size <= 2


class TestBatchOmpMatrix:
    def test_full_matrix_error_bound(self, dictionary_and_signals):
        d, signals, _ = dictionary_and_signals
        eps = 0.05
        c, stats = batch_omp_matrix(d, signals, eps)
        recon = d @ c.to_dense()
        col_errs = np.linalg.norm(signals - recon, axis=0)
        col_norms = np.linalg.norm(signals, axis=0)
        assert np.all(col_errs <= eps * col_norms + 1e-10)
        assert stats.converged_columns == signals.shape[1]
        assert stats.flops > 0

    def test_global_frobenius_bound(self, dictionary_and_signals):
        d, signals, _ = dictionary_and_signals
        eps = 0.1
        c, _ = batch_omp_matrix(d, signals, eps)
        err = np.linalg.norm(signals - d @ c.to_dense())
        assert err <= eps * np.linalg.norm(signals) + 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            batch_omp_matrix(np.ones((3, 2)), np.ones((4, 5)), 0.1)

    def test_c_shape(self, dictionary_and_signals):
        d, signals, _ = dictionary_and_signals
        c, _ = batch_omp_matrix(d, signals, 0.1)
        assert c.shape == (d.shape[1], signals.shape[1])


class TestFlopLedger:
    """The greedy term is quadratic in each column's atom count."""

    def test_greedy_flops_formula(self):
        from repro.linalg.omp import greedy_flops

        l = 50
        assert greedy_flops(l, []) == 0
        assert greedy_flops(l, [0]) == 0
        # k=1: 2·L·1 + 2·1²
        assert greedy_flops(l, [1]) == 2 * l + 2
        # k=1..3: 2·L·(1+2+3) + 2·(1+4+9)
        assert greedy_flops(l, [3]) == 12 * l + 28
        assert greedy_flops(l, [1, 3, 0]) == 14 * l + 30

    def test_ledger_on_known_iteration_counts(self, tmp_path):
        from repro.linalg.parallel_omp import parallel_batch_omp_matrix
        from repro.store import ColumnStore, StreamingEncoder

        rng = np.random.default_rng(21)
        m, l = 64, 96
        d = rng.standard_normal((m, l))
        d /= np.linalg.norm(d, axis=0, keepdims=True)
        atoms = [0, 1, 2, 3, 4, 5, 6, 2]          # per-column atom counts
        c = np.zeros((l, len(atoms)))
        for j, t in enumerate(atoms):
            c[rng.choice(l, size=t, replace=False), j] = 1.0 + rng.random(t)
        a = d @ c
        code, stats = batch_omp_matrix(d, a, 1e-8)
        np.testing.assert_array_equal(np.diff(code.indptr), atoms)
        t = np.array(atoms)
        greedy = int(np.sum(l * t * (t + 1) + t * (t + 1) * (2 * t + 1) // 3))
        assert stats.flops == 2 * m * l * len(atoms) + greedy + 2 * code.nnz
        _, par = parallel_batch_omp_matrix(d, a, 1e-8, workers=2,
                                           chunk_size=3)
        assert par.flops == stats.flops
        # The streaming encoder rebuilds the ledger from the assembled C.
        store = ColumnStore.from_matrix(tmp_path / "s", a, chunk_width=3)
        from repro.core.dictionary import Dictionary

        enc = StreamingEncoder(store, l, 1e-8, normalize=False,
                               dictionary=Dictionary(d, np.arange(l)))
        _, st, _ = enc.run()
        assert st.flops == stats.flops
