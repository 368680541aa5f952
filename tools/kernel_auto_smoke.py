"""Smoke test: ``REPRO_OMP_BACKEND=auto`` without numba installed.

Run as ``REPRO_OMP_BACKEND=auto PYTHONPATH=src python -W error
tools/kernel_auto_smoke.py`` in an environment with **only**
numpy/scipy.  The contract under test (``docs/kernels.md``): ``auto``
must resolve to the built-in default (``panel``) when no compiled
backend is importable — silently.  ``-W error`` turns any stray warning on the
fallback path into a failure, which is why this script must stay
importable and runnable without pytest.
"""

from __future__ import annotations

import os
import sys


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"kernel auto smoke FAILED: {message}")


def main() -> int:
    import numpy as np

    from repro.linalg import batch_omp_matrix, resolve_backend
    from repro.linalg.kernels import BUILTIN_DEFAULT, available_backends

    if "numba" in available_backends():
        print("kernel auto smoke SKIPPED: numba is installed, the "
              "fallback path cannot be exercised here")
        return 0

    check(os.environ.get("REPRO_OMP_BACKEND", "auto") == "auto",
          "run with REPRO_OMP_BACKEND=auto (or unset)")

    resolved = resolve_backend("auto")
    check(resolved.name == BUILTIN_DEFAULT,
          f"auto resolved to {resolved.name!r}, expected "
          f"{BUILTIN_DEFAULT!r}")
    check(resolve_backend().name == BUILTIN_DEFAULT
          if os.environ.get("REPRO_OMP_BACKEND") == "auto" else True,
          f"default resolution under REPRO_OMP_BACKEND=auto was not "
          f"{BUILTIN_DEFAULT}")

    # A small encode through the fallback must be bit-identical to an
    # explicit call on the built-in default, and select the numpy
    # reference's supports.
    rng = np.random.default_rng(0)
    d = rng.standard_normal((24, 16))
    d /= np.linalg.norm(d, axis=0, keepdims=True)
    c = np.zeros((16, 32))
    for j in range(32):
        support = rng.choice(16, size=3, replace=False)
        c[support, j] = rng.standard_normal(3)
    a = d @ c

    c_auto, s_auto = batch_omp_matrix(d, a, eps=0.05, backend="auto")
    c_def, _ = batch_omp_matrix(d, a, eps=0.05, backend=BUILTIN_DEFAULT)
    c_ref, s_ref = batch_omp_matrix(d, a, eps=0.05, backend="numpy")
    check(np.array_equal(c_auto.indptr, c_def.indptr)
          and np.array_equal(c_auto.indices, c_def.indices)
          and np.array_equal(c_auto.data, c_def.data),
          f"auto-fallback encode is not bit-identical to "
          f"backend={BUILTIN_DEFAULT!r}")
    check(np.array_equal(c_auto.indptr, c_ref.indptr)
          and np.array_equal(c_auto.indices, c_ref.indices),
          "auto-fallback supports differ from the numpy reference")
    check(s_auto.total_iterations == s_ref.total_iterations,
          "iteration counts diverged between auto and numpy")
    check(s_ref.converged_columns == s_ref.columns,
          "reference encode did not converge on exact sparse data")

    print(f"kernel auto smoke OK: auto -> {BUILTIN_DEFAULT}, encode "
          f"bit-identical ({s_ref.columns} columns, nnz={c_ref.nnz})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
