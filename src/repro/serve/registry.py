"""Versioned multi-tenant dictionary registry with atomic hot-swap.

The serving premise of the paper (and of RankMap) is that a fitted
``(D, C)`` is a long-lived asset: the evolve path keeps producing new
dictionary *generations* while old ones are still answering traffic.
The registry holds, per tenant, every loaded generation plus a default
pointer; :meth:`DictionaryRegistry.set_default` switches the pointer
under the registry lock, so in-flight requests that resolved the old
generation finish against it while new requests atomically see the new
one — no request ever observes a half-swapped dictionary.

Loading a generation computes its Gram once and stores it on the
:class:`Generation`, so encodes never look ``G`` up in the process-wide
Gram cache; registering freezes the atom array, so an in-place write
raises instead of serving a stale ``G``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import observability as obs
from repro.core.io import load_transform
from repro.core.transform import TransformedData
from repro.serve.protocol import ServeError

__all__ = ["DictionaryRegistry", "Generation"]


@dataclass
class Generation:
    """One loaded transform generation of a tenant and its ``G = DᵀD``."""

    number: int
    transform: TransformedData
    gram: np.ndarray
    source: str
    loaded_at: float

    def describe(self) -> dict:
        t = self.transform
        tnnz = int(t.dictionary.transform_nnz)
        return {
            "generation": self.number,
            "source": self.source,
            "loaded_at": self.loaded_at,
            "m": t.m,
            "l": t.l,
            "n": t.n,
            "nnz": t.nnz,
            "alpha": t.alpha,
            "eps": t.eps,
            "method": t.method,
            "transform_nnz": tnnz,
            "relative_complexity": tnnz / (t.m * t.l),
        }


@dataclass
class _Tenant:
    generations: dict[int, Generation] = field(default_factory=dict)
    default: int = 0
    next_number: int = 1


class DictionaryRegistry:
    """Thread-safe tenant → generations → default-pointer store."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._tenants: dict[str, _Tenant] = {}

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_transform(self, tenant: str, transform: TransformedData,
                      *, source: str = "inline",
                      set_default: bool = True) -> Generation:
        """Register a fitted transform as the tenant's next generation.

        Computes ``G = DᵀD`` before the generation becomes visible, so
        no request against it pays the ``O(M·L²)`` product, and freezes
        the atom array (``writeable = False``) that ``G`` was built from.
        """
        if not tenant:
            raise ServeError(400, "tenant must be a non-empty string")
        # Routing through the operator builds G from the materialised
        # atoms for any dictionary kind (dense, factored, block).
        gram = transform.dictionary.gram()
        transform.dictionary.atoms.flags.writeable = False
        with self._lock:
            entry = self._tenants.setdefault(tenant, _Tenant())
            number = entry.next_number
            entry.next_number += 1
            gen = Generation(number=number, transform=transform, gram=gram,
                             source=source, loaded_at=time.time())
            entry.generations[number] = gen
            if set_default or entry.default == 0:
                entry.default = number
        obs.inc("serve.generations_loaded")
        return gen

    def load(self, tenant: str, path, *,
             set_default: bool = True) -> Generation:
        """Load a ``save_transform`` archive as a new generation."""
        transform = load_transform(path)
        return self.add_transform(tenant, transform, source=str(path),
                                  set_default=set_default)

    def set_default(self, tenant: str, generation: int) -> Generation:
        """Atomically repoint the tenant's default generation."""
        with self._lock:
            gen = self._resolve_locked(tenant, generation)
            self._tenants[tenant].default = gen.number
        obs.inc("serve.hot_swaps")
        return gen

    def retire(self, tenant: str, generation: int) -> None:
        """Drop a non-default generation (its Gram dies with it once no
        in-flight request references it)."""
        with self._lock:
            entry = self._tenants.get(tenant)
            if entry is None or generation not in entry.generations:
                raise ServeError(
                    404, f"unknown generation {generation} for tenant "
                         f"{tenant!r}")
            if entry.default == generation:
                raise ServeError(
                    409, f"generation {generation} is the default for "
                         f"tenant {tenant!r}; swap the default first")
            del entry.generations[generation]

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def _resolve_locked(self, tenant: str,
                        generation: int | None) -> Generation:
        entry = self._tenants.get(tenant)
        if entry is None or not entry.generations:
            raise ServeError(404, f"unknown tenant {tenant!r}")
        number = entry.default if generation is None else generation
        gen = entry.generations.get(number)
        if gen is None:
            raise ServeError(
                404, f"unknown generation {generation} for tenant "
                     f"{tenant!r}")
        return gen

    def resolve(self, tenant: str,
                generation: int | None = None) -> Generation:
        """The tenant's requested (or default) generation."""
        with self._lock:
            return self._resolve_locked(tenant, generation)

    def tenants(self) -> list[str]:
        """Registered tenant names, sorted."""
        with self._lock:
            return sorted(self._tenants)

    def describe(self) -> dict:
        """JSON document for ``GET /v1/dictionaries``."""
        with self._lock:
            return {
                "tenants": {
                    name: {
                        "default_generation": entry.default,
                        "generations": [
                            entry.generations[k].describe()
                            for k in sorted(entry.generations)
                        ],
                    }
                    for name, entry in sorted(self._tenants.items())
                },
            }
