"""Per-run cross-operator setup cache.

One protocol run touches the same circuit templates and switching-network
shapes over and over: every merge chain of length ``n`` garbles the same
``merge_sum_circuit(ell, n)`` template, every OEP over ``n`` wires routes
the same Beneš *topology* (the wire-pair structure depends only on the
size; only the switch settings depend on the permutation).  A
:class:`RunCache` hangs off the :class:`~repro.mpc.context.Context` and
memoises both, so a plan of operators builds each template once per run —
and reports hit/miss statistics that the execution tracer
(:mod:`repro.exec.trace`) surfaces per run.

Cached setup material is *public*: circuit templates and network shapes
depend only on public sizes and bit widths, never on private inputs, so
sharing them across operators leaks nothing and leaves transcripts
byte-identical.

Multi-tenant sharing
--------------------

The storage lives in a :class:`SetupStore`, separable from the
:class:`RunCache` view over it.  A default-constructed ``RunCache``
owns a private store (the single-query behaviour); the serving layer
(:mod:`repro.serve`) instead builds one store per
:class:`~repro.serve.service.QueryService` and hands every tenant
session a ``RunCache(store=shared)`` *view*.  Sharing is safe for the
same reason per-run sharing is safe — the material is a pure function
of public shapes — so a tenant's transcript is byte-identical whether
its store is cold or pre-warmed by another tenant (pinned by
``tests/test_serve.py``).  Hit/miss counters stay on the view, so each
session reports its own cache behaviour; the store serialises its
get-or-build sections with a lock so even non-cooperative interleavings
cannot observe a half-built template.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .circuits.circuit import Circuit
    from .circuits.garbling import GarblePlan

from . import waksman

__all__ = ["SetupStore", "RunCache"]


class SetupStore:
    """Shared storage for public setup material: circuit templates,
    their precompiled garble plans, and Beneš network topologies.

    One store per sharing domain — a single protocol run by default, a
    whole query service in the serving layer.  Views (:class:`RunCache`)
    do the counting; the store only holds material and the lock that
    makes concurrent get-or-build race-free."""

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self.circuits: Dict[Tuple[object, ...], "Circuit"] = {}
        self.topologies: Dict[int, Tuple[waksman.TopologyLayer, ...]] = {}
        self.garble_plans: Dict[int, "GarblePlan"] = {}

    # The cached material is a pure function of public shapes, so a
    # store survives serialisation (durable checkpoints pickle the
    # whole context graph); only the lock is process-local.
    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        del state["lock"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.lock = threading.RLock()

    def sizes(self) -> Dict[str, int]:
        return {
            "circuit_templates": len(self.circuits),
            "topologies": len(self.topologies),
            "garble_plans": len(self.garble_plans),
        }


class RunCache:
    """Memoises circuit templates (keyed ``(gadget, *shape)``) and Beneš
    network topologies (keyed by size) for one protocol run.

    ``store`` selects the sharing domain: omitted, the cache owns a
    private :class:`SetupStore` (one run); passed, the cache is a
    per-session counting view over a store shared with other sessions.
    """

    def __init__(self, store: Optional[SetupStore] = None) -> None:
        self.store = store if store is not None else SetupStore()
        self.circuit_hits = 0
        self.circuit_misses = 0
        self.topology_hits = 0
        self.topology_misses = 0
        self.plan_hits = 0
        self.plan_misses = 0

    # -- garbled-circuit gadget templates --------------------------------

    def circuit(self, builder: Callable[..., "Circuit"], *shape: int) -> "Circuit":
        """The circuit template ``builder(*shape)``, built once per
        store.

        ``builder`` is one of the :mod:`repro.mpc.gadgets` constructors;
        the cache key is ``(gadget name, *shape)`` — e.g.
        ``("merge_sum_circuit", 32, 512)``.
        """
        key: Tuple[object, ...] = (builder.__name__,) + shape
        with self.store.lock:
            if key in self.store.circuits:
                self.circuit_hits += 1
                return self.store.circuits[key]
            self.circuit_misses += 1
            template = builder(*shape)
            self.store.circuits[key] = template
            return template

    def garble_plan(self, circuit: "Circuit") -> "GarblePlan":
        """The precompiled :class:`~repro.mpc.circuits.garbling.GarblePlan`
        for a circuit template, built once per store.

        Keyed by object identity: templates are themselves cached (here
        or in the :mod:`repro.mpc.gadgets` ``lru_cache``), so one template
        object stands for one shape — and the plan keeps the circuit
        alive, so the identity key cannot be recycled while cached.
        """
        from .circuits.garbling import make_garble_plan

        key = id(circuit)
        with self.store.lock:
            plan = self.store.garble_plans.get(key)
            if plan is not None:
                self.plan_hits += 1
                return plan
            self.plan_misses += 1
            plan = make_garble_plan(circuit)
            self.store.garble_plans[key] = plan
            return plan

    # -- Beneš switching networks ----------------------------------------

    def benes_topology(self, n: int) -> Tuple[waksman.TopologyLayer, ...]:
        """The size-``n`` Beneš wire-pair layers (permutation-independent)."""
        with self.store.lock:
            if n in self.store.topologies:
                self.topology_hits += 1
                return self.store.topologies[n]
            self.topology_misses += 1
            topology = waksman.benes_topology(n)
            self.store.topologies[n] = topology
            return topology

    def benes_network(self, perm: Sequence[int]) -> List[waksman.Layer]:
        """Routed network for ``perm``: cached topology zipped with the
        per-permutation switch settings (same output format as
        :func:`repro.mpc.waksman.benes_network`)."""
        return waksman.route(self.benes_topology(len(perm)), perm)

    # -- reporting --------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        sizes = self.store.sizes()
        return {
            "circuit_hits": self.circuit_hits,
            "circuit_misses": self.circuit_misses,
            "circuit_templates": sizes["circuit_templates"],
            "topology_hits": self.topology_hits,
            "topology_misses": self.topology_misses,
            "topologies": sizes["topologies"],
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "garble_plans": sizes["garble_plans"],
        }

    def __repr__(self) -> str:  # pragma: no cover
        s = self.stats()
        return (
            f"RunCache(circuits={s['circuit_templates']} "
            f"hit/miss={s['circuit_hits']}/{s['circuit_misses']}, "
            f"topologies={s['topologies']} "
            f"hit/miss={s['topology_hits']}/{s['topology_misses']})"
        )
