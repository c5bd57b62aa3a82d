"""Runtime contract mode: the paper's invariants asserted at engine seams.

The query engine's answers rest on a handful of numeric invariants that no
type checker can see:

* ``0 <= φ(o) <= 1`` — presence is an area ratio (Definition 1), the
  count ``c`` of a POI's ``n_p`` grid samples inside the region over
  ``n_p``;
* ``Φ(p) <= |candidates|`` — a flow is a sum of presences over the
  relevant objects, each contributing at most 1 (Definition 2);
* ``area(UR) >= 0`` — quadrature never goes negative (Section 3);
* join upper bounds dominate refined flows — the count-based priorities
  that drive Algorithms 2/5 must never undercut an exact flow, or the
  best-first termination test returns wrong top-k sets (Section 4.2);
* cached == fresh — a memoized region/sample count/interval window must
  agree with a from-scratch recomputation (the cache-coherence
  invariant);
* batched quadrature counts equal the reference ``Region.contains_many``
  count on the same sample grid.

Checks are **off by default** and cost one read of a module flag per call
site.  Set ``REPRO_CONTRACTS=1`` (CI does, for the whole test suite) to
enable them; the flag is read when this module is imported and again by
``set_contracts(None)``.  A violation raises :class:`ContractViolation`, an ``AssertionError``
subclass, naming the invariant and the offending values.

This module deliberately imports nothing from the rest of the package so
every layer (geometry included) can call into it without cycles.
"""

from __future__ import annotations

import math
import os
from typing import Sequence

__all__ = [
    "ContractViolation",
    "check_area",
    "check_cached_value",
    "check_flow",
    "check_presence",
    "check_quadrature",
    "check_region_fingerprint",
    "check_storage_generation",
    "check_upper_bound",
    "check_window",
    "contracts_enabled",
    "set_contracts",
]

_ENV_VAR = "REPRO_CONTRACTS"
_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Absolute slack for quadrature areas.  Presence, flow, bound and cache
#: checks compare exact integer sample counts and need none.
_TOLERANCE = 1e-6


def _env_flag() -> bool:
    return os.environ.get(_ENV_VAR, "").strip().lower() in _TRUTHY


_enabled = _env_flag()


class ContractViolation(AssertionError):
    """A paper invariant did not hold at an engine seam."""


def contracts_enabled() -> bool:
    """Whether contract checks run (the env flag, unless overridden)."""
    return _enabled


def set_contracts(enabled: bool | None) -> None:
    """Force contracts on/off (tests); ``None`` re-reads the env flag."""
    global _enabled
    _enabled = _env_flag() if enabled is None else bool(enabled)


def _fail(message: str) -> None:
    raise ContractViolation(message)


def check_presence(count: int, samples: int, *, where: str = "presence") -> int:
    """Definition 1: ``0 <= φ(o) <= 1``, as ``0 <= c <= n_p``.  Returns ``count``."""
    if contracts_enabled() and not 0 <= count <= samples:
        _fail(f"{where}: {count!r} of {samples} samples, outside [0, 1] (Definition 1)")
    return count


def check_flow(
    total: int, candidate_count: int, samples: int, *, poi_id: object = None
) -> int:
    """Definition 2: ``0 <= Σc <= #candidates · n_p``.  Returns ``total``."""
    if contracts_enabled() and not 0 <= total <= candidate_count * samples:
        label = f"flow of POI {poi_id!r}" if poi_id is not None else "flow"
        _fail(
            f"{label} = {total!r}/{samples} samples is negative or exceeds the "
            f"{candidate_count} candidate objects (Definition 2: each "
            "contributes presence in [0, 1])"
        )
    return total


def check_area(value: float, *, what: str = "region area") -> float:
    """Section 3: region/polygon areas are non-negative.  Returns ``value``."""
    if contracts_enabled() and value < -_TOLERANCE:
        _fail(f"{what} = {value!r} is negative")
    return value


def check_upper_bound(
    upper_bound: int, total: int, samples: int, *, poi_id: object = None
) -> int:
    """Section 4.2: a join priority must dominate the refined flow.

    That is ``total <= upper_bound · samples``.  Returns ``total``.
    """
    if contracts_enabled() and total > upper_bound * samples:
        label = f" of POI {poi_id!r}" if poi_id is not None else ""
        _fail(
            f"refined flow{label} = {total!r}/{samples} samples exceeds its "
            f"count-based upper bound {upper_bound!r}; the best-first join "
            "would terminate with a wrong top-k (Section 4.2)"
        )
    return total


def check_cached_value(
    cached: int, fresh: int, *, what: str = "sample count", key: object = None
) -> int:
    """Cache coherence: a memoized sample count equals its recomputation.

    Returns ``cached``.
    """
    if contracts_enabled() and cached != fresh:
        suffix = f" (key {key!r})" if key is not None else ""
        _fail(
            f"cached {what} {cached!r} != fresh recomputation {fresh!r}{suffix}"
        )
    return cached


def check_quadrature(
    batched: int, reference: int, *, where: str = "presence"
) -> None:
    """Batched quadrature: a sample count equals the reference count.

    ``batched`` is the number of POI grid samples the batched evaluator
    found inside a region; ``reference`` is ``region.contains_many`` summed
    on writable copies of the same grid.  Counts are exact integers, so
    any difference is a lowering or pruning bug, never round-off.
    """
    if contracts_enabled() and batched != reference:
        _fail(
            f"{where}: batched quadrature counted {batched} samples inside, "
            f"the region's contains_many counts {reference}"
        )


def check_region_fingerprint(
    cached_mbr: tuple[float, float, float, float] | None,
    fresh_mbr: tuple[float, float, float, float] | None,
    *,
    key: object = None,
) -> None:
    """PR 1 cache coherence: a memoized region matches a fresh rebuild.

    Regions are compared by their bounding-box fingerprint (``None`` for a
    provably empty region) — cheap, and any construction drift (wrong
    device, wrong budget, stale epoch) moves the box.

    Region-cache keys quantize times to a microsecond (by design: closer
    times share one entry), so a fresh rebuild may differ by up to
    ``v_max * quantum`` meters; the comparison allows that much slack,
    which is still orders of magnitude below any real construction bug.
    """
    if not contracts_enabled():
        return
    if (cached_mbr is None) != (fresh_mbr is None):
        _fail(
            f"cached region {cached_mbr!r} vs fresh rebuild {fresh_mbr!r} "
            f"(one is empty; key {key!r})"
        )
    if cached_mbr is None or fresh_mbr is None:
        return
    if any(
        not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-5)
        for a, b in zip(cached_mbr, fresh_mbr)
    ):
        _fail(
            f"cached region MBR {cached_mbr!r} != fresh rebuild MBR "
            f"{fresh_mbr!r} (key {key!r})"
        )


#: One episode of an interval window as the window check sees it: its
#: region-cache key and its MBR fingerprint.
EpisodeFingerprint = tuple[object, tuple[float, float, float, float] | None]


def check_window(
    cached: Sequence[EpisodeFingerprint],
    fresh: Sequence[EpisodeFingerprint],
    *,
    key: object = None,
) -> None:
    """Window memo coherence: a memoized interval region matches a rebuild.

    A memoized ``UR(o, [t_s, t_e])`` and one built from scratch for the
    same window must list the same episode keys in the same order, and
    each episode's MBR must agree as in :func:`check_region_fingerprint`.
    """
    if not contracts_enabled():
        return
    cached_keys = [episode_key for episode_key, _ in cached]
    fresh_keys = [episode_key for episode_key, _ in fresh]
    if cached_keys != fresh_keys:
        _fail(
            f"memoized window {key!r} has episode keys {cached_keys!r}, "
            f"a fresh build has {fresh_keys!r}"
        )
    for (_, cached_mbr), (_, fresh_mbr) in zip(cached, fresh):
        check_region_fingerprint(cached_mbr, fresh_mbr, key=key)


def check_storage_generation(table_generation: int, backend_generation: int) -> None:
    """PR 8 storage lockstep: the table and its backend agree on history.

    Every live-table mutation is written through to the storage backend
    before the in-memory structures move, each side bumping its own
    monotonic generation counter.  After any persisted mutation (and
    after a completed recovery) the two counters must be equal — a drift
    means a write reached one side only, i.e. the durable store no longer
    describes the table a crash would need to rebuild.
    """
    if contracts_enabled() and table_generation != backend_generation:
        _fail(
            f"live table generation {table_generation} != storage backend "
            f"generation {backend_generation} (a mutation reached only one side)"
        )
