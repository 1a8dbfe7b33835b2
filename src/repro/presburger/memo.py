"""Operation memoization for the presburger hot loop.

The footprint computation (relations (2)-(4) of the paper) replays the same
``BasicMap``/``BasicSet`` operations over and over: tile-to-instance maps
are composed with every access of a statement, access maps are rebuilt per
dependence probe, and the autotuner re-runs whole passes over shifted
variants of one constraint system.  Because every presburger value is an
immutable value object, those operations are pure — so results are memoized
here in per-operation tables.

Keys are *structural*: spaces and constraint tuples (whose ``LinExpr``
leaves carry cached hashes and are usually hash-consed), never semantic
equality.  A hit therefore returns the exact object an earlier identical
call produced, which keeps optimizer outputs bit-identical to the uncached
path.

Eviction is *generation-segmented* rather than wholesale: each table keeps
a young and an old generation.  New and recently-hit entries live in the
young generation; when it fills, the old generation (everything not touched
since the previous rotation) is dropped and the young one ages.  An
autotune sweep whose working set exceeds the cap therefore keeps its hot
entries resident instead of periodically losing everything.

Tables marked *spillable* can round-trip through the on-disk compile cache
(:mod:`repro.service.cache`): :func:`snapshot` captures their resident
entries as portable pairs (``LinExpr`` pickles by symbol name, so entries
survive a fresh process with a fresh symbol table) and
:func:`load_snapshot` installs them, marked *warm*.  Hits on warm entries
are counted separately so ``optimize --stats`` can attribute speedups to
cross-process warm-starts.

Hit/miss counts are forwarded to :mod:`repro.obs` (visible
under ``optimize --stats`` as ``presburger.memo.<op>.hit/miss/warm_hit``)
and kept process-wide for :func:`stats`.  Memoization is an optimisation
only, so losing entries — to eviction or a failed spill — is always safe.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .. import obs

#: Sentinel distinguishing "no entry" from a cached ``None``/``False``.
MISS = object()

CAP = 1 << 14

#: Per-table bound on how many entries one :func:`snapshot` captures.
SPILL_LIMIT = 4096

_TABLES: Dict[str, "MemoTable"] = {}


class MemoTable:
    """One bounded memo dict with generational eviction and hit accounting."""

    __slots__ = ("name", "data", "old", "spillable", "hits", "misses",
                 "warm_hits", "evictions", "_warm",
                 "_hit_counter", "_miss_counter", "_warm_counter")

    def __init__(self, name: str, spillable: bool = False):
        self.name = name
        self.data: Dict[Any, Any] = {}  # young generation
        self.old: Dict[Any, Any] = {}   # previous generation
        self.spillable = spillable
        self.hits = 0
        self.misses = 0
        self.warm_hits = 0
        self.evictions = 0
        self._warm: set = set()  # keys installed from a disk snapshot
        self._hit_counter = f"presburger.memo.{name}.hit"
        self._miss_counter = f"presburger.memo.{name}.miss"
        self._warm_counter = f"presburger.memo.{name}.warm_hit"

    def get(self, key):
        """The cached value for ``key``, or :data:`MISS`."""
        value = self.data.get(key, MISS)
        if value is MISS:
            value = self.old.get(key, MISS)
            if value is not MISS:
                # Promote: entries hit since the last rotation survive it.
                del self.old[key]
                self.data[key] = value
        if value is MISS:
            self.misses += 1
            obs.count(self._miss_counter)
        else:
            self.hits += 1
            obs.count(self._hit_counter)
            if key in self._warm:
                self.warm_hits += 1
                obs.count(self._warm_counter)
        return value

    def put(self, key, value):
        data = self.data
        if len(data) >= CAP // 2:
            self._rotate()
            data = self.data
        data[key] = value
        return value

    def _rotate(self) -> None:
        """Age the young generation; drop everything untouched since the
        previous rotation."""
        dropped = self.old
        self.old = self.data
        self.data = {}
        if dropped:
            self.evictions += len(dropped)
            if self._warm:
                self._warm.difference_update(dropped)

    # -- spill / load ------------------------------------------------------

    def snapshot(self, limit: Optional[int] = None) -> List[Tuple[Any, Any]]:
        """Resident entries as portable pairs, hottest (young) first."""
        items = list(self.data.items()) + list(self.old.items())
        if limit is not None:
            items = items[:limit]
        return items

    def load(self, entries: Iterable[Tuple[Any, Any]]) -> int:
        """Install spilled entries (marked warm); never evicts live data."""
        data, old, warm = self.data, self.old, self._warm
        room = CAP // 2
        n = 0
        for key, value in entries:
            if len(data) >= room:
                break
            if key not in data and key not in old:
                data[key] = value
                warm.add(key)
                n += 1
        return n

    def clear(self) -> None:
        self.data.clear()
        self.old.clear()
        self._warm.clear()

    def __len__(self) -> int:
        return len(self.data) + len(self.old)


def table(name: str, spillable: bool = False) -> MemoTable:
    """The (shared) memo table registered under ``name``."""
    t = _TABLES.get(name)
    if t is None:
        t = _TABLES[name] = MemoTable(name, spillable)
    elif spillable:
        t.spillable = True
    return t


def stats() -> Dict[str, Dict[str, int]]:
    """Process-wide per-table hit/miss/size counts."""
    return {
        name: {
            "hits": t.hits,
            "misses": t.misses,
            "warm_hits": t.warm_hits,
            "size": len(t),
            "evictions": t.evictions,
        }
        for name, t in sorted(_TABLES.items())
    }


def snapshot(
    names: Optional[Iterable[str]] = None,
    limit: int = SPILL_LIMIT,
) -> Dict[str, List[Tuple[Any, Any]]]:
    """Portable ``{table: [(key, value), ...]}`` of the spillable tables.

    Everything inside is built from interned strings, ints and presburger
    value objects that pickle by symbol *name*, so a snapshot written by one
    process loads correctly into another process's fresh symbol table.
    """
    wanted = set(names) if names is not None else None
    out: Dict[str, List[Tuple[Any, Any]]] = {}
    for name, t in sorted(_TABLES.items()):
        take = (name in wanted) if wanted is not None else t.spillable
        if take and len(t):
            entries = t.snapshot(limit)
            if entries:
                out[name] = entries
    return out


def load_snapshot(snap: Mapping[str, Iterable[Tuple[Any, Any]]]) -> int:
    """Install a :func:`snapshot` into this process's tables.

    Returns the number of entries installed.  Safe on any well-formed
    snapshot — unknown table names simply create (non-spillable) tables
    that behave like ordinary memos.
    """
    loaded = 0
    for name, entries in snap.items():
        loaded += table(name).load(entries)
    return loaded


def clear_all() -> None:
    """Empty every memo table and the LinExpr intern table.

    Counters are preserved; only cached values are dropped.  Used by tests
    and by benchmarks that need a genuinely cold path.
    """
    from .linexpr import clear_intern_table

    for t in _TABLES.values():
        t.clear()
    clear_intern_table()
