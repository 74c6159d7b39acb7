"""Vectorized columnar kernels: dictionary-encoded arrays under the
marginal, consistency, join, semijoin, and fingerprint paths.

The row kernels in :mod:`repro.engine.kernels` walk Python tuples one
``itemgetter`` call at a time.  This module gives every eligible bag a
**columnar encoding** — per-attribute dictionaries interning values to
dense int codes, the bag stored as int64 code columns plus an int64
multiplicity vector — and rebuilds the hot operations as numpy array
programs:

* **marginals** are sorted-run reductions: project the code columns
  onto the target attributes, view the projected matrix as a fixed-width
  void dtype (byte order chosen so byte comparison equals numeric
  order), argsort once, and ``np.add.reduceat`` the multiplicities over
  the group boundaries;
* **consistency** (Lemma 2(2)) compares the two sides' cached
  common-attribute groupings directly — two array equalities, no
  marginal dicts;
* **bag joins** are group joins: intersect the two sides' sorted group
  keys and expand the matched blocks' cartesian products with
  arange/repeat arithmetic (the emitted union row determines its pair,
  so outputs never collide);
* **semijoins** are membership masks via a binary search of the probe
  side's sorted unique keys;
* **fingerprint content sums** reduce the per-row BLAKE2b terms as four
  32-bit limb columns in one ``sum(axis=0)`` (the terms themselves are
  unchanged, so fingerprints stay identical across backends and
  processes — the shared stores depend on that).

**Interners are global and append-only**: each attribute owns one
value -> code dictionary for the whole process, so codes are comparable
across bags sharing attributes and stay stable as the dictionary grows
(encodings cached on one bag never go stale when another bag interns
new values).

**Encodings are cached per content** : the encoding lives on the bag's
:class:`~repro.engine.index.BagIndex`, and value-equal bags adopt one
index through the fingerprint registry — so the cache is effectively
keyed by content fingerprint, exactly like every other per-bag memo.

**Fallback contract**: every entry point returns ``None`` (or skips
itself) whenever numpy is missing (or ``REPRO_NO_NUMPY`` is set), the
bag is too small to amortize encoding (``MIN_ROWS``), a total
multiplicity exceeds the int64 safety bound (``MAX_TOTAL``, 2**62 — the
arbitrary-precision regime of Section 5 stays on the row kernels), or a
join's mult-product could overflow.  Callers then run the row kernel,
so results are bit-identical either way; the per-operation counters
(:func:`kernel_stats`) record which path served each call.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Sequence

from ..analysis.registry import register_lock, sanitizer_active, shared_state
from ..analysis.sanitizer import freeze_array, freeze_rows
from ..obs import metrics as obs_metrics

if os.environ.get("REPRO_NO_NUMPY"):
    np = None  # forced row-kernel mode (the CI fallback job)
else:
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - exercised via REPRO_NO_NUMPY
        np = None

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.bags import Bag
    from ..core.relations import Relation
    from .kernels import JoinPlan

__all__ = [
    "AVAILABLE",
    "MAX_TOTAL",
    "MIN_ROWS",
    "PortableEncoding",
    "disabled",
    "enabled",
    "export_encoding",
    "import_encoding",
    "kernel_stats",
    "reset_kernel_stats",
    "sum_u128",
    "try_consistent",
    "try_join",
    "try_marginal",
    "try_semijoin",
    "ColumnarDelta",
]

AVAILABLE = np is not None

# Bags smaller than this stay on the row kernels: below it the encoding
# pass costs more than it saves.  Module attribute (read at call time)
# so tests can force the columnar path onto tiny edge-case bags.
MIN_ROWS = 32

# Total-multiplicity ceiling for int64 arithmetic: group sums stay
# under 2**62, and the consistency sums can add two totals without
# overflow.  Bags past it (Section 5's multiplicities-in-binary regime)
# fall back to the row kernels' arbitrary-precision Python ints.
MAX_TOTAL = 1 << 62

# Transient off-switch (benchmark baselines measure the row kernels on
# the same build); nesting-safe.  Plain int: flips happen on the
# benchmark driver thread, not under concurrency.
_disabled = 0

_BIG = ">i8"  # big-endian int64: byte order == numeric order for codes


@contextmanager
def disabled():
    """Force the row kernels while the context is active (baselines)."""
    global _disabled
    _disabled += 1
    try:
        yield
    finally:
        _disabled -= 1


def enabled() -> bool:
    return np is not None and not _disabled


# -- observability ------------------------------------------------------

# Per-operation counters: which path (columnar vs row) served each
# dispatch.  Locked ``repro.obs`` registry counters (exact under free
# threading), read back in the historical flat-dict shape.  Witnesses
# always run the row kernel, so ``columnar_witnesses`` stays 0; the key
# is kept so report shapes do not change.
_STATS_KEYS = (
    "columnar_marginals", "row_marginals",
    "columnar_consistency", "row_consistency",
    "columnar_witnesses", "row_witnesses",
    "columnar_joins", "row_joins",
    "columnar_semijoins", "row_semijoins",
    "columnar_fingerprints", "row_fingerprints",
    "encodings",
)
_COUNTERS = {
    key: obs_metrics.REGISTRY.counter("repro_kernel_" + key)
    for key in _STATS_KEYS
}


def _count(key: str) -> None:
    _COUNTERS[key].inc()


def count_row(op: str) -> None:
    """Record a row-kernel dispatch for ``op`` (call sites report their
    fallbacks here so the counters cover both paths)."""
    _COUNTERS["row_" + op].inc()


def count_columnar(op: str) -> None:
    _COUNTERS["columnar_" + op].inc()


def kernel_stats() -> dict:
    """The process-wide columnar-vs-row dispatch counters plus whether
    the numpy backend is active — the one-line-JSON observability
    payload of ``Engine.kernel_stats()`` / ``repro serve stats``.
    Includes the wire transport counters (lazy import: ``wire``
    imports this module at load time)."""
    out: dict = {"numpy": AVAILABLE}
    for key in _STATS_KEYS:
        out[key] = _COUNTERS[key].value
    from . import wire

    out.update(wire.wire_stats())
    return out


def reset_kernel_stats() -> None:
    """Zero the kernel and wire counters (test/bench isolation) —
    through the registry handles, not bespoke per-module plumbing."""
    for counter in _COUNTERS.values():
        counter.reset()
    from . import wire

    for counter in wire._COUNTERS.values():
        counter.reset()


# -- dictionary encoding ------------------------------------------------


@shared_state("lock", "codes", "values", "_decode", tier="interner")
class _Interner:
    """One attribute's global value -> dense code dictionary.

    Append-only: a value's code never changes once assigned, so cached
    encodings stay valid forever and codes are comparable across every
    bag sharing the attribute.  ``values`` is the inverse table (decode
    side), grown in lockstep.

    Thread-safe for the ThreadExecutor backend: hits read ``codes``
    lock-free, misses intern under ``lock`` with a double-checked
    re-get, and a value lands in ``values`` before its code is
    published so a lock-free reader never sees a code without its
    decode entry.
    """

    __slots__ = ("codes", "values", "lock", "_decode")

    def __init__(self) -> None:
        self.codes: dict = {}
        self.values: list = []
        self.lock = threading.Lock()
        self._decode = None  # object ndarray mirror of values, lazy

    def encode(self, column: Iterable) -> "np.ndarray":
        codes = self.codes
        out = []
        append = out.append
        for value in column:
            code = codes.get(value)
            if code is None:
                with self.lock:
                    code = codes.get(value)
                    if code is None:
                        self.values.append(value)
                        self._decode = None
                        code = codes[value] = len(self.values) - 1
            append(code)
        return np.array(out, dtype=np.int64)

    def decode_array(self) -> "np.ndarray":
        """The values table as an object ndarray (vectorized decode via
        fancy indexing; object dtype so tuple-valued attributes survive
        untouched)."""
        arr = self._decode
        n = len(self.values)
        if arr is None or len(arr) != n:
            with self.lock:
                n = len(self.values)
                arr = np.empty(n, dtype=object)
                arr[:] = self.values[:n]
                self._decode = arr
        return arr


_INTERNERS: dict = {}
_INTERN_LOCK = register_lock(
    "_INTERN_LOCK", threading.Lock(), tier="interner",
    containers=("_INTERNERS",),
)


def _interner(attr) -> _Interner:
    interner = _INTERNERS.get(attr)
    if interner is None:
        with _INTERN_LOCK:
            interner = _INTERNERS.setdefault(attr, _Interner())
    return interner


def interned_values() -> int:
    """How many distinct values this process's interners hold.  They
    only grow, so the process backend retires a worker pool on it."""
    return sum(len(interner.values) for interner in list(_INTERNERS.values()))


# -- the columnar bag ---------------------------------------------------


class _Grouping:
    """One sorted-run reduction of a bag onto some target attributes.

    ``keys``: the distinct composite keys as a sorted void array (or
    ``None`` for the empty target schema — one group holding all rows);
    ``sums``: per-group multiplicity totals; ``order``: row argsort by
    key; ``starts``: group start offsets into ``order``.
    """

    __slots__ = ("keys", "sums", "order", "starts", "positions")

    def __init__(self, keys, sums, order, starts, positions) -> None:
        self.keys = keys
        self.sums = sums
        self.order = order
        self.starts = starts
        self.positions = positions  # column indices of the target attrs


def _void_keys(matrix: "np.ndarray") -> "np.ndarray":
    """Rows of a big-endian int64 (n, k) matrix as one void column whose
    byte comparison equals lexicographic numeric comparison (codes are
    non-negative, so big-endian bytes sort like the ints)."""
    n, k = matrix.shape
    return np.ascontiguousarray(matrix).view(f"V{8 * k}").reshape(n)


class ColumnarBag:
    """The dictionary-encoded twin of one immutable bag's contents.

    ``cols[i]`` holds attribute ``attrs[i]``'s int64 codes; ``mults``
    the (positive) multiplicities; ``rows`` the original value tuples in
    the same row order, so join emission reuses validated tuples
    instead of decoding.  Groupings are cached per target — the Lemma 2
    test and the join reuse one sort.
    """

    __slots__ = ("attrs", "cols", "mults", "rows", "total", "_groupings")

    # Snapshot contract: once an instance is published (cached on an
    # index or returned by ColumnarDelta.snapshot) these are rebound,
    # never mutated in place (RL03; frozen physically under
    # REPRO_SANITIZE).
    FROZEN_FIELDS = ("cols", "mults", "rows")

    def __init__(self, attrs, cols, mults, rows, total) -> None:
        self.attrs = attrs
        self.cols = cols
        self.mults = mults
        self.rows = rows
        self.total = total
        self._groupings: dict = {}

    def grouping(self, target_attrs: tuple) -> _Grouping:
        cached = self._groupings.get(target_attrs)
        if cached is not None:
            return cached
        n = len(self.rows)
        if not target_attrs:
            # The empty target schema: one group holding every row.
            grouping = _Grouping(
                None,
                np.array([self.total], dtype=np.int64),
                np.arange(n, dtype=np.int64),
                np.array([0], dtype=np.int64),
                (),
            )
        else:
            pos = tuple(self.attrs.index(a) for a in target_attrs)
            matrix = np.empty((n, len(pos)), dtype=_BIG)
            for j, p in enumerate(pos):
                matrix[:, j] = self.cols[p]
            keys = _void_keys(matrix)
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
            if n:
                boundary = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1])
                starts = np.concatenate(
                    ([0], boundary + 1)
                ).astype(np.int64)
            else:
                starts = np.empty(0, dtype=np.int64)
            sums = (
                np.add.reduceat(self.mults[order], starts)
                if n
                else np.empty(0, dtype=np.int64)
            )
            grouping = _Grouping(
                sorted_keys[starts], sums, order, starts, pos
            )
        self._groupings[target_attrs] = grouping
        return grouping

    def marginal_table(self, target_attrs: tuple) -> dict[tuple, int]:
        """The Equation (2) marginal as a plain row -> multiplicity dict
        (what :class:`~repro.core.bags.Bag` stores)."""
        grouping = self.grouping(target_attrs)
        if grouping.keys is None:
            return {(): int(grouping.sums[0])} if self.total else {}
        k = len(target_attrs)
        codes = grouping.keys.view(_BIG).reshape(-1, k)
        decoded = [
            _interner(attr).decode_array()[codes[:, j]]
            for j, attr in enumerate(target_attrs)
        ]
        sums = grouping.sums.tolist()
        return dict(zip(zip(*(col.tolist() for col in decoded)), sums))


_INELIGIBLE = object()

# Publication lock for the per-index `_columnar` slot (and the
# `_INELIGIBLE` sentinel): encoding happens *outside* the lock — it may
# acquire interner locks, hence the earlier "columnar" tier — and the
# slot is then published with a double-checked re-read, first encoder
# wins and losers adopt the published value.
_ENCODE_LOCK = register_lock(
    "_ENCODE_LOCK", threading.Lock(), tier="columnar",
    slots=("_columnar",),
)


def _mark_ineligible(index) -> None:
    with _ENCODE_LOCK:
        if index._columnar is None:
            index._columnar = _INELIGIBLE


def _publish(index, encoded):
    """Double-checked publication: install ``encoded`` unless another
    thread won the race, in which case adopt the winner."""
    with _ENCODE_LOCK:
        cached = index._columnar
        if cached is None:
            index._columnar = encoded
            return encoded
    return None if cached is _INELIGIBLE else cached


def _freeze_bag(encoded: ColumnarBag) -> ColumnarBag:
    """Physically freeze a published encoding under REPRO_SANITIZE."""
    if sanitizer_active():
        for col in encoded.cols:
            freeze_array(col)
        freeze_array(encoded.mults)
        encoded.rows = freeze_rows(encoded.rows)
    return encoded


def of_index(index) -> ColumnarBag | None:
    """The cached columnar encoding of a :class:`BagIndex`'s bag, or
    ``None`` when the columnar path does not apply.

    Ineligibility for *structural* reasons (too small, totals past the
    int64 bound) is cached as a sentinel on the index; a transient
    :func:`disabled` context (or missing numpy) is never cached.
    """
    if not enabled():
        return None
    cached = index._columnar
    if cached is not None:
        return None if cached is _INELIGIBLE else cached
    bag = index._bag
    mults = bag._mults
    n = len(mults)
    if n < MIN_ROWS:
        _mark_ineligible(index)
        return None
    total = 0
    for mult in mults.values():  # python ints: overflow-proof audit
        total += mult
    if total > MAX_TOTAL:
        _mark_ineligible(index)
        return None
    encoded = encode_rows(bag._schema.attrs, mults.keys(), mults.values(),
                          n, total)
    return _publish(index, _freeze_bag(encoded))


def adopt_encoding(index, encoded) -> None:
    """Publish a pre-built encoding onto an index (LiveBag.bag() hands
    the snapshot's columnar twin to the snapshot's index)."""
    if encoded is None:
        return
    with _ENCODE_LOCK:
        if index._columnar is None:
            index._columnar = encoded


class PortableEncoding:
    """One bag's columnar contents re-based for another process:
    per-column **local** dictionaries (the distinct values actually
    used) plus int64 code/multiplicity blobs referencing them.  Raw
    interner codes never travel — interners are process-local and
    append-only, so no two processes agree on them."""

    __slots__ = ("attrs", "n", "total", "mults", "columns")

    def __init__(self, attrs, n, total, mults, columns) -> None:
        self.attrs = attrs      # tuple of attribute names
        self.n = n              # support size (rows)
        self.total = total      # multiplicity total (exact Python int)
        self.mults = mults      # bytes: n little-endian int64s
        self.columns = columns  # [(codes bytes, local values list), ...]


def export_encoding(encoded: ColumnarBag) -> PortableEncoding:
    """Re-base a cached encoding onto per-column local dictionaries
    (``np.unique`` orders each column's distinct values by interner
    code; the inverse permutation *is* the local code column)."""
    columns = []
    for attr, col in zip(encoded.attrs, encoded.cols):
        uniq, inverse = np.unique(col, return_inverse=True)
        values = _interner(attr).decode_array()[uniq].tolist()
        columns.append(
            (inverse.astype("<i8", copy=False).tobytes(), values)
        )
    return PortableEncoding(
        encoded.attrs,
        len(encoded.rows),
        encoded.total,
        encoded.mults.astype("<i8", copy=False).tobytes(),
        columns,
    )


def import_encoding(attrs, n, mults_buf, columns):
    """Remap a portable encoding into this process's interners.

    ``columns`` holds ``(codes buffer, local values list)`` per
    attribute; buffers may view shared memory — everything returned
    owns its storage.  Returns ``(rows, mults list, ColumnarBag or
    None)``; the encoding is ``None`` when the bag falls outside the
    columnar envelope (below ``MIN_ROWS``, total past ``MAX_TOTAL``).
    Raises ``ValueError`` on malformed contents (the wire layer wraps
    it); the caller checks ``enabled()``.
    """
    mults = np.frombuffer(mults_buf, dtype="<i8").astype(
        np.int64, copy=True
    )
    if len(mults) != n:
        raise ValueError("multiplicity vector length mismatch")
    if n and int(mults.min()) <= 0:
        raise ValueError("non-positive multiplicity")
    cols = []
    decoded_cols = []
    for attr, (codes_buf, values) in zip(attrs, columns):
        local = np.frombuffer(codes_buf, dtype="<i8")
        if len(local) != n:
            raise ValueError("code column length mismatch")
        if n and (int(local.min()) < 0 or int(local.max()) >= len(values)):
            raise ValueError("dictionary code out of range")
        interner = _interner(attr)
        # the remap table: local code -> this process's interner code;
        # the gather produces an owned int64 column.
        mapping = interner.encode(values)
        codes = mapping[local] if n else np.empty(0, dtype=np.int64)
        cols.append(codes)
        decoded_cols.append(interner.decode_array()[codes])
    if attrs:
        rows = list(zip(*(col.tolist() for col in decoded_cols)))
    else:
        rows = [()] * n
    mult_list = mults.tolist()
    total = sum(mult_list)
    encoded = None
    if n >= MIN_ROWS and total <= MAX_TOTAL:
        encoded = _freeze_bag(
            ColumnarBag(tuple(attrs), cols, mults, rows, total)
        )
    return rows, mult_list, encoded


def encode_rows(attrs, rows, mults, n, total) -> ColumnarBag:
    """Dictionary-encode validated rows into a :class:`ColumnarBag`
    (``rows``/``mults`` are any same-length iterables; the caller has
    verified ``total <= MAX_TOTAL``)."""
    _count("encodings")
    row_list = list(rows)
    cols = [
        _interner(attr).encode([row[i] for row in row_list])
        for i, attr in enumerate(attrs)
    ]
    mult_arr = np.fromiter(mults, dtype=np.int64, count=n)
    return ColumnarBag(attrs, cols, mult_arr, row_list, total)


# -- kernels ------------------------------------------------------------


def try_marginal(index, target_attrs: tuple) -> dict[tuple, int] | None:
    """The columnar marginal table, or ``None`` to fall back."""
    encoded = of_index(index)
    if encoded is None:
        return None
    _count("columnar_marginals")
    return encoded.marginal_table(target_attrs)


def _common_attrs(left: "Bag", right: "Bag") -> tuple:
    return (left._schema & right._schema).attrs


def try_consistent(left: "Bag", right: "Bag") -> bool | None:
    """Lemma 2(2) on the cached groupings: equal distinct common keys
    with equal per-key totals.  ``None`` means fall back."""
    from .index import BagIndex

    el = of_index(BagIndex.of(left))
    if el is None:
        return None
    er = of_index(BagIndex.of(right))
    if er is None:
        return None
    _count("columnar_consistency")
    common = _common_attrs(left, right)
    gl = el.grouping(common)
    gr = er.grouping(common)
    if gl.keys is None:  # empty common schema: totals decide
        return el.total == er.total
    return (
        gl.keys.shape == gr.keys.shape
        and bool(np.array_equal(gl.keys, gr.keys))
        and bool(np.array_equal(gl.sums, gr.sums))
    )


def try_join(left: "Bag", right: "Bag", plan: "JoinPlan"):
    """The columnar bag join table, or ``None`` to fall back.

    A sort-merge group join: intersect the two sides' sorted distinct
    common keys, then expand each matched block's cartesian product
    with arange/repeat arithmetic — multiplicity products come from two
    fancy-indexed gathers and one elementwise multiply.
    """
    from .index import BagIndex

    el = of_index(BagIndex.of(left))
    if el is None:
        return None
    er = of_index(BagIndex.of(right))
    if er is None:
        return None
    if el.total * er.total >= (1 << 63):
        # a single output multiplicity is bounded by (and can reach)
        # the product of two row mults; stay exact via the row path.
        return None
    _count("columnar_joins")
    common = plan.common.attrs
    gl = el.grouping(common)
    gr = er.grouping(common)
    n_l, n_r = len(el.rows), len(er.rows)
    if gl.keys is None:  # disjoint schemas: one all-pairs block
        match_l = np.zeros(1, dtype=np.int64)
        match_r = np.zeros(1, dtype=np.int64)
    else:
        _, match_l, match_r = np.intersect1d(
            gl.keys, gr.keys, assume_unique=True, return_indices=True
        )
        if not len(match_l):
            return {}
    ends_l = np.concatenate((gl.starts[1:], [n_l]))
    ends_r = np.concatenate((gr.starts[1:], [n_r]))
    sizes_l = (ends_l - gl.starts)[match_l]
    sizes_r = (ends_r - gr.starts)[match_r]
    blocks = sizes_l * sizes_r
    offsets = np.concatenate(([0], np.cumsum(blocks)))
    total = int(offsets[-1])
    pos = np.arange(total, dtype=np.int64) - np.repeat(
        offsets[:-1], blocks
    )
    width = np.repeat(sizes_r, blocks)
    in_l = pos // width
    in_r = pos - in_l * width
    lrows = gl.order[np.repeat(gl.starts[match_l], blocks) + in_l]
    rrows = gr.order[np.repeat(gr.starts[match_r], blocks) + in_r]
    prods = el.mults[lrows] * er.mults[rrows]
    emit = plan.emit
    left_rows, right_rows = el.rows, er.rows
    # The union row determines its (left, right) pair, so emissions
    # never collide and no addition pass is needed.
    return {
        emit(left_rows[i] + right_rows[j]): mult
        for i, j, mult in zip(
            lrows.tolist(), rrows.tolist(), prods.tolist()
        )
    }


# -- relations (set semantics) -----------------------------------------


class ColumnarRelation:
    """Code columns + cached sorted key arrays for one immutable
    :class:`Relation` — just enough structure for membership masks."""

    __slots__ = ("attrs", "cols", "rows", "_keys", "_key_sets")

    FROZEN_FIELDS = ("cols", "rows")

    def __init__(self, attrs, cols, rows) -> None:
        self.attrs = attrs
        self.cols = cols
        self.rows = rows
        self._keys: dict = {}      # target attrs -> per-row void keys
        self._key_sets: dict = {}  # target attrs -> sorted unique keys

    def keys(self, target_attrs: tuple) -> "np.ndarray":
        cached = self._keys.get(target_attrs)
        if cached is None:
            pos = tuple(self.attrs.index(a) for a in target_attrs)
            matrix = np.empty((len(self.rows), len(pos)), dtype=_BIG)
            for j, p in enumerate(pos):
                matrix[:, j] = self.cols[p]
            cached = _void_keys(matrix)
            self._keys[target_attrs] = cached
        return cached

    def key_set(self, target_attrs: tuple) -> "np.ndarray":
        cached = self._key_sets.get(target_attrs)
        if cached is None:
            cached = np.unique(self.keys(target_attrs))
            self._key_sets[target_attrs] = cached
        return cached


def of_relation_index(index) -> ColumnarRelation | None:
    """The cached columnar encoding of a :class:`RelationIndex`'s
    relation (same eligibility/caching contract as :func:`of_index`)."""
    if not enabled():
        return None
    cached = index._columnar
    if cached is not None:
        return None if cached is _INELIGIBLE else cached
    relation = index._relation
    rows = relation._rows
    if len(rows) < MIN_ROWS:
        _mark_ineligible(index)
        return None
    _count("encodings")
    row_list = list(rows)
    attrs = relation._schema.attrs
    cols = [
        _interner(attr).encode([row[i] for row in row_list])
        for i, attr in enumerate(attrs)
    ]
    encoded = ColumnarRelation(attrs, cols, row_list)
    if sanitizer_active():
        for col in encoded.cols:
            freeze_array(col)
        encoded.rows = freeze_rows(encoded.rows)
    return _publish(index, encoded)


def try_semijoin(r: "Relation", s: "Relation") -> list | None:
    """The semijoin filter r |>< s as a membership mask (binary search
    of the probe side's cached sorted unique keys), or ``None`` when
    either side is ineligible."""
    from .index import RelationIndex

    er = of_relation_index(RelationIndex.of(r))
    if er is None:
        return None
    es = of_relation_index(RelationIndex.of(s))
    if es is None:
        return None
    _count("columnar_semijoins")
    common = (r._schema & s._schema).attrs
    if not common:
        return list(er.rows) if len(es.rows) else []
    keys = er.keys(common)
    allowed = es.key_set(common)
    if not len(allowed):
        return []
    idx = np.searchsorted(allowed, keys)
    idx_clipped = np.minimum(idx, len(allowed) - 1)
    mask = allowed[idx_clipped] == keys
    rows = er.rows
    return [rows[i] for i in np.flatnonzero(mask).tolist()]


# -- fingerprints -------------------------------------------------------


def sum_u128(terms: Sequence[int]) -> int:
    """The commutative mod-2**128 sum of row terms as one array
    reduction: split each 128-bit term into four little-endian 32-bit
    limbs, sum the limb columns in uint64 (exact for fewer than 2**31
    terms), and recombine with carries folded in by the shifts."""
    buf = b"".join(term.to_bytes(16, "little") for term in terms)
    limbs = np.frombuffer(buf, dtype="<u4").reshape(-1, 4)
    sums = limbs.sum(axis=0, dtype=np.uint64)
    total = 0
    for limb in range(3, -1, -1):
        total = (total << 32) + int(sums[limb])
    return total & ((1 << 128) - 1)


# -- live deltas --------------------------------------------------------


class ColumnarDelta:
    """Batched columnar maintenance for one mutable
    :class:`~repro.engine.live.LiveBag`.

    Row updates land as O(1) bookkeeping — multiplicity adjustments
    write straight into the mult vector (copy-on-write when a snapshot
    shares it), inserts stage in a pending dict — and
    :meth:`snapshot` materializes them in batch: staged rows are
    encoded and appended via array concatenation, and rows deleted to
    zero are masked out (with a full compaction once more than a
    quarter of the array is dead, so storage tracks the live size).

    Totals past ``MAX_TOTAL`` disable the delta permanently (the handle
    simply stays on the row kernels); handles smaller than ``MIN_ROWS``
    stay pending-only and cost nothing.
    """

    __slots__ = (
        "attrs", "cols", "mults", "rows", "loc", "dead", "total",
        "pending", "_shared", "disabled",
    )

    # `rows` may alias a live snapshot's list (the `_shared` branch of
    # snapshot()): rebind only, never extend/append in place (RL03 —
    # the PR 6 aliasing bug).  `mults` is *copy-on-write* instead
    # (update() clones before writing while shared), so it is
    # deliberately not declared frozen.
    FROZEN_FIELDS = ("rows",)

    def __init__(self, attrs, mults: dict) -> None:
        self.attrs = attrs
        self.cols: list = []
        self.mults = None
        self.rows: list = []
        self.loc: dict = {}
        self.dead = 0
        self.pending: dict = dict(mults)
        self._shared = False
        self.disabled = np is None
        total = 0
        for mult in mults.values():
            total += mult
        self.total = total
        if total > MAX_TOTAL:
            self._disable()

    def _disable(self) -> None:
        self.disabled = True
        self.cols = []
        self.mults = None
        self.rows = []
        self.loc = {}
        self.pending = {}

    def update(self, row: tuple, new: int) -> None:
        """Record ``row`` now having multiplicity ``new`` (0 = gone)."""
        if self.disabled:
            return
        index = self.loc.get(row)
        if index is None:
            old = self.pending.get(row, 0)
        else:
            old = int(self.mults[index])
        self.total += new - old
        if self.total > MAX_TOTAL:
            self._disable()
            return
        if index is None:
            if new:
                self.pending[row] = new
            else:
                self.pending.pop(row, None)
            return
        if self._shared:
            # a live snapshot aliases the mult vector; never mutate it
            self.mults = self.mults.copy()
            self._shared = False
        if new == 0 and old:
            self.dead += 1
        elif old == 0 and new:
            self.dead -= 1
        self.mults[index] = new

    def _materialize(self) -> None:
        if not self.pending:
            return
        fresh = self.pending
        self.pending = {}
        n = len(fresh)
        encoded = encode_rows(
            self.attrs, fresh.keys(), fresh.values(), n, 0
        )
        base = len(self.rows)
        if base:
            self.cols = [
                np.concatenate((old, new))
                for old, new in zip(self.cols, encoded.cols)
            ]
            self.mults = np.concatenate((self.mults, encoded.mults))
        else:
            self.cols = encoded.cols
            self.mults = encoded.mults
        self._shared = False
        # rebind, never extend in place: a live snapshot may alias rows
        self.rows = self.rows + encoded.rows
        for offset, row in enumerate(encoded.rows):
            self.loc[row] = base + offset

    def _compact(self) -> None:
        keep = self.mults > 0
        self.cols = [col[keep] for col in self.cols]
        self.mults = self.mults[keep]
        self._shared = False
        kept_rows = [
            row for row, alive in zip(self.rows, keep.tolist()) if alive
        ]
        self.rows = kept_rows
        self.loc = {row: i for i, row in enumerate(kept_rows)}
        self.dead = 0

    def snapshot(self) -> ColumnarBag | None:
        """The current contents as a :class:`ColumnarBag` for the
        handle's immutable snapshot, or ``None`` (stay on row kernels)."""
        if self.disabled or not enabled():
            return None
        live = len(self.loc) - self.dead + len(self.pending)
        if live < MIN_ROWS:
            return None
        self._materialize()
        if self.dead > max(64, len(self.rows) // 4):
            self._compact()
        if self.dead:
            keep = self.mults > 0
            cols = [col[keep] for col in self.cols]
            mults = self.mults[keep]
            rows = [
                row for row, alive in zip(self.rows, keep.tolist())
                if alive
            ]
        else:
            self._shared = True
            if sanitizer_active():
                # the snapshot aliases our arrays/rows from here on:
                # freeze them so any in-place write (ours or the
                # snapshot's) trips instead of corrupting silently.
                # update() copies `mults` before writing while shared,
                # and a .copy() of a frozen array is writable again.
                self.cols = [freeze_array(col) for col in self.cols]
                self.mults = freeze_array(self.mults)
                self.rows = freeze_rows(self.rows)
            cols, mults, rows = self.cols, self.mults, self.rows
        return _freeze_bag(
            ColumnarBag(self.attrs, cols, mults, rows, self.total)
        )
