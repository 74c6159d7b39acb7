"""Live global witness maintenance: the Theorem 6 fold, incrementalized.

:class:`~repro.engine.live.LiveEngine` already incrementalizes the
global *decision* (O(1) pair-checker bumps per update, Theorem 2 flag
reads per query), but until this module every post-update call that
needed the *witness* re-ran the whole Theorem 6 fold from scratch —
the last hot path whose cost scaled with total instance size instead
of update size.

:class:`LiveGlobalWitness` maintains the fold as a **persistent fold
tree** over the join tree of the (acyclic) schema hypergraph.  Each
node owns one bag of the collection and caches

* its **subtree witness** — a bag over the union of the subtree's
  schemas whose marginal on every subtree schema equals that schema's
  bag (computed by folding the children's cached witnesses into the
  node's bag, leaves first; the root's witness is the Theorem 6 global
  witness, because the join tree's connected-subtree property makes
  every fold step a running-intersection step);
* the **fingerprints of its inputs** (the node's bag + each child's
  witness) so an unchanged node is recognized in O(#inputs);
* its witness's maintained **content sum**, so a repaired witness is
  re-fingerprinted by PR 3's O(1) :func:`~repro.engine.fingerprint.
  shift_content` two-term shifts instead of a rescan;
* a bounded **snapshot history** keyed by input fingerprints, so an
  update stream that returns a node's inputs to a previous state (the
  delete-to-zero pattern — :class:`~repro.engine.live.LiveBag` restores
  fingerprints the same way) restores the cached witness instead of
  re-folding.

A single-row update therefore dirties one leaf-to-root path; a refresh
walks only that path, and at each node first tries a **delta repair**:
starting from the cached witness, it replays the inputs' sparse deltas
as marginal "needs" and patches witness rows (removals matched through
a projection index, additions assembled by unifying one needed cell
per input on the overlapping attributes) until every need is zero.
The patched bag's marginals then equal the new inputs *exactly* — by
construction, not by re-verification.  When the greedy patch cannot
close the needs, the delta is too large (``repair_limit``), or the
patch would break the Theorem 6 support bound (the delta invalidated
minimality), the node falls back to recomputing **its own fold only**
(children's cached witnesses are reused), so the blast radius of a
hard update stays one node, not the tree.

Cost per refresh: O(path length x witness support) against the cold
fold's linear northwest-corner steps over every input —
``benchmarks/bench_live_global.py`` measures the streaming speedup.

Concurrency contract: a :class:`LiveGlobalWitness` (like the
:class:`~repro.engine.live.LiveEngine` that owns it) is
**single-owner** — one thread applies updates and queries it; nothing
here is locked, by design.  Cross-thread sharing happens only through
the immutable snapshots and the fingerprint-keyed stores, which carry
their own declared locks (see ``docs/ARCHITECTURE.md``, "Concurrency
contract").
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterable, Sequence

from ..consistency.global_ import GlobalConsistencyResult, fold_step
from ..core.bags import Bag
from ..core.schema import Schema, projection_plan
from ..errors import InconsistentError
from ..hypergraphs.acyclicity import join_tree
from ..hypergraphs.hypergraph import Hypergraph
from . import fingerprint

__all__ = ["LiveGlobalWitness", "repair_fold_witness"]

_UNSET = object()

# Default ceiling on repair work: more positive/negative cells than
# this (or more patch rounds) means the delta is no longer "small" and
# a node recompute is the honest move.
DEFAULT_REPAIR_LIMIT = 64
DEFAULT_SNAPSHOT_HISTORY = 8


def _diff_mults(new: dict, old: dict) -> dict:
    """Sparse signed difference ``new - old`` of two multiplicity maps."""
    diff = {}
    for row, mult in new.items():
        delta = mult - old.get(row, 0)
        if delta:
            diff[row] = delta
    for row, mult in old.items():
        if row not in new:
            diff[row] = -mult
    return diff


def repair_fold_witness(
    mults: dict,
    union_attrs: tuple,
    inputs: Sequence[tuple[tuple, dict]],
    limit: int = DEFAULT_REPAIR_LIMIT,
) -> tuple[dict, dict] | None:
    """Patch a fold-node witness so its marginals track input deltas.

    ``mults`` is the old witness (row -> multiplicity, not mutated);
    ``inputs`` lists ``(input_attrs, delta)`` pairs where ``delta`` is
    the sparse signed change of that input's multiplicity map.  The old
    witness's marginal on each input schema equals the input's *old*
    state (the fold-tree invariant), so after the patch the marginals
    equal the *new* states exactly iff every residual "need" reaches
    zero — which is the success criterion, maintained cell-by-cell, not
    re-verified by a scan.

    Returns ``(new_mults, witness_delta)`` or ``None`` when the greedy
    patch cannot close the needs within ``limit`` rounds (caller falls
    back to re-folding the node).  Removals only ever decrease existing
    multiplicities, so the result is nonnegative by construction.
    """
    plans = [projection_plan(union_attrs, attrs) for attrs, _ in inputs]
    needs: list[dict] = [
        {cell: amount for cell, amount in delta.items() if amount}
        for _, delta in inputs
    ]
    if sum(len(need) for need in needs) > limit:
        return None
    work = dict(mults)
    changed: dict[tuple, int] = {}
    # cell -> live witness rows projecting to it, per input; built
    # lazily on the first removal (insert-only streams never pay it).
    row_index: list[dict | None] = [None for _ in inputs]

    def apply_row(row: tuple, amount: int) -> None:
        work[row] = work.get(row, 0) + amount
        if work[row] == 0:
            del work[row]
        changed[row] = changed.get(row, 0) + amount
        if changed[row] == 0:
            del changed[row]
        for i, plan in enumerate(plans):
            cell = plan(row)
            need = needs[i]
            need[cell] = need.get(cell, 0) - amount
            if need[cell] == 0:
                del need[cell]
            index = row_index[i]
            if index is not None:
                bucket = index.setdefault(cell, set())
                if row in work:
                    bucket.add(row)
                else:
                    bucket.discard(row)

    def index_for(i: int) -> dict:
        index = row_index[i]
        if index is None:
            index = {}
            plan = plans[i]
            for row in work:
                index.setdefault(plan(row), set()).add(row)
            row_index[i] = index
        return index

    for _ in range(limit):
        deficit_at = None
        for i, need in enumerate(needs):
            negative = [cell for cell, amount in need.items() if amount < 0]
            if negative:
                deficit_at = (i, min(negative, key=repr))
                break
        if deficit_at is not None:
            i, cell = deficit_at
            deficit = -needs[i][cell]
            candidates = sorted(
                (row for row in index_for(i).get(cell, ()) if row in work),
                key=repr,
            )
            if not candidates:
                return None  # bookkeeping says impossible; re-fold
            # Prefer rows whose other projections also sit at cells
            # needing removal — they settle several inputs at once.
            row = max(
                candidates[:32],
                key=lambda r: sum(
                    1
                    for j, plan in enumerate(plans)
                    if needs[j].get(plan(r), 0) < 0
                ),
            )
            apply_row(row, -min(work[row], deficit))
            continue
        seeds = [
            i
            for i, need in enumerate(needs)
            if any(amount > 0 for amount in need.values())
        ]
        if not seeds:
            return work, changed  # every need closed: marginals exact
        row = _assemble_row(union_attrs, inputs, plans, needs, seeds[0])
        if row is None:
            return None
        amount = min(
            needs[i][plans[i](row)]
            for i in range(len(inputs))
            if needs[i].get(plans[i](row), 0) > 0
        )
        apply_row(row, amount)
    return None  # round budget exhausted: the delta was not small


def _assemble_row(
    union_attrs: tuple,
    inputs: Sequence[tuple[tuple, dict]],
    plans: Sequence[Callable],
    needs: Sequence[dict],
    seed: int,
) -> tuple | None:
    """Unify one needed cell per input into a full witness row.

    Starts from an input that still has a positive need (``seed``),
    then extends attribute-by-attribute: each later input contributes a
    positive-need cell compatible with the values fixed so far, or —
    when the fixed values already determine its whole cell — that
    forced projection (driving its need negative, which the removal
    phase then settles).  Returns ``None`` when no compatible choice
    exists; the caller falls back to a node re-fold.
    """
    positions = [
        tuple(union_attrs.index(attr) for attr in attrs)
        for attrs, _ in inputs
    ]
    values: list = [_UNSET] * len(union_attrs)
    order = [seed] + [i for i in range(len(inputs)) if i != seed]
    for i in order:
        pos = positions[i]
        compatible = [
            cell
            for cell, amount in needs[i].items()
            if amount > 0
            and all(
                values[p] is _UNSET or values[p] == v
                for p, v in zip(pos, cell)
            )
        ]
        if compatible:
            cell = min(compatible, key=repr)
        elif all(values[p] is not _UNSET for p in pos):
            cell = tuple(values[p] for p in pos)
        else:
            return None
        for p, v in zip(pos, cell):
            values[p] = v
    if any(v is _UNSET for v in values):
        return None  # inputs do not cover the union schema (cannot
        # happen for a fold node; defensive for direct callers)
    return tuple(values)


class _FoldNode:
    """One node of the persistent fold tree (internal)."""

    __slots__ = (
        "index", "slot", "schema", "union_schema", "parent", "children",
        "subtree_slots", "witness", "content", "inputs", "input_fps",
        "delta", "snapshots",
    )

    def __init__(self, index: int, slot: int, schema: Schema) -> None:
        self.index = index
        self.slot = slot  # representative handle slot for this schema
        self.schema = schema
        self.union_schema = schema  # widened to the subtree union
        self.parent = -1
        self.children: list[int] = []
        self.subtree_slots: list[int] = []
        self.witness: Bag | None = None
        self.content = 0  # maintained content sum of the witness rows
        self.inputs: list[Bag] = []  # bag snapshot + child witnesses
        self.input_fps: tuple = ()
        # witness delta of the last refresh (None = not sparse: the
        # parent must diff); consumed by the parent's repair.
        self.delta: dict | None = None
        # input_fps -> (witness, content): the delete-to-zero restore
        # path, bounded like LiveBag's fingerprint history is implicit.
        self.snapshots: OrderedDict[tuple, tuple[Bag, int]] = OrderedDict()


class LiveGlobalWitnessStats:
    """Counters describing how refreshes were served (diagnostics,
    tests, and the benchmark's repair-rate report)."""

    __slots__ = (
        "refreshes", "clean_hits", "node_repairs", "node_recomputes",
        "repair_failures", "bound_failures", "snapshot_restores",
        "nodes_skipped",
    )

    def __init__(self) -> None:
        self.refreshes = 0
        self.clean_hits = 0
        self.node_repairs = 0
        self.node_recomputes = 0
        self.repair_failures = 0
        self.bound_failures = 0
        self.snapshot_restores = 0
        self.nodes_skipped = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class LiveGlobalWitness:
    """A Theorem 6 global witness maintained under live-bag updates.

    Owned by a :class:`~repro.engine.live.LiveEngine`; one instance per
    handle set (the engine keys them by slot set).  ``notify(slot)``
    marks a bag's node dirty in O(1); :meth:`refresh` re-establishes
    the root witness by walking only the dirty leaf-to-root paths.

    The caller must gate :meth:`refresh` on pairwise consistency (the
    engine's O(1) maintained checkers): over an acyclic schema that
    guarantees every fold step succeeds (Theorem 2), so the maintainer
    never discovers inconsistency mid-fold.
    """

    def __init__(
        self,
        engine,
        handles: Iterable,
        repair_limit: int = DEFAULT_REPAIR_LIMIT,
        snapshot_history: int = DEFAULT_SNAPSHOT_HISTORY,
    ) -> None:
        self._engine = engine
        self._handles = list(handles)
        if not self._handles:
            raise InconsistentError("empty collection has no witness schema")
        self.repair_limit = repair_limit
        self.snapshot_history = snapshot_history
        self.stats = LiveGlobalWitnessStats()
        # Pairwise consistency forces equal-schema bags to be equal, so
        # the tree folds one representative per schema (Theorem 6
        # dedupes the same way); every slot still maps to its node so
        # any handle's update dirties the right path.
        by_schema: dict[Schema, _FoldNode] = {}
        self._nodes: list[_FoldNode] = []
        self._slot_nodes: dict[int, int] = {}
        slots = [engine._slots[handle] for handle in self._handles]
        for slot, handle in zip(slots, self._handles):
            node = by_schema.get(handle.schema)
            if node is None:
                node = _FoldNode(len(self._nodes), slot, handle.schema)
                by_schema[handle.schema] = node
                self._nodes.append(node)
            self._slot_nodes[slot] = node.index
        tree = join_tree(
            Hypergraph.from_schemas([n.schema for n in self._nodes])
        )  # raises CyclicSchemaError on a cyclic schema set
        for node, parent in zip(self._nodes, tree.parent):
            node.parent = parent
            if parent >= 0:
                self._nodes[parent].children.append(node.index)
        self._root = tree.root
        # children-first order: parents fold over already-refreshed
        # child witnesses.
        self._order = self._postorder()
        for index in self._order:
            node = self._nodes[index]
            node.children.sort()
            node.subtree_slots = [node.slot]
            for child in node.children:
                node.union_schema = (
                    node.union_schema | self._nodes[child].union_schema
                )
                node.subtree_slots.extend(self._nodes[child].subtree_slots)
        self._dirty: set[int] = set(range(len(self._nodes)))
        self._result: GlobalConsistencyResult | None = None

    # -- topology --------------------------------------------------------

    def _postorder(self) -> list[int]:
        order: list[int] = []
        stack: list[tuple[int, bool]] = [(self._root, False)]
        while stack:
            index, expanded = stack.pop()
            if expanded:
                order.append(index)
                continue
            stack.append((index, True))
            for child in sorted(self._nodes[index].children, reverse=True):
                stack.append((child, False))
        return order

    @property
    def nodes(self) -> int:
        return len(self._nodes)

    @property
    def depth(self) -> int:
        """Longest leaf-to-root path (the per-update refresh length)."""
        depth = {self._root: 1}
        for index in reversed(self._order):  # parents before children
            for child in self._nodes[index].children:
                depth[child] = depth[index] + 1
        return max(depth.values())

    # -- update plumbing -------------------------------------------------

    def tracks_slot(self, slot: int) -> bool:
        return slot in self._slot_nodes

    def notify(self, slot: int) -> None:
        """O(1) dirty marking; the work happens at the next refresh."""
        node = self._slot_nodes.get(slot)
        if node is not None:
            self._dirty.add(node)

    # -- the maintained fold ---------------------------------------------

    def refresh(self) -> GlobalConsistencyResult:
        """Bring the fold tree current and return the root result.

        Precondition: the tracked handles are pairwise consistent (the
        engine checks its maintained flags first).  Walks dirty nodes
        children-first; a node whose input fingerprints are unchanged
        (updates cancelled) stops the propagation early.
        """
        self.stats.refreshes += 1
        if not self._dirty and self._result is not None:
            self.stats.clean_hits += 1
            return self._result
        changed_nodes: set[int] = set()
        root_changed = False
        for index in self._order:
            node = self._nodes[index]
            if index not in self._dirty and not (
                changed_nodes & set(node.children)
            ):
                continue
            if self._refresh_node(node):
                changed_nodes.add(index)
                if index == self._root:
                    root_changed = True
            else:
                self.stats.nodes_skipped += 1
        self._dirty.clear()
        if root_changed or self._result is None:
            self._result = GlobalConsistencyResult(
                True, self._nodes[self._root].witness, "live"
            )
        return self._result

    def witness(self) -> Bag:
        """The maintained global witness (refreshing if necessary)."""
        return self.refresh().witness

    def _refresh_node(self, node: _FoldNode) -> bool:
        """Re-establish one node's witness; True when it changed."""
        bag = self._engine._handles[node.slot].bag()
        children = [self._nodes[child] for child in node.children]
        inputs = [bag] + [child.witness for child in children]
        fps = tuple(fingerprint.of_bag(b) for b in inputs)
        if node.witness is not None and fps == node.input_fps:
            node.delta = {}
            return False
        old = (node.witness, node.content, node.input_fps)
        snapshot = node.snapshots.pop(fps, None)
        if snapshot is not None:
            node.witness, node.content = snapshot
            node.delta = None  # parent falls back to a full diff
            self.stats.snapshot_restores += 1
        elif node.witness is None or not self._repair_node(
            node, inputs, children, fps
        ):
            self._refold_node(node, inputs)
        node.inputs = inputs
        node.input_fps = fps
        for child in children:
            # A child's sparse delta describes the transition this node
            # just absorbed; clear it so a later refresh that skips the
            # child cannot replay it against newer inputs.
            child.delta = None
        if old[0] is not None:
            node.snapshots[old[2]] = (old[0], old[1])
            while len(node.snapshots) > self.snapshot_history:
                node.snapshots.popitem(last=False)
        return True

    def _repair_node(
        self,
        node: _FoldNode,
        inputs: list[Bag],
        children: list[_FoldNode],
        fps: tuple,
    ) -> bool:
        """Try the delta repair; False means the caller must re-fold."""
        deltas = []
        for position, new_input in enumerate(inputs):
            if fps[position] == node.input_fps[position]:
                deltas.append({})  # untouched input: nothing to diff
            elif position > 0 and children[position - 1].delta is not None:
                deltas.append(children[position - 1].delta)
            else:
                deltas.append(
                    _diff_mults(new_input._mults, node.inputs[position]._mults)
                )
        union_attrs = node.union_schema.attrs
        patched = repair_fold_witness(
            node.witness._mults,
            union_attrs,
            [
                (b.schema.attrs, delta)
                for b, delta in zip(inputs, deltas)
            ],
            limit=self.repair_limit,
        )
        if patched is None:
            self.stats.repair_failures += 1
            return False
        work, changed = patched
        bound = sum(
            self._engine._handles[slot].support_size
            for slot in node.subtree_slots
        )
        if len(work) > bound:
            # The delta invalidated minimality (Theorem 6's support
            # bound): re-fold this node with minimal per-step witnesses.
            self.stats.bound_failures += 1
            return False
        content = node.content
        old_mults = node.witness._mults
        for row, delta in changed.items():
            content = fingerprint.shift_content(
                content, row, old_mults.get(row, 0), work.get(row, 0)
            )
        witness = Bag._from_clean(node.union_schema, work)
        fingerprint.seed(
            witness,
            fingerprint.bag_fingerprint(
                fingerprint.of_schema(node.union_schema), content, len(work)
            ),
        )
        node.witness = witness
        node.content = content
        node.delta = changed
        self.stats.node_repairs += 1
        return True

    def _refold_node(self, node: _FoldNode, inputs: list[Bag]) -> None:
        """The node-local cold path: fold the children's cached
        witnesses into the node's bag with minimal per-step witnesses
        (the children themselves are NOT recomputed)."""
        acc = inputs[0]
        for child_witness in inputs[1:]:
            acc = fold_step(acc, child_witness)
        node.witness = acc
        node.content = fingerprint.content_sum(acc._mults.items())
        node.delta = None
        self.stats.node_recomputes += 1
