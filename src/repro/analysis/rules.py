"""The lint rules: one AST pass per module over declared invariants.

Rules (severity in parentheses):

* **RL01** unguarded-shared-mutation (error) — a write to a field
  declared by ``@shared_state`` (or to a slot/container declared by
  ``register_lock``) outside a ``with <lock>:`` block in the enclosing
  function.  ``__init__`` bodies and ``@requires_lock`` methods are
  exempt; the lock match is by terminal name (``self._lock``,
  ``engine._lock`` and ``_POOL_LOCK`` all match their declarations),
  a deliberate static under-approximation whose gaps the runtime
  sanitizer covers.
* **RL02** identity-cache-key (error) — keying a cache reachable from
  an attribute (``self._cache[id(bag)]``, ``store.get((tag, id(b)))``)
  by object identity instead of content fingerprints.  Ephemeral
  *local* id-keyed dicts are legal (the live engine uses one inside a
  single call) — the rule only fires when the receiver is an attribute,
  i.e. state that outlives the frame.
* **RL03** snapshot-mutation (error) — in-place
  ``append``/``extend``/``+=``/``setitem`` on a ``FROZEN_FIELDS``
  field.  Class-scoped for ``self.<field>`` writes; name-based for
  other receivers (``delta.rows.extend(...)``).  Rebinding
  (``self.rows = self.rows + new``) is the sanctioned idiom and never
  flagged.
* **RL04** invalidation-completeness (warning) — a function that
  mutates a ``_mults`` multiplicity map in place without a reachable
  call to any maintenance hook (``invalidate`` / ``flush`` /
  ``clear`` ...): the shape of a cache left stale by a direct
  mutation.
* **RL05** lock-order (error) — a ``with`` acquiring a lock of an
  *earlier* tier while one of a later tier is held, inverting the
  declared ``engine -> store -> obs`` order.  Only statically-resolvable
  locks participate (named locks and ``self.<lock>`` of a registered
  class).

Suppression: a ``# repro-lint: disable=RL01`` (or ``disable=all``)
comment on the flagged line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .registry import LOCK_ORDER

__all__ = ["Finding", "ModuleChecker", "SEVERITY"]

SEVERITY = {
    "RL01": "error",
    "RL02": "error",
    "RL03": "error",
    "RL04": "warning",
    "RL05": "error",
}

_MUTATORS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "clear", "remove", "discard", "sort", "reverse",
    "move_to_end", "difference_update", "intersection_update",
    "symmetric_difference_update",
})

# Calls that count as invalidation/maintenance for RL04.
_RL04_HOOKS = frozenset({
    "invalidate", "invalidate_fp", "flush", "_flush_locked", "clear",
})

_RL04_EXEMPT_FUNCS = frozenset({"__init__", "__new__", "_from_clean"})


@dataclass(frozen=True)
class Finding:
    rule: str
    path: str
    line: int
    scope: str
    detail: str
    message: str

    @property
    def severity(self) -> str:
        return SEVERITY[self.rule]

    @property
    def key(self) -> str:
        """Line-number-free identity used by the baseline file, so
        grandfathered findings survive unrelated edits above them."""
        return f"{self.rule}:{self.path}:{self.scope}:{self.detail}"

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: {self.rule} [{self.severity}] "
            f"{self.message}"
        )


def _terminal(expr: ast.expr) -> str | None:
    """The terminal identifier of a Name/Attribute chain, else None."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _chain(expr: ast.expr) -> tuple[str, ...] | None:
    """``self.stats.evictions`` -> ("self", "stats", "evictions");
    None for chains not rooted at a plain name."""
    parts: list[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        parts.append(expr.id)
        parts.reverse()
        return tuple(parts)
    return None


def _contains_id_call(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "id"
        ):
            return True
    return False


class _FuncCtx:
    """Per-function state: name, exemptions, RL04 accumulation."""

    __slots__ = ("name", "is_init", "held_at_entry", "mults_mutations",
                 "has_hook")

    def __init__(self, name: str, is_init: bool, held_at_entry: tuple):
        self.name = name
        self.is_init = is_init
        self.held_at_entry = held_at_entry
        self.mults_mutations: list[int] = []
        self.has_hook = False


class ModuleChecker(ast.NodeVisitor):
    """Run every rule over one parsed module.

    ``static_registry`` is a :class:`repro.analysis.linter.StaticRegistry`
    collected by AST from the same file set — the checker never imports
    the code under analysis.
    """

    def __init__(self, path: str, tree: ast.Module, source_lines: list[str],
                 static_registry) -> None:
        self.path = path
        self.tree = tree
        self.lines = source_lines
        self.reg = static_registry
        self.findings: list[Finding] = []
        self._class_stack: list[str] = []
        self._func_stack: list[_FuncCtx] = []
        # (terminal lock name, tier-or-None) for each enclosing with
        self._held: list[tuple[str, str | None]] = []

    # -- plumbing --------------------------------------------------------

    def run(self) -> list[Finding]:
        self.visit(self.tree)
        return [f for f in self.findings if not self._suppressed(f)]

    def _suppressed(self, finding: Finding) -> bool:
        if 1 <= finding.line <= len(self.lines):
            text = self.lines[finding.line - 1]
            if "repro-lint:" in text:
                directive = text.split("repro-lint:", 1)[1]
                if "disable=" in directive:
                    rules = directive.split("disable=", 1)[1].split()[0]
                    names = {r.strip() for r in rules.split(",")}
                    return "all" in names or finding.rule in names
        return False

    def _scope(self) -> str:
        parts = list(self._class_stack)
        parts.extend(ctx.name for ctx in self._func_stack)
        return ".".join(parts) if parts else "<module>"

    def _emit(self, rule: str, node: ast.AST, detail: str, message: str):
        self.findings.append(Finding(
            rule=rule,
            path=self.path,
            line=getattr(node, "lineno", 1),
            scope=self._scope(),
            detail=detail,
            message=message,
        ))

    def _held_names(self) -> set[str]:
        names = {name for name, _ in self._held}
        if self._func_stack:
            names.update(self._func_stack[-1].held_at_entry)
        return names

    def _in_function(self) -> bool:
        return bool(self._func_stack)

    def _current_spec(self):
        """The @shared_state spec of the innermost enclosing class."""
        if self._class_stack:
            return self.reg.classes.get(self._class_stack[-1])
        return None

    def _init_exempt(self) -> bool:
        return bool(self._func_stack) and self._func_stack[-1].is_init

    # -- structure visitors ----------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_func(self, node) -> None:
        held: tuple = ()
        spec = self._current_spec()
        for deco in node.decorator_list:
            if isinstance(deco, ast.Call) and _terminal(deco.func) == \
                    "requires_lock":
                if deco.args and isinstance(deco.args[0], ast.Constant):
                    held = (str(deco.args[0].value),)
                elif spec is not None:
                    held = (spec.lock_attr,)
        is_init = node.name in ("__init__", "__new__")
        ctx = _FuncCtx(node.name, is_init, held)
        self._func_stack.append(ctx)
        self.generic_visit(node)
        self._func_stack.pop()
        if (
            ctx.mults_mutations
            and not ctx.has_hook
            and node.name not in _RL04_EXEMPT_FUNCS
        ):
            line = ctx.mults_mutations[0]
            self.findings.append(Finding(
                rule="RL04",
                path=self.path,
                line=line,
                scope=self._scope() + "." + node.name
                if self._scope() != "<module>" else node.name,
                detail=f"{node.name}._mults",
                message=(
                    f"{node.name}() mutates a _mults map with no "
                    "reachable invalidate/flush call"
                ),
            ))

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_With(self, node: ast.With) -> None:
        acquired: list[tuple[str, str | None]] = []
        for item in node.items:
            name = _terminal(item.context_expr)
            if name is None:
                continue
            tier = self._lock_tier(item.context_expr, name)
            # RL05: acquiring an earlier tier under a later one
            if tier is not None:
                order = LOCK_ORDER.index(tier)
                for held_name, held_tier in self._held:
                    if held_tier is not None and \
                            LOCK_ORDER.index(held_tier) > order:
                        self._emit(
                            "RL05", node, f"{held_name}->{name}",
                            f"lock-order inversion: acquiring "
                            f"{name!r} (tier {tier!r}) while holding "
                            f"{held_name!r} (tier {held_tier!r}); "
                            f"declared order is {'->'.join(LOCK_ORDER)}",
                        )
            acquired.append((name, tier))
        self._held.extend(acquired)
        self.generic_visit(node)
        del self._held[len(self._held) - len(acquired):]

    visit_AsyncWith = visit_With

    def _lock_tier(self, expr: ast.expr, name: str) -> str | None:
        lock = self.reg.named_locks.get(name)
        if isinstance(expr, ast.Name) and lock is not None:
            return lock.tier
        chain = _chain(expr)
        if chain is not None and len(chain) == 2 and chain[0] == "self":
            spec = self._current_spec()
            if spec is not None and spec.lock_attr == name:
                return spec.tier
        return None

    # -- write-site visitors ---------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_bind(target, node)
        # RL02: dict display keyed by id() bound to an attribute
        if isinstance(node.value, ast.Dict) and any(
            isinstance(t, ast.Attribute) for t in node.targets
        ):
            for key in node.value.keys:
                if key is not None and _contains_id_call(key):
                    self._emit(
                        "RL02", node, "id-keyed-dict",
                        "cache keyed by id(...) — key on content "
                        "fingerprints instead",
                    )
                    break
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_bind(node.target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_bind(node.target, node, inplace=True)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if not isinstance(target, ast.Subscript):
                # subscript deletions are item mutations, reported by
                # visit_Subscript (Del context)
                self._check_bind(target, node)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self._check_mutation(node.value, node)
        # RL02: id() inside the key of an attribute-receiver subscript
        if isinstance(node.value, ast.Attribute) and \
                _contains_id_call(node.slice):
            self._emit(
                "RL02", node, f"{node.value.attr}[id()]",
                f"cache {node.value.attr!r} keyed by id(...) — key on "
                "content fingerprints instead",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = _terminal(func)
        if self._func_stack and name in _RL04_HOOKS:
            self._func_stack[-1].has_hook = True
        if isinstance(func, ast.Attribute):
            if func.attr in _MUTATORS:
                self._check_mutation(func.value, node)
            # RL02: id() in the probe key of an attribute-receiver
            # .get/.setdefault/.pop
            if (
                func.attr in ("get", "setdefault", "pop")
                and isinstance(func.value, ast.Attribute)
                and node.args
                and _contains_id_call(node.args[0])
            ):
                self._emit(
                    "RL02", node, f"{func.value.attr}.{func.attr}(id())",
                    f"cache {func.value.attr!r} probed by id(...) — key "
                    "on content fingerprints instead",
                )
        self.generic_visit(node)

    # -- the shared write logic ------------------------------------------

    def _check_bind(self, target: ast.expr, node: ast.AST,
                    inplace: bool = False) -> None:
        """An Assign/AnnAssign/AugAssign/Delete binding site."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_bind(elt, node, inplace=inplace)
            return
        if isinstance(target, ast.Subscript):
            return  # item stores are reported by visit_Subscript
        if isinstance(target, ast.Starred):
            self._check_bind(target.value, node, inplace=inplace)
            return
        chain = _chain(target)
        if chain is None:
            return
        if len(chain) >= 2 and chain[0] == "self":
            self._check_self_field(chain[1], node, inplace=inplace,
                                   via_chain=len(chain) > 2)
        if isinstance(target, ast.Attribute):
            field = target.attr
            # name-based publication slots (assignment only; in-place
            # ops on a slot are also writes)
            lock = self.reg.slot_guards.get(field)
            if lock is not None and self._in_function() and \
                    not self._init_exempt() and \
                    lock not in self._held_names():
                self._emit(
                    "RL01", node, f"slot {field}",
                    f"publication of {field!r} outside 'with {lock}:' "
                    "(declared via register_lock)",
                )
            # name-based frozen fields, non-self receivers: in-place
            # assignment forms only (AugAssign)
            if inplace and chain[0] != "self" and \
                    field in self.reg.all_frozen and \
                    not self._init_exempt():
                self._emit(
                    "RL03", node, f"frozen {field} augassign",
                    f"in-place augmented assignment to snapshot-frozen "
                    f"field {field!r}; rebind instead",
                )
        elif isinstance(target, ast.Name) and inplace:
            self._check_container_name(target.id, node)

    def _check_self_field(self, field: str, node: ast.AST,
                          inplace: bool = False,
                          via_chain: bool = False) -> None:
        """A write reaching ``self.<field>`` (directly or through a
        chain like ``self.stats.evictions``)."""
        spec = self._current_spec()
        if spec is not None and field in spec.fields:
            ctx = self._func_stack[-1] if self._func_stack else None
            exempt = ctx is not None and ctx.is_init
            if not exempt and spec.lock_attr not in self._held_names():
                self._emit(
                    "RL01", node, f"{spec.cls_name}.{field}",
                    f"write to shared field "
                    f"{spec.cls_name}.{field} outside "
                    f"'with self.{spec.lock_attr}:'",
                )
        # RL03 class-scoped: in-place forms on frozen fields
        frozen = self.reg.frozen_by_class.get(
            self._class_stack[-1] if self._class_stack else "", frozenset()
        )
        if inplace and not via_chain and field in frozen and \
                not self._init_exempt():
            self._emit(
                "RL03", node, f"frozen self.{field} augassign",
                f"in-place augmented assignment to snapshot-frozen "
                f"field {field!r}; rebind instead",
            )

    def _check_mutation(self, receiver: ast.expr, node: ast.AST) -> None:
        """An in-place mutation of ``receiver`` (item store/del or a
        mutator-method call)."""
        chain = _chain(receiver)
        if chain is None:
            return
        # RL04 accounting: any in-place mutation of a _mults map
        if chain[-1] == "_mults" and self._func_stack:
            self._func_stack[-1].mults_mutations.append(
                getattr(node, "lineno", 1)
            )
        if chain[0] == "self" and len(chain) >= 2:
            field = chain[1]
            spec = self._current_spec()
            if spec is not None and field in spec.fields:
                ctx = self._func_stack[-1] if self._func_stack else None
                exempt = ctx is not None and ctx.is_init
                if not exempt and spec.lock_attr not in self._held_names():
                    self._emit(
                        "RL01", node, f"{spec.cls_name}.{field}",
                        f"mutation of shared field "
                        f"{spec.cls_name}.{field} outside "
                        f"'with self.{spec.lock_attr}:'",
                    )
            frozen = self.reg.frozen_by_class.get(
                self._class_stack[-1] if self._class_stack else "",
                frozenset(),
            )
            if len(chain) == 2 and field in frozen and \
                    not self._init_exempt():
                self._emit(
                    "RL03", node, f"frozen self.{field}",
                    f"in-place mutation of snapshot-frozen field "
                    f"self.{field}; rebind instead "
                    "(rows = rows + new)",
                )
        else:
            # non-self receivers: name-based frozen fields
            terminal = chain[-1]
            if len(chain) >= 2 and terminal in self.reg.all_frozen and \
                    not self._init_exempt():
                self._emit(
                    "RL03", node, f"frozen {terminal}",
                    f"in-place mutation of snapshot-frozen field "
                    f"{'.'.join(chain)}; rebind instead",
                )
            elif len(chain) == 1:
                self._check_container_name(chain[0], node)

    def _check_container_name(self, name: str, node: ast.AST) -> None:
        """Mutation of a bare module-global container name."""
        if not self._in_function():
            return  # module-level initialization
        lock = self.reg.container_guards.get(name)
        if lock is not None and lock not in self._held_names():
            self._emit(
                "RL01", node, f"container {name}",
                f"mutation of shared global {name!r} outside "
                f"'with {lock}:' (declared via register_lock)",
            )
