"""The shared-state registry: one source of truth for lint and runtime.

The two silent wrong-verdict defects this repo has shipped (a value
interner's thread race and a live snapshot-aliasing corruption, both in
the since-deleted numpy backend) were violations of invariants that
existed only in reviewers' heads.  This module turns those invariants into
*declarations that live in the code being checked*:

* ``@shared_state(lock_attr, *fields, tier=...)`` on a class declares
  that writes to the listed fields are only legal while the instance's
  ``lock_attr`` lock is held;
* ``@requires_lock(lock_attr)`` on a method declares that its callers
  hold the lock already (the ``_remove_key`` / ``_flush_locked``
  pattern);
* ``register_lock(name, lock, tier=..., slots=..., containers=...)``
  declares a module-level lock, the tier it occupies in the global
  acquisition order, and — for publication locks like the fingerprint
  registry's ``_REGISTRY_LOCK`` — the slot/container names it guards
  anywhere in the package;
* ``FROZEN_FIELDS`` on a class (a plain tuple attribute, no decorator)
  declares fields that may be **rebound but never mutated in place**
  once an instance hands them to a snapshot — the PR 6 aliasing bug
  class.

The declarations are consumed twice, by design from one spot:

* ``repro lint`` (:mod:`repro.analysis.linter`) re-reads them from the
  **AST** — it never imports the checked code — and enforces them
  statically (rules RL01/RL03/RL05);
* the runtime sanitizer (:mod:`repro.analysis.sanitizer`) uses the
  decorator hooks installed here to wrap registered container fields in
  lock-asserting proxies and to verify ``requires_lock`` at call time
  when ``REPRO_SANITIZE=1`` (or :func:`repro.analysis.sanitizer.enable`)
  is active.

The declared lock order is ``engine -> store -> obs``: while holding a
lock of one tier, only locks of *later* tiers may be acquired.  The
``obs`` telemetry tier sits last so any layer may record a metric while
holding its own lock.

This module imports nothing from the rest of the package, so the hot
modules can import it at startup without cycles.
"""

from __future__ import annotations

import os
from functools import wraps
from typing import Callable, Iterable

__all__ = [
    "LOCK_ORDER",
    "NAMED_LOCKS",
    "SHARED_CLASSES",
    "LockSpec",
    "SharedSpec",
    "register_lock",
    "requires_lock",
    "shared_state",
]

# The declared global lock-acquisition order (RL05): holding a lock of
# tier i, code may only acquire locks of tiers > i.
LOCK_ORDER = ("engine", "store", "obs")


class SharedSpec:
    """Runtime record of one ``@shared_state`` class declaration."""

    __slots__ = ("cls_name", "lock_attr", "fields", "tier")

    def __init__(
        self, cls_name: str, lock_attr: str, fields: tuple, tier: str | None
    ) -> None:
        self.cls_name = cls_name
        self.lock_attr = lock_attr
        self.fields = frozenset(fields)
        self.tier = tier


class LockSpec:
    """Runtime record of one ``register_lock`` declaration."""

    __slots__ = ("name", "lock", "tier", "slots", "containers")

    def __init__(
        self,
        name: str,
        lock,
        tier: str | None,
        slots: tuple,
        containers: tuple,
    ) -> None:
        self.name = name
        self.lock = lock
        self.tier = tier
        self.slots = tuple(slots)
        self.containers = tuple(containers)


# class qualname -> SharedSpec, lock name -> LockSpec.  Populated at
# import time by the decorators/registrations in the hot modules; the
# sanitizer reads these, the linter re-derives the same facts by AST.
SHARED_CLASSES: dict[str, SharedSpec] = {}
NAMED_LOCKS: dict[str, LockSpec] = {}

# Sanitizer activity flag.  Read per guarded operation, so
# enable()/disable() in tests take effect immediately; instances
# created while inactive keep plain containers (only instances built
# under an active sanitizer are instrumented).
_ACTIVE = bool(os.environ.get("REPRO_SANITIZE"))

# Every ``@shared_state`` class with its plain and its guarded
# ``(__init__, __setattr__)`` pair.  Only an active sanitizer installs
# the guarded pair, so while it is off an attribute write costs what it
# costs on an undecorated class.
_HOOKS: list[tuple[type, tuple, tuple]] = []

# Instances currently inside __init__ (by id): their setup writes are
# exempt from the lock-held guard.  Keyed by id() so it works for
# ``__slots__`` classes; thread-local-free because an id is only in the
# set while one thread runs that object's __init__.
_IN_INIT: set[int] = set()


def sanitizer_active() -> bool:
    return _ACTIVE


def _set_active(value: bool) -> None:
    global _ACTIVE
    _ACTIVE = value
    for cls, plain, guarded in _HOOKS:
        cls.__init__, cls.__setattr__ = guarded if value else plain


def validate_tier(tier: str | None) -> None:
    if tier is not None and tier not in LOCK_ORDER:
        raise ValueError(
            f"unknown lock tier {tier!r}; declared order is {LOCK_ORDER}"
        )


def shared_state(
    lock_attr: str, *fields: str, tier: str | None = None
) -> Callable[[type], type]:
    """Class decorator: the listed fields are shared mutable state
    guarded by the instance lock at ``lock_attr``.

    Statically (RL01): any write to ``self.<field>`` — rebind, item
    store, in-place op, or mutator-method call, including through a
    chain like ``self.stats.evictions += 1`` — outside a ``with
    self.<lock_attr>:`` block is a finding, except in ``__init__`` and
    in methods marked ``@requires_lock``.

    At runtime (sanitizer active): listed dict/list/set fields are
    wrapped in proxies whose mutators assert the lock is held, and
    rebinding a listed field asserts the same through ``__setattr__``.
    """
    fields_set = frozenset(fields)
    validate_tier(tier)

    def decorate(cls: type) -> type:
        spec = SharedSpec(cls.__name__, lock_attr, tuple(fields), tier)
        SHARED_CLASSES[cls.__name__] = spec

        original_init = cls.__init__
        original_setattr = cls.__setattr__

        @wraps(original_init)
        def guarded_init(self, *args, **kwargs):
            if not _ACTIVE:
                return original_init(self, *args, **kwargs)
            _IN_INIT.add(id(self))
            try:
                original_init(self, *args, **kwargs)
            finally:
                _IN_INIT.discard(id(self))
            from .sanitizer import instrument

            instrument(self, spec)

        def guarded_setattr(self, name, value):
            if _ACTIVE and name in fields_set and id(self) not in _IN_INIT:
                from .sanitizer import check_field_write

                value = check_field_write(self, spec, name, value)
            original_setattr(self, name, value)

        plain = (original_init, original_setattr)
        guarded = (guarded_init, guarded_setattr)
        _HOOKS.append((cls, plain, guarded))
        cls.__init__, cls.__setattr__ = guarded if _ACTIVE else plain
        cls.__shared_state__ = spec
        return cls

    return decorate


def requires_lock(lock_attr: str) -> Callable:
    """Method decorator: callers already hold ``self.<lock_attr>``.

    Statically (RL01): the method body is treated as lock-held context.
    At runtime (sanitizer active): entry asserts the lock really is
    held, so a call path that loses the lock fails loudly at the exact
    frame that broke the contract rather than as a corrupted verdict
    later.
    """

    def decorate(fn: Callable) -> Callable:
        @wraps(fn)
        def wrapper(self, *args, **kwargs):
            if _ACTIVE:
                from .sanitizer import assert_lock_held

                assert_lock_held(self, lock_attr, fn.__qualname__)
            return fn(self, *args, **kwargs)

        wrapper.__requires_lock__ = lock_attr
        return wrapper

    return decorate


def register_lock(
    name: str,
    lock,
    tier: str | None = None,
    slots: Iterable[str] = (),
    containers: Iterable[str] = (),
):
    """Declare a module-level lock.

    ``tier`` places it in :data:`LOCK_ORDER` (RL05).  ``slots`` are
    attribute names whose *assignment* anywhere in the package must
    happen under this lock (publication slots like ``_fingerprint``,
    exempting ``__init__``); ``containers`` are module-global mapping
    names whose *mutation* must (``_BAG_INDEXES``).  Returns the lock
    so declarations can wrap construction::

        _REGISTRY_LOCK = register_lock(
            "_REGISTRY_LOCK", threading.Lock(), tier="engine",
            slots=("_fingerprint",), containers=("_BAG_INDEXES",),
        )
    """
    validate_tier(tier)
    NAMED_LOCKS[name] = LockSpec(name, lock, tier, tuple(slots), tuple(containers))
    return lock


def lock_is_held(lock) -> bool:
    """Best-effort "does the calling context hold this lock".

    Exact for RLocks (``_is_owned``); for plain locks ``locked()`` is
    the best available — it cannot distinguish *which* thread holds the
    lock, which is still enough to catch lock-removal regressions (the
    mutation-style tests patch in a lock whose ``locked()`` is False).
    """
    is_owned = getattr(lock, "_is_owned", None)
    if is_owned is not None:
        return bool(is_owned())
    locked = getattr(lock, "locked", None)
    if locked is not None:
        return bool(locked())
    return True  # unknown lock-alike: never false-positive
