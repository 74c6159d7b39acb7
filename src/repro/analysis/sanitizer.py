"""The runtime sanitizer: lock invariants enforced live.

``REPRO_SANITIZE=1`` (or :func:`enable` in tests) arms the runtime half
of the invariant tooling declared in :mod:`repro.analysis.registry`:

* every dict/list/set field listed in a ``@shared_state`` declaration
  is wrapped in a **guarded proxy** whose mutators assert the owning
  lock is held — reads stay unchecked and lock-free, exactly like the
  production fast paths they shadow;
* rebinding a registered field goes through the same assertion (the
  ``__setattr__`` hook installed by the decorator);
* ``@requires_lock`` methods assert the lock at entry.

Snapshot-frozen fields (``FROZEN_FIELDS``) are checked statically only,
by ``repro lint``'s RL03.

The guards are deliberately *per-instance at construction time*:
instances built while the sanitizer is inactive are never slowed down,
and the inactive fast path in the decorator hooks is one global flag
read.  :class:`SanitizerError` subclasses ``AssertionError`` so test
harnesses treating sanitizer trips as assertion failures need no
special casing.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict

from . import registry
from .registry import lock_is_held, sanitizer_active

__all__ = [
    "SanitizerError",
    "disable",
    "enable",
    "enabled",
]


class SanitizerError(AssertionError):
    """A declared concurrency/snapshot invariant was violated."""


def enabled() -> bool:
    return sanitizer_active()


def enable() -> None:
    """Arm the sanitizer (instances created from now on are guarded)."""
    registry._set_active(True)


def disable() -> None:
    registry._set_active(False)


# -- lock assertions ----------------------------------------------------


def _resolve_lock(instance, lock_attr: str):
    lock = getattr(instance, lock_attr, None)
    if lock is None:
        spec = registry.NAMED_LOCKS.get(lock_attr)
        if spec is not None:
            return spec.lock
    return lock


def _assert_held(instance, lock_attr: str, what: str) -> None:
    lock = _resolve_lock(instance, lock_attr)
    if lock is None:
        return  # instance mid-setup, or an intentionally lockless stub
    if not lock_is_held(lock):
        raise SanitizerError(
            f"unguarded shared-state write: {what} requires "
            f"{type(instance).__name__}.{lock_attr} to be held"
        )


def assert_lock_held(instance, lock_attr: str, qualname: str) -> None:
    """The ``@requires_lock`` runtime check."""
    _assert_held(instance, lock_attr, f"{qualname}()")


def check_field_write(instance, spec, name: str, value):
    """The ``__setattr__`` hook: rebinding a registered field asserts
    the lock and re-wraps container values so the guard survives
    rebinds (``self._index = new_index`` keeps its proxy)."""
    _assert_held(
        instance, spec.lock_attr, f"{spec.cls_name}.{name} rebind"
    )
    return _wrap(value, instance, spec, name)


# -- guarded containers -------------------------------------------------

_LIST_MUTATORS = (
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "__setitem__", "__delitem__", "__iadd__", "__imul__",
)
_DICT_MUTATORS = (
    "__setitem__", "__delitem__", "pop", "popitem", "clear", "update",
    "setdefault",
)
_SET_MUTATORS = (
    "add", "discard", "remove", "pop", "clear", "update",
    "difference_update", "intersection_update", "symmetric_difference_update",
    "__iand__", "__ior__", "__ixor__", "__isub__",
)


def _make_guarded(base: type, mutators: tuple, extra: tuple = ()):
    """A ``base`` subclass whose mutators assert the owner's lock.  It
    holds its owner by a weak reference: a strong one would make every
    guarded container and its owner a cycle, freed only by the cyclic
    collector, and sanitized runs would then see lifetimes (and
    garbage) the program does not have."""

    class Guarded(base):
        _repro_owner = None
        _repro_lock_attr = None
        _repro_what = "?"

        def _repro_bind(self, owner, lock_attr, what):
            # plain object.__setattr__: these classes have no slots and
            # the owner's guarded __setattr__ does not apply to them
            self._repro_owner = weakref.ref(owner)
            self._repro_lock_attr = lock_attr
            self._repro_what = what
            return self

    def _checked(name):
        base_method = getattr(base, name)

        def method(self, *args, **kwargs):
            ref = self._repro_owner
            if ref is not None and sanitizer_active():
                owner = ref()
                if owner is not None:
                    _assert_held(
                        owner, self._repro_lock_attr, self._repro_what
                    )
            return base_method(self, *args, **kwargs)

        method.__name__ = name
        return method

    for name in mutators + extra:
        setattr(Guarded, name, _checked(name))
    Guarded.__name__ = f"Guarded{base.__name__.title()}"
    return Guarded


GuardedList = _make_guarded(list, _LIST_MUTATORS)
GuardedDict = _make_guarded(dict, _DICT_MUTATORS)
GuardedOrderedDict = _make_guarded(
    OrderedDict, _DICT_MUTATORS, ("move_to_end",)
)
GuardedSet = _make_guarded(set, _SET_MUTATORS)


def _wrap(value, owner, spec, field: str):
    what = f"{spec.cls_name}.{field} mutation"
    lock_attr = spec.lock_attr
    if type(value) is OrderedDict:
        return GuardedOrderedDict(value)._repro_bind(owner, lock_attr, what)
    if type(value) is dict:
        return GuardedDict(value)._repro_bind(owner, lock_attr, what)
    if type(value) is list:
        return GuardedList(value)._repro_bind(owner, lock_attr, what)
    if type(value) is set:
        return GuardedSet(value)._repro_bind(owner, lock_attr, what)
    return value


def instrument(instance, spec) -> None:
    """Wrap an instance's registered container fields (called by the
    ``@shared_state`` init hook once ``__init__`` returns)."""
    for field in spec.fields:
        try:
            value = getattr(instance, field)
        except AttributeError:
            continue  # field assigned lazily; the setattr hook wraps it
        wrapped = _wrap(value, instance, spec, field)
        if wrapped is not value:
            object.__setattr__(instance, field, wrapped)
