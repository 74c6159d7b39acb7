"""The REPRO_SANITIZE runtime half: guarded containers, lock
assertions, and the activation contract."""

import threading
from collections import OrderedDict

import pytest

from repro.analysis import sanitizer
from repro.analysis.registry import (
    NAMED_LOCKS,
    SHARED_CLASSES,
    register_lock,
    requires_lock,
    shared_state,
)
from repro.analysis.sanitizer import SanitizerError


@pytest.fixture
def sanitize():
    was = sanitizer.enabled()
    sanitizer.enable()
    try:
        yield
    finally:
        if not was:
            sanitizer.disable()


@pytest.fixture
def desanitize():
    """Force the sanitizer off (REPRO_SANITIZE=1 runs included)."""
    was = sanitizer.enabled()
    sanitizer.disable()
    try:
        yield
    finally:
        if was:
            sanitizer.enable()


@shared_state("_lock", "_cache", "_members", "_order", "count",
              tier="engine")
class _SanProbe:
    def __init__(self):
        self._lock = threading.RLock()
        self._cache = {}
        self._members = set()
        self._order = OrderedDict()
        self.count = 0

    @requires_lock("_lock")
    def helper(self):
        return self.count


class _NeverHeld:
    """A lock-alike that reports itself unheld (the mutation-style
    stand-in for 'someone deleted the with-statement')."""

    def locked(self):
        return False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_registration_is_visible():
    assert "_SanProbe" in SHARED_CLASSES
    spec = SHARED_CLASSES["_SanProbe"]
    assert spec.lock_attr == "_lock"
    assert "count" in spec.fields
    assert _SanProbe.__shared_state__ is spec


def test_containers_guarded_when_active(sanitize):
    probe = _SanProbe()
    assert type(probe._cache).__name__ == "GuardedDict"
    assert type(probe._members).__name__ == "GuardedSet"
    assert type(probe._order).__name__ == "GuardedOrdereddict"
    with probe._lock:
        probe._cache["k"] = 1
        probe._members.add("m")
        probe._order["o"] = 1
        probe._order.move_to_end("o")
        probe.count += 1
    # reads stay lock-free
    assert probe._cache["k"] == 1 and "m" in probe._members


def test_unheld_lock_trips(sanitize):
    probe = _SanProbe()
    object.__setattr__(probe, "_lock", _NeverHeld())
    with pytest.raises(SanitizerError):
        probe._cache["k"] = 1
    with pytest.raises(SanitizerError):
        probe._members.add("m")
    with pytest.raises(SanitizerError):
        probe.count = 5  # rebind goes through the __setattr__ hook
    with pytest.raises(SanitizerError):
        probe.helper()  # @requires_lock asserts at entry


def test_rebind_keeps_the_guard(sanitize):
    probe = _SanProbe()
    with probe._lock:
        probe._cache = {"fresh": 1}
    assert type(probe._cache).__name__ == "GuardedDict"
    object.__setattr__(probe, "_lock", _NeverHeld())
    with pytest.raises(SanitizerError):
        probe._cache["k"] = 2


def test_inactive_instances_stay_plain(desanitize):
    assert not sanitizer.enabled()
    probe = _SanProbe()
    assert type(probe._cache) is dict
    probe.count += 1  # no lock, no guard, no error
    probe._cache["k"] = 1


def test_hooks_installed_only_while_active(desanitize):
    # off: attribute writes take the plain object path, no Python hook
    assert _SanProbe.__setattr__ is object.__setattr__
    sanitizer.enable()
    try:
        assert _SanProbe.__setattr__ is not object.__setattr__
        probe = _SanProbe()
        object.__setattr__(probe, "_lock", _NeverHeld())
        with pytest.raises(SanitizerError):
            probe.count = 1
    finally:
        sanitizer.disable()
    assert _SanProbe.__setattr__ is object.__setattr__
    probe.count = 2  # a pre-existing instance is unguarded again


def test_sanitizer_error_is_assertion_error():
    assert issubclass(SanitizerError, AssertionError)


def test_named_lock_registration():
    lock = register_lock("_SAN_TEST_LOCK", threading.Lock(),
                         tier="store")
    try:
        assert NAMED_LOCKS["_SAN_TEST_LOCK"].lock is lock
        assert NAMED_LOCKS["_SAN_TEST_LOCK"].tier == "store"
    finally:
        del NAMED_LOCKS["_SAN_TEST_LOCK"]


def test_register_lock_rejects_unknown_tier():
    with pytest.raises(ValueError):
        register_lock("_SAN_BAD_TIER", threading.Lock(), tier="kernel")


def test_shared_state_rejects_unknown_tier():
    with pytest.raises(ValueError):
        shared_state("_lock", "x", tier="not-a-tier")
