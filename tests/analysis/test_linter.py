"""The `repro lint` static analyzer: rule coverage, suppression,
baseline handling, CLI exit codes, and the acceptance-criteria seeded
regressions over the real tree."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.baseline import apply_baseline, load_baseline, \
    write_baseline
from repro.analysis.linter import collect_registry, iter_python_files, \
    lint_paths
from repro.analysis.registry import LOCK_ORDER

REPO_ROOT = Path(__file__).resolve().parents[2]
ENGINE_DIR = REPO_ROOT / "src" / "repro" / "engine"
SESSION = ENGINE_DIR / "session.py"

PREAMBLE = """\
import threading
from repro.analysis.registry import shared_state, register_lock, requires_lock
"""


def lint_snippet(tmp_path, source, name="snippet.py"):
    path = tmp_path / name
    path.write_text(PREAMBLE + source, encoding="utf-8")
    return lint_paths([path])


def rules_of(findings):
    return sorted(f.rule for f in findings)


# -- RL01: unguarded shared mutation ------------------------------------


RL01_CLASS = """
@shared_state("_lock", "_cache", "hits", tier="engine")
class Holder:
    def __init__(self):
        self._lock = threading.RLock()
        self._cache = {}
        self.hits = 0

    def unguarded(self):
        self.hits += 1
        self._cache["k"] = 1
        self._cache.pop("k", None)

    def guarded(self):
        with self._lock:
            self.hits += 1
            self._cache["k"] = 1

    @requires_lock("_lock")
    def helper(self):
        del self._cache["k"]
"""


def test_rl01_flags_unguarded_writes_only(tmp_path):
    findings = lint_snippet(tmp_path, RL01_CLASS)
    assert rules_of(findings) == ["RL01", "RL01", "RL01"]
    assert all("unguarded" in f.scope for f in findings)


def test_rl01_init_exempt(tmp_path):
    findings = lint_snippet(tmp_path, """
@shared_state("_lock", "stats")
class WithInit:
    def __init__(self):
        self._lock = threading.RLock()
        self.stats = {}
        self.stats["boot"] = 1
""")
    assert findings == []


def test_rl01_chained_attribute_write(tmp_path):
    findings = lint_snippet(tmp_path, """
@shared_state("_lock", "stats")
class Chained:
    def bump(self):
        self.stats.evictions += 1
""")
    assert rules_of(findings) == ["RL01"]


def test_rl01_named_containers_and_slots(tmp_path):
    findings = lint_snippet(tmp_path, """
_LOCK = register_lock("_LOCK", threading.Lock(), tier="store",
                      slots=("_encoded",), containers=("_TABLE",))
_TABLE = {}

def bad(index):
    _TABLE["k"] = 1
    index._encoded = object()

def good(index):
    with _LOCK:
        _TABLE["k"] = 1
        index._encoded = object()
""")
    assert rules_of(findings) == ["RL01", "RL01"]
    assert all(f.scope == "bad" for f in findings)


def test_rl01_pragma_suppression(tmp_path):
    findings = lint_snippet(tmp_path, """
@shared_state("_lock", "hits")
class Pragmatic:
    def bump(self):
        self.hits += 1  # repro-lint: disable=RL01
""")
    assert findings == []


# -- RL02: identity cache keys ------------------------------------------


def test_rl02_id_keys(tmp_path):
    findings = lint_snippet(tmp_path, """
class Cache:
    def store(self, bag, other):
        self._memo[id(bag)] = 1
        self._memo[("tag", id(bag), id(other))] = 2
        return self._memo.get(("tag", id(bag)))
""")
    assert rules_of(findings) == ["RL02", "RL02", "RL02"]


def test_rl02_local_id_dict_is_fine(tmp_path):
    # the live engine legitimately builds an ephemeral local id-keyed
    # dict inside one call; only attribute-reachable state is flagged
    findings = lint_snippet(tmp_path, """
def resolve(handles):
    by_id = {id(h): h for h in handles}
    return by_id
""")
    assert findings == []


# -- RL03: snapshot mutation --------------------------------------------


RL03_CLASS = """
class Delta:
    FROZEN_FIELDS = ("rows",)

    def __init__(self):
        self.rows = []

    def bad(self, new):
        self.rows.extend(new)

    def worse(self, new):
        self.rows += new

    def good(self, new):
        self.rows = self.rows + new
"""


def test_rl03_inplace_vs_rebind(tmp_path):
    findings = lint_snippet(tmp_path, RL03_CLASS)
    assert rules_of(findings) == ["RL03", "RL03"]
    assert {f.scope.rsplit(".", 1)[-1] for f in findings} == {"bad", "worse"}


def test_rl03_name_based_receiver(tmp_path):
    findings = lint_snippet(tmp_path, RL03_CLASS + """
def mutate(delta):
    delta.rows.append(1)
""")
    assert "RL03" in rules_of(findings)
    assert any(f.scope == "mutate" for f in findings)


# -- RL04: invalidation completeness ------------------------------------


def test_rl04_mults_without_hook(tmp_path):
    findings = lint_snippet(tmp_path, """
def raw(handle, row):
    handle._mults[row] = 2

def maintained(handle, row):
    handle._mults[row] = 2
    handle.invalidate(row)
""")
    assert rules_of(findings) == ["RL04"]
    assert findings[0].scope == "raw"
    assert findings[0].severity == "warning"


# -- RL05: lock order ----------------------------------------------------


def test_rl05_inversion(tmp_path):
    findings = lint_snippet(tmp_path, """
_ENG = register_lock("_ENG", threading.Lock(), tier="engine")
_STO = register_lock("_STO", threading.Lock(), tier="store")

def inverted():
    with _STO:
        with _ENG:
            pass

def declared_order():
    with _ENG:
        with _STO:
            pass
""")
    assert rules_of(findings) == ["RL05"]
    assert findings[0].scope == "inverted"


# -- registry collection -------------------------------------------------


def test_registry_collected_from_real_tree():
    registry = collect_registry(
        iter_python_files([REPO_ROOT / "src" / "repro"])
    )
    assert "VerdictStore" in registry.classes
    assert "Shard" in registry.classes
    assert registry.classes["Shard"].tier == "store"
    assert "_REGISTRY_LOCK" in registry.named_locks
    assert registry.slot_guards["_fingerprint"] == "_REGISTRY_LOCK"
    assert registry.container_guards["_BAG_INDEXES"] == "_REGISTRY_LOCK"
    assert registry.container_guards["_POOLS"] == "_POOL_LOCK"
    # the wire export cache is a plain index memo, not a guarded slot
    assert "_export" not in registry.slot_guards
    tiers = {spec.tier for spec in registry.classes.values()}
    tiers |= {spec.tier for spec in registry.named_locks.values()}
    assert tiers <= set(LOCK_ORDER) | {None}


# -- the real tree is finding-free ---------------------------------------


def test_engine_tree_is_clean():
    assert lint_paths([ENGINE_DIR]) == []


def test_store_and_server_are_clean():
    assert lint_paths([
        REPO_ROOT / "src" / "repro" / "store",
        REPO_ROOT / "src" / "repro" / "server.py",
    ]) == []


def test_committed_baseline_is_empty():
    baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
    assert baseline == set()


# -- seeded regressions (the acceptance criteria) ------------------------


def test_seeded_store_lock_removal_is_rl01(tmp_path):
    source = SESSION.read_text(encoding="utf-8")
    # the first guarded block is VerdictStore.get's hit/miss accounting
    assert "with self._lock:" in source
    seeded = tmp_path / "session_nolock.py"
    seeded.write_text(
        source.replace("with self._lock:", "if True:", 1), encoding="utf-8"
    )
    findings = lint_paths([seeded])
    assert any(f.rule == "RL01" and "VerdictStore" in f.detail
               for f in findings)


# -- baseline mechanics --------------------------------------------------


def test_baseline_round_trip(tmp_path):
    findings = lint_snippet(tmp_path, RL03_CLASS)
    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, findings)
    baseline = load_baseline(baseline_file)
    fresh, grandfathered, stale = apply_baseline(findings, baseline)
    assert fresh == [] and len(grandfathered) == 2 and stale == []
    # a fixed finding leaves its key stale
    fresh, grandfathered, stale = apply_baseline(findings[:1], baseline)
    assert len(stale) == 1


def test_baseline_keys_are_line_free(tmp_path):
    first = lint_snippet(tmp_path, RL03_CLASS, name="a.py")
    shifted = lint_snippet(
        tmp_path, "\n\n\n" + RL03_CLASS, name="b.py"
    )
    keys_a = {k.replace("a.py", "X") for k in (f.key for f in first)}
    keys_b = {k.replace("b.py", "X") for k in (f.key for f in shifted)}
    assert keys_a == keys_b


# -- CLI ----------------------------------------------------------------


def run_cli(*argv):
    from repro.analysis.cli import main

    return main(list(argv))


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(PREAMBLE + RL03_CLASS, encoding="utf-8")
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")

    assert run_cli(str(clean), "--no-baseline") == 0
    assert run_cli(str(bad), "--no-baseline") == 1
    assert run_cli(str(tmp_path / "missing.py")) == 2
    capsys.readouterr()

    baseline = tmp_path / "baseline.json"
    assert run_cli(str(bad), "--baseline", str(baseline),
                   "--update-baseline") == 0
    assert run_cli(str(bad), "--baseline", str(baseline)) == 0
    out = capsys.readouterr().out
    assert "grandfathered" in out

    # strict mode fails on stale keys once the findings are fixed
    bad.write_text("x = 1\n", encoding="utf-8")
    assert run_cli(str(bad), "--baseline", str(baseline)) == 0
    assert run_cli(str(bad), "--baseline", str(baseline), "--strict") == 1


def test_cli_json_format(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(PREAMBLE + RL03_CLASS, encoding="utf-8")
    assert run_cli(str(bad), "--no-baseline", "--format", "json") == 1
    payload = json.loads(capsys.readouterr().out)
    assert {f["rule"] for f in payload} == {"RL03"}
    assert all(f["severity"] == "error" for f in payload)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(ENGINE_DIR)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_repro_lint_subcommand():
    from repro.cli import main as repro_main

    assert repro_main(["lint", str(ENGINE_DIR), "--no-baseline"]) == 0


@pytest.mark.parametrize("rule", ["RL01", "RL02", "RL03", "RL04", "RL05"])
def test_severity_table_complete(rule):
    from repro.analysis.rules import SEVERITY

    assert SEVERITY[rule] in ("error", "warning")
