"""The invariant linter: every rule fires on its fixture violation —
and nowhere in the real source tree."""

from pathlib import Path

import pytest

from repro.checks.lint import (
    PRAGMA_RE,
    SourceFile,
    lint_file,
    run_lint,
)
from repro.checks.rules import ALL_RULES, slug_of

FIXTURES = Path(__file__).parent / "fixtures"
SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"

#: rule id -> (fixture file, rel path the rule sees, marker comment).
FIXTURE_FOR = {
    "R001": ("r001_global_rng.py", "r001_global_rng.py"),
    "R002": ("r002_untyped_raise.py", "engine/r002_untyped_raise.py"),
    "R003": ("r003_capability_probe.py", "r003_capability_probe.py"),
    "R004": ("r004_unpaired_acquire.py", "r004_unpaired_acquire.py"),
    "R005": ("r005_broad_except.py", "r005_broad_except.py"),
    "R007": ("r007_adhoc_retry.py", "r007_adhoc_retry.py"),
}

RULE_BY_ID = {rule.id: rule for rule in ALL_RULES}


def load_fixture(rule_id: str) -> SourceFile:
    filename, rel = FIXTURE_FOR[rule_id]
    return SourceFile.load(FIXTURES / filename, rel)


def violation_line(src: SourceFile, rule_id: str) -> int:
    marker = f"# VIOLATION {rule_id}"
    lines = [lineno for lineno, line
             in enumerate(src.text.splitlines(), start=1)
             if marker in line]
    assert len(lines) == 1, f"fixture must mark exactly one {rule_id}"
    return lines[0]


def test_all_six_rules_are_registered():
    # R006 was retired; rule ids are never renumbered.
    assert sorted(RULE_BY_ID) == [f"R00{i}" for i in (1, 2, 3, 4, 5, 7)]
    assert sorted(FIXTURE_FOR) == sorted(RULE_BY_ID)


@pytest.mark.parametrize("rule_id", sorted(FIXTURE_FOR))
def test_rule_fires_exactly_on_its_fixture_violation(rule_id):
    src = load_fixture(rule_id)
    findings = lint_file(src, [RULE_BY_ID[rule_id]])
    assert [f.line for f in findings] == [violation_line(src, rule_id)]
    assert findings[0].rule == rule_id


@pytest.mark.parametrize("rule_id", sorted(FIXTURE_FOR))
def test_no_other_rule_fires_on_the_fixture(rule_id):
    """Each fixture isolates one violation: the other five rules see a
    clean file, so a firing proves the *rule*, not fixture noise."""
    src = load_fixture(rule_id)
    others = [rule for rule in ALL_RULES if rule.id != rule_id]
    assert lint_file(src, others) == []


def test_real_source_tree_is_clean():
    """The acceptance gate: zero findings, zero pragmas over src/."""
    report = run_lint(SRC_ROOT)
    assert report.findings == []
    assert report.reasonless == []
    assert report.ok(strict=True)


def test_r004_flags_an_unreleased_process():
    """``multiprocessing`` processes and pipes are acquisitions too: a
    class owning them releases them in ``close``, a bare started
    ``Process`` leaks."""
    name = "r004_unreleased_process.py"
    src = SourceFile.load(FIXTURES / name, name)
    findings = lint_file(src, [RULE_BY_ID["R004"]])
    assert [f.line for f in findings] == [violation_line(src, "R004")]
    assert findings[0].message.startswith("Process(...)")
    others = [rule for rule in ALL_RULES if rule.id != "R004"]
    assert lint_file(src, others) == []


def test_r002_is_path_scoped():
    """The same bare raise outside engine/store/inference is legal."""
    filename, _ = FIXTURE_FOR["R002"]
    src = SourceFile.load(FIXTURES / filename, "datasets/loader.py")
    assert lint_file(src, [RULE_BY_ID["R002"]]) == []


def test_r003_is_scoped_out_of_core():
    filename, _ = FIXTURE_FOR["R003"]
    src = SourceFile.load(FIXTURES / filename, "core/registry.py")
    assert lint_file(src, [RULE_BY_ID["R003"]]) == []


def test_pragma_suppresses_with_reason(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import numpy as np\n"
        "def f():\n"
        "    return np.random.rand(3)"
        "  # checks: allow-global-rng(fixture exercising suppression)\n"
    )
    report = run_lint(tmp_path)
    assert report.findings == []
    assert len(report.suppressed) == 1
    finding, pragma = report.suppressed[0]
    assert finding.rule == "R001"
    assert pragma.reason == "fixture exercising suppression"
    assert report.reasonless == []
    assert report.ok(strict=True)


def test_pragma_on_preceding_line_suppresses(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import numpy as np\n"
        "def f():\n"
        "    # checks: allow-global-rng(statement spans lines)\n"
        "    return np.random.rand(\n"
        "        3)\n"
    )
    report = run_lint(tmp_path)
    assert report.findings == []
    assert len(report.suppressed) == 1


def test_reasonless_pragma_fails_strict_only(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import numpy as np\n"
        "def f():\n"
        "    return np.random.rand(3)  # checks: allow-global-rng()\n"
    )
    report = run_lint(tmp_path)
    assert report.findings == []
    assert len(report.reasonless) == 1
    assert report.ok(strict=False)
    assert not report.ok(strict=True)


def test_wrong_slug_does_not_suppress(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import numpy as np\n"
        "def f():\n"
        "    return np.random.rand(3)  # checks: allow-broad-except(no)\n"
    )
    report = run_lint(tmp_path)
    assert [f.rule for f in report.findings] == ["R001"]


def test_pragma_regex_shape():
    match = PRAGMA_RE.search(
        "x = 1  # checks: allow-unpaired-acquire(worker detach hook)")
    assert match is not None
    assert match.group(1) == "unpaired-acquire"
    assert match.group(2) == "worker detach hook"
    assert slug_of("R004") == "unpaired-acquire"


class TestR007AdhocRetry:
    def load(self, tmp_path, code, rel="mod.py"):
        path = tmp_path / "mod.py"
        path.write_text(code)
        return SourceFile.load(path, rel)

    def test_bare_sleep_from_time_in_a_while_loop_fires(self, tmp_path):
        src = self.load(tmp_path, (
            "from time import sleep\n\n"
            "def retry():\n"
            "    while True:\n"
            "        sleep(1)\n"))
        findings = lint_file(src, [RULE_BY_ID["R007"]])
        assert [f.line for f in findings] == [5]

    def test_local_sleep_function_is_not_flagged(self, tmp_path):
        src = self.load(tmp_path, (
            "def sleep(x):\n"
            "    return x\n\n"
            "def loop():\n"
            "    for i in range(3):\n"
            "        sleep(i)\n"))
        assert lint_file(src, [RULE_BY_ID["R007"]]) == []

    def test_sleep_outside_a_loop_is_not_flagged(self, tmp_path):
        src = self.load(tmp_path, (
            "import time\n\n"
            "def nap():\n"
            "    time.sleep(1)\n"))
        assert lint_file(src, [RULE_BY_ID["R007"]]) == []

    def test_loop_outside_the_enclosing_def_is_not_flagged(self, tmp_path):
        src = self.load(tmp_path, (
            "import time\n\n"
            "for _ in range(3):\n"
            "    def nap():\n"
            "        time.sleep(1)\n"))
        assert lint_file(src, [RULE_BY_ID["R007"]]) == []

    def test_faults_module_is_exempt(self, tmp_path):
        src = self.load(tmp_path, (
            "import time\n\n"
            "def sleeper():\n"
            "    while True:\n"
            "        time.sleep(1)\n"), rel="faults.py")
        assert lint_file(src, [RULE_BY_ID["R007"]]) == []

    def test_the_real_backoff_helper_is_clean(self):
        src = SourceFile.load(SRC_ROOT / "faults.py", "faults.py")
        assert lint_file(src, [RULE_BY_ID["R007"]]) == []
