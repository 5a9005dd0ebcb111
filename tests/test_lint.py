"""Tests for the ``repro lint`` invariant checker.

Every rule is exercised with at least one true-positive fixture (the
violation is caught) and one true-negative fixture (the sanctioned
pattern passes), plus the CLI contract: exit codes (0 clean / 1 findings
/ 2 usage), the ``--json`` schema, inline suppressions, and unknown-rule
errors.  Finally the *live tree* must lint clean — the same check CI runs.
"""

from __future__ import annotations

import io
import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import Linter, all_rules, lint_paths
from repro.cli import main


def lint(code: str, path: str, rules: list[str] | None = None):
    """Lint ``code`` as if it lived at ``path`` (repro-package-relative)."""
    registry = all_rules()
    selected = None if rules is None else [registry[name] for name in rules]
    findings, suppressed = Linter(selected).lint_source(textwrap.dedent(code), path)
    return findings, suppressed


def rule_names(findings) -> set[str]:
    return {finding.rule for finding in findings}


def test_all_rules_registered():
    names = set(all_rules())
    assert names == {
        "strict-pruning",
        "no-unseeded-rng",
        "atomic-writes",
        "no-bare-except",
        "pickle-boundary",
        "counter-conservation",
        "no-wall-clock",
        "mutable-default-args",
    }
    for rule in all_rules().values():
        assert rule.description
        assert rule.invariant
        assert rule.severity in ("error", "warning")


# --------------------------------------------------------------------------- #
# strict-pruning
# --------------------------------------------------------------------------- #


def test_strict_pruning_flags_tie_dropping_prune():
    findings, _ = lint(
        """
        def search(bound, threshold):
            if bound >= threshold:
                return None
        """,
        "repro/indexes/fake/index.py",
    )
    assert rule_names(findings) == {"strict-pruning"}
    assert findings[0].line == 3


def test_strict_pruning_flags_tie_dropping_survivor_test():
    findings, _ = lint(
        """
        def survivors(bounds, radius):
            return [b for b in bounds if b < radius]
        """,
        "repro/sequential/fake.py",
    )
    assert rule_names(findings) == {"strict-pruning"}


def test_strict_pruning_flags_reversed_operands():
    findings, _ = lint(
        """
        def search(bound, best_distance):
            if best_distance <= bound:
                return None
        """,
        "repro/indexes/fake.py",
    )
    assert rule_names(findings) == {"strict-pruning"}


def test_strict_pruning_accepts_strict_forms():
    findings, _ = lint(
        """
        def search(bound, threshold, radius, best_distance):
            if bound > threshold:
                return None
            if bound <= radius:
                return True
            if bound > best_distance:
                return None
        """,
        "repro/indexes/fake/index.py",
    )
    assert findings == []


def test_strict_pruning_ignores_constants_and_other_directories():
    # Validation against a literal is not a pruning decision.
    clean, _ = lint(
        """
        def validate(radius):
            if radius < 0:
                raise ValueError("radius must be non-negative")
        """,
        "repro/indexes/fake.py",
    )
    assert clean == []
    # The rule is scoped to indexes/ and sequential/.
    elsewhere, _ = lint(
        "def f(bound, threshold):\n    return bound >= threshold\n",
        "repro/core/fake.py",
    )
    assert "strict-pruning" not in rule_names(elsewhere)


# --------------------------------------------------------------------------- #
# no-unseeded-rng
# --------------------------------------------------------------------------- #


def test_unseeded_rng_flags_numpy_global_and_stdlib():
    findings, _ = lint(
        """
        import random
        import numpy as np

        def jitter():
            return np.random.random() + random.randint(0, 3)
        """,
        "repro/core/fake.py",
    )
    assert [f.rule for f in findings] == ["no-unseeded-rng", "no-unseeded-rng"]


def test_unseeded_rng_allows_generator_construction_and_workloads():
    clean, _ = lint(
        """
        import numpy as np

        def sample(rng=None):
            rng = rng or np.random.default_rng(7)
            return rng.random()
        """,
        "repro/core/fake.py",
    )
    assert clean == []
    workload, _ = lint(
        "import numpy as np\n\n\ndef gen():\n    return np.random.randn(4)\n",
        "repro/workloads/fake.py",
    )
    assert workload == []


# --------------------------------------------------------------------------- #
# atomic-writes
# --------------------------------------------------------------------------- #


def test_atomic_writes_flags_in_place_write():
    findings, _ = lint(
        """
        def save(path, payload):
            with open(path, "wb") as handle:
                handle.write(payload)
        """,
        "repro/core/persistence.py",
    )
    assert rule_names(findings) == {"atomic-writes"}


def test_atomic_writes_allows_writer_classes_reads_and_other_modules():
    writer, _ = lint(
        """
        class SeriesFileWriter:
            def start(self, tmp):
                self.handle = open(tmp, "wb")
        """,
        "repro/core/storage.py",
    )
    assert writer == []
    reads, _ = lint(
        "def load(path):\n    with open(path, 'rb') as h:\n        return h.read()\n",
        "repro/core/backends.py",
    )
    assert reads == []
    elsewhere, _ = lint(
        "def dump(path):\n    open(path, 'w').write('x')\n",
        "repro/evaluation/fake.py",
    )
    assert "atomic-writes" not in rule_names(elsewhere)


# --------------------------------------------------------------------------- #
# no-bare-except
# --------------------------------------------------------------------------- #


def test_bare_except_flags_bare_and_swallowing_handlers():
    findings, _ = lint(
        """
        def f():
            try:
                work()
            except:
                pass

        def g():
            try:
                work()
            except Exception:
                pass
        """,
        "repro/core/fake.py",
    )
    assert [f.rule for f in findings] == ["no-bare-except", "no-bare-except"]


def test_bare_except_allows_reraise_and_narrow_types():
    clean, _ = lint(
        """
        def f():
            try:
                work()
            except BaseException:
                cleanup()
                raise

        def g():
            try:
                work()
            except ValueError:
                return None
        """,
        "repro/core/fake.py",
    )
    assert clean == []


# --------------------------------------------------------------------------- #
# pickle-boundary
# --------------------------------------------------------------------------- #


def test_pickle_boundary_requires_getstate_on_boundary_classes():
    findings, _ = lint(
        """
        class SeriesStore:
            def __init__(self, data):
                self.data = data
        """,
        "repro/core/fake_storage.py",
    )
    assert rule_names(findings) == {"pickle-boundary"}


def test_pickle_boundary_accepts_getstate_and_plan_without_arrays():
    clean, _ = lint(
        """
        class MmapBackend:
            def __getstate__(self):
                return {"path": self.path}

        class _ShardTask:
            key: tuple
            method_name: str
            params: dict
        """,
        "repro/core/fake.py",
    )
    assert clean == []


def test_pickle_boundary_flags_ndarray_fields_on_task_plans():
    findings, _ = lint(
        """
        import numpy as np

        class _ShardTask:
            key: tuple
            rows: np.ndarray
        """,
        "repro/indexes/fake_sharded.py",
    )
    assert rule_names(findings) == {"pickle-boundary"}
    assert "ship a by-path store handle" in findings[0].message


def test_pickle_boundary_requires_a_guard_on_live_references_in_task_plans():
    plan = """
        class _ShardTask:
            store: SeriesStore
            method: SearchMethod | None = None
        """
    findings, _ = lint(plan, "repro/indexes/fake_sharded.py")
    assert rule_names(findings) == {"pickle-boundary"}
    assert "live index by reference" in findings[0].message
    guarded = plan + """
            def __getstate__(self):
                raise TypeError("in-process only")
        """
    clean, _ = lint(guarded, "repro/indexes/fake_sharded.py")
    assert clean == []


def test_pickle_boundary_covers_the_growable_backend():
    findings, _ = lint(
        """
        class GrowableBackend:
            def __init__(self, path, segments):
                self.path, self._segments = path, segments
        """,
        "repro/core/fake_growable.py",
    )
    assert rule_names(findings) == {"pickle-boundary"}


# --------------------------------------------------------------------------- #
# counter-conservation
# --------------------------------------------------------------------------- #


def test_counter_conservation_flags_unaccounted_read_primitive():
    findings, _ = lint(
        """
        class SeriesStore:
            def read_contiguous(self, start, stop):
                return self.backend.read_rows(start, stop)

            def __getstate__(self):
                return {}
        """,
        "repro/core/storage.py",
    )
    assert rule_names(findings) == {"counter-conservation"}
    assert "read_contiguous" in findings[0].message


def test_counter_conservation_accepts_accounting_delegation_and_peek():
    clean, _ = lint(
        """
        class SeriesStore:
            def _account_scan(self):
                self.counter.series_read += self.count

            def scan(self):
                self._account_scan()
                return self.backend.values

            def scan_chunks(self):
                self.counter.sequential_pages += 1
                yield from self.backend.chunks()

            def scan_blocks(self):
                yield from self.scan_chunks()

            def peek_chunks(self, positions):
                yield from self.backend.chunks(positions)

            def __getstate__(self):
                return {}
        """,
        "repro/core/storage.py",
    )
    assert clean == []


def test_counter_conservation_covers_the_group_read_primitive():
    findings, _ = lint(
        """
        class SeriesStore:
            def read_groups(self, positions, sizes):
                return self.backend.take(positions)

            def read_block(self, positions):
                return self.read_groups(positions, [len(positions)])

            def __getstate__(self):
                return {}
        """,
        "repro/core/storage.py",
    )
    # read_block delegates to an accounted primitive; read_groups itself must charge.
    assert [f.message.split("()")[0].split()[-1] for f in findings] == ["read_groups"]


def test_counter_conservation_scoped_to_storage_module():
    elsewhere, _ = lint(
        """
        class SeriesStore:
            def read_contiguous(self, start, stop):
                return self.rows[start:stop]

            def __getstate__(self):
                return {}
        """,
        "repro/core/other.py",
    )
    assert "counter-conservation" not in rule_names(elsewhere)


# --------------------------------------------------------------------------- #
# no-wall-clock
# --------------------------------------------------------------------------- #


def test_wall_clock_flags_time_time_and_datetime_now():
    findings, _ = lint(
        """
        import time
        import datetime

        def stamp():
            return time.time(), datetime.datetime.now()
        """,
        "repro/core/fake.py",
    )
    assert [f.rule for f in findings] == ["no-wall-clock", "no-wall-clock"]


def test_wall_clock_allows_perf_counter_measure_helpers_and_other_layers():
    clean, _ = lint(
        """
        import time

        def duration():
            return time.perf_counter()

        def measure_io_probe():
            return time.time()
        """,
        "repro/core/fake.py",
    )
    assert clean == []
    evaluation, _ = lint(
        "import time\n\n\ndef calibrate():\n    return time.time()\n",
        "repro/evaluation/hardware.py",
    )
    assert evaluation == []


# --------------------------------------------------------------------------- #
# mutable-default-args
# --------------------------------------------------------------------------- #


def test_mutable_defaults_flags_literals_constructors_and_kwonly():
    findings, _ = lint(
        """
        def f(items=[]):
            return items

        def g(*, mapping=dict()):
            return mapping

        h = lambda seen=set(): seen
        """,
        "repro/core/fake.py",
    )
    assert [f.rule for f in findings] == ["mutable-default-args"] * 3


def test_mutable_defaults_accepts_none_and_immutable_defaults():
    clean, _ = lint(
        """
        def f(items=None, k=1, name="x", shape=(2, 3)):
            items = items if items is not None else []
            return items, k, name, shape
        """,
        "repro/core/fake.py",
    )
    assert clean == []


# --------------------------------------------------------------------------- #
# suppressions
# --------------------------------------------------------------------------- #


def test_trailing_suppression_is_honored_and_counted():
    findings, suppressed = lint(
        """
        def f(items=[]):  # repro-lint: disable=mutable-default-args -- fixture
            return items
        """,
        "repro/core/fake.py",
    )
    assert findings == []
    assert suppressed == 1


def test_comment_block_suppression_covers_next_code_line():
    findings, suppressed = lint(
        """
        import time


        def stamp():
            # repro-lint: disable=no-wall-clock -- justification line one,
            # which continues on a second comment line.
            return time.time()
        """,
        "repro/core/fake.py",
    )
    assert findings == []
    assert suppressed == 1


def test_suppression_for_other_rule_does_not_apply():
    findings, suppressed = lint(
        """
        def f(items=[]):  # repro-lint: disable=no-wall-clock
            return items
        """,
        "repro/core/fake.py",
    )
    assert rule_names(findings) == {"mutable-default-args"}
    assert suppressed == 0


def test_disable_all_suppresses_every_rule_on_the_line():
    findings, suppressed = lint(
        """
        def f(items=[]):  # repro-lint: disable=all
            return items
        """,
        "repro/core/fake.py",
    )
    assert findings == []
    assert suppressed == 1


def test_syntax_error_reports_a_finding():
    findings, _ = lint("def broken(:\n", "repro/core/fake.py")
    assert rule_names(findings) == {"syntax-error"}


# --------------------------------------------------------------------------- #
# CLI contract
# --------------------------------------------------------------------------- #


def write_fixture(root: Path, rel: str, code: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code), encoding="utf-8")
    return path


@pytest.fixture
def dirty_tree(tmp_path):
    write_fixture(
        tmp_path,
        "repro/indexes/fake.py",
        """
        def search(bound, threshold):
            if bound >= threshold:
                return None
        """,
    )
    return tmp_path / "repro"


@pytest.fixture
def clean_tree(tmp_path):
    write_fixture(
        tmp_path,
        "repro/indexes/fake.py",
        """
        def search(bound, threshold):
            if bound > threshold:
                return None
        """,
    )
    return tmp_path / "repro"


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_cli_exit_zero_on_clean_tree(clean_tree):
    code, output = run_cli("lint", str(clean_tree))
    assert code == 0
    assert "clean" in output


def test_cli_exit_one_on_findings(dirty_tree):
    code, output = run_cli("lint", str(dirty_tree))
    assert code == 1
    assert "strict-pruning" in output
    assert "1 finding(s)" in output


def test_cli_exit_two_on_unknown_rule(dirty_tree):
    code, output = run_cli("lint", str(dirty_tree), "--rules", "no-such-rule")
    assert code == 2
    assert "unknown rule(s): no-such-rule" in output
    assert "available:" in output


def test_cli_exit_two_on_missing_path():
    code, output = run_cli("lint", "/no/such/path-anywhere")
    assert code == 2
    assert "no such path" in output


def test_cli_rule_subset_only_runs_selected(dirty_tree):
    code, output = run_cli("lint", str(dirty_tree), "--rules", "mutable-default-args")
    assert code == 0  # the fixture violates strict-pruning, not this rule
    assert "clean" in output


def test_cli_json_schema(dirty_tree):
    code, output = run_cli("lint", str(dirty_tree), "--json")
    assert code == 1
    payload = json.loads(output)
    assert payload["version"] == 1
    assert payload["tool"] == "repro-lint"
    assert payload["files_scanned"] == 1
    assert payload["suppressed"] == 0
    assert set(payload["rules"]) == set(all_rules())
    assert payload["counts"] == {"strict-pruning": 1}
    (finding,) = payload["findings"]
    assert set(finding) == {"rule", "path", "line", "col", "message", "severity"}
    assert finding["rule"] == "strict-pruning"
    assert finding["severity"] == "error"
    assert finding["line"] == 3


def test_cli_json_to_file_keeps_text_output(dirty_tree, tmp_path):
    report_path = tmp_path / "LINT_report.json"
    code, output = run_cli("lint", str(dirty_tree), "--json", str(report_path))
    assert code == 1
    assert "strict-pruning" in output  # human-readable text still printed
    payload = json.loads(report_path.read_text())
    assert payload["counts"] == {"strict-pruning": 1}


def test_cli_list_rules():
    code, output = run_cli("lint", "--list-rules")
    assert code == 0
    for name in all_rules():
        assert name in output
    assert "invariant:" in output


# --------------------------------------------------------------------------- #
# the live tree
# --------------------------------------------------------------------------- #


def test_live_tree_is_clean():
    """The shipped package must satisfy its own invariants (the CI gate)."""
    package_root = Path(repro.__file__).resolve().parent
    report = lint_paths([package_root])
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.clean, f"repro lint found violations in the live tree:\n{rendered}"
    assert report.files_scanned > 50
