"""Tests for the ``repro.lint`` static-analysis pass.

Three layers: per-rule fixtures through :func:`lint_source` (positive
hit, suppression, clean variant), the C-schema drift machinery against
mutated snapshot copies, and the gate itself — a full-tree strict run
over ``src/repro`` asserting zero findings, which is exactly what CI
enforces.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    RULE_CATALOG,
    compute_cache_schema,
    lint_paths,
    lint_source,
    parse_suppressions,
    write_cache_schema,
)
from repro.cli.lint import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
SCHEMA_PATH = REPO_ROOT / "CACHE_SCHEMA.json"


def rules_of(findings):
    return [finding.rule for finding in findings]


# --------------------------------------------------------------------- #
# D-series fixtures
# --------------------------------------------------------------------- #

class TestDeterminismRules:
    def test_wallclock_positive(self):
        findings = lint_source("import time\nstamp = time.time()\n")
        assert "D-wallclock" in rules_of(findings)

    def test_wallclock_datetime_now(self):
        src = "import datetime\nnow = datetime.datetime.now()\n"
        assert "D-wallclock" in rules_of(lint_source(src))

    def test_wallclock_clean(self):
        src = "def run(sim):\n    return sim.now\n"
        assert lint_source(src) == []

    def test_entropy_urandom_and_uuid(self):
        src = "import os, uuid\na = os.urandom(8)\nb = uuid.uuid4()\n"
        assert rules_of(lint_source(src)).count("D-entropy") == 2

    def test_rng_global_random_import_and_call(self):
        src = "import random\nx = random.random()\n"
        rules = rules_of(lint_source(src))
        assert rules.count("D-rng") == 2

    def test_rng_adhoc_numpy_generator(self):
        src = "import numpy as np\ngen = np.random.default_rng(0)\n"
        assert "D-rng" in rules_of(lint_source(src))

    def test_rng_sanctioned_module_exempt(self):
        src = ("import numpy as np\n"
               "gen = np.random.default_rng(np.random.SeedSequence())\n")
        assert lint_source(src, path="src/repro/sim/rng.py") == []

    def test_set_iteration_flagged_sorted_clean(self):
        dirty = "for item in {3, 1, 2}:\n    print(item)\n"
        clean = "for item in sorted({3, 1, 2}):\n    print(item)\n"
        assert "D-set-iter" in rules_of(lint_source(dirty))
        assert lint_source(clean) == []

    def test_listdir_flagged_sorted_clean(self):
        dirty = "import os\nnames = os.listdir('.')\n"
        clean = "import os\nnames = sorted(os.listdir('.'))\n"
        assert "D-listdir" in rules_of(lint_source(dirty))
        assert lint_source(clean) == []

    def test_path_iterdir_flagged(self):
        src = ("from pathlib import Path\n"
               "files = list(Path('.').iterdir())\n")
        assert "D-listdir" in rules_of(lint_source(src))

    def test_id_ordering_flagged(self):
        src = "items = sorted(objects, key=id)\n"
        assert "D-id-order" in rules_of(lint_source(src))

    def test_builtin_hash_flagged(self):
        src = "bucket = hash(name) % 16\n"
        assert "D-id-order" in rules_of(lint_source(src))

    def test_dict_keys_aggregation_flagged(self):
        dirty = "total = min(weights.keys())\n"
        clean = "total = min(sorted(weights))\n"
        assert "D-dict-agg" in rules_of(lint_source(dirty))
        assert lint_source(clean) == []

    def test_syntax_error_reported_not_raised(self):
        findings = lint_source("def broken(:\n")
        assert rules_of(findings) == ["E-syntax"]


# --------------------------------------------------------------------- #
# Suppressions
# --------------------------------------------------------------------- #

class TestSuppressions:
    def test_same_line_suppression_silences(self):
        src = ("import time\n"
               "t = time.time()  # repro-lint: ignore[D-wallclock] display\n")
        assert lint_source(src) == []

    def test_other_line_suppression_does_not_silence(self):
        src = ("import time\n"
               "# repro-lint: ignore[D-wallclock] wrong line\n"
               "t = time.time()\n")
        assert "D-wallclock" in rules_of(lint_source(src))

    def test_wrong_rule_does_not_silence(self):
        src = ("import time\n"
               "t = time.time()  # repro-lint: ignore[D-rng] nope\n")
        assert "D-wallclock" in rules_of(lint_source(src))

    def test_multi_rule_suppression(self):
        src = ("import os, time\n"
               "x = (time.time(), os.listdir('.'))"
               "  # repro-lint: ignore[D-wallclock,D-listdir] both fine\n")
        assert lint_source(src) == []

    def test_strict_requires_justification(self):
        src = ("import time\n"
               "t = time.time()  # repro-lint: ignore[D-wallclock]\n")
        assert lint_source(src) == []
        assert "S-justify" in rules_of(lint_source(src, strict=True))

    def test_strict_flags_unused_suppression(self):
        src = "x = 1  # repro-lint: ignore[D-wallclock] stale\n"
        assert lint_source(src) == []
        assert "S-unused" in rules_of(lint_source(src, strict=True))

    def test_strict_flags_unknown_rule(self):
        src = "x = 1  # repro-lint: ignore[D-bogus] what\n"
        assert "S-unused" in rules_of(lint_source(src, strict=True))

    def test_docstring_example_is_not_a_suppression(self):
        src = ('"""Example:\n'
               '    t = 1  # repro-lint: ignore[D-wallclock] example\n'
               '"""\n')
        assert parse_suppressions(src) == []


# --------------------------------------------------------------------- #
# C-serializer
# --------------------------------------------------------------------- #

SERIALIZER_TEMPLATE = """
import dataclasses

@dataclasses.dataclass
class Thing:
    alpha: int
    beta: int

    def to_dict(self):
        return {body}
"""


class TestSerializerCoverage:
    def test_missing_field_flagged(self):
        src = SERIALIZER_TEMPLATE.format(body='{"alpha": self.alpha}')
        findings = lint_source(src)
        assert rules_of(findings) == ["C-serializer"]
        assert "beta" in findings[0].message

    def test_full_coverage_clean(self):
        src = SERIALIZER_TEMPLATE.format(
            body='{"alpha": self.alpha, "beta": self.beta}')
        assert lint_source(src) == []

    def test_asdict_delegation_clean(self):
        src = SERIALIZER_TEMPLATE.format(body="dataclasses.asdict(self)")
        assert lint_source(src) == []

    def test_to_json_delegating_to_to_dict_clean(self):
        src = ("import dataclasses, json\n"
               "@dataclasses.dataclass\n"
               "class Thing:\n"
               "    alpha: int\n"
               "    def to_dict(self):\n"
               "        return dataclasses.asdict(self)\n"
               "    def to_json(self):\n"
               "        return json.dumps(self.to_dict())\n")
        assert lint_source(src) == []


# --------------------------------------------------------------------- #
# R-series
# --------------------------------------------------------------------- #

class TestRegistryRules:
    def test_missing_params_flagged(self):
        src = ('@MOBILITY.register("walk", description="d")\n'
               "def factory(config, params):\n    return None\n")
        assert "R-params" in rules_of(lint_source(src))

    def test_explicit_empty_params_clean(self):
        src = ('@MOBILITY.register("walk", params=(), description="d")\n'
               "def factory(config, params):\n    return None\n")
        assert lint_source(src) == []

    def test_transport_without_kind_flagged(self):
        src = ('@TRANSPORT.register("udp", params=())\n'
               "def factory(config, params):\n    return None\n")
        assert "R-kind" in rules_of(lint_source(src))

    def test_application_without_requires_flagged(self):
        src = ('@APPLICATION.register("ftp", params=())\n'
               "def factory(config, params):\n    return None\n")
        assert "R-requires" in rules_of(lint_source(src))

    def test_requires_must_match_a_registered_kind(self):
        src = (
            '@TRANSPORT.register("udp", kind="udp", params=())\n'
            "def make_udp(config, params):\n    return None\n"
            '@APPLICATION.register("ftp", params=(),'
            ' requires_transport="tcp")\n'
            "def make_ftp(config, params):\n    return None\n")
        assert "R-consistency" in rules_of(lint_source(src))

    def test_consistent_stack_clean(self):
        src = (
            '@TRANSPORT.register("udp", kind="udp", params=())\n'
            "def make_udp(config, params):\n    return None\n"
            '@APPLICATION.register("cbr", params=(),'
            ' requires_transport="udp")\n'
            "def make_cbr(config, params):\n    return None\n")
        assert lint_source(src) == []

    def test_unrelated_register_calls_ignored(self):
        src = 'registry.register("thing")\natexit.register(handler)\n'
        assert lint_source(src) == []


# --------------------------------------------------------------------- #
# C-schema drift
# --------------------------------------------------------------------- #

def copy_tree_with_schema(tmp_path: Path) -> tuple[Path, Path]:
    """A minimal copy of the package (schema-relevant files only)."""
    root = tmp_path / "src" / "repro"
    for rel in ("version.py", "scenario/config.py", "exec/cache.py"):
        dst = root / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(PACKAGE_ROOT / rel, dst)
    schema = tmp_path / "CACHE_SCHEMA.json"
    shutil.copyfile(SCHEMA_PATH, schema)
    return root, schema


class TestCacheSchema:
    def test_committed_snapshot_matches_tree(self):
        assert SCHEMA_PATH.is_file(), \
            "CACHE_SCHEMA.json must be committed at the repo root"
        committed = json.loads(SCHEMA_PATH.read_text())
        assert committed == compute_cache_schema(PACKAGE_ROOT)

    def test_write_schema_round_trips(self, tmp_path):
        out = tmp_path / "schema.json"
        write_cache_schema(PACKAGE_ROOT, out)
        assert json.loads(out.read_text()) == \
            json.loads(SCHEMA_PATH.read_text())

    def test_field_added_without_bump_is_drift(self, tmp_path):
        root, schema = copy_tree_with_schema(tmp_path)
        config = root / "scenario" / "config.py"
        text = config.read_text()
        text = text.replace("    protocol: str",
                            "    protocol: str\n    brand_new_knob: int")
        config.write_text(text)
        report = lint_paths([root.parent], schema_path=schema)
        assert "C-schema-drift" in rules_of(report.findings)
        assert any("brand_new_knob" in finding.message
                   for finding in report.findings)

    def test_field_retyped_without_bump_is_drift(self, tmp_path):
        root, schema = copy_tree_with_schema(tmp_path)
        config = root / "scenario" / "config.py"
        config.write_text(config.read_text().replace(
            "    protocol: str", "    protocol: int", 1))
        report = lint_paths([root.parent], schema_path=schema)
        assert "C-schema-drift" in rules_of(report.findings)

    def test_key_exclude_change_without_bump_is_drift(self, tmp_path):
        root, schema = copy_tree_with_schema(tmp_path)
        cache = root / "exec" / "cache.py"
        cache.write_text(cache.read_text().replace(
            'payload.pop("trace", None)',
            'payload.pop("trace", None)\n    payload.pop("seed", None)'))
        report = lint_paths([root.parent], schema_path=schema)
        assert "C-schema-drift" in rules_of(report.findings)

    def test_key_excludes_follow_config_key_calls_only(self, tmp_path):
        # The "trace" pop lives in a helper config_key calls; a pop in a
        # function config_key never reaches does not count.
        assert compute_cache_schema(PACKAGE_ROOT)["key_excludes"] == \
            ["trace"]
        root, schema = copy_tree_with_schema(tmp_path)
        cache = root / "exec" / "cache.py"
        cache.write_text(cache.read_text() + (
            "\n\ndef _unrelated(payload):\n"
            "    payload.pop(\"seed\", None)\n"))
        assert compute_cache_schema(root)["key_excludes"] == ["trace"]
        report = lint_paths([root.parent], schema_path=schema)
        assert "C-schema-drift" not in rules_of(report.findings)

    def test_version_bump_makes_snapshot_stale_not_drift(self, tmp_path):
        root, schema = copy_tree_with_schema(tmp_path)
        version = root / "version.py"
        version.write_text(version.read_text().replace(
            '__version__ = "', '__version__ = "99.'))
        config = root / "scenario" / "config.py"
        config.write_text(config.read_text().replace(
            "    protocol: str",
            "    protocol: str\n    brand_new_knob: int"))
        report = lint_paths([root.parent], schema_path=schema)
        rules = rules_of(report.findings)
        assert "C-schema-stale" in rules
        assert "C-schema-drift" not in rules

    def test_missing_snapshot_flagged(self, tmp_path):
        root, schema = copy_tree_with_schema(tmp_path)
        schema.unlink()
        report = lint_paths([root.parent], schema_path=schema)
        assert "C-schema-missing" in rules_of(report.findings)

    def test_drift_exits_nonzero_via_cli(self, tmp_path, capsys):
        root, schema = copy_tree_with_schema(tmp_path)
        config = root / "scenario" / "config.py"
        config.write_text(config.read_text().replace(
            "    protocol: str", "    protocol: float", 1))
        code = lint_main([str(root.parent), "--schema", str(schema)])
        out = capsys.readouterr().out
        assert code == 1
        assert "C-schema-drift" in out

    def test_fixture_tree_without_package_skips_schema(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        report = lint_paths([tmp_path])
        assert report.ok


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #

class TestCli:
    def test_list_rules_covers_catalog(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULE_CATALOG:
            assert rule in out

    def test_missing_path_is_usage_error(self, capsys):
        assert lint_main(["definitely/not/here"]) == 2

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("def f(x):\n    return x + 1\n")
        assert lint_main([str(target)]) == 0

    def test_module_dispatcher_knows_lint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", "--list-rules"],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0
        assert "D-wallclock" in proc.stdout


# --------------------------------------------------------------------- #
# The gate: the shipped tree is strict-clean
# --------------------------------------------------------------------- #

class TestFullTree:
    def test_src_repro_is_strict_clean(self):
        report = lint_paths([PACKAGE_ROOT], strict=True)
        assert report.findings == [], "\n" + report.render()

    def test_report_order_is_deterministic(self):
        first = lint_paths([PACKAGE_ROOT], strict=True)
        second = lint_paths([PACKAGE_ROOT], strict=True)
        assert [f.render() for f in first.findings] == \
            [f.render() for f in second.findings]
        assert first.files_checked == second.files_checked


# --------------------------------------------------------------------- #
# External tools (run only where installed; CI installs both)
# --------------------------------------------------------------------- #

@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    proc = subprocess.run(["ruff", "check", "src", "tests"],
                          capture_output=True, text=True, cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_clean():
    proc = subprocess.run(["mypy", "src/repro"],
                          capture_output=True, text=True, cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
