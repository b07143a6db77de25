"""C-series rules: the cache contract, checked statically.

The content-addressed result cache serves an entry whenever the config
key and ``repro.version`` both match.  That makes one rule load-bearing:
*any change to what folds into the key must bump the version*, or a
long-lived cache directory silently serves pre-change results as
current.  Until now that rule lived in README prose; here it becomes a
machine-checked gate.

``CACHE_SCHEMA.json`` (committed at the repo root) snapshots everything
key-relevant: the :class:`ScenarioConfig` field names and annotations,
the fields ``config_key`` excludes, the on-disk
``CACHE_FORMAT_VERSION``, and the ``repro.version`` they were captured
under.  The linter recomputes the same snapshot by parsing the sources
— no imports, no execution — and compares:

* key-relevant schema changed, version unchanged → **C-schema-drift**
  (the bug the gate exists for);
* version changed, snapshot not regenerated → **C-schema-stale**
  (run ``repro-lint --write-schema`` as part of the bump);
* snapshot missing → **C-schema-missing**.

The same module also checks serializer coverage (**C-serializer**):
every dataclass that hand-writes ``to_dict``/``to_json`` must mention
each of its fields, catching the PR-2 ``n_flows`` aliasing bug shape at
review time instead of in a cache post-mortem.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

from repro.lint.findings import Finding

#: Version stamp of the snapshot layout itself (not of repro).
SCHEMA_LAYOUT_VERSION = 1

_SERIALIZER_NAMES = ("to_dict", "to_json")


# --------------------------------------------------------------------- #
# C-serializer: per-file dataclass serializer coverage
# --------------------------------------------------------------------- #

def _is_dataclass_def(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if (isinstance(target, ast.Attribute)
                and target.attr == "dataclass"):
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> Dict[str, int]:
    """Field name -> line for every annotated field of a dataclass body."""
    fields: Dict[str, int] = {}
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign):
            continue
        if not isinstance(statement.target, ast.Name):
            continue
        annotation = ast.unparse(statement.annotation)
        if annotation.startswith("ClassVar"):
            continue
        fields[statement.target.id] = statement.lineno
    return fields


def _serializer_is_total(func: ast.FunctionDef) -> bool:
    """Whether the serializer has full coverage by construction.

    Either it delegates to the dataclasses machinery (``asdict`` /
    ``fields`` / ``astuple``), or it delegates to a sibling serializer
    (``self.to_dict()`` inside ``to_json``) — the sibling is then the
    one whose coverage gets checked.
    """
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        name = target.attr if isinstance(target, ast.Attribute) else \
            target.id if isinstance(target, ast.Name) else None
        if name in ("asdict", "fields", "astuple"):
            return True
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr in _SERIALIZER_NAMES
                and target.attr != func.name):
            return True
    return False


def _serializer_coverage(func: ast.FunctionDef) -> Set[str]:
    """Names a hand-written serializer demonstrably touches."""
    covered: Set[str] = set()
    for node in ast.walk(func):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            covered.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            covered.add(node.value)
    return covered


def check_serializers(tree: ast.AST, path: str) -> List[Finding]:
    """C-serializer over one parsed module."""
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not _is_dataclass_def(node):
            continue
        fields = _dataclass_fields(node)
        if not fields:
            continue
        for statement in node.body:
            if not isinstance(statement, ast.FunctionDef):
                continue
            if statement.name not in _SERIALIZER_NAMES:
                continue
            if _serializer_is_total(statement):
                continue
            covered = _serializer_coverage(statement)
            for field, _line in sorted(fields.items()):
                if field not in covered:
                    findings.append(Finding(
                        rule="C-serializer", path=path,
                        line=statement.lineno, col=statement.col_offset,
                        message=f"{node.name}.{statement.name} does not "
                                f"cover field `{field}`",
                        hint="serialize every field (or delegate to "
                             "dataclasses.asdict) — missing fields alias "
                             "distinct configs onto one cache key"))
    return findings


# --------------------------------------------------------------------- #
# C-schema: the committed config_key snapshot
# --------------------------------------------------------------------- #

def _parse_file(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _scenario_config_fields(config_path: Path) -> Dict[str, str]:
    tree = _parse_file(config_path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "ScenarioConfig":
            return {name: ast.unparse(statement.annotation)
                    for statement in node.body
                    if isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                    for name in [statement.target.id]}
    raise ValueError(f"ScenarioConfig not found in {config_path}")


def _module_constant(path: Path, name: str) -> Any:
    tree = _parse_file(path)
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return ast.literal_eval(node.value)
        if (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == name and node.value is not None):
            return ast.literal_eval(node.value)
    raise ValueError(f"{name} not found in {path}")


def _key_excludes(cache_path: Path) -> List[str]:
    """Fields ``config_key`` pops from the payload before hashing.

    Pops in the module-level functions ``config_key`` calls (directly or
    through one another) count too, so hashing can live in a helper
    that ``config_key`` shares with the cache writer.
    """
    tree = _parse_file(cache_path)
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    excludes: List[str] = []
    pending = ["config_key"]
    seen: Set[str] = set()
    while pending:
        name = pending.pop()
        if name in seen or name not in functions:
            continue
        seen.add(name)
        for inner in ast.walk(functions[name]):
            if not isinstance(inner, ast.Call):
                continue
            if isinstance(inner.func, ast.Name):
                pending.append(inner.func.id)
            elif (isinstance(inner.func, ast.Attribute)
                    and inner.func.attr == "pop" and inner.args
                    and isinstance(inner.args[0], ast.Constant)
                    and isinstance(inner.args[0].value, str)):
                excludes.append(inner.args[0].value)
    return sorted(set(excludes))


def compute_cache_schema(package_root: Path) -> Dict[str, Any]:
    """Recompute the key-relevant schema by parsing the sources.

    ``package_root`` is the ``repro`` package directory (the one holding
    ``version.py``).  Pure static inspection: nothing is imported.
    """
    return {
        "schema_version": SCHEMA_LAYOUT_VERSION,
        "repro_version": _module_constant(package_root / "version.py",
                                          "__version__"),
        "cache_format_version": _module_constant(
            package_root / "exec" / "cache.py", "CACHE_FORMAT_VERSION"),
        "key_excludes": _key_excludes(package_root / "exec" / "cache.py"),
        "config_fields": _scenario_config_fields(
            package_root / "scenario" / "config.py"),
    }


def write_cache_schema(package_root: Path, schema_path: Path) -> Dict[str, Any]:
    """Regenerate the committed snapshot (the legitimate escape hatch)."""
    schema = compute_cache_schema(package_root)
    schema_path.write_text(json.dumps(schema, indent=2, sort_keys=True)
                           + "\n", encoding="utf-8")
    return schema


def check_cache_schema(package_root: Path,
                       schema_path: Path) -> List[Finding]:
    """Compare the recomputed schema against the committed snapshot."""
    rel = str(schema_path)
    try:
        current = compute_cache_schema(package_root)
    except (OSError, ValueError, SyntaxError) as error:
        return [Finding(rule="C-schema-drift", path=rel, line=1, col=0,
                        message=f"cannot recompute cache schema: {error}",
                        hint="is the package tree complete?")]
    if not schema_path.is_file():
        return [Finding(rule="C-schema-missing", path=rel, line=1, col=0,
                        message="committed cache schema snapshot not found",
                        hint="generate it with `repro-lint --write-schema`")]
    try:
        committed = json.loads(schema_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        return [Finding(rule="C-schema-missing", path=rel, line=1, col=0,
                        message=f"cache schema snapshot unreadable: {error}",
                        hint="regenerate it with `repro-lint --write-schema`")]

    findings: List[Finding] = []
    version_changed = committed.get("repro_version") != current["repro_version"]
    drift: List[str] = []
    committed_fields = committed.get("config_fields", {})
    for name in sorted(set(committed_fields) | set(current["config_fields"])):
        before = committed_fields.get(name)
        after = current["config_fields"].get(name)
        if before is None:
            drift.append(f"field `{name}` added ({after})")
        elif after is None:
            drift.append(f"field `{name}` removed (was {before})")
        elif before != after:
            drift.append(f"field `{name}` retyped {before} -> {after}")
    if committed.get("key_excludes") != current["key_excludes"]:
        drift.append(
            f"key_excludes changed {committed.get('key_excludes')} -> "
            f"{current['key_excludes']}")
    if committed.get("cache_format_version") != current["cache_format_version"]:
        drift.append(
            f"cache_format_version changed "
            f"{committed.get('cache_format_version')} -> "
            f"{current['cache_format_version']}")

    if drift and not version_changed:
        for item in drift:
            findings.append(Finding(
                rule="C-schema-drift", path=rel, line=1, col=0,
                message=f"config_key-relevant schema changed without a "
                        f"repro.version bump: {item}",
                hint="bump repro.version.__version__ and regenerate the "
                     "snapshot with `repro-lint --write-schema`"))
    elif version_changed:
        findings.append(Finding(
            rule="C-schema-stale", path=rel, line=1, col=0,
            message=f"repro.version is {current['repro_version']} but the "
                    f"snapshot was captured at "
                    f"{committed.get('repro_version')}",
            hint="regenerate the snapshot: `repro-lint --write-schema`"))
    return findings


def find_package_root(paths: List[Path]) -> Optional[Path]:
    """Locate the ``repro`` package directory under the linted paths.

    The schema check only runs when the linted tree actually contains
    the package (``version.py`` + ``scenario/config.py``), so linting a
    fixture directory never trips C-schema rules.
    """
    candidates: List[Path] = []
    for path in paths:
        if path.is_file():
            path = path.parent
        candidates.append(path)
        candidates.extend(p.parent for p in sorted(path.rglob("version.py")))
    for candidate in candidates:
        if (candidate / "version.py").is_file() \
                and (candidate / "scenario" / "config.py").is_file() \
                and (candidate / "exec" / "cache.py").is_file():
            return candidate
    return None
