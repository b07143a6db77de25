"""Start-up contracts: package imports pay only for what they use.

* **Serving needs no simulator.**  ``repro-serve`` imports under
  ``python -S`` (no site-packages, hence no numpy) and loads none of the
  simulator packages.
* **Lazy package exports.**  ``repro``, ``repro.exec``,
  ``repro.campaign`` and ``repro.scenario`` re-export their public names
  on first access (PEP 562); every name still resolves to the defining
  module's object and ``import *`` still binds them all.

Nothing here is timed: each check is about which modules load.
"""

from __future__ import annotations

import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules the serving path must never load.
SIMULATOR_MODULES = ("numpy", "repro.sim", "repro.net", "repro.experiments")

LAZY_PACKAGES = ("repro", "repro.exec", "repro.campaign", "repro.scenario")


def run_without_site(*args: str) -> subprocess.CompletedProcess:
    """Run ``python -S`` on ``src`` alone, so site-packages cannot load."""
    return subprocess.run(
        [sys.executable, "-S", *args], env={"PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120)


class TestServeWithoutSimulator:
    def test_serve_imports_without_site_packages(self):
        proc = run_without_site("-c", (
            "import sys, repro.cli.serve\n"
            f"print([m for m in {SIMULATOR_MODULES!r} if m in sys.modules])"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_empty_store_answers_healthz(self, tmp_path):
        proc = run_without_site("-c", (
            "import http.client, sys, threading\n"
            "from repro.cli.serve import build_server\n"
            "server = build_server(sys.argv[1], port=0, quiet=True)\n"
            "threading.Thread(target=server.serve_forever, daemon=True)"
            ".start()\n"
            "conn = http.client.HTTPConnection(*server.server_address[:2],"
            " timeout=30)\n"
            "conn.request('GET', '/healthz')\n"
            "response = conn.getresponse()\n"
            "print(response.status, response.read())\n"
            "server.shutdown()\n"
            "server.server_close()\n"), str(tmp_path / "store"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "200 b'ok\\n'"

    def test_dispatcher_imports_only_the_chosen_tool(self):
        proc = run_without_site("-m", "repro.cli", "serve", "--help")
        assert proc.returncode == 0, proc.stderr
        assert "repro-serve" in proc.stdout


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyExports:
    def test_every_name_is_the_defining_modules_object(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            source = importlib.import_module(module._EXPORTS[name])
            assert getattr(module, name) is getattr(source, name), name

    def test_dir_lists_every_name(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_star_import_binds_every_name(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        assert set(importlib.import_module(package).__all__) \
            <= set(namespace)

    def test_unknown_name_is_attribute_error_naming_the_package(
            self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=re.escape(repr(package))):
            module.no_such_export  # noqa: B018 - attribute access is the test
