"""Command-line interfaces for the experiment-execution subsystem.

Console entry points (also runnable without installation as
``python -m repro.cli <tool> …`` with ``PYTHONPATH=src``):

* ``repro-cache`` (:mod:`repro.cli.cache`) — inspect and maintain
  on-disk result caches: ``stats``, ``verify``, ``prune``, ``merge``
  (combine per-shard cache roots), and ``gc`` (expire by age / shrink to
  a byte budget).
* ``repro-sweep`` (:mod:`repro.cli.sweep`) — run speed sweeps, including
  one shard of a K-way split (``run --shard i/K``), merge shard
  artifacts back into a full sweep (``merge``), and re-render figures
  from a saved artifact with zero simulations (``render``).
* ``repro-campaign`` (:mod:`repro.cli.campaign`) — run, resume, and
  query multi-sweep campaigns declared in a JSON manifest; all
  durability lives in the result cache + artifact store.
* ``repro-serve`` (:mod:`repro.cli.serve`) — read-only HTTP front end
  answering figure/table/sweep queries from an artifact store with zero
  simulations.
* ``repro-lint`` (:mod:`repro.cli.lint`) — determinism, cache-contract
  and registry static analysis over the package source.

All tools only print and exit; behaviour lives in the library
(:mod:`repro.exec`, :mod:`repro.experiments`, :mod:`repro.campaign`) so
it is equally usable from Python.  Performance is measured outside the
package: ``perfbench/run.py`` runs one benchmark workload, and
``tools/perf_gate.py`` compares two checkouts with it.
"""

__all__ = []
