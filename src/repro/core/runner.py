"""Parallel execution engine for benchmark cells.

The sweeps of :mod:`repro.core.sweep` iterate a (database x replication
x workload x target) grid where each outer iteration builds its own
:class:`~repro.core.experiment.ExperimentSession`, environment and
seeded RNG registry — i.e. the grid is embarrassingly parallel at the
session level.  This module makes that structure explicit:

- :class:`CellSpec` — a self-describing, picklable unit of work: one
  resolved :class:`~repro.core.config.ExperimentConfig` (which carries
  the cell's seed), the unmeasured warm-up runs, and the measured runs,
  each an *ordered* tuple of :class:`RunSpec` executed on the loaded
  session.  The order is part of the spec because the paper runs its
  workloads back-to-back on one cluster and explains later cells by the
  state earlier ones left behind.
- :func:`execute_cell` — the fork-safe entrypoint: builds the session,
  loads, runs the warm-ups and then the measured runs, and returns a
  JSON-safe payload.  Serial and parallel execution share this single
  code path, and every cell seeds its own RNG registry from its config,
  so an ``N``-process run is bit-identical to a serial one.
- :class:`CellRunner` — executes a batch of cells, optionally across CPU
  cores (``ProcessPoolExecutor``) and backed by a content-addressed
  on-disk cache keyed by the resolved config + code version, so repeated
  invocations skip already-computed cells.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.cassandra.consistency import ConsistencyLevel
from repro.core.config import ExperimentConfig, config_to_dict
from repro.core.experiment import (ExperimentSession, import_ingredients,
                                   summarize_run)
from repro.ycsb.workload import MICRO_WORKLOADS, STRESS_WORKLOADS

__all__ = [
    "CellProgress",
    "CellRunner",
    "CellSpec",
    "RunSpec",
    "cell_fingerprint",
    "cell_identity",
    "code_version",
    "default_cache_dir",
    "execute_cell",
]

#: Environment override for the cell-cache directory.
CACHE_ENV_VAR = "REPRO_CELL_CACHE"


# -- cell specification ---------------------------------------------------

@dataclass(frozen=True)
class RunSpec:
    """One workload run on a loaded session: a warm-up or a measured run,
    by which tuple of :class:`CellSpec` holds it."""

    #: Workload name, in :data:`MICRO_WORKLOADS` or :data:`STRESS_WORKLOADS`
    #: (the two share no name).
    workload: str
    operation_count: Optional[int] = None
    #: Offered load cap, ops/s (None = unthrottled full speed).
    target_throughput: Optional[float] = None
    #: Consistency-level overrides, by value ("ONE", "QUORUM", ...), so
    #: the spec stays trivially picklable and JSON-describable.
    read_cl: Optional[str] = None
    write_cl: Optional[str] = None
    #: Record a Jepsen-style operation history for this run and attach a
    #: consistency report to its summary (``repro-bench check``).
    check: bool = False
    #: Adaptive-consistency policy name (see
    #: :func:`repro.adaptive.policy.make_policy`): pick the CL per
    #: request under the config's SLO and attach the decision log to the
    #: summary (``repro-bench adaptive``).  Cassandra only.
    adaptive: Optional[str] = None
    #: Geo deployments: which region's client drives this run
    #: (``repro-bench geo`` runs the same cell once per region).
    client_dc: Optional[str] = None


@dataclass(frozen=True)
class CellSpec:
    """Config + seed + workload sequence: one independent sweep cell.

    ``warm`` runs first and is not measured: the paper's §6 cold-start
    countermeasure, or state a later measured run is explained by (the
    ablation's update round).  Each of ``runs`` returns one summary and
    arms what the config declares — its fault schedule, its open-loop
    arrivals, its elasticity — which a warm run never does.
    """

    #: Result-dict key the caller assembles under (rf, mode name, ...).
    key: Any
    #: Human-readable progress label, e.g. ``"fig2/cassandra/rf=3"``.
    label: str
    config: ExperimentConfig
    runs: tuple[RunSpec, ...]
    warm: tuple[RunSpec, ...] = ()


@dataclass(frozen=True)
class CellProgress:
    """One completed cell, as reported to the progress callback."""

    index: int
    total: int
    label: str
    cached: bool
    duration_s: float


# -- execution (the fork-safe entrypoint) ---------------------------------

#: Every workload a run can name: the micro and stress registries share
#: no name, so one lookup resolves either.
_WORKLOADS = {**MICRO_WORKLOADS, **STRESS_WORKLOADS}


def _resolve_workload(name: str):
    if name not in _WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choose from {sorted(_WORKLOADS)}")
    return _WORKLOADS[name]


def _run(session: ExperimentSession, run: RunSpec, measured: bool):
    """``run`` on the loaded ``session``.  A measured run arms what the
    config declares; a warm one arms none of it."""
    config = session.config
    return session.run_cell(
        workload=_resolve_workload(run.workload),
        operation_count=run.operation_count,
        target_throughput=run.target_throughput,
        read_cl=ConsistencyLevel(run.read_cl) if run.read_cl else None,
        write_cl=ConsistencyLevel(run.write_cl) if run.write_cl else None,
        inject_faults=measured and bool(config.faults),
        check_consistency=run.check,
        adaptive=run.adaptive,
        client_dc=run.client_dc,
        open_loop=measured and config.arrivals is not None,
        scale=measured and config.elasticity is not None)


def execute_cell(spec: CellSpec) -> dict:
    """Run one cell start to finish; returns a JSON-safe payload.

    This is the single execution path for serial and parallel sweeps:
    the session derives every RNG stream from ``spec.config.seed``, so
    the payload is bit-identical no matter which process runs it.
    """
    session = ExperimentSession(spec.config)
    session.load()
    for run in spec.warm:
        _run(session, run, measured=False)  # result discarded
    payload: dict = {"runs": [summarize_run(_run(session, run, measured=True))
                              for run in spec.runs]}
    # Deterministic per-seed: how much kernel work the cell cost.  A
    # code change that silently doubles the event count shows up in the
    # cached payload diff even when every summary number is unchanged.
    payload["kernel"] = {"events": session.env.processed_events}
    return payload


def _execute_cell_timed(spec: CellSpec) -> tuple[dict, float]:
    started = time.perf_counter()
    payload = execute_cell(spec)
    return payload, time.perf_counter() - started


# -- content-addressed cell cache -----------------------------------------

_code_version: Optional[str] = None


def code_version() -> str:
    """Hash of the ``repro`` package sources (cached per process).

    Part of every cell fingerprint so a cached result can never outlive
    the code that produced it.
    """
    global _code_version
    if _code_version is None:
        package_root = Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(path.relative_to(package_root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _code_version = digest.hexdigest()[:16]
    return _code_version


def cell_identity(spec: CellSpec) -> dict:
    """The canonical form of what a cell runs: resolved config, warm
    runs, measured runs.  ``key`` and ``label`` are presentation, not
    identity."""
    return {"config": config_to_dict(spec.config),
            "warm": [asdict(run) for run in spec.warm],
            "runs": [asdict(run) for run in spec.runs]}


def cell_fingerprint(spec: CellSpec) -> str:
    """Content address of a cell: its identity + code version, so two
    sweeps asking for the same physical cell share one cache entry."""
    identity = {**cell_identity(spec), "code": code_version()}
    canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def default_cache_dir() -> Path:
    """Cell-cache root: ``$REPRO_CELL_CACHE`` or ``~/.cache/repro/cells``."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro/cells").expanduser()


class CellCache:
    """One JSON file per cell fingerprint, written atomically."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    def path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Optional[dict]:
        try:
            with open(self.path(fingerprint), encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None  # missing or corrupt: recompute
        # So is an entry that parses but is not what ``put`` writes (a
        # truncated rewrite, another tool's file): it is recomputed and
        # overwritten, never served to fail later inside a campaign.
        payload = entry.get("payload") if isinstance(entry, dict) else None
        if (isinstance(payload, dict)
                and isinstance(payload.get("runs"), list)
                and isinstance(payload.get("kernel"), dict)):
            return payload
        return None

    def put(self, fingerprint: str, label: str, payload: dict) -> None:
        # Best-effort: an unwritable cache location must never abort a
        # sweep whose cell already computed — the result is still
        # returned, it just won't be reused.
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            entry = {"label": label, "payload": payload}
            tmp = self.root / f".{fingerprint}.{os.getpid()}.tmp"
            tmp.write_text(json.dumps(entry, sort_keys=True),
                           encoding="utf-8")
            os.replace(tmp, self.path(fingerprint))
        except OSError:
            pass


# -- the runner ------------------------------------------------------------

def _pool_context():
    # fork keeps the warm interpreter (and is what the seed-derivation
    # guarantees assume nothing about); fall back to the platform default
    # where fork does not exist.
    import multiprocessing
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class CellRunner:
    """Executes cell specs serially or across CPU cores, with caching.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) executes in-process;
        ``None`` or ``0`` means one per CPU core.
    cache:
        Reuse / populate the on-disk cell cache.  Off by default so
        library callers (tests, notebooks) always compute fresh; the CLI
        turns it on.
    cache_dir:
        Cache root; defaults to :func:`default_cache_dir`.
    progress:
        Called with a :class:`CellProgress` after each cell completes
        (cache hits report immediately with ``cached=True``).

    A cell that raises ends :meth:`run` with ``RuntimeError("cell
    '<label>' failed")`` chained from it; cells finished by then are
    cached, cells not yet started are cancelled.  A worker process that
    dies fails every cell still in the pool, so that ``RuntimeError``
    names all of them, chained from the ``BrokenProcessPool``.
    """

    def __init__(self, jobs: int = 1, cache: bool = False,
                 cache_dir: Optional[Path] = None,
                 progress: Optional[Callable[[CellProgress], None]] = None
                 ) -> None:
        if jobs is None or jobs < 1:
            jobs = os.cpu_count() or 1
        self.jobs = jobs
        self.cache = CellCache(cache_dir or default_cache_dir()) \
            if cache else None
        self.progress = progress

    def _emit(self, index: int, total: int, spec: CellSpec, cached: bool,
              duration_s: float) -> None:
        if self.progress is not None:
            self.progress(CellProgress(index=index, total=total,
                                       label=spec.label, cached=cached,
                                       duration_s=duration_s))

    def run(self, cells: Sequence[CellSpec]) -> list[dict]:
        """Execute ``cells``; returns their payloads in input order.

        Before it forks a pool, the parent imports the engine and
        instruments every pending cell arms
        (:func:`~repro.core.experiment.import_ingredients`), so that
        the workers inherit them instead of each compiling them; a
        serial run imports them cell by cell, as each session builds.
        """
        total = len(cells)
        payloads: list[Optional[dict]] = [None] * total
        fingerprints: list[Optional[str]] = [None] * total
        pending: list[int] = []
        for index, spec in enumerate(cells):
            if self.cache is not None:
                fingerprints[index] = cell_fingerprint(spec)
                hit = self.cache.get(fingerprints[index])
                if hit is not None:
                    payloads[index] = hit
                    self._emit(index, total, spec, cached=True,
                               duration_s=0.0)
                    continue
            pending.append(index)

        def finish(index: int,
                   outcome: Callable[[], tuple[dict, float]]) -> None:
            spec = cells[index]
            try:
                payload, elapsed = outcome()
            except Exception as exc:
                # The traceback alone does not say which cell it was.
                raise RuntimeError(f"cell {spec.label!r} failed") from exc
            payloads[index] = payload
            if self.cache is not None:
                self.cache.put(fingerprints[index], spec.label, payload)
            self._emit(index, total, spec, cached=False, duration_s=elapsed)

        if self.jobs > 1 and len(pending) > 1:
            # Imported here: a serial run (the default) never pays for
            # the pool machinery.
            from concurrent.futures import ProcessPoolExecutor, as_completed
            from concurrent.futures.process import BrokenProcessPool
            # Compiled once, here: forked workers inherit the modules.
            for index in pending:
                spec = cells[index]
                import_ingredients(spec.config, any(
                    run.adaptive for run in spec.warm + spec.runs))
            workers = min(self.jobs, len(pending))
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=_pool_context()) as pool:
                futures = {}
                try:
                    # A worker that dies while later cells are still being
                    # submitted breaks the pool under ``submit`` itself.
                    for i in pending:
                        futures[pool.submit(_execute_cell_timed, cells[i])] = i
                    for future in as_completed(futures):
                        if isinstance(future.exception(), BrokenProcessPool):
                            # Not this cell's fault: see just below.
                            raise future.exception()
                        finish(futures[future], future.result)
                except BrokenProcessPool as exc:
                    # Whichever future as_completed yields first may be a
                    # cell that never started: name every one in flight.
                    unfinished = ", ".join(repr(cells[i].label)
                                           for i in pending
                                           if payloads[i] is None)
                    raise RuntimeError(f"a worker process died; cells not "
                                       f"finished: {unfinished}") from exc
                except BaseException:
                    # The sweep is lost: do not start what is left.
                    for future in futures:
                        future.cancel()
                    raise
        else:
            for index in pending:
                finish(index, partial(_execute_cell_timed, cells[index]))
        return payloads  # type: ignore[return-value]
