"""Layer spans recorded from outside the package.

The tracer replaces each layer's public functions at every ``opineq``
module binding that refers to them, plus ``SpdMatrix.from_eigh``,
``ReportDocument.from_campaign`` and the ``numpy.linalg`` entry points,
with wrappers that record one span per call. Nothing inside ``src/`` is
edited; leaving the ``with`` block restores every binding.

Spans are aggregated in memory as they close, per thread, into
(calls, self CPU seconds, errors) per function. Self time is the span's
duration minus the part its child spans cover. Durations are per-thread
CPU time (``time.thread_time``), so a thread waiting for the GIL or for
a pool's futures accrues nothing, and self times summed over threads
never count the same second twice. Wall-clock durations are kept only
for the spans the benchmark reports as wall time: each ``run_campaign``
and each ``cli_main`` call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time

import numpy.linalg

# Package modules, in layer order. Each one is also a layer name.
LAYERS = ("spd", "means_maps", "samplers", "inequalities", "campaign", "search",
          "report", "cli")

# numpy.linalg calls, whichever module makes them. They are reported
# under the spd layer's names (spd.eigh.calls, ...) and spd.lapack_s.
LAPACK = "lapack"


class _ThreadStats:
    __slots__ = ("stack", "stats")

    def __init__(self):
        self.stack: list[float] = []
        self.stats: dict[tuple[str, str], list] = {}


class Tracer:
    """Install span wrappers on entry, restore the package on exit.

    ``totals()`` gives {(layer, name): (calls, self_s, errors)} summed
    over threads. ``campaigns`` holds one entry per ``run_campaign``
    call, ``searches`` one per ``maximize_ratio`` call, ``cli_walls``
    one wall time per ``cli_main`` call, and ``report_bytes`` the bytes
    ``emit_report`` wrote.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadStats] = []
        self._restore: list = []
        self._pool_threads: set[int] = set()
        self.campaigns: list[dict] = []
        self.searches: list[dict] = []
        self.cli_walls: list[float] = []
        self.report_bytes = 0

    def _state(self) -> _ThreadStats:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadStats()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def _wrap(self, layer: str, name: str, fn, on_return=None):
        """Span around fn; on_return(result, args, kwargs, wall_s) sees each success."""
        key = (layer, name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            state = self._state()
            stack = state.stack
            stack.append(0.0)
            failed = True
            wall = time.perf_counter()
            start = time.thread_time()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                elapsed = time.thread_time() - start
                wall = time.perf_counter() - wall
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                rec = state.stats.get(key)
                if rec is None:
                    rec = state.stats[key] = [0, 0.0, 0]
                rec[0] += 1
                rec[1] += elapsed - child
                rec[2] += failed
            if on_return is not None:
                on_return(result, args, kwargs, wall)
            return result

        return span

    def totals(self) -> dict[tuple[str, str], tuple[int, float, int]]:
        out: dict[tuple[str, str], list] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for key, (calls, self_s, errors) in state.stats.items():
                acc = out.setdefault(key, [0, 0.0, 0])
                acc[0] += calls
                acc[1] += self_s
                acc[2] += errors
        return {key: tuple(val) for key, val in out.items()}

    def _on_campaign(self, report, args, kwargs, wall):
        config = args[0] if args else kwargs["config"]
        self.campaigns.append({
            "theorems": tuple(config.theorem_ids),
            "cells": len(report.cells),
            "draws": len(report.cells) * config.samples,
            "checks": report.total_checks,
            "wall_s": wall,
        })

    def _on_search(self, result, args, kwargs, wall):
        self.searches.append({
            "theorem": result.theorem_id,
            "evaluations": result.evaluations,
            "restarts": result.restarts,
            "threads": max(1, len(self._pool_threads)),
        })
        self._pool_threads = set()

    def _on_emit(self, result, args, kwargs, wall):
        path = args[2] if len(args) > 2 else kwargs["path"]
        self.report_bytes += os.path.getsize(path)

    def _on_cli(self, result, args, kwargs, wall):
        self.cli_walls.append(wall)

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """Spans each task as a search restart and notes the thread running it."""

            def submit(self, fn, /, *args, **kwargs):
                restart = tracer._wrap("search", "restart", fn)

                def task(*a, **k):
                    tracer._pool_threads.add(threading.get_ident())
                    return restart(*a, **k)

                return super().submit(task, *args, **kwargs)

        return TracedPool

    def _set(self, owner, name, value):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self):
        package = importlib.import_module("opineq")
        modules = {layer: importlib.import_module(f"opineq.{layer}") for layer in LAYERS}
        sites = [package, *modules.values()]
        hooks = {
            ("campaign", "run_campaign"): self._on_campaign,
            ("search", "maximize_ratio"): self._on_search,
            ("report", "emit_report"): self._on_emit,
            ("cli", "cli_main"): self._on_cli,
        }
        for layer, module in modules.items():
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(layer, name, fn, hooks.get((layer, name)))
                for site in sites:
                    if site.__dict__.get(name) is fn:
                        self._set(site, name, wrapped)

        for cls, layer, name in ((modules["spd"].SpdMatrix, "spd", "from_eigh"),
                                 (modules["report"].ReportDocument, "report",
                                  "from_campaign")):
            method = cls.__dict__[name]
            self._set(cls, name, classmethod(self._wrap(layer, name, method.__func__)))

        # Restarts run on this pool while the search layer has one.
        pool = modules["search"].__dict__.get("ThreadPoolExecutor")
        if pool is not None:
            self._set(modules["search"], "ThreadPoolExecutor", self._pool_class(pool))

        for name in dir(numpy.linalg):
            fn = getattr(numpy.linalg, name)
            if name.startswith("_") or name == "test" or inspect.isclass(fn) or not callable(fn):
                continue
            self._set(numpy.linalg, name, self._wrap(LAPACK, name, fn))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        return False
