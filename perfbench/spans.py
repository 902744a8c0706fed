"""Span tracing for the kernel benchmark's traced run.

The tracer installs wrappers around public functions of each kernel
layer, records a span (name, start, end, parent, count) per call while
a root span ("run" or "resume") is open, and turns the spans into
per-layer self times. Nothing under ``src/`` changes: the wrappers are
set on the modules and classes from outside and removed again by
:meth:`Tracer.uninstall`.

Every wrapper is named after the metric its self time feeds, so the
self times of all spans under the "run" root plus the root's own self
time (``trace.unattributed_frac``) add up to the traced ``run_s``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: spans whose subtree is charged to them as a whole: the conflict
#: scans inside Newscast view exchanges are view-merge work, not value
#: exchanges
ABSORBING = ("backend.view_merge_s",)

#: span metric -> the count metric its ``count`` field feeds
COUNT_NAMES = {
    "backend.batch_s": "backend.batch_steps",
    "backend.tail_s": "backend.tail_steps",
    "backend.conflict_s": "backend.scan_steps",
    "membership.draw_s": "membership.draws",
    "observe.s": "observe.calls",
    "checkpoint.write_s": "checkpoint.bytes",
}


def _arg_len(position: int) -> Callable:
    return lambda args, kwargs, result: len(args[position])


def _checkpoint_bytes(args, kwargs, result) -> int:
    """Payload plus manifest size of the checkpoint just written
    (``prune_checkpoints`` shares the metric and returns a count, not a
    path, so it adds nothing)."""
    if not isinstance(result, Path):
        return 0
    return result.stat().st_size + result.with_suffix(".npz").stat().st_size


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        #: one ``[name, start, end, parent, count]`` list per span
        self.spans: List[list] = []
        #: counting-only tallies (hot scalar calls get no span)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """A top-level measured region; wrappers record only inside one."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner, attr: str, make: Callable) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            patched = classmethod(make(raw.__func__))
        else:
            patched = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def span(self, owner, attr: str, name: str,
             count: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``;
        ``count(args, kwargs, result)`` adds to the span's count."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self._stack:
                    return fn(*args, **kwargs)
                index = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                    if count is not None:
                        self.spans[index][4] = count(args, kwargs, result)
                    return result
                finally:
                    self._close(index)
            return wrapper
        self._patch(owner, attr, make)

    def tally(self, owner, attr: str, count: Callable) -> None:
        """Count-only wrapper: ``count(result)`` returns ``{name: n}``."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if self._stack:
                    for key, value in count(result).items():
                        self.counts[key] += value
                return result
            return wrapper
        self._patch(owner, attr, make)

    def install(self) -> "Tracer":
        """Wrap the public entry points of every kernel layer."""
        from repro.kernel import engine, invariants, lifecycle, membership, messages
        from repro.kernel.backends import base, vectorized

        vec = vectorized.VectorizedBackend
        self.span(vec, "apply_exchanges", "backend.apply_s")
        self.span(vec, "apply_view_exchanges", "backend.view_merge_s")
        self.span(vectorized, "apply_disjoint_batch", "backend.batch_s", _arg_len(2))
        self.span(vectorized, "apply_sequential", "backend.tail_s", _arg_len(2))
        self.span(vectorized, "merge_views_batch", "backend.view_merge_s")
        self.span(vectorized, "merge_views_sequential", "backend.view_merge_s")
        self.span(base, "first_occurrence_ready", "backend.conflict_s", _arg_len(0))

        self.span(membership.NewscastProvider, "begin_cycle", "membership.refresh_s")
        for provider in (membership.PartnerProvider, membership.OracleProvider,
                         membership.NewscastProvider):
            for attr in ("draw", "redraw"):
                if attr in provider.__dict__:
                    self.span(provider, attr, "membership.draw_s", _arg_len(1))

        gossip = engine.GossipEngine
        self.span(gossip, "run_cycle", "engine.self_s")
        for attr in ("variance", "mean", "alive_column"):
            self.span(gossip, attr, "observe.s", lambda args, kwargs, result: 1)
        for monitor in (invariants.MassConservationMonitor,
                        invariants.VarianceMonotonicityMonitor,
                        invariants.StructureMonitor):
            self.span(monitor, "observe", "invariants.observe_s")
        self.span(gossip, "checkpoint", "checkpoint.state_s")
        self.span(engine, "write_checkpoint", "checkpoint.write_s", _checkpoint_bytes)
        self.span(engine, "prune_checkpoints", "checkpoint.write_s", _checkpoint_bytes)
        self.span(gossip, "restore", "checkpoint.load_s")
        self.span(engine, "read_checkpoint", "checkpoint.read_s")

        self.tally(messages.RetrySpec, "delay",
                   lambda result: {"messages.delay_calls": 1})
        self.tally(lifecycle.ChurnTrace, "step",
                   lambda step: {"lifecycle.joins": step.joins,
                                 "lifecycle.leaves": step.leaves})
        return self

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Write the recorded spans out as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, count in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "count": count}) + "\n")


# -- analysis -----------------------------------------------------------------

def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part of its interval that its
    child spans cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        children[span[3]].append(index)
    result = []
    for index, (name, start, end, parent, count) in enumerate(spans):
        intervals = sorted(
            (max(spans[c][1], start), min(spans[c][2], end))
            for c in children[index]
        )
        covered, reach = 0.0, start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def _percentile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def layer_metrics(spans: List[list], counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer self times and counts under the "run" and "resume" roots.

    Returns every span metric's summed self time, every count metric,
    ``engine.cycle_s_p50``/``p90`` (inclusive ``run_cycle`` spans) and
    ``trace.unattributed_frac`` (the "run" root's own self time over its
    duration). A rep restores several times, so whatever sits under
    "resume" roots is averaged over them: it describes one restore.
    """
    own = self_times(spans)
    group = [None] * len(spans)
    root = [None] * len(spans)
    roots = defaultdict(int)
    for name, start, end, parent, count in spans:
        if parent == -1:
            roots[name] += 1
    metrics: Dict[str, float] = defaultdict(float)
    cycles = []
    unattributed = run_total = 0.0
    for index, (name, start, end, parent, count) in enumerate(spans):
        if parent == -1:
            root[index] = name
            if name == "run":
                unattributed += own[index]
                run_total += end - start
            continue
        root[index] = root[parent]
        weight = 1.0 / roots[root[index]]
        inherited = group[parent]
        absorbed = inherited in ABSORBING
        group[index] = inherited if absorbed else name
        metrics[group[index]] += own[index] * weight
        if not absorbed and name in COUNT_NAMES:
            metrics[COUNT_NAMES[name]] += count * weight
        if name == "engine.self_s":
            cycles.append(end - start)
    for key, value in counts.items():
        metrics[key] += value
    metrics["engine.cycle_s_p50"] = _percentile(cycles, 0.5)
    metrics["engine.cycle_s_p90"] = _percentile(cycles, 0.9)
    metrics["trace.unattributed_frac"] = (
        unattributed / run_total if run_total else 0.0
    )
    applied = metrics["backend.batch_steps"] + metrics["backend.tail_steps"]
    metrics["backend.batch_share"] = (
        metrics["backend.batch_steps"] / applied if applied else 0.0
    )
    metrics["backend.scan_steps_per_exchange"] = (
        metrics.pop("backend.scan_steps") / applied if applied else 0.0
    )
    return dict(metrics)
