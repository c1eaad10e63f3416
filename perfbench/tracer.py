"""In-memory spans around public flmrac functions, for the traced pass only.

`Tracer.install()` replaces each target attribute (a module function or a
class method) with a wrapper that records one span per call: its name, start
and end (``time.perf_counter``), the thread CPU time it used
(``time.thread_time``), the span that was open on the same thread when it
started (its parent), and the repetition id the harness set.  Spans live in
per-thread ``array`` buffers, so the hot path takes no lock, and stay in
memory until `Tracer.save()` writes them out after the run.

`Tracer.restore()` puts the original objects back; `assert_originals()`
proves that a pass runs the program's own functions, untouched.

A layer's self time is its span's CPU time minus the CPU time of its child
spans (children nest on one thread, so they cover disjoint parts of it).  CPU
time, not wall time, because `compare` runs members on a thread pool: a wall
span there also covers whatever other threads ran while it held no GIL.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: `owner.attr` becomes a span called `span`.

    `post(args, result, counters)`, if given, runs after the span closes.
    """

    span: str
    owner: object
    attr: str
    post: object = None


class _Buffer:
    """Spans recorded by one thread."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.rep = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cpu = array("d")
        self.counters: dict[str, int] = {}
        self.open = -1      # index of the innermost open span


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = list(targets)
        self.originals = [vars(t.owner)[t.attr] for t in self.targets]
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.rep_id = -1

    # -- recording -------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = _Buffer()
        self._local.buf = buf
        with self._lock:
            self._buffers.append(buf)
        return buf

    def _span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, target: Target, fn):
        sid = self._span_id(target.span)
        local = self._local
        new_buffer = self._buffer
        tracer = self
        clock = time.perf_counter
        cpu_clock = time.thread_time
        post = target.post

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = new_buffer()
            idx = len(buf.start)
            buf.name.append(sid)
            buf.parent.append(buf.open)
            buf.rep.append(tracer.rep_id)
            buf.end.append(0.0)
            buf.cpu.append(0.0)
            outer = buf.open
            buf.open = idx
            c0 = cpu_clock()
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                buf.cpu[idx] = cpu_clock() - c0
                buf.open = outer
            if post is not None:
                post(args, result, buf.counters)
            return result

        traced.__perfbench_span__ = target.span
        return traced

    def install(self) -> None:
        self.assert_originals()
        for target, orig in zip(self.targets, self.originals):
            setattr(target.owner, target.attr, self._wrap(target, orig))

    def restore(self) -> None:
        for target, orig in zip(self.targets, self.originals):
            setattr(target.owner, target.attr, orig)
        self.assert_originals()

    def assert_originals(self) -> None:
        """Raise unless every target attribute is the program's own object."""
        for target, orig in zip(self.targets, self.originals):
            current = vars(target.owner)[target.attr]
            if current is not orig or hasattr(current, "__perfbench_span__"):
                raise RuntimeError(f"{target.span}: {target.owner!r}.{target.attr} "
                                   "is not the original function object")

    # -- analysis --------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays, parents re-indexed across threads."""
        cols = {k: [] for k in ("name", "parent", "rep", "start", "end", "cpu_s")}
        offset = 0
        for buf in self._buffers or [_Buffer()]:
            parent = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["name"].append(np.frombuffer(buf.name, dtype=np.int32))
            cols["rep"].append(np.frombuffer(buf.rep, dtype=np.int32))
            cols["start"].append(np.frombuffer(buf.start, dtype=np.float64))
            cols["end"].append(np.frombuffer(buf.end, dtype=np.float64))
            cols["cpu_s"].append(np.frombuffer(buf.cpu, dtype=np.float64))
            offset += len(buf.start)
        out = {k: np.concatenate(v) for k, v in cols.items()}
        cpu = out["cpu_s"]
        child = out["parent"] >= 0
        covered = np.bincount(out["parent"][child], weights=cpu[child], minlength=cpu.size)
        out["dur"] = out["end"] - out["start"]
        out["self"] = cpu - covered
        return out

    def counters(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for buf in self._buffers:
            for k, v in buf.counters.items():
                total[k] = total.get(k, 0) + v
        return total

    def save(self, path: Path, spans: dict[str, np.ndarray]) -> None:
        """Write every span (and the name table) to one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 **{k: spans[k] for k in ("name", "parent", "rep", "start", "end", "cpu_s")})
