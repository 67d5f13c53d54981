"""Wrappers around purestate's public functions: result capture and in-memory spans.

A function is wrapped under every name the loaded ``purestate`` modules hold
it by, so a caller that looks up ``purestate.reconstruction.build_system`` or
``purestate.benchmark.reconstruct`` reaches the wrapper.  Wrappers are removed
again by ``Probe.undo``; nothing in the package is edited.

Spans are appended to flat arrays (name, start, end, parent, operation) and
written to an .npz file when the run ends.  A span's self time is its
duration less the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (span name, home module, function): timed in the traced run.
SPANNED = (
    ("benchmark", "purestate.benchmark", "run_trial"),
    ("benchmark", "purestate.benchmark", "bootstrap_ci"),
    ("cli", "purestate.cli", "cli_main"),
    ("reconstruction.reconstruct", "purestate.reconstruction", "reconstruct"),
    ("reconstruction.amplitudes", "purestate.reconstruction", "amplitudes_from_counts"),
    ("reconstruction.build_system", "purestate.reconstruction", "build_system"),
    ("reconstruction.solve_phase", "purestate.reconstruction", "solve_phase"),
    ("measurement.simulate", "purestate.measurement", "simulate_counts"),
    ("measurement.born_probs", "purestate.measurement", "born_probs"),
    ("measurement.sample", "purestate.measurement", "sample_counts"),
    ("measurement.write_counts", "purestate.measurement", "write_counts"),
    ("measurement.read_counts", "purestate.measurement", "read_counts"),
    ("bases.apply_gates", "purestate.bases", "apply_gates"),
    ("states.prepare", "purestate.states", "haar_random"),
    ("states.prepare", "purestate.states", "random_separable"),
    ("states.prepare", "purestate.states", "named_state"),
    ("states.save_state", "purestate.states", "save_state"),
    ("states.load_state", "purestate.states", "load_state"),
)

# (counter name, home module, function, what to add per call): counted, not timed.
COUNTED = (
    ("bases.outcome_role_calls", "purestate.bases", "outcome_role", lambda out: 1),
    ("bases.gate_applications", "purestate.bases", "circuit_gates", len),
)

# Functions whose calls and results the checks read, in traced and untraced runs alike.
CAPTURED = (
    ("reconstruct", "purestate.reconstruction", "reconstruct"),
    ("write_counts", "purestate.measurement", "write_counts"),
    ("save_state", "purestate.states", "save_state"),
)


class Tracer:
    """Spans kept in memory as parallel arrays; ``op`` is the operation a span belongs to."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.open: list[int] = []
        self.current_op = -1
        self.counts: dict[str, int] = {}

    def intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.open[-1] if self.open else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.open.pop()

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds) over all recorded spans."""
        names = np.frombuffer(self.name_id, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        return {nm: (int(calls[i]), float(total[i]), float(own[i])) for i, nm in enumerate(self.names)}

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )


def _aliases(fn) -> list:
    """(module, attribute) pairs of the loaded purestate modules that hold ``fn``."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "purestate" or name.startswith("purestate.")):
            out.extend((mod, attr) for attr, val in vars(mod).items() if val is fn)
    return out


def _spanning(fn, tracer: Tracer, nid: int):
    begin, finish = tracer.begin, tracer.finish

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            finish(idx)

    return wrapper


def _counting(fn, counts: dict, key: str, amount):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        counts[key] = counts.get(key, 0) + amount(out)
        return out

    return wrapper


def _capturing(fn, sink: list):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        sink.append((args, kwargs, out))
        return out

    return wrapper


class Probe:
    """Installs and removes the wrappers; ``calls`` holds the captured calls of the current operation."""

    def __init__(self):
        self.calls: dict[str, list] = {key: [] for key, _, _ in CAPTURED}
        self.tracer = Tracer()
        self._saved: list = []
        self._mark = 0

    def _wrap(self, module: str, attr: str, make) -> None:
        fn = getattr(sys.modules[module], attr)
        wrapper = make(fn)
        for mod, name in _aliases(fn):
            self._saved.append((mod, name, fn))
            setattr(mod, name, wrapper)

    def capture(self) -> None:
        for key, module, attr in CAPTURED:
            self._wrap(module, attr, lambda fn, sink=self.calls[key]: _capturing(fn, sink))

    def trace(self) -> None:
        """Add spans and counters on top of whatever is installed; undone by ``untrace``."""
        self._mark = len(self._saved)
        for name, module, attr in SPANNED:
            nid = self.tracer.intern(name)
            self._wrap(module, attr, lambda fn, nid=nid: _spanning(fn, self.tracer, nid))
        for key, module, attr, amount in COUNTED:
            self._wrap(module, attr, lambda fn, key=key, amount=amount: _counting(fn, self.tracer.counts, key, amount))

    def untrace(self) -> None:
        self.undo(keep=self._mark)

    def undo(self, keep: int = 0) -> None:
        while len(self._saved) > keep:
            mod, name, fn = self._saved.pop()
            setattr(mod, name, fn)

    def clear(self) -> None:
        for sink in self.calls.values():
            sink.clear()
