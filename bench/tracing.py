"""Spans around calls into kzring's layers, recorded from the benchmark side.

The tracer replaces a module attribute with a timing wrapper, in the module
whose namespace the caller looks the name up in: `runner` imports
`equilibrium_magnetization` by name, so the wrapper goes on
`kzring.runner.equilibrium_magnetization`, while `para.concurrence` is
reached through the `kzring.para` module object and is wrapped there.
Nothing under `src/` changes.

Spans (name, start, end, parent, iteration) are kept in typed arrays in
memory and written out once, when the benchmark ends.  A few counters ride
along where a span alone cannot tell the work done: distinct argument
tuples, sampler clamps, domains evaluated and CSV bytes written.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name).  A missing attribute is skipped, so a
# later refactor that drops a call simply reports zero calls for it.
TARGETS = (
    ("kzring.runner", "run_scenario", "runner.run_scenario"),
    ("kzring.cli", "run_scenario", "runner.run_scenario"),
    ("kzring.runner", "write_outputs", "runner.write_outputs"),
    ("kzring.cli", "write_outputs", "runner.write_outputs"),
    ("kzring.runner", "emit_csv", "runner.emit_csv"),
    ("kzring.runner", "oracle_report", "runner.oracle_report"),
    ("kzring.runner", "domain_partition", "scaling.domain_partition"),
    ("kzring.runner", "equilibrium_magnetization", "sampler.equilibrium_magnetization"),
    ("kzring.runner", "sample_initial_directions", "sampler.sample_initial_directions"),
    ("kzring.sampler", "ring_hamiltonian", "exact.ring_hamiltonian"),
    ("kzring.runner", "closed_form_check", "concurrence.closed_form_check"),
    ("kzring.runner", "scs_cross_check", "exact.scs_cross_check"),
    ("kzring.runner", "overlap_exact", "scs.overlap_exact"),
    ("kzring.para", "concurrence", "para.concurrence"),
    ("kzring.para", "branch_overlap", "para.branch_overlap"),
    ("kzring.dia", "concurrence", "dia.concurrence"),
    ("kzring.dia", "branch_overlap", "dia.branch_overlap"),
)


def _observe_distinct(tracer, name, args, kwargs, result):
    tracer.keys[tracer.iteration][name].add(repr((args, sorted(kwargs.items()))))


def _observe_sampler(tracer, name, args, kwargs, result):
    _observe_distinct(tracer, name, args, kwargs, result)
    if getattr(result, "clamped", False):
        tracer.counts[tracer.iteration][f"{name}.clamped"] += 1


def _observe_domains(tracer, name, args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    tracer.counts[tracer.iteration]["dia.domain_evals"] += len(cfg.ensemble.directions)


def _observe_csv(tracer, name, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts[tracer.iteration]["runner.emit_csv.bytes"] += os.path.getsize(path)


OBSERVERS = {
    "sampler.equilibrium_magnetization": _observe_distinct,
    "sampler.sample_initial_directions": _observe_sampler,
    "dia.branch_overlap": _observe_domains,
    "runner.emit_csv": _observe_csv,
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.iter = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.iteration = 0
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.keys: dict[int, dict[str, set]] = defaultdict(lambda: defaultdict(set))
        self._installed: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.iter.append(self.iteration)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def record(self, name: str, start_ns: int, end_ns: int) -> int:
        """Add a finished span measured elsewhere, under the current parent."""
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.iter.append(self.iteration)
        self.start.append(start_ns)
        self.end.append(end_ns)
        return idx

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid, observe, tracer = self._id(name), OBSERVERS.get(name), self

        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(tracer, name, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target attribute of the already imported kzring modules."""
        import importlib

        originals: dict[int, object] = {}
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            # cli and runner share one run_scenario; give both the same wrapper.
            if id(fn) not in originals:
                originals[id(fn)] = self.wrap(name, fn)
            self._installed.append((module, attr, fn))
            setattr(module, attr, originals[id(fn)])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    # -- persistence -------------------------------------------------------

    def save(self, path: str) -> None:
        meta = {
            "names": self.names,
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
            "keys": {
                str(k): {n: sorted(s) for n, s in v.items()} for k, v in self.keys.items()
            },
        }
        with open(path, "wb") as fh:
            np.savez(
                fh,
                name=np.frombuffer(self.name, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                iteration=np.frombuffer(self.iter, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.int64),
                end=np.frombuffer(self.end, dtype=np.int64),
                meta=np.array(json.dumps(meta)),
            )

    def merge(self, path: str, parent: int) -> None:
        """Append the spans a child process saved, its roots under `parent`."""
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            ids = np.array([self._id(n) for n in meta["names"]], dtype=np.int32)
            offset = len(self.start)
            parents = data["parent"]
            self.name.extend(ids[data["name"]].tolist())
            self.parent.extend(
                np.where(parents < 0, parent, parents + offset).tolist()
            )
            self.iter.extend([self.iteration] * len(parents))
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
        for counts in meta["counts"].values():
            self.counts[self.iteration].update(counts)
        for keys in meta["keys"].values():
            for name, values in keys.items():
                self.keys[self.iteration][name].update(values)

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self, iteration: int) -> dict[str, float]:
        """Counts and busy seconds per layer for one traced iteration."""
        name = np.frombuffer(self.name, dtype=np.int32)
        sel = np.frombuffer(self.iter, dtype=np.int32) == iteration
        idx = np.nonzero(sel)[0]
        name = name[idx]
        dur = (
            np.frombuffer(self.end, dtype=np.int64)[idx]
            - np.frombuffer(self.start, dtype=np.int64)[idx]
        ) / 1e9
        parent = np.frombuffer(self.parent, dtype=np.int32)[idx]
        all_names = np.frombuffer(self.name, dtype=np.int32)
        parent_name = np.where(parent >= 0, all_names[np.maximum(parent, 0)], -1)

        def pick(label: str) -> np.ndarray:
            nid = self._ids.get(label, -2)
            return name == nid

        def calls(label: str) -> int:
            return int(pick(label).sum())

        def busy(label: str) -> float:
            return float(dur[pick(label)].sum())

        def direct_calls(label: str, inside: str) -> int:
            # Calls not made by the module's own concurrence, i.e. the
            # caller asked for the overlap a second time.
            return int((pick(label) & (parent_name != self._ids.get(inside, -2))).sum())

        counts, keys = self.counts[iteration], self.keys[iteration]
        out: dict[str, float] = {}
        for label in (
            "scaling.domain_partition",
            "sampler.equilibrium_magnetization",
            "exact.ring_hamiltonian",
            "sampler.sample_initial_directions",
            "runner.emit_csv",
            "concurrence.closed_form_check",
            "exact.scs_cross_check",
            "scs.overlap_exact",
        ):
            out[f"{label}.calls"] = calls(label)
            out[f"{label}.s"] = busy(label)
        for label in ("sampler.equilibrium_magnetization", "sampler.sample_initial_directions"):
            out[f"{label}.distinct"] = len(keys.get(label, ()))
        out["sampler.sample_initial_directions.clamped"] = counts[
            "sampler.sample_initial_directions.clamped"
        ]
        for mod in ("para", "dia"):
            n = calls(f"{mod}.concurrence")
            out[f"{mod}.concurrence.calls"] = n
            out[f"{mod}.concurrence.us_per_call"] = (
                busy(f"{mod}.concurrence") / n * 1e6 if n else 0.0
            )
            out[f"{mod}.branch_overlap.calls"] = direct_calls(
                f"{mod}.branch_overlap", f"{mod}.concurrence"
            )
        out["dia.domain_evals"] = counts["dia.domain_evals"]
        out["runner.emit_csv.bytes"] = counts["runner.emit_csv.bytes"]
        out["runner.write_outputs.s"] = busy("runner.write_outputs")
        out["runner.oracle_report.s"] = busy("runner.oracle_report")
        out["cli.main.s"] = busy("cli.main")
        out["cli.process_overhead_s"] = (
            busy("cli.process") - busy("import.kzring_cli") - busy("cli.main")
        )

        run = pick("runner.run_scenario")
        run_ids = idx[run]
        child_of_run = np.isin(parent, run_ids)
        out["runner.run_scenario.self_s"] = float(dur[run].sum() - dur[child_of_run].sum())
        return out
