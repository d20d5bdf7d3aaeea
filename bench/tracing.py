"""Spans around calls into each `qcra` layer, recorded from outside the program.

The tracer replaces public names with timing wrappers at the places their
callers look them up (a module attribute, or a name a module imported from
another), keeps every span in memory as (name, op, parent, start, end), and
restores the originals when it is removed. A layer is the module that owns
the function; its self time is its spans' durations minus the time their
child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "circuits", "variational", "simkit", "noise", "riskpipe", "transpiler", "finmodel")
ROOT = "bench.op"



class Tracer:
    # Where a span was recorded when not inside an op (ops carry their index, >= 0):
    SETUP = -1  # set-up, and the benchmark's own work between ops
    PROBE = -2  # the per-layer probe after the traced ops

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current = self.SETUP
        # Counters over op spans only, and per-build readout sizes from any phase.
        self.counts: dict[str, float] = defaultdict(float)
        self.readout_bytes: dict[int, list[int]] = defaultdict(list)
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ---

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.op.append(self.current)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def begin_op(self, index: int) -> int:
        """Open the root span of op `index`; spans until the next phase change belong to it."""
        self.current = index
        return self.begin(ROOT)

    def finish(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float):
        if self.current >= 0:
            self.counts[key] += value

    # --- wrapping ---

    def _traced(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return traced

    def wrap(self, owners, attr: str, name, counter=None):
        """Replace owner.attr on every owner with one traced wrapper.

        `owners` are the modules or classes through which callers reach the
        function; a classmethod stays a classmethod.
        """
        first = owners[0]
        raw = first.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._traced(raw.__func__, name, counter))
        else:
            wrapper = self._traced(raw, name, counter)
        for owner in owners:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def install(self, qcra_modules: dict):
        """Wrap the public entry points of every layer (see README for the map)."""
        m = qcra_modules
        cli, circuits, variational, simkit = m["cli"], m["circuits"], m["variational"], m["simkit"]
        noise, riskpipe, transpiler, finmodel = m["noise"], m["riskpipe"], m["transpiler"], m["finmodel"]

        self.wrap([cli], "main", "cli.main")
        self.wrap([cli], "build_parser", "cli.build_parser")

        def built(tr, args, kwargs, result):
            tr.count("circuits.builds", 1)

        self.wrap([circuits, variational], "build_two_qubit_loader", "circuits.build", built)
        self.wrap([circuits, variational], "build_three_qubit_loader", "circuits.build", built)
        self.wrap([circuits, riskpipe], "build_gci_ideal", "circuits.build", built)
        self.wrap([circuits, riskpipe], "build_gci_transpiled", "circuits.build", built)

        self.wrap([variational], "train_loader", "variational.train")
        self.wrap([variational], "parameter_shift_gradient", "variational.grad",
                  lambda tr, a, k, r: tr.count("variational.grad_calls", 1))
        self.wrap([variational], "adam_step", "variational.adam")

        def simulate_name(args, kwargs):
            n = args[0].n_qubits
            return "simkit.simulate.small" if n <= 3 else (
                "simkit.simulate.wide" if n >= 10 else "simkit.simulate.mid")

        def simulated(tr, args, kwargs, result):
            circuit = args[0]
            gates = len(circuit.gates)
            tr.count("simkit.simulate_calls", 1)
            tr.count("simkit.gates_applied", gates)
            # each gate kernel reads and writes the whole complex128 vector
            tr.count("simkit.bytes_moved", gates * 2 * 16 * 2**circuit.n_qubits)

        self.wrap([simkit], "simulate", simulate_name, simulated)
        self.wrap([simkit], "circuit_probabilities", "simkit.probabilities")

        def readout_built(tr, args, kwargs, result):
            tr.readout_bytes[tr.current].append(result.matrix.nbytes)

        self.wrap([noise.ConfusionMatrix], "from_factors", "noise.readout_build", readout_built)
        self.wrap([noise, riskpipe], "apply_confusion", "noise.confusion_apply")
        self.wrap([noise, riskpipe], "sample_shots", "noise.sample",
                  lambda tr, a, k, r: tr.count("noise.shots_drawn", r.n_shots))
        self.wrap([noise], "spam_statistics", "noise.spam")
        self.wrap([noise.ShotCounts], "frequencies", "noise.frequencies")

        def decoded(tr, args, kwargs, result):
            outcomes = args[0]
            n = len(outcomes.counts) if hasattr(outcomes, "counts") else int(np.count_nonzero(outcomes))
            tr.count("riskpipe.outcomes_decoded", n)

        self.wrap([riskpipe], "run_gci_pipeline", "riskpipe.pipeline")
        self.wrap([riskpipe], "decode_counts", "riskpipe.decode", decoded)
        self.wrap([riskpipe], "var", "riskpipe.var_cvar")
        self.wrap([riskpipe], "cvar", "riskpipe.var_cvar")

        def routed(tr, args, kwargs, result):
            tr.count("transpiler.swaps", result.swap_count)
            tr.count("transpiler.cz_count", result.cz_count)

        self.wrap([transpiler], "route", "transpiler.route", routed)
        self.wrap([finmodel.GciModel], "__post_init__", "finmodel.model")

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- analysis ---

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def summary(self) -> dict:
        """Per-name call statistics and per-layer self time over the op spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.zeros(len(dur))
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_t = dur - child
        parent_name = np.where(has_parent, a["name"][np.maximum(a["parent"], 0)], -1)
        outermost = parent_name != a["name"]
        in_ops = a["op"] >= 0
        in_workload = a["op"] != self.PROBE

        calls = {}
        for nid, name in enumerate(self.names):
            sel = (a["name"] == nid) & outermost
            # the workload's own calls (ops and set-up) when it makes any, else the probe's
            use = sel & in_workload if np.any(sel & in_workload) else sel
            k = int(use.sum())
            calls[name] = {
                "calls": k,
                "source": "workload" if np.any(sel & in_workload) else "probe",
                "mean_s": float(dur[use].mean()) if k else 0.0,
                "self_mean_s": float(self_t[use].mean()) if k else 0.0,
            }

        roots = in_ops & (a["name"] == self._ids.get(ROOT, -2))
        n_ops = int(roots.sum())
        op_time = float(dur[roots].sum())
        layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
        for nid, name in enumerate(self.names):
            layer_self[name.split(".")[0]] += float(self_t[in_ops & (a["name"] == nid)].sum())
        return {
            "ops": n_ops,
            "op_time_s": op_time,
            "self_s_by_layer": dict(layer_self),
            "calls": calls,
        }

    def write(self, path: Path, extra: dict):
        a = self.arrays()
        t0 = float(a["start"].min()) if len(a["start"]) else 0.0
        payload = {
            "names": self.names,
            "spans": {
                "name": a["name"].tolist(),
                "op": a["op"].tolist(),
                "parent": a["parent"].tolist(),
                "start_us": np.round((a["start"] - t0) * 1e6, 3).tolist(),
                "end_us": np.round((a["end"] - t0) * 1e6, 3).tolist(),
            },
        } | extra
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh)
