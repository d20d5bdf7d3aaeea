"""Benchmark entry point: one workload, one closed-loop client, one JSON line.

    python3 bench/run.py --workload {train,paper,wide} --seed N --seconds S --trace {0,1}

With --trace 0 it runs the workload for S seconds of op time and prints the
end-to-end metrics. With --trace 1 it runs S/2 seconds untraced, then S/2
seconds with spans around every layer's public functions, then a fixed probe
of each layer, and prints the per-layer metrics. Outputs are checked against
`oracles`; the last stdout line is
{"correct", "attempted", "failed", "metrics"}. Run from the repository root;
it imports `qcra` from ./src.
"""

import os

# One client and one BLAS thread: the benchmark must not use more than the
# machine's two cores, and single-threaded BLAS is steadier when it shares them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

_T_START = time.perf_counter()

import numpy as np  # noqa: E402

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_REPEATS = 3
PROBE_REPEATS = 5
WORKLOADS = ("train", "paper", "wide")
EXIT_USAGE = 2


def import_qcra():
    """Import every layer from ./src; returns the modules by layer name."""
    sys.path.insert(0, str(SRC))
    import qcra
    from qcra import circuits, cli, finmodel, noise, riskpipe, simkit, transpiler, variational
    if Path(qcra.__file__).resolve().parent != (SRC / "qcra").resolve():
        raise ImportError(f"qcra was imported from {qcra.__file__}, not from {SRC}")
    return {"qcra": qcra, "cli": cli, "circuits": circuits, "variational": variational,
            "simkit": simkit, "noise": noise, "riskpipe": riskpipe, "transpiler": transpiler,
            "finmodel": finmodel}


class Stats:
    """Per-op times (thread CPU seconds, and wall seconds for reference) and outcomes."""

    def __init__(self):
        self.times: list[float] = []
        self.wall: list[float] = []
        self.iters: list[int] = []
        self.failed = 0
        self.unexpected: list[str] = []

    def add(self, op, cpu: float, wall: float, out, problems: list[str]):
        self.times.append(cpu)
        self.wall.append(wall)
        self.iters.append(op.iterations(out) if not problems or op.known_fault else 0)
        if problems:
            self.failed += 1
            for p in problems:
                if not (op.known_fault and p.startswith(op.known_fault)):
                    self.unexpected.append(f"{op.label}: {p}")

    @property
    def op_time(self) -> float:
        return sum(self.times)


def measure(workload, budget: float, first_round: int, stats: Stats, tracer=None) -> int:
    """Run whole rounds until `budget` seconds of op time; returns the next round.

    Op time is the thread's CPU time. On a shared virtual machine the wall
    clock also counts time the hypervisor gives to other tenants and time
    other processes hold the core, which doubled the run-to-run spread; the
    op is single-threaded and waits on nothing, so its CPU time is its
    latency on a core of its own. Wall time is kept for the result file.
    """
    start = stats.op_time
    r = first_round
    while stats.op_time - start < budget:
        for op in workload.round(r):
            op.prepare()
            if tracer is not None:
                root = tracer.begin_op(len(stats.times))
            t0, c0 = time.perf_counter(), time.thread_time()
            try:
                out = op.run()
            except Exception as exc:  # a crash is a failed op, reported below
                out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
            else:
                problems = None
            cpu, wall = time.thread_time() - c0, time.perf_counter() - t0
            if tracer is not None:
                tracer.finish(root)
                tracer.count("cli.bytes_written", sum(p.stat().st_size for p in op.outputs if p.exists()))
                tracer.current = tracer.SETUP
            if problems is None:
                problems = op.check(out)
            stats.add(op, cpu, wall, out, problems)
        r += 1
    return r


def end_to_end(stats: Stats, setup_s: float) -> dict:
    total = stats.op_time
    ms = [t * 1e3 for t in stats.times]
    return {
        "ops_per_s": {"value": len(ms) / total, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(ms, n=10)[8], "unit": "ms"},
        "iters_per_s": {"value": sum(stats.iters) / total, "unit": "1/s"},
        "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


# Per-layer time metrics: (span name, statistic, scale to the unit).
TIME_METRICS = {
    "cli.build_parser_ms": ("cli.build_parser", "mean_s", 1e3, "ms"),
    "cli.self_ms": ("cli.main", "self_mean_s", 1e3, "ms"),
    "circuits.build_us": ("circuits.build", "mean_s", 1e6, "us"),
    "variational.grad_ms": ("variational.grad", "mean_s", 1e3, "ms"),
    "variational.adam_us": ("variational.adam", "mean_s", 1e6, "us"),
    "simkit.simulate_us.small": ("simkit.simulate.small", "mean_s", 1e6, "us"),
    "simkit.simulate_ms.wide": ("simkit.simulate.wide", "mean_s", 1e3, "ms"),
    "noise.readout_build_ms": ("noise.readout_build", "mean_s", 1e3, "ms"),
    "noise.confusion_apply_us": ("noise.confusion_apply", "mean_s", 1e6, "us"),
    "noise.sample_us": ("noise.sample", "mean_s", 1e6, "us"),
    "noise.spam_ms": ("noise.spam", "mean_s", 1e3, "ms"),
    "riskpipe.decode_ms": ("riskpipe.decode", "mean_s", 1e3, "ms"),
    "riskpipe.pipeline_ms": ("riskpipe.pipeline", "mean_s", 1e3, "ms"),
    "riskpipe.var_cvar_us": ("riskpipe.var_cvar", "mean_s", 1e6, "us"),
    "transpiler.route_us": ("transpiler.route", "mean_s", 1e6, "us"),
    "finmodel.model_us": ("finmodel.model", "mean_s", 1e6, "us"),
}
# Per-op work counters over the traced ops.
COUNT_METRICS = {
    "cli.bytes_written": "B",
    "circuits.builds": "count",
    "variational.grad_calls": "count",
    "simkit.simulate_calls": "count",
    "simkit.gates_applied": "count",
    "simkit.bytes_moved": "B",
    "noise.shots_drawn": "count",
    "riskpipe.outcomes_decoded": "count",
    "transpiler.swaps": "count",
    "transpiler.cz_count": "count",
}
GATE_PROBE_SIZES = (3, 6, 10, 12)


def probe_gates(q, repeats: int = 200) -> dict:
    """Median time of one apply_gate (RY and CNOT alternately) per register size."""
    simkit = q["simkit"]
    rng = np.random.default_rng(0)
    out = {}
    for n in GATE_PROBE_SIZES:
        amp = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = simkit.Statevector(n, amp / np.linalg.norm(amp))
        gates = [simkit.Gate.ry(n // 2, 0.3), simkit.Gate.cnot(0, n - 1)]
        times = []
        for i in range(repeats):
            t0 = time.perf_counter()
            simkit.apply_gate(state, gates[i % 2])
            times.append(time.perf_counter() - t0)
        out[n] = statistics.median(times)
    return out


def probe_layers(q, workdir: Path):
    """One small call into each layer, so every layer has spans on every workload."""
    from workloads import gates_to_dict, paper_gci_gates

    d = workdir / "probe"
    d.mkdir(parents=True, exist_ok=True)
    circuit = d / "paper_gci.json"
    circuit.write_text(json.dumps(gates_to_dict(3, paper_gci_gates())))
    cli, variational, simkit = q["cli"], q["variational"], q["simkit"]
    wide = simkit.Circuit(10, [simkit.Gate.ry(k, 0.1 * (k + 1)) for k in range(10)]
                          + [simkit.Gate.cry(k, k + 1, 0.7) for k in range(9)])
    target = variational.make_target(3, 0.0, 0.8, 1.5)
    thetas = np.array([1.0, 2.0, 3.0])
    for _ in range(PROBE_REPEATS):
        for argv in (["gci", "--preset", "paper-gci", "--shots", "1000", "--readout-fidelity", "0.97"],
                     ["transpile", "--circuit", str(circuit), "--preset", "contralto-3q"],
                     ["spam", "--ansatz", "3q", "--thetas", "90,200,160", "--reps", "10", "--shots", "1000"]):
            if cli.main(argv + ["--out-dir", str(d / argv[0]), "--seed", "1"]) != 0:
                raise RuntimeError(f"probe command {argv[0]} failed")
        grad = variational.parameter_shift_gradient(variational.loader_builder(3), thetas, target)
        variational.adam_step(variational.AdamState.fresh(3), thetas, grad)
        simkit.simulate(wide)


def per_layer(tracer, untraced_rate: float, traced_rate: float, gate_times: dict) -> tuple[dict, dict]:
    summary = tracer.summary()
    calls = summary["calls"]
    metrics = {}
    for key, (span, stat, scale, unit) in TIME_METRICS.items():
        metrics[key] = {"value": calls[span][stat] * scale if span in calls else 0.0, "unit": unit}
    n_ops = max(summary["ops"], 1)
    for key, unit in COUNT_METRICS.items():
        metrics[key] = {"value": tracer.counts.get(key, 0.0) / n_ops, "unit": unit}
    builds = tracer.readout_bytes
    own = [b for phase, sizes in builds.items() if phase != tracer.PROBE for b in sizes]
    sizes = own or builds.get(tracer.PROBE, [])
    metrics["noise.readout_bytes"] = {"value": sum(sizes) / max(len(sizes), 1), "unit": "B"}
    for n, t in gate_times.items():
        metrics[f"simkit.gate_us.n{n}"] = {"value": t * 1e6, "unit": "us"}
    layer_self = summary["self_s_by_layer"]
    op_time = summary["op_time_s"]
    metrics["trace.overhead_pct"] = {"value": 100.0 * (untraced_rate - traced_rate) / untraced_rate, "unit": "%"}
    metrics["trace.accounted_pct"] = {"value": 100.0 * (1.0 - layer_self.get("bench", 0.0) / op_time), "unit": "%"}
    return metrics, summary


def environment(q) -> dict:
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 has no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cores": os.cpu_count(),
        "kernel_backend": q["qcra"].kernel_backend(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qcra" / "__init__.py").is_file():
        print(f"error: no qcra package under {SRC}; run from a full checkout", file=sys.stderr)
        return EXIT_USAGE

    q = import_qcra()
    import_s = time.perf_counter() - _T_START
    sys.path.insert(0, str(BENCH_DIR))
    import tracing
    import workloads

    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = getattr(workloads, args.workload.capitalize())(args.seed, workdir, q)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)
        wl.prepare()

        stats = Stats()
        extra = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                 "environment": environment(q), "import_s": import_s, "setup_repeats_s": setup_times}
        if not args.trace:
            measure(wl, args.seconds, 0, stats)
            metrics = end_to_end(stats, setup_s)
            wall = Stats()
            wall.times, wall.iters = stats.wall, stats.iters
            extra["wall_clock_metrics"] = end_to_end(wall, setup_s)
        else:
            r = measure(wl, args.seconds / 2, 0, stats)
            n_untraced, t_untraced = len(stats.times), stats.op_time
            tracer = tracing.Tracer()
            tracer.install(q)
            wl.tracer = tracer
            try:
                tracer.current = tracer.SETUP
                wl.setup()
                wl.prepare()
                measure(wl, args.seconds / 2, r, stats, tracer)
                tracer.current = tracer.PROBE
                probe_layers(q, workdir)
            finally:
                tracer.remove()
                wl.tracer = None
            untraced_rate = n_untraced / t_untraced
            traced_rate = (len(stats.times) - n_untraced) / (stats.op_time - t_untraced)
            metrics, summary = per_layer(tracer, untraced_rate, traced_rate, probe_gates(q))
            n_ops = max(summary["ops"], 1)
            per_op = {k: v / n_ops * 1e3 for k, v in summary["self_s_by_layer"].items()}
            op_ms = summary["op_time_s"] / n_ops * 1e3
            print(f"[{args.workload}] traced ops {summary['ops']}, {op_ms:.3f} ms per op; "
                  f"ops/s untraced {untraced_rate:.2f}, traced {traced_rate:.2f}", file=sys.stderr)
            for layer in sorted(per_op, key=per_op.get, reverse=True):
                print(f"  self {layer:12s} {per_op[layer]:9.3f} ms/op  {100 * per_op[layer] / op_ms:5.1f}%",
                      file=sys.stderr)
            extra |= {"self_ms_per_op": per_op, "op_ms": op_ms, "calls": summary["calls"],
                      "untraced_ops_per_s": untraced_rate, "traced_ops_per_s": traced_rate}
            tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.json.gz", extra)

        for line in stats.unexpected[:10]:
            print(f"check failed: {line}", file=sys.stderr)
        result = {"correct": not stats.unexpected, "attempted": len(stats.times), "failed": stats.failed,
                  "metrics": metrics}
        (RESULTS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result | extra, indent=1) + "\n")
        for key, m in metrics.items():
            print(f"  {key:28s} {m['value']:14.4f} {m['unit']}", file=sys.stderr)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
