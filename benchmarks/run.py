"""bundleflow benchmark.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: catalog_scenarios, fd_charts, verify_battery (see README.md).
Everything runs in this one process with no extra threads: the CLI is
driven through ``bundleflow.cli.main(argv)``, one operation after the other
(a closed loop with one client), so interpreter start-up is not timed.

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
is a separate run that wraps bundleflow's layers (``spans.py``) and reports
per-layer metrics, including the tracing overhead.  Every operation's output
is checked; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 1 if
any operation or self-test failed.  Spans and a full record of the run
(environment, per-pass figures) are written under ``.bench_work/``.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

# one BLAS/OpenMP thread; this must happen before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "catalog_scenarios": (wl.catalog_setup, wl.catalog_operations),
    "fd_charts": (wl.fd_setup, wl.fd_operations),
    "verify_battery": (wl.verify_setup, wl.verify_operations),
}
SETUP_REPEATS = 9  # set-ups per untraced run; setup_s is their median
MODULES = ("cli", "verify", "integrate", "bundle", "geometry", "catalog",
           "expressions", "frenet", "scenario")
clock = time.perf_counter


# -- bundleflow, imported from this checkout ------------------------------------


def fresh_import():
    """Import bundleflow from scratch (numpy stays imported) and return its modules."""
    for name in [m for m in sys.modules if m == "bundleflow" or m.startswith("bundleflow.")]:
        del sys.modules[name]
    importlib.import_module("bundleflow")
    return SimpleNamespace(**{m: importlib.import_module(f"bundleflow.{m}") for m in MODULES})


class CliRunner:
    """Calls ``bundleflow.cli.main(argv)`` with its output captured."""

    def __init__(self, cli):
        self.cli = cli

    def __call__(self, argv) -> int:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return int(self.cli.main(list(argv)))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation; keep measuring
            traceback.print_exc(file=sys.stderr)
            return -1


class StepClock:
    """Times ``integrate`` calls and adds up the steps their configs imply."""

    def __init__(self):
        self.steps = 0
        self.seconds = 0.0

    def wrap(self, integrate):
        def timed(M, system, init, cfg, *args, **kwargs):
            start = clock()
            try:
                return integrate(M, system, init, cfg, *args, **kwargs)
            finally:
                self.seconds += clock() - start
                self.steps += wl.time_grid(cfg.t_span[0], cfg.t_span[1], cfg.step).size - 1

        return timed


def install_step_clock(bf, step_clock: StepClock) -> spans.Patches:
    patches = spans.Patches()
    for mod in (bf.verify, bf.integrate):
        patches.wrap(mod, "integrate", step_clock.wrap, f"{mod.__name__}.integrate")
    return patches


def _tree_eval(node, x):
    op = node[0]
    if op == "const":
        return node[1]
    if op == "var":
        return x[node[1]]
    if op == "exp":
        return math.exp(_tree_eval(node[1], x))
    left, right = _tree_eval(node[1], x), _tree_eval(node[2], x)
    return left + right if op == "+" else left * right


class Calibration:
    """Tracks the host's current speed with a fixed loop of bundleflow-like work.

    On a shared host the same code runs up to ~40% slower for tens of
    seconds at a time.  Every timed interval is therefore bracketed by two
    runs of this loop (each ~10 ms) and converted to reference seconds,
    ``elapsed * NOMINAL_S / mean(loop before, loop after)``: the time the
    interval would take on a host where the loop takes ``NOMINAL_S``.  The
    loop walks a small expression tree and builds and multiplies 2x2 numpy
    matrices, the same mix of work as bundleflow's point evaluations; it
    uses no bundleflow code, so changes to the program do not move it.
    """

    NOMINAL_S = 0.010
    LOOP = 700
    TREE = ("+", ("*", ("exp", ("var", 0)), ("const", 2.0)), ("*", ("var", 1), ("const", 0.5)))

    def __init__(self):
        self.samples: list[float] = []
        self._last = self._measure()

    def _measure(self) -> float:
        x = (0.1, 0.2)
        start = clock()
        acc = 0.0
        for _ in range(self.LOOP):
            g = np.array([[_tree_eval(self.TREE, x), 0.0], [0.0, _tree_eval(self.TREE, x)]])
            acc += float(np.linalg.det(g)) + float((g @ g)[0, 0])
        elapsed = clock() - start
        self.samples.append(elapsed)
        return elapsed

    def restart(self) -> None:
        """Measure the loop now, as the 'before' of the next interval."""
        self._last = self._measure()

    def scale(self) -> float:
        """Reference-seconds factor for the interval that just ended."""
        before, self._last = self._last, self._measure()
        return self.NOMINAL_S / (0.5 * (before + self._last))


# -- passes -----------------------------------------------------------------------


@dataclass
class PassResult:
    wall_s: float  # summed time of the operations, reference seconds
    stepping_s: float  # time of the operations (or calls) that integrate, reference seconds
    steps: int
    attempted: int
    failed: int
    failures: list
    raw_wall_s: float  # wall_s as measured, before calibration
    scale: float  # median calibration factor of the pass
    op_s: dict  # reference seconds of each operation


def rk4_self_test(bf) -> list:
    """Ten traced RK4 steps must make exactly 40 RHS calls."""
    tracer = spans.Tracer()
    patches = spans.install(tracer, bf)
    try:
        ent = bf.catalog.entry("exp2d")
        fam = ent.family("natural_lift")
        cfg = bf.integrate.IntegratorConfig(step=0.01, t_span=(0.0, 0.1))
        bf.integrate.integrate(ent.structure, fam.system, fam.initial_state(), cfg)
    finally:
        patches.undo()
    counts = tracer.snapshot()
    steps = counts.get("integrate.steps", {}).get("calls", 0)
    rhs = counts.get("bundle.rhs", {}).get("calls", 0)
    if (steps, rhs) != (10, 40):
        return [f"rk4 self-test: {steps} steps and {rhs} RHS calls, expected 10 and 40"]
    return []


# -- environment --------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bundleflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# -- runs ---------------------------------------------------------------------------


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


@dataclass
class Bench:
    """What one run measures: the operations and how to run them."""

    ops: list
    bf: SimpleNamespace
    run_cli: CliRunner
    cal: Calibration
    uses_step_clock: bool  # verify_battery: stepping happens inside one command
    seconds: float

    def run_pass(self, tracer=None, first_op: int = 0) -> PassResult:
        """Run and gate every operation once; times are in reference seconds."""
        wall = stepping = raw = 0.0
        steps = attempted = failed = 0
        failures, scales, op_s = [], [], {}
        self.cal.restart()
        for i, op in enumerate(self.ops):
            shutil.rmtree(op.out_dir, ignore_errors=True)
            step_clock = StepClock()
            hook = install_step_clock(self.bf, step_clock) if self.uses_step_clock else None
            if tracer is not None:
                tracer.op = first_op + i
            start = clock()
            try:
                rc = self.run_cli(op.argv)
            finally:
                elapsed = clock() - start
                if hook is not None:
                    hook.undo()
            factor = self.cal.scale()
            scales.append(factor)
            raw += elapsed
            wall += elapsed * factor
            op_s[op.name] = elapsed * factor
            if op.steps:
                stepping += elapsed * factor
                steps += op.steps
            stepping += step_clock.seconds * factor
            steps += step_clock.steps
            a, f = op.gate(rc, op.out_dir)
            attempted += a
            failed += f
            if f:
                failures.append(f"{op.name}: exit {rc}, {f} of {a} failed")
        return PassResult(wall, stepping, steps, attempted, failed, failures, raw,
                          statistics.median(scales), op_s)


def untraced_run(bench: Bench, setup_s: list, record: dict) -> tuple:
    passes = []
    deadline = clock() + bench.seconds
    while not passes or clock() < deadline:
        passes.append(bench.run_pass())
    record["passes"] = [p.__dict__ for p in passes]
    metrics = {
        "wall_s": _metric(statistics.median(p.wall_s for p in passes), "s"),
        "steps_per_s": _metric(statistics.median(p.steps / p.stepping_s for p in passes), "1/s"),
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return passes, metrics, []


def traced_run(bench: Bench, record: dict, work: Path) -> tuple:
    """Untraced and traced passes, U T T and then U T while time remains."""
    problems = rk4_self_test(bench.bf)
    tracer = spans.Tracer()
    t0 = clock()
    untraced, traced, snapshots = [], [], []
    missing = []
    deadline = clock() + bench.seconds
    plan = ["U", "T", "T"]
    while plan:
        if plan.pop(0) == "U":
            untraced.append(bench.run_pass())
        else:
            tracer.reset_totals()
            patches = spans.install(tracer, bench.bf)
            missing = patches.missing
            try:
                traced.append(bench.run_pass(tracer, first_op=len(traced) * len(bench.ops)))
            finally:
                patches.undo()
            snapshots.append((tracer.snapshot(), dict(tracer.counters)))
        if not plan and clock() < deadline:
            plan = ["U", "T"]

    counts = [spans.exact_counts(*snap) for snap in snapshots]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counts differ between traced passes")
    per_pass = [spans.layer_values(*snap) for snap in snapshots]
    for values, res in zip(per_pass, traced):
        steps, rhs = values["integrate.steps"], values["bundle.rhs.calls"]
        if "integrate._rk4_step" not in missing and steps != res.steps:
            problems.append(f"counted {steps} steps, configs imply {res.steps}")
        if "integrate.make_rhs" not in missing and rhs != 4 * steps:
            problems.append(f"{rhs} RHS calls for {steps} RK4 steps")
    if missing:
        print(f"warning: wrap sites not found: {', '.join(missing)}", file=sys.stderr)

    units = dict(spans.LAYER_METRICS)
    metrics = {}
    for name in per_pass[0]:
        if units[name] == "s":
            # span times are converted with the median calibration factor of their pass
            value = statistics.median(v[name] * res.scale for v, res in zip(per_pass, traced))
        else:
            value = per_pass[0][name]  # counts repeat exactly (checked above)
        metrics[name] = _metric(value, units[name])
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    traced_wall = statistics.median(p.wall_s for p in traced)
    metrics["trace.spans"] = _metric(len(tracer.span_start) // len(traced), "count")
    metrics["trace.untraced_wall_s"] = _metric(untraced_wall, "s")
    metrics["trace.traced_wall_s"] = _metric(traced_wall, "s")
    metrics["trace.overhead_s"] = _metric(traced_wall - untraced_wall, "s")
    metrics = {name: metrics[name] for name, _ in spans.LAYER_METRICS}
    tracer.write_spans(work / "spans.npz", t0)
    record["missing_wrap_sites"] = missing
    record["untraced_passes"] = [p.__dict__ for p in untraced]
    record["traced_passes"] = [p.__dict__ for p in traced]
    record["self_test_problems"] = problems
    return untraced + traced, metrics, problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description="bundleflow benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bundleflow" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: no bundleflow sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".bench_work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    setup_fn, operations_fn = WORKLOADS[args.workload]

    cal = Calibration()
    setup_s = []
    importlib.import_module("bundleflow")  # compile to bytecode once, untimed
    for _ in range(1 if args.trace else SETUP_REPEATS):
        cal.restart()
        start = clock()
        bf = fresh_import()
        inputs = setup_fn(bf, ROOT, args.seed, work)
        setup_s.append((clock() - start) * cal.scale())
    run_cli = CliRunner(bf.cli)
    try:
        ops = operations_fn(bf, inputs, args.seed, work)
    except wl.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    bench = Bench(ops, bf, run_cli, cal, args.workload == "verify_battery", args.seconds)

    record = {"environment": environment(args), "setup_s": setup_s,
              "ops": [op.name for op in ops]}
    print("# environment " + json.dumps(record["environment"]))
    if args.trace:
        passes, metrics, problems = traced_run(bench, record, work)
    else:
        passes, metrics, problems = untraced_run(bench, setup_s, record)
    record["calibration_loop_s"] = cal.samples
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for line in p.failures:
            print(f"FAILED {line}", file=sys.stderr)
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record["result"] = result
    (work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
