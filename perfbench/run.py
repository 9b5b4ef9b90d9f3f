"""Benchmark of the dephasing package: sweep, witness scan and certification.

Usage, from the root of a checkout::

    python3 perfbench/run.py                           # every workload in turn
    python3 perfbench/run.py --workload sweep --seed 1 --trace 0

Each workload runs in one process as a closed loop: one item at a time, the
next only after the previous one has been checked.  BLAS is pinned to one
thread before numpy is imported.  The run sets up (import of the package,
then five passes of model generation, validation, JSON round trip and a
warm-up round), then runs whole rounds of items until their summed time
reaches ``run_seconds`` of ``BENCHMARK.json``.  Every output is checked
against the independent oracles of ``oracles.py``, outside every timer and
in a child process (``oracle_process.py``) that alone loads scipy.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports per-module
calls and self times from a traced half of the run, with the other half
untraced to give the tracing overhead.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a results file with the environment, seeds and sizes goes to
``perfbench/results/``.
"""

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# before numpy is imported: one BLAS thread, so CPU time equals wall time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("sweep", "scan_mixed", "certify")
SETUP_PASSES = 5
#: no timed round starts later than this after process start, so a run ends
#: well inside three minutes even if checks or preparation get slow
DEADLINE_S = 140.0


def process_age_s():
    """Seconds since the kernel started this process (10 ms resolution)."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as fh:
        uptime = float(fh.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def import_package():
    """Import every ``dephasing`` module the workloads call into."""
    sys.path.insert(0, str(ROOT / "src"))
    import dephasing
    import dephasing.cli  # noqa: F401
    if Path(dephasing.__file__).resolve().parent != ROOT / "src" / "dephasing":
        raise ImportError(f"dephasing imported from {dephasing.__file__}, "
                          f"not from {ROOT / 'src'}")
    return dephasing


def blas_threads():
    """Thread count reported by every OpenBLAS library loaded in-process."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                out[Path(path).name] = getattr(lib, symbol)()
                break
    return out


def environment():
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),  # loaded only by the oracles
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


class Runner:
    """Set-up, the timed loop and the bookkeeping of one workload run."""

    def __init__(self, workload_cls, seed, workdir, oracle, probe):
        self.workload_cls = workload_cls
        self.seed = seed
        self.workdir = workdir
        self.oracle = oracle
        self.probe = probe
        self.workload = None
        self.next_round = 1
        self.unexpected = []

    def setup(self):
        """Build the workload from scratch and warm it up on round 0; repeated
        so that the set-up time is a median.  Only the package calls are
        timed: choosing the inputs and checking the outputs are not.
        Returns the pass's wall seconds and its speed factor (probes just
        before and after it)."""
        self.workload = self.workload_cls(self.seed, self.workdir)
        self.oracle.reset()
        inputs = self.oracle.inputs()
        before = self.probe.factor()
        start = time.perf_counter()
        items = self.workload.prepare(0, inputs)
        outputs = [self.workload.run(item) for item in items]
        seconds = time.perf_counter() - start
        factor = (before * self.probe.factor()) ** 0.5
        self._check(items, outputs)
        return seconds, factor

    def _check(self, items, outputs):
        """Number of items whose check failed; failures other than the
        known fault are kept in ``unexpected``."""
        failed = 0
        for item, verdict in zip(items, self.oracle.check(items, outputs)):
            if verdict is not None:
                failed += 1
                reason, missing_witness = verdict
                if not (item.expect_fault and missing_witness):
                    self.unexpected.append(f"{item.kind}: {reason}")
        return failed

    def timed(self, seconds, tracer=None):
        """Whole rounds until the summed wall time of items reaches
        ``seconds``.  Returns per-item wall seconds, per-item speed factors
        (the geometric mean of probes just before and just after the round's
        items) and the number of items whose check failed."""
        wall, factors, failed = [], [], 0
        while sum(wall) < seconds and process_age_s() < DEADLINE_S:
            inputs = self.oracle.inputs()
            if tracer is not None:
                tracer.item = "prep"
            items = self.workload.prepare(self.next_round, inputs)
            self.next_round += 1
            before = self.probe.factor()
            round_wall, outputs = [], []
            for item in items:
                if tracer is None:
                    start = time.perf_counter()
                    output = self.workload.run(item)
                    round_wall.append(time.perf_counter() - start)
                else:
                    with tracer.harness_span(len(wall) + len(round_wall)) as span:
                        output = self.workload.run(item)
                    round_wall.append(span[2] - span[1])
                outputs.append(output)
            factor = (before * self.probe.factor()) ** 0.5
            failed += self._check(items, outputs)
            wall += round_wall
            factors += [factor] * len(items)
        return wall, factors, failed


def end_to_end_metrics(wall, factors, startup_s, passes):
    """Nominal-speed throughput, median item time and set-up time, plus the
    peak resident set.  Import time is scaled by the first set-up pass's
    factor.  Raw wall-time figures go to the results file."""
    nominal = [w * f for w, f in zip(wall, factors)]
    setup = startup_s * passes[0][1] + statistics.median(s * f for s, f in passes)
    metrics = {
        "items_per_s": (len(nominal) / sum(nominal), "1/s"),
        "item_p50_ms": (statistics.median(nominal) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup, "s"),
    }
    raw = {
        "items_per_s": len(wall) / sum(wall),
        "item_p50_ms": statistics.median(wall) * 1e3,
        "setup_s": startup_s + statistics.median(s for s, _ in passes),
    }
    return metrics, raw


def trace_metrics(tracer, wall, factors, untraced_ms):
    """Per-item calls and nominal-speed self times of every traced function
    over the traced items; ``prep.*`` covers model preparation between them."""
    from tracer import HARNESS, SPAN_NAMES
    n = len(wall)
    calls, selfs = tracer.self_times(dict(enumerate(factors)))
    _, prep = tracer.self_times({"prep": statistics.median(factors)})
    item_ms = sum(w * f for w, f in zip(wall, factors)) * 1e3 / n
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name] / n, "count")
        metrics[f"{name}.self_ms"] = (selfs[name] * 1e3 / n, "ms")
    metrics["witnesses.witness_scan.returned"] = (
        sum(tracer.returned[i] for i in range(n)) / n, "count")
    metrics["harness.self_ms"] = (selfs[HARNESS] * 1e3 / n, "ms")
    for name in ("model.load_model", "model.validate"):
        metrics[f"prep.{name}.self_ms"] = (prep[name] * 1e3 / n, "ms")
    metrics["trace.item_ms"] = (item_ms, "ms")
    metrics["trace.untraced_item_ms"] = (untraced_ms, "ms")
    metrics["trace.overhead_ms"] = (item_ms - untraced_ms, "ms")
    return metrics


def run_workload(args):
    import_package()
    startup_s = process_age_s()
    import workloads
    from oracle_process import OracleProcess
    from speed import SpeedProbe

    workdir = HERE / "tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload_cls = workloads.WORKLOADS[args.workload]
    oracle = OracleProcess(workload_cls, args.seed, workdir)
    runner = Runner(workload_cls, args.seed, workdir, oracle, SpeedProbe())
    tracer = None
    try:
        passes = [runner.setup() for _ in range(SETUP_PASSES)]
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if not args.trace:
            wall, factors, failed = runner.timed(args.seconds)
            metrics, raw = end_to_end_metrics(wall, factors, startup_s, passes)
        else:
            from tracer import Tracer
            wall_u, factors_u, failed_u = runner.timed(args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                wall, factors, failed = runner.timed(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            untraced_ms = statistics.fmean(w * f for w, f in zip(wall_u, factors_u)) * 1e3
            metrics, raw = trace_metrics(tracer, wall, factors, untraced_ms), {}
            wall, factors, failed = wall_u + wall, factors_u + factors, failed_u + failed
        timed_wall, timed_cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        oracle.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    result = {"correct": not runner.unexpected, "attempted": len(wall),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, sizes=workloads.WORKLOADS[args.workload].sizes,
                  environment=environment(), raw_wall_metrics=raw,
                  scipy_in_measured_process="scipy" in sys.modules,
                  startup_s=startup_s, setup_passes_s=passes,
                  timed_wall_s=timed_wall, timed_cpu_s=timed_cpu,
                  unexpected_failures=runner.unexpected,
                  item_wall_s=wall, item_speed_factor=factors)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.json")

    for reason in runner.unexpected[:5]:
        print(f"CHECK FAILED {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name:42s} {value:14.6g} {unit}")
    for name, value in raw.items():
        print(f"{args.workload}  {'raw wall ' + name:42s} {value:14.6g}")
    print(f"{args.workload}  attempted {len(wall)}  failed {failed}  "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=300)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted for the benchmark's calling convention; "
                             "must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seconds not in (None, run_seconds):
        parser.error(f"--seconds must be run_seconds of BENCHMARK.json, {run_seconds}")
    args.seconds = run_seconds
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
