"""Benchmark for the cometric library: one workload per run, closed loop.

    python3 perfbench/run.py --workload match --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``match``, ``large_config``, ``validate``.
Every operation is a ``cometric`` command line run in-process through
``cometric.cli.main``, by one client, each operation starting when the
previous one ends.  Inputs are generated from ``--seed`` during set-up.

``--trace 0`` measures for ``--seconds`` seconds with no tracing and reports
the end-to-end metrics.  ``--trace 1`` runs one operation of each kind
untraced, then the same operations traced, and reports the per-layer metrics
of ``layers.py``; the tracing overhead is printed and kept in the record.  Every operation passes an untimed correctness
gate; failures are counted, never dropped.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(every sample, percentiles, output hashes, input properties, environment)
goes to ``perfbench/out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import os

# BLAS threads are pinned here, in the benchmark's own environment, before
# numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("match", "large_config", "validate")
END_TO_END_UNITS = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 7
MODULES = ("cli", "charts", "dynamics", "jsonio", "kernels", "landmark", "shapes", "validation")


def import_program() -> SimpleNamespace:
    """Import cometric afresh from this checkout's ``src`` (never an installed copy)."""
    if not (SRC / "cometric" / "__init__.py").is_file():
        raise SystemExit(f"error: no cometric sources at {SRC / 'cometric'}; run from a full checkout")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "cometric" or m.startswith("cometric.")]:
        del sys.modules[name]
    importlib.import_module("cometric")
    cm = SimpleNamespace(**{m: importlib.import_module(f"cometric.{m}") for m in MODULES})
    if Path(cm.cli.__file__).resolve().parent != SRC / "cometric":
        raise SystemExit(f"error: imported cometric from {cm.cli.__file__}, not from {SRC}")
    return cm


def warm_up(cm, work: Path) -> None:
    """Trigger the program's lazy imports and first-call paths."""
    spec = cm.kernels.KernelSpec(**workloads.KERNEL, c=1.0)
    cm.kernels.kernel_fourier_oracle(spec, np.array([0.5]), quad_points=1000)
    spec_file = work / "warm_spec.json"
    spec_file.write_text(json.dumps(cm.kernels.spec_to_json(spec)))
    if cm.cli.main(["kernel", "eval", "--spec", str(spec_file), "--r", "0,0.5,1",
                    "--out", str(work / "warm_out.json")]) != 0:
        raise SystemExit("error: warm-up command failed")


def set_up(name: str, seed: int, work: Path):
    """Import, generate inputs and warm up; returns (program, workload)."""
    cm = import_program()
    workload = workloads.PREPARE[name](cm, seed, work)
    warm_up(cm, work)
    return cm, workload


def run_op(cm, op, tracer=None) -> tuple[float, bytes | None, str | None]:
    """Run one operation; returns (seconds, output, error).  Only the call is
    timed, and only the call is traced."""
    op.out.unlink(missing_ok=True)
    error = None
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        code = cm.cli.main(op.argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed operation, not a crashed benchmark
        code, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    if error is None and code != 0:
        error = f"exit code {code}"
    data = op.out.read_bytes() if op.out.is_file() else None
    if data is not None:  # a failing command may still explain itself in its output
        try:
            op.check(data)
        except (workloads.GateFailure, KeyError, IndexError, TypeError, ValueError) as exc:
            error = "; ".join(filter(None, (error, f"{type(exc).__name__}: {exc}")))
    return elapsed, data, error


def program_id() -> str:
    """Digest of what fixes an operation's output bytes: the program's sources,
    the benchmark's input generators, and the numpy and BLAS builds."""
    h = hashlib.sha256()
    for path in sorted((SRC / "cometric").rglob("*.py")) + [HERE / "workloads.py"]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    h.update(f"{np.__version__} {blas_version()}".encode())
    return h.hexdigest()[:16]


class Ledger:
    """Attempts, failures and output digests of one run.

    Repeats of one operation must give byte-identical output, within the run
    and across runs of the same workload, seed and :func:`program_id` in this
    checkout (``out/hashes.json``).  Another version of the program starts a
    ledger of its own.
    """

    def __init__(self, key: str) -> None:
        self.key = key
        self.path = OUT / "hashes.json"
        self.known = json.loads(self.path.read_text()) if self.path.is_file() else {}
        self.expected = dict(self.known.get(key, {}))
        self.attempted = 0
        self.failures: list[str] = []
        self.hashes: dict[str, str] = {}

    def record(self, op, data: bytes | None, error: str | None) -> None:
        self.attempted += 1
        if error is None:
            digest = hashlib.sha256(op.digest(data)).hexdigest()
            self.hashes.setdefault(op.kind, digest)
            if digest != self.expected.setdefault(op.kind, digest):
                error = "output differs from an earlier repeat with this seed"
        if error is not None:
            self.failures.append(f"{op.kind}: {error}")

    def save(self) -> None:
        self.known[self.key] = self.expected
        tmp = self.path.with_name(f"hashes.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        tmp.replace(self.path)


def summarize(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(q / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            tail = {"percentile": q, "value": ordered[rank - 1], "beyond": n - rank}
            break
    return {"median": statistics.median(ordered), "samples": n,
            "tail": tail, "values": values}


def blas_version() -> str:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}"


def environment(program: str) -> dict:
    return {
        "blas_threads_pinned": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": blas_version(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "program_id": program,
        "loop": "closed, 1 client in 1 process",
    }


def git_sha() -> str | None:
    """The checkout's commit, or None when the checkout is not itself the top
    of a git repository (not the commit of a repository that encloses it)."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            cm, workload = set_up(name, seed, work)
            setups.append(time.perf_counter() - start)
        program = program_id()
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "environment": environment(program),
            "inputs": workload.properties(),
            "setup_s": summarize(setups),
            "repeat": {op.kind: op.repeat for op in workload.ops},
        }
        ledger = Ledger(f"{name}/seed{seed}/{program}")
        if trace:
            record.update(traced_round(cm, workload, ledger, OUT / f"spans-{name}-seed{seed}.jsonl.gz"))
        else:
            record.update(timed_loop(cm, workload, seconds, ledger))
        ledger.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update({
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "failed_ratio": len(ledger.failures) / ledger.attempted,
        "failures": ledger.failures,
        "output_sha256": ledger.hashes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if not trace:
        record["metrics"] = {
            "setup_s": record["setup_s"]["median"],
            "round_s": sum(op.repeat * record["ops"][op.kind]["median"] for op in workload.ops),
            "peak_rss_mb": record["peak_rss_mb"],
        }
    return record


def timed_loop(cm, workload, seconds: float, ledger: Ledger) -> dict:
    """Run the round's operations in order, round after round, until ``seconds``
    have passed and every kind has at least one sample."""
    samples: dict[str, list[float]] = {op.kind: [] for op in workload.ops}
    schedule = itertools.cycle([op for op in workload.ops for _ in range(op.repeat)])
    start = time.perf_counter()
    for op in schedule:
        elapsed, data, error = run_op(cm, op)
        ledger.record(op, data, error)
        samples[op.kind].append(elapsed)
        if time.perf_counter() - start >= seconds and all(samples.values()):
            break
    return {"loop_s": time.perf_counter() - start,
            "ops": {kind: summarize(values) for kind, values in samples.items()}}


def traced_round(cm, workload, ledger: Ledger, spans: Path) -> dict:
    """One operation of each kind untraced, then the same operations traced."""
    untraced = 0.0
    for op in workload.ops:
        elapsed, data, error = run_op(cm, op)
        ledger.record(op, data, error)
        untraced += elapsed
    tracer = layers.Tracer()
    patches = layers.install(tracer, cm)
    traced = 0.0
    try:
        for op_id, op in enumerate(workload.ops):
            tracer.op = op_id
            elapsed, data, error = run_op(cm, op, tracer)
            ledger.record(op, data, error)
            traced += elapsed
    finally:
        layers.uninstall(patches)
    tracer.write(spans)
    metrics, idle = layers.layer_metrics(tracer)
    return {"layers": metrics, "idle_layers": idle, "spans_file": str(spans.relative_to(ROOT)),
            "span_count": len(tracer.names), "traced_s": traced, "untraced_s": untraced,
            "overhead_s": traced - untraced}


def result_line(record: dict) -> dict:
    """The last output line: end-to-end metrics, or per-layer ones when traced."""
    if record["trace"]:
        metrics = {m: {"value": record["layers"][m], "unit": layers.LAYER_METRICS[m][0]}
                   for m in layers.LAYER_METRICS}
    else:
        metrics = {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in record["metrics"].items()}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def report(record: dict) -> None:
    """Human-readable summary: every metric by name with its unit."""
    print(f"workload {record['workload']} seed {record['seed']}")
    env = record["environment"]
    print(f"  {env['loop']}; BLAS threads {env['blas_threads_pinned']}, nproc {env['nproc']}, "
          f"numpy {env['numpy']}, {env['blas']}, git {env['git_sha']}")
    print(f"  {'setup_s':<24} {record['setup_s']['median']:.4f} s  (median of {record['setup_s']['samples']})")
    if record["trace"]:
        for m, v in record["layers"].items():
            print(f"  {m:<40} {v:.6g} {layers.LAYER_METRICS[m][0]}")
        print(f"  tracing overhead {record['overhead_s']:.3f} s on "
              f"{record['untraced_s']:.3f} s untraced ({record['span_count']} spans)")
    else:
        repeats = []
        for kind, summary in record["ops"].items():
            tail = summary["tail"]
            tail_text = (f"p{tail['percentile']:g} {tail['value']:.4f} s" if tail
                         else "no percentile has 10 samples beyond it")
            print(f"  {kind:<24} {summary['median']:.4f} s  (median of {summary['samples']}; {tail_text})")
            repeats.append(f"{record['repeat'][kind]} x {kind}")
        print(f"  {'round_s':<24} {record['metrics']['round_s']:.4f} s  ({' + '.join(repeats)})")
    print(f"  {'peak_rss_mb':<24} {record['peak_rss_mb']:.1f} MB")
    print(f"  {'failed_ratio':<24} {record['failed_ratio']:.4g} ({record['failed']}/{record['attempted']})")
    for failure in record["failures"]:
        print(f"    failed: {failure}")


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is per workload)."""
    lines = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {name} exited with code {proc.returncode}")
        lines[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(line["correct"] for line in lines.values()),
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "metrics": {f"{name}.{m}": v for name, line in lines.items() for m, v in line["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    report(record)
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
