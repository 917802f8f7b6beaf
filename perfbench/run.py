#!/usr/bin/env python3
"""Benchmark of the CIP federation: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload cip_silo --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric.  Each line reads
``name = value unit``, then ``#`` lines carry provenance and diagnostics
(digest, ``test_acc``, attack AUCs, ``eval_s``, ``round_s_p90``); the last
line is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.

Every measurement runs in a fresh interpreter (``worker.py``) with one
BLAS/OpenMP thread, so the process engine's workers are the only other busy
threads.  An untraced invocation runs a set-up probe, the measured run and
a second set-up probe (set-up time is the median of the three); the
``cip_silo_pool`` invocation also runs its warm-up round on the sequential
engine and requires the same digest.  A traced invocation runs the untraced
and the traced run back to back: their digests must be equal, and the ratio
of their ``train_samples_per_s`` is the tracing overhead.

Correctness gates (any failure makes ``correct`` false and the exit code 1):
every run at one seed ends on the same global-state digest, traced or not
and across invocations (a ledger under ``.perfbench/`` keyed by the source
digest); ``cip_silo`` and ``cip_silo_pool`` train to the same digest; the
global state is finite; every async step accounts for every attempt; the
cohort never holds more live clients than its size; ``test_acc`` stays
below saturation.

``attempted`` counts client-update attempts of the timed rounds.  ``failed``
counts attempts lost to an unplanned error; updates lost to the seeded
chaos schedule (crashes, stale discards, quarantines) are the workload's
input and show in ``update_yield`` instead.  A run that raises counts every
planned attempt as failed.

A fixed numpy kernel is timed before and after each invocation and stored
with its result under ``.perfbench/results/`` as a host-drift reference.
It is never a metric and never rescales one.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads (here and in every worker).
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cip_silo", "cip_silo_pool", "cip_cohort", "async_chaos")
#: Workloads that train identical inputs and must end on the same digest.
FAMILY = {"cip_silo_pool": "cip_silo"}
#: Wall budget of one invocation; workers still running at it are killed.
BUDGET_S = 170.0
STATE_DIR = ".perfbench"


def _fail_usage(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _source_files(root: str):
    for base in (os.path.join(root, "src", "repro"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def source_digest(root: str) -> str:
    """SHA-256 of the program and benchmark sources (the ledger key)."""
    digest = hashlib.sha256()
    for path in _source_files(root):
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def git_sha(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def drift_probe() -> float:
    """Median seconds of a fixed single-threaded numpy kernel chunk."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64))
    chunks = []
    for _ in range(5):
        start = time.perf_counter()
        b = a
        for _ in range(2000):
            b = np.tanh(a @ b)
        chunks.append(time.perf_counter() - start)
    return statistics.median(chunks)


def provenance(root: str, args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        blas = {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpus_visible": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "git_sha": git_sha(root),
        "source_digest": source_digest(root),
    }


class Child:
    """A worker process in its own session, killed with its pool on timeout."""

    def __init__(self, root: str, args: list, deadline: float) -> None:
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        command = [sys.executable, os.path.join(HERE, "worker.py")] + args
        process = subprocess.Popen(
            command,
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            out, err = process.communicate()
            err += "\nperfbench: killed at the invocation's time budget"
        self.returncode = process.returncode
        self.stderr = err
        self.lines = []
        for line in out.splitlines():
            try:
                self.lines.append(json.loads(line))
            except ValueError:  # anything the program printed besides our lines
                continue

    @property
    def result(self):
        if self.returncode != 0 or not self.lines or "warm_digest" not in self.lines[-1]:
            return None
        return self.lines[-1]

    @property
    def planned_attempts(self) -> int:
        for line in self.lines:
            if "planned_attempts" in line:
                return int(line["planned_attempts"])
        return 1


def _check_ledger(root: str, entry: dict) -> list:
    """Append ``entry``; return gate failures against earlier equal-key runs."""
    path = os.path.join(root, STATE_DIR, "ledger.jsonl")
    key = ("family", "seed", "seconds", "source_digest")
    failures = []
    if os.path.exists(path):
        with open(path) as handle:
            for line in handle:
                earlier = json.loads(line)
                if all(earlier.get(k) == entry[k] for k in key) and (
                    earlier["digest"] != entry["digest"]
                ):
                    failures.append(
                        f"digest {entry['digest'][:16]} differs from the "
                        f"{earlier['workload']} trace={earlier['trace']} run at the "
                        f"same seed ({earlier['digest'][:16]})"
                    )
    with open(path, "a") as handle:
        handle.write(json.dumps(entry) + "\n")
    return failures


def _gates(args, record: dict, children: list, measured: list, root: str) -> list:
    """Every correctness gate of the invocation; empty when all hold.

    ``children`` are all workers of the invocation, ``measured`` the results
    of the runs that trained through the timed rounds.
    """
    gates = []
    for child in children:
        if child.result is None:
            gates.append(f"worker exited with {child.returncode}: {child.stderr.strip()[-2000:]}")
        else:
            gates.extend(child.result.get("gate_failures", []))
    if any(child.result is None for child in children):
        return gates
    warm = {child.result["warm_digest"] for child in children}
    if len(warm) != 1:
        gates.append(f"post-warm-up digests differ across runs: {sorted(warm)}")
    if len({result["digest"] for result in measured}) != 1:
        gates.append("traced and untraced runs ended on different digests")
    for trace, result in enumerate(measured):
        gates.extend(_check_ledger(root, {
            "family": FAMILY.get(args.workload, args.workload),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": trace,
            "source_digest": record["provenance"]["source_digest"],
            "digest": result["digest"],
        }))
    return gates


def main() -> int:
    parser = argparse.ArgumentParser(description="CIP federation benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        return _fail_usage("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "fl", "simulation.py")):
        return _fail_usage(f"no program source under {root}/src/repro; run from the repository root")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            declared = json.load(handle)
    except (OSError, ValueError) as exc:
        return _fail_usage(f"cannot read BENCHMARK.json: {exc}")

    deadline = time.monotonic() + BUDGET_S
    state = os.path.join(root, STATE_DIR)
    workdir = os.path.join(state, f"run-{os.getpid()}")
    os.makedirs(os.path.join(state, "results"), exist_ok=True)
    record = {"provenance": provenance(root, args), "drift_before_s": drift_probe()}

    def child(role: str, trace: int = 0, workload: str = args.workload) -> Child:
        return Child(root, [
            "--workload", workload, "--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--role", role, "--trace", str(trace),
            "--workdir", os.path.join(workdir, f"{role}-{trace}-{workload}"),
        ], deadline)

    try:
        if args.trace:
            runs = [child("main", 0), child("main", 1)]
            children = runs
        else:
            # One set-up probe on each side of the measured run, so the
            # set-up median spans the invocation rather than one moment.
            runs = [child("setup")]
            references = (
                [child("setup", workload=FAMILY[args.workload])]
                if args.workload in FAMILY else []
            )
            runs += [child("main", 0), child("setup")]
            children = runs + references
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["drift_after_s"] = drift_probe()

    main = runs[-1] if args.trace else runs[1]
    main_result = main.result
    measured = [run.result for run in runs if run.result and "digest" in run.result]
    gates = _gates(args, record, children, measured, root)
    metrics = {}
    if main_result is None:
        attempted = failed = main.planned_attempts
    else:
        attempted, failed = main_result["attempted"], main_result["errors"]
    if all(child.result is not None for child in children):
        if args.trace:
            values = dict(main_result["layer"])
            values["trace.overhead_x"] = (
                main_result["e2e"]["train_samples_per_s"]
                / runs[0].result["e2e"]["train_samples_per_s"]
            )
        else:
            values = dict(main_result["e2e"])
            values["setup_s"] = statistics.median(run.result["setup"]["setup_s"] for run in runs)
        for spec in declared["per_layer" if args.trace else "end_to_end"]:
            if spec["name"] in values:
                metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
            else:
                gates.append(f"metric {spec['name']} was not measured")
        record.update({key: main_result[key] for key in (
            "digest", "rounds", "evaluation", "eval_s", "round_walls", "round_s_p90",
            "round_s_p90_beyond",
        )})
        record["setups"] = [run.result["setup"] for run in runs]
    correct = not gates
    record.update({"gate_failures": gates, "correct": correct, "metrics": metrics})
    out = os.path.join(state, "results", "{}-seed{}-trace{}-{}-{}.json".format(
        args.workload, args.seed, args.trace, time.strftime("%Y%m%dT%H%M%S"), os.getpid(),
    ))
    with open(out, "w") as handle:
        json.dump(record, handle, indent=1)

    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for gate in gates:
        print(f"GATE FAILED: {gate}")
    diagnostics = {key: record.get(key) for key in (
        "digest", "rounds", "evaluation", "eval_s", "round_s_p90", "round_s_p90_beyond",
        "drift_before_s", "drift_after_s",
    )}
    print("# provenance " + json.dumps(record["provenance"]))
    print("# diagnostics " + json.dumps(diagnostics))
    print(f"# record {os.path.relpath(out, root)}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(attempted)),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
