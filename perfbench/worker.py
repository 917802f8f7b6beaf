"""One benchmark run in a fresh interpreter; ``run.py`` starts it.

Roles:

* ``setup`` -- imports, builds the federation and runs the warm-up rounds,
  then reports the set-up timings and the post-warm-up digest;
* ``main`` -- the same set-up, then the timed rounds (each ``sim.run(1)``
  timed from outside), the post-training evaluation and the in-process
  correctness gates.  With ``--trace 1`` it installs the span wrappers of
  ``tracing.py`` after the warm-up and reports per-layer numbers.

The result is one JSON object on the last line of standard output.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (imports repro)

T_IMPORTED = time.perf_counter()

#: Accuracy at or above this means the task saturated within the budget and
#: the metric can no longer fail.
SATURATION = 0.9


def _peak_rss_mb() -> float:
    """High-water RSS of this process and of every reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports kilobytes


def _reap_children(timeout: float = 20.0) -> None:
    """Wait until every child process (pool workers) has exited."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
        time.sleep(0.01)


class ExecutionLog:
    """Keeps every ``RoundExecution`` the engine returns (pass-through)."""

    def __init__(self, executor) -> None:
        self.executions = []
        inner = executor.execute

        def execute(participants, server):
            execution = inner(participants, server)
            self.executions.append(execution)
            return execution

        executor.execute = execute


def _round_accounting(execution, metrics):
    """(attempted, aggregated, aggregated samples, errors) of one round."""
    expected = (
        execution.expected_participants
        if execution.expected_participants is not None
        else len(execution.results) + len(execution.failures) + len(execution.rejected)
    )
    rejected = set(metrics.rejected_clients)
    aggregated = [u for u in execution.updates if u.client_id not in rejected]
    errors = sum(1 for failure in execution.failures if failure.kind == "error")
    return expected, len(aggregated), sum(u.num_samples for u in aggregated), errors


def run(args) -> dict:
    spec = workloads.WORKLOADS[args.workload]
    rounds = spec.rounds(args.seconds)
    total_rounds = workloads.WARMUP_ROUNDS + rounds
    workdir = os.path.abspath(args.workdir)
    os.makedirs(workdir, exist_ok=True)

    fed = spec.build(args.seed, total_rounds, workdir)
    executor = fed.sim.executor
    per_round = (
        executor.buffer_size
        if executor.name == "async"
        else fed.sim.clients_per_round or len(fed.sim.registry)
    )
    # Reported first, so a run that raises still has a base for ``failed``.
    print(json.dumps({"planned_attempts": rounds * per_round}), flush=True)
    log = ExecutionLog(executor)
    t_built = time.perf_counter()
    fed.sim.run(workloads.WARMUP_ROUNDS)
    t_warm = time.perf_counter()
    warm_digest = workloads.state_digest(fed.sim.server.global_state())
    setup = {
        "import_s": T_IMPORTED - T_START,
        "build_s": t_built - T_IMPORTED,
        "warmup_s": t_warm - t_built,
        "setup_s": t_warm - T_START,
    }
    result = {"setup": setup, "warm_digest": warm_digest}
    if args.role == "setup":
        fed.close()
        _reap_children()
        return result

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(fed)
        tracer.install()

    walls = []
    attempted = aggregated = samples = errors = 0
    gate_failures = []
    first_timed = len(log.executions)
    if tracer is not None:
        tracer.begin_rounds()
    for _ in range(rounds):
        start = time.perf_counter()
        fed.sim.run(1)
        walls.append(time.perf_counter() - start)
        execution = log.executions[-1]
        metrics = fed.sim.history.round_metrics[-1]
        a, g, s, e = _round_accounting(execution, metrics)
        attempted += a
        aggregated += g
        samples += s
        errors += e
        if execution.expected_participants is not None:
            accounted = (
                len(execution.results)
                + len(execution.failures)
                + len(execution.stale)
                + len(execution.rejected)
            )
            if accounted != execution.expected_participants:
                gate_failures.append(
                    f"step {metrics.round_index}: expected "
                    f"{execution.expected_participants} != admitted+dropped+stale+"
                    f"quarantined {accounted}"
                )
    timed = log.executions[first_timed:]
    timed_metrics = fed.sim.history.round_metrics[-rounds:]
    state = fed.sim.server.global_state()
    digest = workloads.state_digest(state)
    if not all(np.all(np.isfinite(value)) for value in state.values()):
        gate_failures.append("global state is not finite")
    if fed.cohort is not None and fed.sim.registry.max_live > fed.cohort:
        gate_failures.append(
            f"{fed.sim.registry.max_live} live clients exceed the cohort of {fed.cohort}"
        )

    if tracer is not None:
        tracer.begin_eval()
    start = time.perf_counter()
    evaluation = fed.evaluate()
    eval_s = time.perf_counter() - start
    if tracer is not None:
        tracer.end_eval()
    if not evaluation["test_acc"] < SATURATION:
        gate_failures.append(
            f"test_acc {evaluation['test_acc']:.4f} reached saturation ({SATURATION})"
        )
    for key, value in evaluation.items():
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            gate_failures.append(f"{key} = {value} is not a ratio")

    layer = None
    if tracer is not None:
        layer = tracer.report(timed, timed_metrics, walls, setup, samples)
    fed.close()
    _reap_children()

    wall_total = float(sum(walls))
    ordered = sorted(walls)
    p90_index = max(0, math.ceil(0.9 * len(ordered)) - 1)
    result.update(
        {
            "rounds": rounds,
            "digest": digest,
            "attempted": attempted,
            "aggregated": aggregated,
            "errors": errors,
            "gate_failures": gate_failures,
            "round_walls": walls,
            "round_s_p90": ordered[p90_index],
            "round_s_p90_beyond": len(ordered) - 1 - p90_index,
            "evaluation": evaluation,
            "eval_s": eval_s,
            "e2e": {
                "setup_s": setup["setup_s"],
                "train_samples_per_s": samples / wall_total,
                "round_s_p50": float(np.median(walls)),
                "peak_rss_mb": _peak_rss_mb(),
                "upload_mb_per_round": float(
                    np.mean([m.bytes_aggregated for m in timed_metrics]) / 1e6
                ),
                "update_yield": aggregated / attempted,
            },
            "layer": layer,
        }
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "main"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    print(json.dumps(run(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
