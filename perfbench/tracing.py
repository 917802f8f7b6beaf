"""Per-layer spans for the traced run, recorded from outside the program.

:class:`Tracer` installs pass-through wrappers at run time on the public
calls into each layer, keeps every span in memory, and turns them into the
per-layer metrics after the timed rounds.  A span's *self* time is its
duration minus the part of it that child spans cover, so the self times of
one round add up to the round's covered wall time and ``round.other_s`` is
what no span covers.

Nothing here is imported by an untraced run.  On the process engine the
client-side calls run in worker processes that were forked before the
wrappers were installed, so only coordinator calls are traced there and
per-client compute comes from ``RoundMetrics.client_compute_seconds``.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from time import perf_counter
from typing import Dict, List

import numpy as np

import repro.core.trainer as trainer_module
import repro.fl.executor as executor_module
from repro.attacks.internal import ActiveServerAttack, PassiveServerAttack
from repro.core.cip_client import CIPClient
from repro.core.perturbation import Perturbation
from repro.fl.client import FLClient
from repro.fl.communication import Codec, WireFormatError
from repro.fl.registry import ClientRegistry
from repro.fl.robust import StreamingScreener
from repro.fl.server import FLServer
from repro.fl.simulation import FederatedSimulation
from repro.nn import diagnostics

#: Op-profiler entries that are convolutions (forward + backward time).
CONV_OPS = ("conv2d", "conv2d_grouped", "fused_conv2d_relu")


class _Span:
    __slots__ = ("calls", "total", "own", "errors", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.own = 0.0
        self.errors = 0
        self.durations: List[float] = []


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _quantile(values: List[float], q: float) -> float:
    return float(np.quantile(values, q)) if values else 0.0


class Tracer:
    """Span recorder for one traced benchmark run."""

    def __init__(self, fed) -> None:
        self.fed = fed
        self.pool = fed.sim.executor.name == "process"
        self.phase = "setup"
        self.spans: Dict[tuple, _Span] = defaultdict(_Span)
        self._stack: List[float] = []
        self._patched: List[tuple] = []
        self._op_start: Dict[str, object] = {}
        self._op_end: Dict[str, object] = {}

    # -- wrappers -----------------------------------------------------------
    def _wrap(self, name: str, func, errors=()):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer._stack.append(0.0)
            start = perf_counter()
            failed = False
            try:
                return func(*args, **kwargs)
            except errors:
                failed = True
                raise
            finally:
                elapsed = perf_counter() - start
                child = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += elapsed
                span = tracer.spans[(tracer.phase, name)]
                span.calls += 1
                span.total += elapsed
                span.own += elapsed - child
                span.errors += failed
                span.durations.append(elapsed)

        return wrapper

    def _patch(self, owner, attr: str, name: str, errors=()) -> None:
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, getattr(owner, attr), errors))

    def install(self) -> None:
        """Wrap every traced call; called after the warm-up rounds."""
        targets = [
            (ClientRegistry, "checkout_many", "registry.checkout"),
            (ClientRegistry, "release", "registry.release"),
            (FLServer, "broadcast", "server.broadcast"),
            (FLServer, "aggregate", "server.aggregate"),
            (StreamingScreener, "screen", "robust.screen"),
            (FederatedSimulation, "save_checkpoint", "checkpoint.save"),
            (FederatedSimulation, "evaluate_clients", "eval.clients"),
            (PassiveServerAttack, "run", "attack.passive"),
            (ActiveServerAttack, "run", "attack.active"),
        ]
        targets += [
            (codec, "encode_update", "wire.encode")
            for codec in _subclasses(Codec)
            if "encode_update" in codec.__dict__
        ]
        if not self.pool:
            targets += [
                (FLClient, "local_update", "client.update.plain"),
                (CIPClient, "local_update", "client.update.cip"),
                (Perturbation, "optimize", "cip.step1"),
            ]
        for owner, attr, name in targets:
            self._patch(owner, attr, name)
        # Module-level functions, patched where their callers look them up.
        self._patch(executor_module, "decode_update", "wire.decode", WireFormatError)
        if not self.pool:
            self._patch(trainer_module, "cip_model_loss", "cip.step2_loss")
        executor = self.fed.sim.executor
        executor.execute = self._wrap("engine.execute", executor.execute)
        if not self.pool:
            diagnostics.enable_op_profiling()
            diagnostics.reset_op_stats()

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        diagnostics.disable_op_profiling()

    # -- phases -------------------------------------------------------------
    def begin_rounds(self) -> None:
        self.phase = "round"
        registry = self.fed.sim.registry
        self._registry_start = self._registry_counters(registry)
        self._op_start = diagnostics.get_op_stats()

    def begin_eval(self) -> None:
        self._op_end = diagnostics.get_op_stats()
        self._registry_end = self._registry_counters(self.fed.sim.registry)
        self._resident_mb = self.fed.sim.registry.resident_bytes() / 1e6
        self.phase = "eval"

    def end_eval(self) -> None:
        self.phase = "done"

    @staticmethod
    def _registry_counters(registry) -> Dict[str, int]:
        store = registry.store
        return {
            "materializations": registry.materialized_total,
            "evictions": getattr(store, "evictions", 0),
            "rehydrations": getattr(store, "rehydrations", 0),
        }

    # -- report -------------------------------------------------------------
    def _span(self, name: str, phase: str = "round") -> _Span:
        return self.spans.get((phase, name), _Span())

    def report(self, executions, metrics, walls, setup, samples) -> Dict[str, float]:
        """Per-layer metrics of the timed rounds and the evaluation."""
        self.uninstall()
        span = self._span
        wall = float(sum(walls))
        covered = sum(s.own for (phase, _), s in self.spans.items() if phase == "round")

        ops = {
            name: stat.minus(self._op_start[name]) if name in self._op_start else stat
            for name, stat in self._op_end.items()
            if name != diagnostics.WORKSPACE_STAT_KEY
        }
        conv_s = sum(stat.total_seconds for name, stat in ops.items() if name in CONV_OPS)
        other_ops_s = sum(
            stat.total_seconds for name, stat in ops.items() if name not in CONV_OPS
        )
        op_calls = sum(stat.calls for stat in ops.values())

        cip_update = span("client.update.cip")
        step1 = span("cip.step1")
        updates = cip_update.durations + span("client.update.plain").durations
        if self.pool:
            updates = [
                seconds for m in metrics for seconds in m.client_compute_seconds.values()
            ]
        update_calls = len(updates)
        trained = sum(
            len(e.results) + len(e.stale) + len(e.rejected) for e in executions
        )
        stacked_share = 0.0
        if trained and not self.pool:
            stacked_share = min(1.0, max(0.0, 1.0 - update_calls / trained))

        execute = span("engine.execute")
        compute = float(sum(m.total_compute_seconds for m in metrics))
        workers = getattr(self.fed.sim.executor, "num_workers", 1)
        busy_share = overhead_s = 0.0
        if self.pool and execute.total > 0:
            busy_share = compute / (workers * execute.total)
            overhead_s = execute.total - compute / workers

        lags = [lag for e in executions for lag in e.staleness_lags]
        dense = sum(m.bytes_aggregated_dense for m in metrics)
        wire = sum(m.bytes_aggregated for m in metrics)

        saves = span("checkpoint.save")
        checkpoint_mb = 0.0
        checkpoint = self.fed.sim.checkpoint
        if checkpoint is not None and os.path.isdir(checkpoint.directory):
            sizes = [
                os.path.getsize(os.path.join(checkpoint.directory, name))
                for name in os.listdir(checkpoint.directory)
            ]
            checkpoint_mb = max(sizes, default=0) / 1e6

        registry = {
            key: self._registry_end[key] - self._registry_start[key]
            for key in self._registry_end
        }
        return {
            "setup.import_s": setup["import_s"],
            "setup.build_s": setup["build_s"],
            "setup.warmup_s": setup["warmup_s"],
            "nn.conv2d_s": conv_s,
            "nn.other_ops_s": other_ops_s,
            "nn.op_calls_per_sample": op_calls / samples if samples else 0.0,
            "cip.step1_s": step1.total,
            "cip.step2_s": cip_update.total - step1.total,
            "cip.step2_loss_s": span("cip.step2_loss").total,
            "client.update_s_p50": _quantile(updates, 0.5),
            "client.update_s_p90": _quantile(updates, 0.9),
            "client.updates": float(update_calls),
            "engine.self_s": execute.own,
            "engine.stacked_share": stacked_share,
            "engine.retries": float(sum(sum(m.retried_clients.values()) for m in metrics)),
            "engine.dropped": float(sum(len(m.dropped_clients) for m in metrics)),
            "engine.stale": float(sum(len(m.stale_clients) for m in metrics)),
            "engine.quarantined": float(sum(len(m.rejected_clients) for m in metrics)),
            "pool.busy_share": busy_share,
            "pool.overhead_s": overhead_s,
            "async.mean_staleness": float(np.mean(lags)) if lags else 0.0,
            "wire.encode_s": span("wire.encode").total,
            "wire.decode_s": span("wire.decode").total,
            "wire.compression_x": dense / wire if wire else 0.0,
            "wire.retransmits": float(span("wire.decode").errors),
            "registry.checkout_s": span("registry.checkout").total,
            "registry.release_s": span("registry.release").total,
            "registry.materializations": float(registry["materializations"]),
            "registry.evictions": float(registry["evictions"]),
            "registry.rehydrations": float(registry["rehydrations"]),
            "registry.resident_mb": self._resident_mb,
            "server.broadcast_s": span("server.broadcast").total,
            "server.aggregate_s": span("server.aggregate").total,
            "robust.screen_s": span("robust.screen").total,
            "checkpoint.save_s_p50": _quantile(saves.durations, 0.5),
            "checkpoint.save_s_max": max(saves.durations, default=0.0),
            "checkpoint.saves": float(saves.calls),
            "checkpoint.mb": checkpoint_mb,
            "eval.clients_s": span("eval.clients", "eval").total,
            "attack.passive_s": span("attack.passive", "eval").total,
            "attack.active_s": span("attack.active", "eval").total,
            "round.other_s": wall - covered,
            "round.covered_share": covered / wall if wall else 0.0,
        }
