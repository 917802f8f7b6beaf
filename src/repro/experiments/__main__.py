"""Command-line runner for the paper-reproduction experiments.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments table5 fig8 --profile quick
    python -m repro.experiments --all --profile smoke

Every execution flag is generated from a field of
:class:`~repro.core.config.ExecutionConfig` (its name, type, default,
choices and help); only the composite ``--inject-faults`` and
``--byzantine-clients`` specs are written here.  A combination the config
rejects — a knob set on a path that never reads it — is a usage error
(exit 2), reported before anything trains.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import is_dataclass
from typing import Dict, Optional, Tuple

from repro.core.config import KNOB_GROUPS, ExecutionConfig, UnreadKnobError, iter_knobs
from repro.experiments import format_table, get_profile, list_experiments, run_experiment
from repro.utils.logging import enable_console_logging


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate tables and figures of the CIP paper (DSN'23).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to run (e.g. table5 fig8); see --list",
    )
    parser.add_argument(
        "--profile",
        default="quick",
        choices=("smoke", "quick", "full"),
        help="execution profile (default: quick)",
    )
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--list", action="store_true", help="list experiments and exit")
    parser.add_argument(
        "--report",
        metavar="PATH",
        help="write a markdown report of the selected experiments to PATH",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="enable progress logging to stderr"
    )
    sections = {None: parser}
    for knob in iter_knobs(ExecutionConfig):
        meta, default = knob.field.metadata, knob.field.default
        group = meta["group"]
        if group not in sections:
            sections[group] = parser.add_argument_group(*KNOB_GROUPS[group])
        if knob.kind is bool or is_dataclass(knob.kind):
            sections[group].add_argument(knob.flag, action="store_true", help=meta["help"])
            continue
        sections[group].add_argument(
            knob.flag,
            default=default,
            type=knob.kind if knob.kind in (int, float) else None,
            choices=meta["choices"],
            metavar=meta["metavar"],
            help=meta["help"] + ("" if default is None else " (default: %(default)s)"),
        )
    sections["faults"].add_argument(
        "--inject-faults",
        default=None,
        metavar="CRASH,TRANSIENT,STRAGGLER,DELAY",
        help="deterministic fault injection for robustness drills: "
        "crash/transient/straggler rates in [0,1] plus the straggler delay "
        "in seconds (e.g. 0.05,0.1,0.1,2.0)",
    )
    sections["robust"].add_argument(
        "--byzantine-clients",
        default=None,
        metavar="ID[,ID...]",
        help="comma-separated client ids that mount --byzantine-attack "
        "(e.g. 0,3)",
    )
    return parser


def _fault_spec(spec: Optional[str]) -> Dict[str, float]:
    """The FaultConfig rates of the --inject-faults composite spec."""
    if spec is None:
        return {}
    parts = [float(part) for part in spec.split(",")]
    if len(parts) != 4:
        raise ValueError(
            "--inject-faults expects four comma-separated values: "
            "crash,transient,straggler rates and the straggler delay"
        )
    names = ("crash_rate", "transient_rate", "straggler_rate", "straggler_delay_seconds")
    return dict(zip(names, parts))


def _byzantine_spec(spec: Optional[str]) -> Dict[str, Tuple[int, ...]]:
    """The ByzantineConfig clients of the --byzantine-clients spec."""
    if spec is None:
        return {}
    try:
        ids = tuple(int(part) for part in spec.split(",") if part.strip())
    except ValueError:
        raise ValueError(
            "--byzantine-clients expects comma-separated integer ids"
        ) from None
    if not ids:
        raise ValueError("--byzantine-clients names no client ids")
    return {"clients": ids}


def parse_command_line(argv=None) -> Tuple[argparse.Namespace, ExecutionConfig]:
    """Parse ``argv`` into its namespace and the run's :class:`ExecutionConfig`.

    An invalid flag value or combination exits with a usage error (2).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = ExecutionConfig.from_flags(
            vars(args),
            fault_config=_fault_spec(args.inject_faults),
            byzantine_config=_byzantine_spec(args.byzantine_clients),
        )
    except UnreadKnobError as exc:
        flags = {knob.path: knob.flag for knob in iter_knobs(ExecutionConfig)}
        flags["byzantine_config.clients"] = "--byzantine-clients"
        wanted = "" if exc.values in (None, (True,)) else " " + "/".join(exc.values)
        parser.error(
            f"{flags[exc.knob]} has no effect without {flags[exc.reader]}{wanted}"
        )
    except ValueError as exc:
        parser.error(str(exc))
    return args, config


def main(argv=None) -> int:
    args, config = parse_command_line(argv)
    if args.verbose:
        enable_console_logging()

    from repro.experiments.common import set_execution_config

    set_execution_config(config)

    if args.list:
        for spec in list_experiments():
            print(f"{spec.experiment_id:<24} {spec.paper_reference:<22} {spec.title}")
        return 0

    ids = [spec.experiment_id for spec in list_experiments()] if args.all else args.experiments
    if not ids:
        print("nothing to run; pass experiment ids, --all, or --list", file=sys.stderr)
        return 2

    profile = get_profile(args.profile)
    if args.report:
        from repro.experiments.report import generate_report

        text = generate_report(ids, profile)
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report written to {args.report}")
        return 0
    for experiment_id in ids:
        start = time.perf_counter()
        result = run_experiment(experiment_id, profile)
        elapsed = time.perf_counter() - start
        print(format_table(result))
        print(f"({experiment_id} completed in {elapsed:.1f}s at profile '{profile.name}')")
        print()
    from repro.nn import diagnostics

    if diagnostics.profiling_enabled():
        print("op profile (all selected experiments):")
        print(diagnostics.format_op_table())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
