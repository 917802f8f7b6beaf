"""Which ``src/repro`` functions do the experiments, benchmark and docs reach?

Runs the project's traffic under a call-recording hook and writes one row
per function of ``src/repro``: its code lines (lines with a token other
than a comment or docstring) and, per traffic source, whether any run of
that source called it.  A function that no source reaches is reached only
by its own unit tests, or by nothing at all.

Traffic sources:

* ``experiments`` — every registered experiment at ``--profile smoke``;
* ``perfbench`` — the four workloads at ``--seed 1 --seconds 3``, traced
  and untraced;
* ``ci`` — every matrix-expanded ``python -m repro.experiments`` line of
  ``.github/workflows/ci.yml``;
* ``readme`` — the command lines of README.md's bash blocks, each run at
  ``--profile smoke``;
* ``tests`` (only with ``--tests``) — the tier-1 suite.

The hook is a ``sitecustomize`` module on a ``PYTHONPATH`` entry in front
of ``src``.  It installs ``sys.settrace`` and ``threading.settrace`` and
appends the first call of each ``src/repro`` function to a per-process log,
so forked pool workers and perfbench's worker interpreters are covered.
Standard library only.  From the repository root::

    python tools/reachability.py --jobs 2            # about 20 minutes on 2 vCPU
    python tools/reachability.py --jobs 2 --tests    # plus the tier-1 suite, about 35
    python tools/reachability.py --count             # code lines of src/ only

The table goes to ``tools/reachability.md`` (``--output`` moves it).
"""

from __future__ import annotations

import argparse
import ast
import collections
import concurrent.futures
import importlib.util
import io
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
CLI = [sys.executable, "-m", "repro.experiments"]
WORKLOADS = ("cip_silo", "cip_silo_pool", "cip_cohort", "async_chaos")
SOURCES = ("experiments", "perfbench", "ci", "readme")

#: The recording hook, written as ``sitecustomize.py`` into a scratch
#: directory.  It runs at interpreter start-up in every process of a run.
HOOK = '''\
import os
import sys
import threading

_PREFIX = os.environ.get("REACH_PREFIX")
_LOG_DIR = os.environ.get("REACH_LOG_DIR")
_seen = set()
_state = {"pid": None, "handle": None}


def _log(line):
    pid = os.getpid()
    if _state["pid"] != pid:
        # First record of this process (or of a fork of a recorded one).
        _state["pid"] = pid
        path = os.path.join(_LOG_DIR, "calls-%d.log" % pid)
        _state["handle"] = open(path, "a", buffering=1, encoding="utf-8")
    _state["handle"].write(line)


def _trace(frame, event, arg):
    try:
        code = frame.f_code
        if event != "call" or not code.co_filename.startswith(_PREFIX):
            return None
        key = (code.co_filename, code.co_firstlineno)
        if key not in _seen:
            _seen.add(key)
            _log("%s\\t%d\\t%s\\n" % (key[0], key[1], code.co_qualname))
    except Exception:
        # Interpreter shutdown sets module globals to None; stay silent.
        pass
    return None


if _PREFIX and _LOG_DIR:
    sys.settrace(_trace)
    threading.settrace(_trace)
'''


# ----------------------------------------------------------------------
# Function inventory and the code-line counter
# ----------------------------------------------------------------------
def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str, tree: ast.AST) -> set:
    """Line numbers holding a token other than a comment or docstring."""
    docstrings = _docstring_lines(tree)
    skip = {
        tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
    }
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in skip:
            continue
        if token.type == tokenize.STRING and token.start[0] in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return lines


def inventory():
    """``{(path, first line): (qualname, code lines)}`` for every function
    and method of ``src/repro`` (nested functions count toward their
    enclosing one), plus the total code lines of ``src/``."""
    functions = {}
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        counted = code_lines(source, tree)
        total += len(counted)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    span = range(first, child.end_lineno + 1)
                    functions[(str(path), first)] = (
                        prefix + child.name, sum(1 for line in span if line in counted)
                    )

        visit(tree, "")
    return functions, total


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
def _load_documented_commands():
    """The CI and README command lines, as the config tests collect them."""
    sys.path[:0] = [str(SRC), str(ROOT)]  # the test module imports repro
    spec = importlib.util.spec_from_file_location(
        "_documented", ROOT / "tests" / "core" / "test_execution_config.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module._ci_command_lines()), list(module._readme_command_lines())


def _at_smoke(argv):
    """``argv`` with its profile forced to smoke."""
    if "--profile" in argv:
        index = argv.index("--profile")
        return argv[: index + 1] + ["smoke"] + argv[index + 2 :]
    return argv + ["--profile", "smoke"]


def _local_paths(argv, workdir):
    """Point path-valued flags at ``workdir`` so a run writes nothing else."""
    argv = list(argv)
    for flag in ("--checkpoint-dir", "--report"):
        if flag in argv:
            index = argv.index(flag) + 1
            argv[index] = str(Path(workdir) / Path(argv[index]).name)
    return argv


def traffic(include_tests: bool):
    """``[(source, label, argv)]`` for every run, the longest first."""
    ci_lines, readme_lines = _load_documented_commands()
    listed = subprocess.run(
        CLI + ["--list"], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    ).stdout.split("\n")
    runs = []
    if include_tests:
        runs.append(("tests", "tier-1", [sys.executable, "-m", "pytest", "-x", "-q"]))
    runs += [
        ("readme", line.strip(), CLI + _at_smoke(shlex.split(line, comments=True)))
        for line in readme_lines
    ]
    runs += [
        ("experiments", name, CLI + [name, "--profile", "smoke"])
        for name in (line.split()[0] for line in listed if line.strip())
    ]
    runs += [
        (
            "perfbench", f"{workload} trace={trace}",
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "3", "--trace", str(trace)],
        )
        for workload in WORKLOADS
        for trace in (0, 1)
    ]
    runs += [
        ("ci", line.strip(), CLI + shlex.split(line, comments=True))
        for line in ci_lines
    ]
    return runs


def _run_one(source, label, argv, hook_dir, log_root):
    log_dir = Path(log_root) / source
    log_dir.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=log_root)
    argv = _local_paths(argv, workdir)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([hook_dir, str(SRC)]),
        REACH_PREFIX=str(PACKAGE) + os.sep,
        REACH_LOG_DIR=str(log_dir),
    )
    start = time.perf_counter()
    # pytest and perfbench run from the repository root (the rootdir, the
    # benchmark's ledger); every other command runs in its own scratch
    # directory.
    cwd = ROOT if source in ("tests", "perfbench") else workdir
    result = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    shutil.rmtree(workdir, ignore_errors=True)
    # A failed run keeps the last line it wrote (the exception, usually).
    tail = (result.stderr.strip() or result.stdout.strip()).splitlines()[-1:]
    error = tail[0] if result.returncode and tail else ""
    return source, label, result.returncode, time.perf_counter() - start, error


def _reached(log_root):
    reached = collections.defaultdict(set)
    for log in Path(log_root).glob("*/calls-*.log"):
        source = log.parent.name
        for line in log.read_text(encoding="utf-8").splitlines():
            parts = line.split("\t")
            if len(parts) == 3:
                reached[(parts[0], int(parts[1]))].add(source)
    return reached


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def render(functions, total, reached, sources, outcomes, seconds):
    rel = {key: Path(key[0]).relative_to(SRC).as_posix() for key in functions}
    unreached = [key for key in functions if not (reached.get(key, set()) - {"tests"})]
    lines = [
        "# Reachability of `src/repro`",
        "",
        "Generated by `python tools/reachability.py"
        + (" --tests" if "tests" in sources else "") + "`; do not edit by hand.",
        "",
        f"- `src/` code lines: {total}",
        f"- functions and methods: {len(functions)}, "
        f"{sum(n for _, n in functions.values())} code lines",
        f"- reached by no source but the tests: {len(unreached)} functions, "
        f"{sum(functions[key][1] for key in unreached)} code lines",
        f"- runs: {len(outcomes)}, failed: "
        f"{sum(1 for outcome in outcomes if outcome[2] != 0)}, "
        f"wall time {seconds / 60:.1f} min",
        "",
        "Runs per source: "
        + ", ".join(
            f"{source} {sum(1 for s, *_ in outcomes if s == source)}" for source in sources
        ),
        "",
    ]
    failed = [outcome for outcome in outcomes if outcome[2] != 0]
    if failed:
        lines += ["Failed runs:", ""]
        lines += [
            f"- {s}: `{label}` exited {code}: `{error}`"
            for s, label, code, _, error in failed
        ]
        lines.append("")
    by_module = collections.defaultdict(lambda: [0, 0])
    for key in unreached:
        by_module[rel[key]][0] += 1
        by_module[rel[key]][1] += functions[key][1]
    lines += [
        "## Unreached code lines by module",
        "",
        "| module | functions | code lines |",
        "|---|---:|---:|",
    ]
    for module, (count, size) in sorted(by_module.items(), key=lambda item: -item[1][1]):
        lines.append(f"| `{module}` | {count} | {size} |")
    header = "| function | lines | " + " | ".join(sources) + " |"
    lines += [
        "",
        "## Every function",
        "",
        "`x` marks a source that called the function at least once.",
        "",
        header,
        "|---|---:|" + "---|" * len(sources),
    ]
    for key in sorted(functions, key=lambda k: (rel[k], k[1])):
        name, size = functions[key]
        marks = " | ".join("x" if s in reached.get(key, ()) else "." for s in sources)
        lines.append(f"| `{rel[key]}:{name}` | {size} | {marks} |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=2, help="runs in parallel")
    parser.add_argument("--tests", action="store_true", help="add the tier-1 suite as a source")
    parser.add_argument("--count", action="store_true", help="print src/ code lines and exit")
    parser.add_argument(
        "--output", type=Path, default=ROOT / "tools" / "reachability.md",
        help="where the table goes",
    )
    parser.add_argument(
        "--workdir", type=Path, default=None,
        help="parent of the run's scratch directory (default: the system temp dir)",
    )
    args = parser.parse_args(argv)
    functions, total = inventory()
    if args.count:
        print(total)
        return 0
    sources = SOURCES + (("tests",) if args.tests else ())
    runs = traffic(args.tests)
    start = time.perf_counter()
    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="reachability-", dir=args.workdir) as scratch:
        hook_dir = Path(scratch) / "hook"
        hook_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        log_root = Path(scratch) / "logs"
        log_root.mkdir()
        outcomes = []
        with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
            futures = [
                pool.submit(_run_one, source, label, command, str(hook_dir), str(log_root))
                for source, label, command in runs
            ]
            for future in concurrent.futures.as_completed(futures):
                outcome = future.result()
                outcomes.append(outcome)
                source, label, code, seconds, _ = outcome
                print(f"[{len(outcomes)}/{len(runs)}] {source}: {label} "
                      f"-> exit {code} ({seconds:.0f}s)", flush=True)
        reached = _reached(log_root)
    text = render(functions, total, reached, sources, outcomes, time.perf_counter() - start)
    args.output.write_text(text, encoding="utf-8")
    print(f"wrote {args.output}")
    return 1 if any(outcome[2] != 0 for outcome in outcomes) else 0


if __name__ == "__main__":
    raise SystemExit(main())
