"""The loophom benchmark: three CLI workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): verify-all, betti-deep, eval-batch.  Each is a
closed loop with one client: the next command starts when the previous one
has finished.  Commands run as child processes of this script, built from
the checkout's own `src/`; every output is checked against an oracle that
does not use loophom.

A workload's commands for a seed form one round, a few seconds long.  With
--trace 0 the run repeats the round for about --seconds and prints the
end-to-end metrics: wall_s and cpu_s are the median round, cmd_p50_ms and
cmd_p90_ms the median over rounds of a round's percentile of command times
(verify-all's round is one command, so both equal wall_s), setup_s is the
median of several no-op evals before the rounds, and peak_rss_mb is the
largest child.  Medians over the whole run keep short swings of host speed
out of the figures.  With --trace 1 it runs the round twice, untraced and
then with the span tracer installed in every child, and prints the per-layer
metrics of the traced round plus trace.overhead_frac.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.

Bytecode is compiled once into .bench_build/pycache before anything is timed
and every child reads it from there, so both sides of a comparison start
warm.  Run records (environment, every command's time and status) go to
.bench_build/runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
sys.path.insert(0, str(BENCH))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

PYTHON = sys.executable
SETUP_PROBES = 11
# per-command time-outs, and the point after which no command starts, so a
# run ends within three minutes even when the program under test hangs
TIMEOUT_S = {"verify-all": 120.0, "betti-deep": 60.0, "eval-batch": 20.0}
RUN_DEADLINE_S = 160.0


@dataclass
class Outcome:
    tag: str
    argv: tuple
    seconds: float
    status: str  # ok | wrong | error | timeout
    detail: str = ""


@dataclass
class Round:
    outcomes: list
    wall_s: float
    cpu_s: float
    peak_rss_kb: int


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------


def child_env() -> dict:
    # no inherited PYTHON* setting may change what the children do; a fixed
    # hash seed keeps str-keyed set and dict layouts the same run to run
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def classify(cmd: workloads.Command, code, out: str, err: str) -> tuple:
    """(status, detail): a nonempty stdout that differs is a wrong answer."""
    if code is None:
        return "timeout", ""
    if out == cmd.expected and code == 0:
        return "ok", ""
    if out and out != cmd.expected:
        return "wrong", f"exit {code}, stdout differs from the oracle"
    last = err.strip().splitlines()[-1:] or [""]
    return "error", f"exit {code}: {last[0][:160]}"


def spawn(argv: list, timeout: float) -> tuple:
    """Run one child; (code or None on time-out, stdout, stderr, seconds, rusage)."""
    killed = threading.Event()
    with tempfile.TemporaryFile(dir=BUILD) as errf:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=errf,
            env=child_env(),
            cwd=ROOT,
        )

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        errf.seek(0)
        err = errf.read().decode(errors="replace")
    code = None if killed.is_set() else proc.returncode
    return code, out.decode(errors="replace"), err, seconds, usage


def run_round(workload, commands, deadline, trace_dir=None) -> Round:
    """One child process per command, as a user runs the CLI."""
    outcomes, cpu, rss = [], 0.0, 0
    start = time.perf_counter()
    for i, cmd in enumerate(commands):
        left = deadline - time.perf_counter()
        if left <= 0:
            outcomes.append(Outcome(cmd.tag, cmd.argv, 0.0, "timeout", "run deadline"))
            continue
        if trace_dir is None:
            argv = [PYTHON, "-m", "loophom.cli", *cmd.argv]
        else:
            argv = [PYTHON, str(BENCH / "child.py"), str(trace_dir / f"{i}.json"), *cmd.argv]
        code, out, err, seconds, usage = spawn(argv, min(TIMEOUT_S[workload], left))
        cpu += usage.ru_utime + usage.ru_stime
        rss = max(rss, usage.ru_maxrss)
        outcomes.append(Outcome(cmd.tag, cmd.argv, seconds, *classify(cmd, code, out, err)))
    return Round(outcomes, time.perf_counter() - start, cpu, rss)


def run_rounds(workload, commands, seconds, deadline) -> list:
    """Repeat the round until about `seconds` have passed; at least once.

    Another round starts only if its expected end, at the median round time
    so far, is nearer to `seconds` than stopping now, so a run lasts about
    `seconds` whatever the round time."""
    start = time.perf_counter()
    rounds = []
    while True:
        rounds.append(run_round(workload, commands, deadline))
        now = time.perf_counter()
        typical = statistics.median(r.wall_s for r in rounds)
        if now - start + typical / 2 > seconds or now + typical > deadline:
            return rounds


# ----------------------------------------------------------------------
# set-up and environment
# ----------------------------------------------------------------------


def check_layout() -> str:
    """An error message when the checkout holds no loophom source, else ''."""
    if not (ROOT / "src" / "loophom" / "cli.py").is_file():
        return f"no loophom source under {ROOT / 'src'}; run from a full checkout"
    return ""


def no_op_eval(workload: str) -> float:
    """Wall time of a fresh no-op eval in the workload's context."""
    setup = workloads.setup_command(workload)
    code, out, err, seconds, _u = spawn([PYTHON, "-m", "loophom.cli", *setup.argv], 60.0)
    if classify(setup, code, out, err)[0] != "ok":
        raise RuntimeError(f"no-op eval failed: exit {code}, {out!r} {err[-200:]}")
    return seconds


def warm_up(workload: str) -> None:
    """Compile bytecode into the cache prefix and check which loophom runs."""
    probe = "import loophom.cli, sys; sys.stdout.write(loophom.__file__)"
    code, out, err, _s, _u = spawn([PYTHON, "-c", probe], 60.0)
    expected = ROOT / "src" / "loophom" / "__init__.py"
    if code != 0 or Path(out).resolve() != expected:
        raise RuntimeError(f"loophom does not import from {expected}: {out or err}")
    no_op_eval(workload)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None  # the benchmark also runs from plain exported checkouts
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "bytecode": "warm, compiled into .bench_build/pycache before timing",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(rounds: list, setup_s: float) -> dict:
    def per_round(q: int) -> float:
        # a round percentile, median over the rounds: a slow spell of the
        # host then moves it no more than it moves wall_s
        return statistics.median(percentile([o.seconds for o in r.outcomes], q) for r in rounds)

    return {
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "cpu_s": (statistics.median(r.cpu_s for r in rounds), "s"),
        "cmd_p50_ms": (per_round(50) * 1e3, "ms"),
        "cmd_p90_ms": (per_round(90) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (max(r.peak_rss_kb for r in rounds) / 1024, "MB"),
    }


PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "wall_s": "s", "hit_ratio": "ratio"}


def per_layer(trace_dir: Path, untraced: Round, traced: Round) -> dict:
    summaries = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
    values = tracing.layer_metrics(tracing.merge(summaries))
    metrics = {
        name: (value, PER_LAYER_UNITS.get(name.rsplit(".", 1)[1], "count"))
        for name, value in values.items()
    }
    imports = [s["import_s"] for s in summaries]
    metrics["cli.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
    metrics["trace.overhead_frac"] = (traced.wall_s / untraced.wall_s - 1.0, "ratio")
    return metrics


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(workload: str, outcomes: list, metrics: dict) -> None:
    failed = [o for o in outcomes if o.status != "ok"]
    print(
        f"{workload}: {len(outcomes)} commands run, {len(failed)} failed, "
        f"failed_frac {len(failed) / len(outcomes):.4f}"
    )
    # a round repeats, so each failing command is listed once, with its count
    seen: dict = {}
    for o in failed:
        seen.setdefault((o.status, o.tag, o.argv, o.detail), []).append(o)
    for (status, tag, argv, detail), same in list(seen.items())[:8]:
        print(f"  {status} x{len(same)}: [{tag}] loophom {' '.join(argv)[:100]}  {detail}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = check_layout()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S
    BUILD.mkdir(exist_ok=True)
    runs_dir = BUILD / "runs"
    runs_dir.mkdir(exist_ok=True)

    try:
        warm_up(args.workload)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    commands = workloads.GENERATORS[args.workload](args.seed)

    if args.trace:
        untraced = run_round(args.workload, commands, deadline)
        trace_dir = BUILD / "trace" / args.workload
        trace_dir.mkdir(parents=True, exist_ok=True)
        for old in trace_dir.glob("*.json"):
            old.unlink()
        traced = run_round(args.workload, commands, deadline, trace_dir)
        outcomes = untraced.outcomes + traced.outcomes
        metrics = per_layer(trace_dir, untraced, traced)
    else:
        setup_s = statistics.median(no_op_eval(args.workload) for _ in range(SETUP_PROBES))
        rounds = run_rounds(args.workload, commands, args.seconds, deadline)
        outcomes = [o for r in rounds for o in r.outcomes]
        metrics = end_to_end(rounds, setup_s)

    report(args.workload, outcomes, metrics)
    record = {
        "env": env,
        "commands": [
            {"tag": o.tag, "argv": list(o.argv), "seconds": o.seconds, "status": o.status, "detail": o.detail}
            for o in outcomes
        ],
        "metrics": {k: v for k, (v, _u) in metrics.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (runs_dir / name).write_text(json.dumps(record, indent=1))
    result = {
        "correct": not any(o.status == "wrong" for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.status != "ok"),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
