"""Kernel benchmark: one workload, repeated in one fresh process, checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload static-k5 --seed 1 --seconds 45 --trace 0

The parent process generates nothing itself. It launches one child
process (the "session") under a hang guard. The session builds the
inputs from the seed once and repeats the workload ("rep", see
``workloads.run_rep``) until the reps' summed ``run_s`` is about
``--seconds``; it writes each rep's result as one JSON line as soon as
the rep ends. A second child then runs the output check that needs a
replay: the workload scaled down, on the ``reference`` backend beside
``vectorized``. The parent prints one JSON object as its last line.
``--trace 0`` reports the end-to-end metrics (medians over reps);
``--trace 1`` alternates untraced and traced reps and reports the
per-layer metrics. A rep that raises or fails a check is counted in
``failed`` and the session goes on. A session that outlives the hang
guard is killed: the rep in flight counts as failed, the reps it
finished still count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent

END_TO_END = ("setup_s", "run_s", "node_cycles_per_s", "peak_rss_mb",
              "resume_s", "conv_factor")
UNITS = {"setup_s": "s", "run_s": "s", "node_cycles_per_s": "1/s",
         "peak_rss_mb": "MiB", "resume_s": "s", "conv_factor": "ratio"}

PER_LAYER = {
    "backend.apply_s": "s", "backend.batch_s": "s", "backend.conflict_s": "s",
    "backend.tail_s": "s", "backend.batch_steps": "count",
    "backend.tail_steps": "count", "backend.batch_share": "ratio",
    "backend.scan_steps_per_exchange": "ratio",
    "observe.s": "s", "observe.calls": "count",
    "backend.view_merge_s": "s", "membership.refresh_s": "s",
    "membership.draw_s": "s", "membership.draws": "count",
    "lifecycle.joins": "count", "lifecycle.leaves": "count",
    "lifecycle.capacity": "count",
    "engine.self_s": "s", "engine.cycle_s_p50": "s", "engine.cycle_s_p90": "s",
    "engine.exchanges": "count",
    "messages.partials": "count", "messages.duplicates": "count",
    "messages.repairs": "count", "messages.retries": "count",
    "messages.giveups": "count", "messages.repair_ratio": "ratio",
    "messages.delay_calls": "count",
    "invariants.observe_s": "s", "invariants.findings": "count",
    "checkpoint.write_s": "s", "checkpoint.state_s": "s",
    "checkpoint.bytes": "bytes", "checkpoint.read_s": "s",
    "checkpoint.load_s": "s",
    "mass_drift_per_node": "ratio",
    "trace.unattributed_frac": "ratio", "trace.overhead_frac": "ratio",
}

#: reps per run at least, of each kind (medians need more than one sample)
MIN_REPS = 2
#: wall-clock the whole run may take; a run must end within 180 s
RUN_BUDGET_S = 165.0
#: wall-clock kept back from the session for the replay check
REPLAY_RESERVE_S = 20.0
#: how long the hang guard waits past the session's own deadline
GUARD_MARGIN_S = 10.0


def _child(argv, workdir: Path, timeout: float):
    """Run ``run.py argv`` in a fresh process group; returns ``None``
    or why it failed. The group is killed on timeout and always
    reaped, so no process outlives the child."""
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "tmp").mkdir(exist_ok=True)
    root = Path.cwd()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    env["TMPDIR"] = str(workdir / "tmp")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), *argv,
         "--workdir", str(workdir)],
        env=env, stdout=sys.stderr, start_new_session=True,
    )
    failure = None
    try:
        code = proc.wait(timeout=max(timeout, 1.0))
        if code != 0:
            failure = f"exit code {code}"
    except subprocess.TimeoutExpired:
        failure = f"hang guard: no result after {timeout:.0f} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return failure


def _read_lines(path: Path) -> list:
    """The complete JSON lines of ``path`` (a killed writer may leave a
    torn last line, which is dropped)."""
    if not path.exists():
        return []
    rows = []
    for line in path.read_text().splitlines():
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            break
    return rows


def _median(rows, key):
    values = [row[key] for row in rows if key in row]
    return statistics.median(values) if values else 0.0


def digest_errors(reps, replay) -> list:
    """Failed output checks among final-state digests: ``reps`` (every
    rep ran the same inputs, so one state) and ``replay`` (the
    scaled-down replay on each backend; ``None`` if it did not run)."""
    errors = []
    if len(set(reps)) > 1:
        errors.append(f"reps disagree on the final state: {sorted(set(reps))}")
    if replay is not None and len(set(replay)) != 1:
        errors.append(f"reference replay differs from vectorized: {replay}")
    return errors


def _terminate(signum, frame):
    # turn SIGTERM into an exception, so _child's finally still kills
    # and reaps the child's process group
    sys.exit(128 + signum)


def parent(args) -> int:
    started = time.perf_counter()
    signal.signal(signal.SIGTERM, _terminate)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout that holds "
              "src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import CHECK_N, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    n = workload.smoke_n if args.smoke else workload.n
    base = root / ".perfbench" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    errors = []

    budget = RUN_BUDGET_S - REPLAY_RESERVE_S - (time.perf_counter() - started)
    session = base / "session"
    failure = _child(
        ["--session", workload.name, "--seed", str(args.seed), "--n", str(n),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--deadline", str(budget - GUARD_MARGIN_S)],
        session, budget,
    )
    reps = _read_lines(session / "reps.jsonl")
    attempted = len(reps)
    if failure is not None:
        attempted += 1
        errors.append(f"session: {failure}")
    for index, rep in enumerate(reps):
        errors.extend(f"rep{index}: {f}" for f in rep["failures"])
    failed = sum(1 for rep in reps if rep["failures"]) + (failure is not None)
    good = [rep for rep in reps if not rep["failures"]]
    untraced = [rep for rep in good if not rep["traced"]]
    traced = [rep for rep in good if rep["traced"]]

    attempted += 1
    replay_dir = base / "replay"
    failure = _child(
        ["--replay", workload.name, "--seed", str(args.seed),
         "--n", str(min(CHECK_N, n))],
        replay_dir, RUN_BUDGET_S - (time.perf_counter() - started),
    )
    replay = None
    if failure is None:
        replay = _read_lines(replay_dir / "digests.jsonl")[0]["digests"]
    else:
        failed += 1
        errors.append(f"replay: {failure}")
    digest_checks = digest_errors([r["digest"] for r in good], replay)
    failed += len(digest_checks)
    errors.extend(digest_checks)

    for error in errors:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    metrics = {}
    if untraced and not args.trace:
        # setup and restore are sampled several times per rep: the
        # median over all samples of the run
        rows = [r["metrics"] for r in untraced] + [
            {key: value} for r in untraced
            for key, values in r["samples"].items() for value in values
        ]
        metrics = {k: {"value": _median(rows, k), "unit": UNITS[k]}
                   for k in END_TO_END}
        # the process's peak over the whole session, not a median
        metrics["peak_rss_mb"]["value"] = max(
            r["metrics"]["peak_rss_mb"] for r in untraced
        )
    elif untraced and traced:
        rows = [{**r["facts"], **r["layers"]} for r in traced]
        metrics = {k: {"value": _median(rows, k), "unit": unit}
                   for k, unit in PER_LAYER.items()}
        overhead = (_median([r["metrics"] for r in traced], "run_s")
                    / _median([r["metrics"] for r in untraced], "run_s") - 1.0)
        metrics["trace.overhead_frac"]["value"] = overhead
    shutil.rmtree(base, ignore_errors=True)
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if metrics else 1


def _one_rep(workload, inputs, workdir: Path, traced: bool, tag: str) -> dict:
    from workloads import run_rep

    if not traced:
        return run_rep(workload, inputs, workdir)
    from spans import Tracer, layer_metrics

    tracer = Tracer().install()
    try:
        result = run_rep(workload, inputs, workdir, tracer)
    finally:
        tracer.uninstall()
    result["layers"] = layer_metrics(tracer.spans, tracer.counts)
    tracer.write(Path.cwd() / ".perfbench" / "spans" / f"{tag}.jsonl")
    return result


def session_main(args) -> int:
    """Child: reps until their ``run_s`` sums to about ``--seconds`` (a
    rep that would end past it by more than half its length is not
    started) or until ``--deadline``; one JSON line per rep in
    ``reps.jsonl`` under ``--workdir``."""
    from workloads import WORKLOADS

    deadline = time.perf_counter() + args.deadline
    workload = WORKLOADS[args.session]
    workdir = Path(args.workdir)
    inputs = workload.inputs(args.n, args.seed)
    done = {False: 0, True: 0}
    measured = last_run = last_wall = 0.0
    failures = 0
    rep = 0
    with open(workdir / "reps.jsonl", "a", encoding="utf-8") as out:
        while failures < MIN_REPS:
            enough = done[False] >= MIN_REPS and (
                not args.trace or done[True] >= MIN_REPS)
            if enough and measured + last_run / 2 >= args.seconds:
                break
            if rep and time.perf_counter() + 2 * last_wall > deadline:
                break
            traced = bool(args.trace) and rep % 2 == 1
            tag = f"{workload.name}-seed{args.seed}-pid{os.getpid()}-rep{rep}"
            rep_dir = workdir / f"rep{rep}"
            t0 = time.perf_counter()
            try:
                result = _one_rep(workload, inputs, rep_dir, traced, tag)
            except Exception as exc:  # counted as a failed rep
                traceback.print_exc()
                result = {"failures": [f"raised {type(exc).__name__}: {exc}"]}
            last_wall = time.perf_counter() - t0
            shutil.rmtree(rep_dir, ignore_errors=True)
            result["traced"] = traced
            out.write(json.dumps(result) + "\n")
            out.flush()
            if result["failures"]:
                failures += 1
            else:
                done[traced] += 1
                last_run = result["metrics"]["run_s"]
                measured += last_run
            rep += 1
    return 0


def replay_main(args) -> int:
    """Child: untimed replays on ``reference`` and the benchmarked
    backend, digests written to ``digests.jsonl`` under ``--workdir``."""
    from workloads import BACKEND, WORKLOADS, replay_digest

    workload = WORKLOADS[args.replay]
    workdir = Path(args.workdir)
    digests = [replay_digest(workload, args.n, args.seed, backend, workdir)
               for backend in ("reference", BACKEND)]
    (workdir / "digests.jsonl").write_text(json.dumps({"digests": digests}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run at the workload's smoke size (tests)")
    # child-process arguments
    parser.add_argument("--session", help=argparse.SUPPRESS)
    parser.add_argument("--replay", help=argparse.SUPPRESS)
    parser.add_argument("--deadline", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--n", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.session:
        return session_main(args)
    if args.replay:
        return replay_main(args)
    if not args.workload:
        parser.error("--workload is required")
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
