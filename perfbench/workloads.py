"""The kernel workloads and the work one repetition ("rep") does.

A run builds its inputs from the seed once, then repeats reps in one
process. A rep sets the engine up several times (``setup_s``), runs it
once through ``GossipEngine.run`` (``run_s``), checkpoints, restores
from the last checkpoint several times (``resume_s``) and computes the
quality figures and output checks. Everything a check needs is
computed after the timed regions.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import resource
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core import (
    MaxAggregate,
    MeanAggregate,
    MinAggregate,
    MultiAggregateSpec,
    moment_values,
)
from repro.kernel import (
    CheckpointSpec,
    ChurnTrace,
    GossipEngine,
    MessageFaultSpec,
    NewscastSpec,
    RetrySpec,
    Scenario,
)
from repro.rng import derive_seed, make_rng
from repro.topology import CompleteTopology

#: engine constructions per rep
SETUP_REPEATS = 3
#: the backend every workload runs on; the output check replays each
#: workload on "reference" too
BACKEND = "vectorized"
#: network size of the bitwise reference-backend replay
CHECK_N = 2000
#: mass-conservation tolerance relative to the column's absolute mass
MASS_RTOL = 1e-9


@dataclasses.dataclass
class Built:
    """One constructed engine and the scenario it was built from."""

    scenario: Scenario
    engine: GossipEngine


@dataclasses.dataclass(frozen=True)
class Workload:
    """A named workload: sizes, and the callables that build and judge it.

    ``build(inputs, backend)`` returns a :class:`Built`;
    ``run(built, checkpoint_dir)`` is the timed ``GossipEngine.run``
    call; ``measure(built, result, inputs)`` returns quality figures
    and a list of failed output checks. A rep restores ``resumes``
    times: about twenty restores per run at the usual run length.
    """

    name: str
    why: str
    n: int
    smoke_n: int
    inputs: Callable[[int, int], dict]
    build: Callable[[dict, str], Built]
    run: Callable[[Built, Path], object]
    measure: Callable[[Built, object, dict], tuple]
    resumes: int
    checkpoints_in_run: bool = False


def conv_factor(variances) -> float:
    """Geometric-mean per-cycle variance ratio, ``(v_T / v_0) ** (1/T)``."""
    variances = np.asarray(variances, dtype=np.float64)
    cycles = len(variances) - 1
    return float((variances[-1] / variances[0]) ** (1.0 / cycles))


def matrix_digest(matrix: np.ndarray, alive: np.ndarray) -> str:
    """sha256 over the final value matrix and alive mask."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(matrix, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(alive, dtype=bool).tobytes())
    return digest.hexdigest()


# -- static-k5 ------------------------------------------------------------------

#: enough cycles for max/min to reach every one of 10^6 nodes (full
#: spread takes 12 cycles at 10^6; two more leave margin for any seed)
K5_CYCLES = 14


def k5_inputs(n: int, seed: int) -> dict:
    values = make_rng(derive_seed(seed, 0)).normal(10.0, 4.0, n)
    indicator = np.zeros(n)
    indicator[int(make_rng(derive_seed(seed, 1)).integers(0, n))] = 1.0
    return {
        "n": n,
        "values": values,
        "indicator": indicator,
        "seed": int(derive_seed(seed, 2).generate_state(1)[0]),
    }


def k5_build(inputs: dict, backend: str) -> Built:
    values = inputs["values"]
    spec = MultiAggregateSpec.build(
        {
            "mean": MeanAggregate(),
            "second_moment": MeanAggregate(),
            "maximum": MaxAggregate(),
            "minimum": MinAggregate(),
            "count": MeanAggregate(),
        },
        initial={
            "second_moment": moment_values(values, 2),
            "count": inputs["indicator"],
        },
    )
    scenario = spec.scenario(
        CompleteTopology(inputs["n"]), values, seed=inputs["seed"],
        cycles=K5_CYCLES, backend=backend,
    )
    return Built(scenario, GossipEngine(scenario))


def k5_run(built: Built, checkpoint_dir: Path):
    return built.engine.run(K5_CYCLES, record="cycle")


def k5_measure(built: Built, result, inputs: dict) -> tuple:
    engine = built.engine
    values = inputs["values"]
    failures = []
    initial = built.scenario.initial_matrix()
    final = engine.matrix
    for column, function in enumerate(engine.aggregate_functions):
        if not isinstance(function, MeanAggregate):
            continue
        before = float(initial[:, column].sum())
        after = float(final[:, column].sum())
        tolerance = MASS_RTOL * float(np.abs(initial[:, column]).sum()) + 1e-9
        if abs(after - before) > tolerance:
            failures.append(
                f"column {column} mass moved {after - before:+.3e} "
                f"(tolerance {tolerance:.1e})"
            )
    if not np.all(engine.column("maximum") == values.max()):
        failures.append("maximum did not reach the true maximum everywhere")
    if not np.all(engine.column("minimum") == values.min()):
        failures.append("minimum did not reach the true minimum everywhere")
    quality = {"conv_factor": conv_factor(result.variance_array("mean"))}
    return quality, failures


# -- newscast-faults ---------------------------------------------------------

NF_CYCLES = 30
#: a checkpoint every 10 cycles (``keep=1``): three writes inside a run
CHECKPOINT_EVERY = 10
VIEW_SIZE = 20
#: the Figure 4 diurnal wave of a 60-cycle trace (period 30); a run
#: covers its first 30 cycles, one full up-and-down swing
WAVE_CYCLES = 60


def nf_inputs(n: int, seed: int) -> dict:
    trace = ChurnTrace.diurnal(
        n, WAVE_CYCLES, period=WAVE_CYCLES // 2, amplitude=n // 10,
        fluctuation=max(n // 1000, 1),
    )
    return {
        "n": n,
        "trace": trace,
        "values": make_rng(derive_seed(seed, 4)).normal(10.0, 4.0, n),
        "seed": int(derive_seed(seed, 5).generate_state(1)[0]),
    }


def nf_build(inputs: dict, backend: str) -> Built:
    scenario = Scenario(
        topology=CompleteTopology(inputs["n"]),
        values=inputs["values"],
        churn=inputs["trace"],
        membership=NewscastSpec(view_size=VIEW_SIZE),
        message_faults=MessageFaultSpec(
            request_loss=0.05, reply_loss=0.1, duplication=0.05
        ),
        retry=RetrySpec(),
        seed=inputs["seed"],
        cycles=NF_CYCLES,
        backend=backend,
    )
    engine = GossipEngine(scenario)
    engine.arm_standard_monitors()
    return Built(scenario, engine)


def nf_run(built: Built, checkpoint_dir: Path):
    return built.engine.run(
        NF_CYCLES, record="cycle",
        checkpoint=CheckpointSpec(
            directory=checkpoint_dir, every_cycles=CHECKPOINT_EVERY, keep=1
        ),
    )


def trace_sizes(trace: ChurnTrace, n: int) -> List[int]:
    """Network size before the run and after each cycle under ``trace``."""
    sizes = [n]
    for cycle in range(NF_CYCLES):
        step = trace.step(cycle, sizes[-1])
        sizes.append(sizes[-1] + step.joins - step.leaves)
    return sizes


def nf_measure(built: Built, result, inputs: dict) -> tuple:
    engine = built.engine
    report = engine.invariant_report()
    failures = [] if report.ok else [
        f"invariant violation: {finding.message}"
        for finding in report.violations
    ]
    if list(result.alive_counts) != trace_sizes(inputs["trace"], inputs["n"]):
        failures.append("alive counts do not follow the churn trace")
    drift = abs(report.summaries["mass"]["fault_drift"]) / inputs["n"]
    quality = {
        "conv_factor": conv_factor(result.variance_array()),
        "mass_drift_per_node": drift,
        "invariants.findings": len(report.findings),
    }
    return quality, failures


# -- registry ---------------------------------------------------------------

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="static-k5",
            why=("five aggregates at N=10^6 with per-cycle records: "
                 "backend apply and observation dominate, membership and "
                 "fault path idle; its sharded:2 twin was dropped (run_s "
                 "spread 0.24 on 2 cores)"),
            n=1_000_000, smoke_n=3000,
            inputs=k5_inputs, build=k5_build, run=k5_run, measure=k5_measure,
            resumes=2,
        ),
        Workload(
            name="newscast-faults",
            why=("Newscast view merges, diurnal churn, message faults "
                 "with retransmit, monitors and checkpoints at N=10^5; "
                 "merged from newscast-churn and faults-retry, whose 25 s "
                 "runs spread up to 0.27"),
            n=100_000, smoke_n=3000,
            inputs=nf_inputs, build=nf_build, run=nf_run, measure=nf_measure,
            resumes=5, checkpoints_in_run=True,
        ),
    )
}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _release(built: Built) -> None:
    # engines hold reference cycles: collect each one so the next
    # starts from the same heap and peak_rss_mb reflects one engine
    built.engine.close()
    gc.collect()


def run_rep(workload: Workload, inputs: dict, workdir: Path,
            tracer=None) -> dict:
    """One repetition on prepared ``inputs``; returns its metrics, its
    setup and restore time samples, quality figures, digest and failed
    checks. ``tracer`` (a :class:`spans.Tracer` with its wrappers
    installed) records the run and each restore as root spans."""
    root = tracer.root if tracer is not None else (lambda name: nullcontext())
    checkpoint_dir = workdir / "checkpoints"
    setups: List[float] = []
    built: Optional[Built] = None
    for _ in range(SETUP_REPEATS):
        if built is not None:
            _release(built)
        started = time.perf_counter()
        built = workload.build(inputs, BACKEND)
        setups.append(time.perf_counter() - started)
    engine = built.engine

    with root("run"):
        started = time.perf_counter()
        result = workload.run(built, checkpoint_dir)
        run_s = time.perf_counter() - started

    final = engine.matrix
    alive = engine.alive_mask
    quality, failures = workload.measure(built, result, inputs)
    stats = engine.message_fault_stats
    facts = {
        "engine.exchanges": int(sum(result.exchange_counts)),
        "lifecycle.capacity": engine.capacity,
        **{f"messages.{k}": v for k, v in stats.items()},
        "messages.repair_ratio": (
            stats["repairs"] / stats["partials"] if stats["partials"] else 0.0
        ),
    }
    if not workload.checkpoints_in_run:
        engine.checkpoint(checkpoint_dir)
    scenario = built.scenario
    _release(built)
    del built, engine

    resumes = []
    exact = True
    for _ in range(workload.resumes):
        with root("resume"):
            started = time.perf_counter()
            restored = GossipEngine.restore(scenario, checkpoint_dir)
            resumes.append(time.perf_counter() - started)
        try:
            exact &= (np.array_equal(restored.matrix, final)
                      and np.array_equal(restored.alive_mask, alive))
        finally:
            restored.close()
            del restored
            gc.collect()
    if not exact:
        failures.append("restored state differs from the run's final state")

    node_cycles = float(sum(result.alive_counts[1:]))
    return {
        "metrics": {
            "run_s": run_s,
            "node_cycles_per_s": node_cycles / run_s,
            "peak_rss_mb": peak_rss_mb(),
            "conv_factor": quality.pop("conv_factor"),
        },
        "samples": {"setup_s": setups, "resume_s": resumes},
        "facts": {**facts, **quality},
        "digest": matrix_digest(final, alive),
        "failures": failures,
    }


def replay_digest(workload: Workload, n: int, seed: int, backend: str,
                  workdir: Path) -> str:
    """Run the workload untimed on ``backend`` and digest its final state."""
    inputs = workload.inputs(n, seed)
    built = workload.build(inputs, backend)
    try:
        workload.run(built, workdir / f"replay-{backend}")
        return matrix_digest(built.engine.matrix, built.engine.alive_mask)
    finally:
        built.engine.close()
