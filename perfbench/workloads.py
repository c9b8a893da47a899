"""Instance ladders and request lists of the routing benchmark.

Every request is one ``qaroute transpile`` call on a circuit document
written at set-up. Instances are quantum-volume circuits,
``lower_circuit(gen_qv_circuit(w, [seed, s]), layers)``, routed with the
CLI's default two dummy steps.

The two exact ladders are fixed at instance seed 202, the seed the
ROADMAP baseline was measured on: branch-and-bound time differs up to
20x between two seeds of the same shape, so only a fixed ladder gives
before/after numbers that can be compared instance by instance, and only
a fixed ladder lets node counts repeat exactly. The benchmark's own
``--seed`` shuffles the request order of every workload and, for the
greedy workload, also draws the 100 circuits.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

DEFAULT_INSTANCE_SEED = 202
DUMMY_STEPS = 2


@dataclass(frozen=True)
class Instance:
    topology: str
    nodes: int
    width: int
    layers: int | None  # None keeps the full square QV circuit
    index: int

    @property
    def name(self) -> str:
        depth = "full" if self.layers is None else f"{self.layers}L"
        return f"{self.topology}-{self.nodes}/w{self.width}/{depth}/s{self.index}"

    @property
    def file_stem(self) -> str:
        return self.name.replace("/", "_")


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    instances: tuple[Instance, ...]
    cli_args: tuple[str, ...]
    # True when the instances are drawn from the benchmark seed rather
    # than from the fixed instance seed.
    seeded_instances: bool
    # How a returned route is held against the reference optimum (see
    # checks.check_request): "exact" (only the optimum counts as routed,
    # and an infeasible verdict is wrong) or "floor" (a limit's incumbent
    # may be worse than the optimum, never better); None when the
    # workload has no references.
    reference_check: str | None
    # Least number of passes over the request set in one run; a request's
    # time is the mean of its runs. The exact ladders need one: the
    # deadline requests end at fixed time limits, so CPU speed barely
    # moves them, and repeating the closed ladder's 15 s rung would not fit
    # the time a run may take, while its short rungs repeat (repeat_s).
    # The greedy requests take three, about 11 s apart, so that their mean
    # spans more of the machine's fast and slow phases.
    passes: int
    # Requests whose runs in a pass add up to less than this run again (at
    # most four times): the exact ladder's median sits on a rung of about
    # one second whose single runs vary up to 2x on a shared machine.
    repeat_s: float


def _inst(spec: str) -> Instance:
    topo, width, layers, index = spec.split()
    name, nodes = topo.split("-")
    return Instance(name, int(nodes), int(width[1:]), int(layers[:-1]), int(index[1:]))


WORKLOADS = {
    # Every request proves its optimum; the per-stage limit sits far above
    # the slowest solve (about 11 s) and only turns a hang into a failure.
    # grid-6/w4/3L/s0 is the rung where HiGHS loses to the embedded B&B;
    # line-6/w6/3L/s1 is the rung where the DP oracle returns a wrong depth.
    "exact_closed": Workload(
        name="exact_closed", variant="bip",
        instances=tuple(_inst(s) for s in (
            "line-4 w4 2L s0", "line-4 w4 4L s0", "line-4 w4 4L s2",
            "y-6 w4 3L s1", "grid-6 w4 3L s0", "grid-6 w4 3L s1",
            "line-6 w6 2L s0", "line-6 w6 3L s1", "grid-8 w4 3L s1")),
        cli_args=("--time-limit", "60"), seeded_instances=False,
        reference_check="exact", passes=1, repeat_s=4.0),
    # The ROADMAP cliff cases under one fixed per-stage deadline: what a
    # user gets when the exact solve cannot finish.
    "exact_deadline": Workload(
        name="exact_deadline", variant="bip",
        instances=tuple(_inst(s) for s in (
            "grid-6 w4 4L s0", "grid-8 w6 3L s0", "y-8 w6 4L s0",
            "y-6 w4 3L s0")),
        cli_args=("--time-limit", "3"), seeded_instances=False,
        reference_check="floor", passes=1, repeat_s=0.0),
    # No solver call at all: the bypass workload for every solver change.
    "greedy_transpile": Workload(
        name="greedy_transpile", variant="sabre_like",
        instances=tuple(Instance("y", 6, 6, None, s) for s in range(100)),
        cli_args=(), seeded_instances=True, reference_check=None, passes=3,
        repeat_s=0.0),
}


def qv_source(inst: Instance, seed: int):
    """The (truncated) QV circuit behind one instance."""
    from qaroute.qvbench import gen_qv_circuit

    qv = gen_qv_circuit(inst.width, [seed, inst.index])
    if inst.layers is not None:
        qv = replace(qv, layers=qv.layers[:inst.layers])
    return qv


def circuit_path(directory: Path, inst: Instance) -> Path:
    return directory / f"{inst.file_stem}.json"


def write_circuits(workload: Workload, seed: int, directory: Path,
                   only: tuple[Instance, ...] | None = None) -> None:
    """Write one circuit document per instance (or per ``only``) into
    ``directory``."""
    from qaroute.circuit import dump_circuit
    from qaroute.qvbench import lower_circuit

    directory.mkdir(parents=True, exist_ok=True)
    for inst in workload.instances if only is None else only:
        c = lower_circuit(qv_source(inst, seed))
        circuit_path(directory, inst).write_text(json.dumps(dump_circuit(c)))


def request_order(workload: Workload, seed: int) -> list[Instance]:
    order = list(workload.instances)
    random.Random(seed).shuffle(order)
    return order


def cli_argv(workload: Workload, inst: Instance, circuit: Path, out: Path) -> list[str]:
    return ["transpile", "--builtin", f"{inst.topology},{inst.nodes}",
            "--circuit", str(circuit), "--variant", workload.variant,
            "--dummy-steps", str(DUMMY_STEPS), "--out", str(out),
            *workload.cli_args]
