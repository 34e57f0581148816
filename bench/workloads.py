"""Workload definitions: spec files and job lists generated from a seed.

A workload is a list of families (spec dicts written as JSON files) and a
list of jobs, each one CLI invocation on one spec. The program sees only the
spec files; expectations (the flow a generator fixes, which job's flow a
read-back must reproduce) stay on the benchmark's side.

Why these three (measured on the seed commit, see LAYERS.md):

* dense-paths - large open paths through flow, section, polarize and a
  read-back flow of polarize's sampled output: big eigensolves,
  subspace_distance, and tens of MB through the JSON writer and reader.
* many-small - dozens of small families through flow and polarize: Python
  per-call overhead and atlas building dominate, outputs are tiny. It also
  carries the polarize ModelViolationError of sampled charts that miss a
  zero crossing; those failures are counted, never seeded away.
* loops - exact and shifted loops through suspend and section --auto: the
  suspension's per-angle re-solves dominate; the writer, large dims and
  polarize are bypassed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("dense-paths", "many-small", "loops")


@dataclass(frozen=True)
class Job:
    """One CLI invocation.

    spec is a family name, or ("output", job_id, file) for a file another
    job of the same pass wrote. flow_expected is the flow the generator
    fixes, when it does; flow_same_as names the job whose flow this one must
    reproduce.
    """

    id: str
    command: str
    spec: object
    flags: tuple = ()
    flow_expected: int | None = None
    flow_same_as: str | None = None


@dataclass
class Workload:
    name: str
    families: dict = field(default_factory=dict)   # name -> spec dict
    about: dict = field(default_factory=dict)   # name -> short description
    expected_flow: dict = field(default_factory=dict)  # name -> int
    jobs: list = field(default_factory=list)
    warmup: tuple = ()   # (command, spec dict, flags)

    def add(self, name: str, generator: str, flow: int | None = None, **params) -> str:
        self.families[name] = self.about[name] = {"generator": generator, "params": params}
        if flow is not None:
            self.expected_flow[name] = flow
        return name

    def add_conjugated(self, name: str, params: dict, unitary_seed: int) -> str:
        """A random_smooth family conjugated by a seed-drawn unitary, in sampled form."""
        self.families[name] = _conjugated_spec(params, unitary_seed)
        self.about[name] = {"conjugated": params, "unitary_seed": unitary_seed}
        return name

    def job(self, command: str, family: str, *flags) -> Job:
        job = Job(id=f"{family}:{' '.join((command, *flags))}", command=command, spec=family,
                  flags=tuple(flags), flow_expected=self.expected_flow.get(family))
        self.jobs.append(job)
        return job


def _seed31(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _conjugated_spec(params: dict, seed: int) -> dict:
    """Sampled-form spec of U F(t) U* for F = random_smooth(**params).

    U is a Haar-random unitary drawn from seed. Conjugation keeps every
    eigenvalue branch, chart and crossing of F, so the program does the same
    work and meets the same failures for every seed, while the matrices,
    eigenvectors and report bytes differ from seed to seed.
    """
    import numpy as np

    from bandflow.families import generate

    f = generate("random_smooth", **params)
    rng = np.random.default_rng(seed)
    n = f.dim
    Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    U = Q * (np.diag(R) / np.abs(np.diag(R)))
    mats = U @ np.stack(f.operators) @ U.conj().T
    mats = 0.5 * (mats + mats.conj().transpose(0, 2, 1))
    grid = {"closure": f.grid.closure, "kind": f.grid.kind,
            "samples": f.grid.samples.tolist(), "shift": 0}
    return {"sampled": {"dim": n, "grid": grid,
                        "matrices": {"imag": mats.imag.tolist(), "real": mats.real.tolist()}}}


def dense_paths(seed: int, smoke: bool = False) -> Workload:
    w = Workload("dense-paths")
    dim, samples = (8, 40) if smoke else (40, 180)
    # The base families are fixed (generator seeds 0 and 1, not picked); the
    # run seed draws the unitary each is conjugated by. Drawing the families
    # themselves from the seed made a family's cost range from 4 s to 13 s,
    # depending on whether section or polarize hit a missed-crossing error.
    for k in range(2):
        fam = w.add_conjugated(f"path{k}", {"dim": dim, "samples": samples, "seed": k},
                               seed * 1000 + k)
        flow = w.job("flow", fam, "--emit-branches")
        w.job("section", fam)
        pol = w.job("polarize", fam)
        w.jobs.append(Job(id=f"{fam}:readback", command="flow",
                          spec=("output", pol.id, "replacement_family.json"),
                          flow_same_as=flow.id))
    w.warmup = ("flow", {"generator": "random_smooth",
                         "params": {"dim": 8, "samples": 40, "seed": 1}}, ())
    return w


def many_small(seed: int, smoke: bool = False) -> Workload:
    w = Workload("many-small")
    scale = 8 if smoke else 1
    # As in dense-paths: fixed random_smooth bases (generator seeds 0..14, not
    # picked), each conjugated by a unitary drawn from the run seed. Drawing
    # the families from the seed moved session_s by a fifth from seed to
    # seed, mostly through how many polarize steps failed.
    # 15 + 10 families keep a pass near 8 s, so three passes fit in a 30 s
    # run and each job's median drops a pass slowed by a busy machine
    for k in range(15):
        # dims cycle through 2..6 so the dim mix is even
        w.add_conjugated(f"smooth{k}", {"dim": 2 + k % 5, "samples": 200 // scale, "seed": k},
                         seed * 1000 + k)
    for k in (1, -1, 2, -2):
        w.add(f"crossing{k}", "crossing", flow=k, k=k, m=1 + k % 3, samples=101 // scale)
    for k in (1, -2):
        w.add(f"polarized{k}", "polarized_crossing", flow=k, k=k, m_minus=1,
              m_plus=2, samples=101 // scale)
    for k in range(2):
        w.add(f"rotation{k}", "rotation", flow=0, m=1 + k, turns=float(1 + k),
              samples=120 // scale)
    for k in range(2):
        w.add(f"constant{k}", "constant", flow=0, dim=3 + k, samples=60 // scale)
    for fam in w.families:
        w.job("flow", fam)
        w.job("polarize", fam)
    w.warmup = ("flow", {"generator": "crossing", "params": {"k": 1}}, ())
    return w


def loops(seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(f"loops/{seed}")
    w = Workload("loops")
    dim, samples, scale = (3, 30, 5) if smoke else (8, 140, 1)
    for k in range(2):
        w.add(f"smooth_loop{k}", "random_smooth", dim=dim, samples=samples,
              loop=True, seed=_seed31(rng))
    w.add("rotation", "rotation", flow=0, m=2, samples=120 // scale)
    w.add("shift", "truncated_shift_flow", flow=1, N=3, samples=101 // scale)
    for fam in w.families:
        w.job("suspend", fam)
        w.job("section", fam, "--auto")
    w.warmup = ("suspend", {"generator": "rotation", "params": {"samples": 20}}, ())
    return w


MAKERS = {"dense-paths": dense_paths, "many-small": many_small, "loops": loops}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    return MAKERS[name](seed, smoke)
