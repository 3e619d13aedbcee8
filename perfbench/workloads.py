"""The three benchmark workloads, their seeded inputs and their scoring.

Each workload is a fixed list of verdicts that tracesos users wait on.
A pass fills an observation dict, one entry per verdict, as it reaches
each verdict; ``score`` compares it with the known answers in
``expected.json``, so a verdict the pass never reached (because it
raised) counts as failed.

- verify_all: ``tracesos verify-all --json`` with default options, the
  command that checks the paper.  Only workload that runs the matrix
  oracle and the (4,2) audit; touches every module.
- identity84_large: the diagonal-A (8,4) identity at n = 8, 9, the range
  ``--big`` covers.  Necklace oracle and ``quadratic_form`` only: no
  matrix oracle, no charpoly.
- sdp_roundtrip: the certificate-search path.  SDPA export/import of the
  certificate-basis problems at (8,4,5), (8,4,6) and the auto-basis
  problem at (8,6,3), reduction to the 11-equation system, and exact
  re-verification of seeded noisy float copies of the published Gram
  blocks.  Mostly charpoly, file I/O and ``poly`` basis products.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

# Largest entry noise; generate_inputs checks that the program's
# limit_denominator(DEN_BOUND) recovers every exact entry from it.
NOISE = 5e-7
DEN_BOUND = 10**4
SDP_SIZES = (5, 6)


def load_expected(path: str = os.path.join(HERE, "expected.json")) -> dict:
    with open(path) as fh:
        return json.load(fh)


def score(observations: dict, expected: Dict[str, dict]) -> List[Tuple[str, bool]]:
    """(verdict, ok) for every expected verdict; a missing one is not ok."""
    return [(name, name in observations and observations[name] == want["answer"])
            for name, want in expected.items()]


def _q3_status(notes: List[str], n: int):
    for note in notes:
        if note.startswith(f"Q3(n={n})"):
            return "NOT PSD" if "NOT PSD" in note else "PSD"
    return None


def verify_all(obs: dict, inputs: str, work: str) -> None:
    from tracesos import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        obs["exit_code"] = cli.main(["verify-all", "--json"])
    results = json.loads(buf.getvalue())
    for r in results:
        obs[f"check:{r['name']}"] = "PASS" if r["ok"] else "FAIL"
    notes = [note for r in results for note in r["notes"]]
    for n in (6, 7):
        obs[f"q3_psd:n={n}"] = _q3_status(notes, n)


def identity84_large(obs: dict, inputs: str, work: str) -> None:
    from tracesos import cert84, necklace
    from tracesos.necklace import TraceProblem

    for n in (8, 9):
        cert = cert84.build_certificate84(n)
        sos = cert84.assemble_sos_84(cert)
        target = necklace.trace_coeff_necklace(TraceProblem(8, 4, n, diagonal_a=True))
        obs[f"identity:n={n}"] = sos == target
        # every variable set to 1: A = I (diagonal A), B = J
        obs[f"target_at_A=I_B=J:n={n}"] = int(sum(target.terms.values()))


def _verdict(report) -> str:
    if report.accepted:
        return "accepted"
    if report.violations and all(name for name, _, _ in report.violations):
        return "rejected with named violation"
    return f"rejected: {report.reason}"


def sdp_roundtrip(obs: dict, inputs: str, work: str) -> None:
    from tracesos import cert84, sdpio
    from tracesos.necklace import TraceProblem

    published = cert84.ParamSystem.published()
    imported = {}
    for n in SDP_SIZES:
        basis = sdpio.certificate_basis_84(n)
        prob = sdpio.build_sdp(TraceProblem(8, 4, n, diagonal_a=True), basis)
        path = os.path.join(work, f"cert84_n{n}.dat-s")
        sdpio.export_sdpa(prob, path)
        imported[n] = sdpio.import_sdpa(path)
        obs[f"roundtrip:(8,4,{n})"] = imported[n] == prob
        system, _ = sdpio.reduce_to_parameters(imported[n], basis)
        obs[f"reduced_equivalent_published:(8,4,{n})"] = system.equivalent(published)
    auto = TraceProblem(8, 6, 3)
    prob = sdpio.build_sdp(auto, sdpio.auto_basis(auto))
    path = os.path.join(work, "auto_863.dat-s")
    sdpio.export_sdpa(prob, path)
    obs["roundtrip:(8,6,3)"] = sdpio.import_sdpa(path) == prob
    for name, n in [(f"solution_n{n}", n) for n in SDP_SIZES] + [("perturbed_n5", 5)]:
        with open(os.path.join(inputs, f"{name}.json")) as fh:
            solution = json.load(fh)
        report = sdpio.rationalize_and_verify(imported[n], solution, DEN_BOUND)
        obs[f"sdp_verify:{name}"] = _verdict(report)


PASSES: Dict[str, Callable[[dict, str, str], None]] = {
    "verify_all": verify_all,
    "identity84_large": identity84_large,
    "sdp_roundtrip": sdp_roundtrip,
}
WORKLOADS = tuple(PASSES)


def _noisy(rows, rng: random.Random) -> List[List[float]]:
    d = len(rows)
    out = [[0.0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            exact = Fraction(rows[i][j])
            x = float(exact) + rng.uniform(-NOISE, NOISE)
            if Fraction(x).limit_denominator(DEN_BOUND) != exact:
                raise ValueError(f"noise hides entry ({i},{j}) = {exact}")
            out[i][j] = out[j][i] = x
    return out


def generate_inputs(seed: int, directory: str) -> None:
    """Write the seeded float solutions sdp_roundtrip re-verifies: noisy
    copies of the published Gram blocks at n = 5, 6, and the n = 5 copy
    with one seeded upper-triangle entry moved by 1."""
    from tracesos import cert84

    rng = random.Random(seed)
    solutions = {}
    for n in SDP_SIZES:
        cert = cert84.build_certificate84(n)
        blocks = {"Q1": cert.q1.rows, "Q2": cert.q2.rows, "Q3": cert.q3_matrix().rows}
        solutions[f"solution_n{n}"] = {k: _noisy(v, rng) for k, v in blocks.items()}
    perturbed = json.loads(json.dumps(solutions["solution_n5"]))
    label = rng.choice(sorted(perturbed))
    d = len(perturbed[label])
    i, j = sorted((rng.randrange(d), rng.randrange(d)))
    perturbed[label][i][j] += 1.0
    perturbed[label][j][i] = perturbed[label][i][j]
    solutions["perturbed_n5"] = perturbed
    for name, payload in solutions.items():
        with open(os.path.join(directory, f"{name}.json"), "w") as fh:
            json.dump(payload, fh)
