"""Workload corpora, the op that drives the program, and the per-op checks.

Every workload is one *pass*: a fixed list of ops, one per stratum (for
example one body per density count m), so a run made of whole passes
always has the same mix of op kinds whatever the seed; the seed only
moves the continuous body parameters inside each stratum.  The truth of
every op (exit code, verdict, quadratic form) is known from how its body
was built, never from the program.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import random
import shutil
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

#: relative Frobenius error allowed between a fitted and a constructed form
MATRIX_RTOL = 1e-7
#: perturbation frequencies cycled over the perturbed bodies
FREQUENCIES = (4, 6, 8)
#: exit code of a clean degenerate refusal (see radonrange.cli)
EXIT_DEGENERATE = 2


class _Sink(io.TextIOBase):
    """Write-only text stream that drops everything (the CLI's console)."""

    def writable(self):
        return True

    def write(self, text):
        return len(text)


_SINK = _Sink()


@dataclass(frozen=True)
class Op:
    """One closed-loop request: a CLI argv plus what its result must be."""

    label: str
    argv: tuple
    expect_exit: int
    m: int = 0
    body: str | None = None       # certify ops: body file for hankel_certificate
    grid: int = 0
    verdict: str | None = None    # certify ops: "ellipse" or "non-quadratic"
    matrix: tuple | None = None   # certify ops on ellipses: the constructed M
    degree_limit: int = 0         # range ops: K
    identities_m: int = 0         # identities ops: --m
    known_defect: str = ""        # why this body is expected to fail today


@dataclass
class OpResult:
    latency_ns: int
    outcome: str                  # "ok", "refused" (exit 2) or "wrong"
    reason: str
    output_bytes: int
    files: list                   # (name, bytes) of the deterministic outputs


class Program:
    """The radonrange modules of one fresh import.

    Functions are looked up on the modules at call time, so wrappers that
    the tracer installs on those modules are seen by every op.
    """

    def __init__(self, src: Path):
        for name in [n for n in sys.modules if n == "radonrange" or n.startswith("radonrange.")]:
            del sys.modules[name]
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        import radonrange
        import radonrange.bodies
        import radonrange.cli

        origin = Path(radonrange.__file__).resolve()
        if src.resolve() not in origin.parents:
            raise ImportError(f"radonrange was imported from {origin}, not from {src}")
        self.api = radonrange
        self.cli = sys.modules["radonrange.cli"]
        self.bodies = sys.modules["radonrange.bodies"]


# ---------------------------------------------------------------------------
# body generators
# ---------------------------------------------------------------------------


def _ellipse_matrix(a: float, b: float, tilt: float) -> tuple:
    c, s = math.cos(tilt), math.sin(tilt)
    m11 = a * a * c * c + b * b * s * s
    m22 = a * a * s * s + b * b * c * c
    m12 = (a * a - b * b) * c * s
    return ((m11, m12), (m12, m22))


def _perturbation(rng: random.Random, a: float, b: float) -> float:
    """Absolute eps added to rho^2: a share in [1e-3, 5e-2] of the mean of rho^2.

    The share is capped so rho^2 stays above half its minimum b^2 (the body
    must stay a valid support function); its forbidden-energy ratio is then
    at least share^2 / 2 >= 5e-7, far above the 1e-8 membership tolerance,
    so the non-quadratic truth is never below what the test can resolve.
    """
    mean_rho2 = 0.5 * (a * a + b * b)
    hi = min(5e-2, 0.5 * b * b / mean_rho2)
    share = math.exp(rng.uniform(math.log(1e-3), math.log(hi)))
    return share * mean_rho2


def _trig_density(rng: random.Random) -> dict:
    c0 = rng.uniform(0.5, 1.5)
    return {
        "cos": [c0, 0, rng.uniform(-0.25, 0.25) * c0],
        "sin": [0, 0, rng.uniform(-0.25, 0.25) * c0],
    }


def _fraction(rng: random.Random, num_max: int, den_max: int) -> Fraction:
    return Fraction(rng.randint(1, num_max), rng.randint(1, den_max))


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _mirrored_fractions(rng: random.Random, half: int) -> list:
    """2*half exact samples, period pi, with ``half`` distinct values."""
    values: list = []
    seen = set()
    while len(values) < half:
        x = _fraction(rng, 60, 12)
        if x not in seen:
            seen.add(x)
            values.append(_frac_str(x))
    return values + values


class Workload:
    """A corpus recipe.

    ``strata(rng)`` lists the ops of one pass as (label, body document or
    None, op factory); ``warmup_specs()`` lists (label, body document or
    None, op factory) for fixed small ops of the same kinds, run during
    set-up; ``defect_strata(rng)`` lists bodies the program is known to
    mishandle today, run apart from the timed passes (see ``run.py``).
    """

    name = ""

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def make_pass(self, seed: int, corpus: Path) -> list:
        return _write(corpus, self.strata(random.Random(f"{self.name}:{seed}")))

    def make_defect_probe(self, seed: int, corpus: Path) -> list:
        return _write(corpus, self.defect_strata(random.Random(f"{self.name}:{seed}:defect")))

    def warmups(self, corpus: Path) -> list:
        return _write(corpus, [("warmup-" + label, doc, make)
                               for label, doc, make in self.warmup_specs()])

    def defect_strata(self, rng) -> list:
        return []


def _write(corpus: Path, strata) -> list:
    """Write the body documents of ``strata`` under ``corpus``; returns the ops."""
    corpus.mkdir(parents=True, exist_ok=True)
    ops = []
    for label, doc, make_op in strata:
        path = None
        if doc is not None:
            path = corpus / f"{label}.json"
            path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        ops.append(make_op(label, None if path is None else str(path)))
    return ops


#: m = 4 power systems at this axis ratio and above are conditioned past the
#: 1e13 cutoff on many nodes, so the program refuses (exit 2) or, with the
#: degenerate nodes interpolated, calls an ellipse non-quadratic
ILL_CONDITIONED_M4_RATIO = 4.0
KNOWN_M4_DEFECT = "ill-conditioned m=4 power system (ROADMAP item 3)"


def _certify(m, grid, verdict, matrix=None, exact=False, known_defect=""):
    expect = 0 if verdict == "ellipse" else 1

    def make(label, path):
        argv = ("reconstruct", "--body", path, "--grid", str(grid))
        return Op(
            label=label,
            argv=argv + (("--exact",) if exact else ()),
            expect_exit=expect,
            m=m,
            body=path,
            grid=grid,
            verdict=verdict,
            matrix=matrix,
            known_defect=known_defect,
        )

    return make


def _range(grid, k, in_range):
    def make(label, path):
        argv = ("range-check", "--body", path, "--K", str(k), "--grid", str(grid))
        return Op(label=label, argv=argv, expect_exit=0 if in_range else 1,
                  body=path, grid=grid, degree_limit=k)

    return make


def _identities(m_max):
    def make(label, path):
        return Op(label=label, argv=("verify-identities", "--m", str(m_max)),
                  expect_exit=0, identities_m=m_max)

    return make


def _float_certify_pair(rng, m, ratio, grid, frequency, known_defect=""):
    """A tilted ellipse with m trig densities and its perturbed twin."""
    b = rng.uniform(0.5, 1.5)
    a = ratio * b
    tilt = rng.uniform(0.0, math.pi)
    dens = [_trig_density(rng) for _ in range(m)]
    base = {"kind": "ellipse", "a": a, "b": b, "tilt": tilt}
    pert = {"kind": "perturbed", "base": base, "eps": _perturbation(rng, a, b),
            "frequency": frequency, "m": m, "densities": dens}
    return [
        (f"certify-ellipse-m{m}-ratio{ratio:.2f}", dict(base, m=m, densities=dens),
         _certify(m, grid, "ellipse", _ellipse_matrix(a, b, tilt), known_defect=known_defect)),
        (f"certify-perturbed-m{m}-ratio{ratio:.2f}", pert,
         _certify(m, grid, "non-quadratic", known_defect=known_defect)),
    ]


#: grid of the float workload's ops: short ops (about 0.05-0.2 s) repeat 30
#: times or more in a run, enough for a steady p90 of each op (see run.py)
FLOAT_GRID = 1024
#: grid of the known-defect probe, where the m = 4 refusals were charted
DEFECT_GRID = 4096


class FloatPipeline(Workload):
    """The float path: certify tilted ellipses (axis ratio 1..10) with m = 1..4
    trig densities and their perturbed twins, and range-check a disk, an
    ellipse and a perturbed ellipse at K = 12, all at grid ``FLOAT_GRID``."""

    name = "float-pipeline"

    def strata(self, rng):
        grid = 256 if self.tiny else FLOAT_GRID
        k, range_grid = (4, 64) if self.tiny else (12, FLOAT_GRID)
        # m = 1..3 each take one third of the axis-ratio range 1..10, in an
        # order drawn from the seed; m = 4 stays below the known defect
        thirds = [0, 1, 2]
        rng.shuffle(thirds)
        out = []
        for m in (1, 2, 3, 4):
            if m == 4:
                ratio = 1.0 + (ILL_CONDITIONED_M4_RATIO - 1.0) * rng.random()
            else:
                ratio = 1.0 + 9.0 * (thirds[m - 1] + rng.random()) / 3.0
            out += _float_certify_pair(rng, m, ratio, grid, FREQUENCIES[m % 3])

        m = rng.randint(1, 3)
        radius = rng.uniform(0.5, 2.0)
        disk = {"kind": "ellipse", "a": radius, "b": radius, "m": m,
                "densities": [rng.uniform(0.5, 1.5) for _ in range(m)]}
        out.append((f"range-disk-m{m}", disk, _range(range_grid, k, True)))
        ratio = rng.uniform(1.0, 10.0)
        b = rng.uniform(0.5, 1.5)
        a = ratio * b
        base = {"kind": "ellipse", "a": a, "b": b, "tilt": rng.uniform(0.0, math.pi)}
        dens = [rng.uniform(0.5, 1.5)]
        pert = {"kind": "perturbed", "base": base, "eps": _perturbation(rng, a, b),
                "frequency": rng.choice(FREQUENCIES), "m": 1, "densities": dens}
        out.append((f"range-ellipse-ratio{ratio:.2f}", dict(base, m=1, densities=dens),
                    _range(range_grid, k, True)))
        out.append((f"range-perturbed-ratio{ratio:.2f}", pert, _range(range_grid, k, False)))
        return out

    def defect_strata(self, rng):
        # one pair in each third of the axis-ratio range the defect covers
        grid = 256 if self.tiny else DEFECT_GRID
        lo, width = ILL_CONDITIONED_M4_RATIO, (10.0 - ILL_CONDITIONED_M4_RATIO) / 3.0
        out = []
        for i in range(3):
            ratio = lo + width * (i + rng.random())
            out += _float_certify_pair(rng, 4, ratio, grid, FREQUENCIES[i], KNOWN_M4_DEFECT)
        return out

    def warmup_specs(self):
        doc = {"kind": "ellipse", "a": 2, "b": 1, "tilt": 0.5, "m": 2,
               "densities": [1, {"cos": [1, 0, 0.2]}]}
        return [("certify", doc, _certify(2, 256, "ellipse", _ellipse_matrix(2, 1, 0.5))),
                ("range", {"kind": "ellipse", "a": 2, "b": 1, "m": 1, "densities": [1]},
                 _range(64, 2, True))]


class ExactPipeline(Workload):
    """The rational path: certify rational disks (every node shares one
    value) and exactly sampled bodies (n/2 distinct values) with --exact,
    and run the exact identity suite at m_max = 3..5."""

    name = "exact-pipeline"

    def strata(self, rng):
        disk_grid = 64 if self.tiny else 256
        nodes = 64 if self.tiny else 128
        out = []
        for m in (1, 2, 3):
            radius = _fraction(rng, 9, 9)
            doc = {"kind": "trig", "rho2": {"cos": [_frac_str(radius * radius)]},
                   "m": m, "densities": [_frac_str(_fraction(rng, 9, 9)) for _ in range(m)]}
            r2 = float(radius * radius)
            out.append((f"certify-disk-m{m}", doc,
                        _certify(m, disk_grid, "ellipse", ((r2, 0.0), (0.0, r2)), exact=True)))
        for m in (1, 2, 3):
            doc = {"kind": "sampled", "values": _mirrored_fractions(rng, nodes // 2), "m": m,
                   "densities": [_mirrored_fractions(rng, nodes // 2) for _ in range(m)]}
            out.append((f"certify-sampled-m{m}", doc,
                        _certify(m, nodes, "non-quadratic", exact=True)))
        sizes = [2, 3] if self.tiny else [3, 4, 5]
        rng.shuffle(sizes)
        out += [(f"identities-m{m}", None, _identities(m)) for m in sizes]
        return out

    def warmup_specs(self):
        doc = {"kind": "trig", "rho2": {"cos": ["9/4"]}, "m": 2, "densities": ["1/2", "3"]}
        return [("certify", doc,
                 _certify(2, 64, "ellipse", ((2.25, 0.0), (0.0, 2.25)), exact=True))]


WORKLOADS = {w.name: w for w in (FloatPipeline, ExactPipeline)}


# ---------------------------------------------------------------------------
# running and checking one op
# ---------------------------------------------------------------------------


def run_op(program: Program, op: Op, out: Path, tracer=None) -> OpResult:
    """Issue one op and check its result; the clock covers only the op."""
    if out.exists():
        shutil.rmtree(out)
    gc.collect()  # every op starts from the same collector state
    argv = list(op.argv) + ["--out", str(out)]
    cert = None
    error = None
    code = None
    span = tracer.op(op.label) if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter_ns()
    try:
        with span, contextlib.redirect_stdout(_SINK), contextlib.redirect_stderr(_SINK):
            if op.verdict is not None:
                data = program.bodies.load_tangential(op.body)
                cert = program.api.hankel_certificate(data, op.grid)
            code = program.cli.main(argv)
    except Exception as exc:  # a raising op is a failed op, never a dropped one
        error = f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter_ns() - start

    files = []
    if out.is_dir():
        for path in sorted(out.iterdir()):
            if path.name != "run_meta.json":
                files.append((path.name, path.read_bytes()))
    output_bytes = sum(len(data) for _, data in files)
    if error is not None:
        outcome, reason = "wrong", error
    else:
        outcome, reason = _check(op, code, cert, dict(files))
    return OpResult(latency, outcome, reason, output_bytes, files)


def _check(op: Op, code, cert, files: dict):
    if cert is not None and not cert.verdict:
        return "wrong", "Hankel certificate failed"
    if code != op.expect_exit:
        if code == EXIT_DEGENERATE:
            return "refused", f"exit {code} (degenerate), expected {op.expect_exit}"
        return "wrong", f"exit {code}, expected {op.expect_exit}"
    try:
        if op.verdict is not None:
            return _check_reconstruction(op, json.loads(files["reconstruction.json"]))
        if op.degree_limit:
            return _check_range(op, files)
        return _check_identities(op, json.loads(files["identities.json"]))
    except (KeyError, ValueError, TypeError) as exc:
        return "wrong", f"unreadable output: {type(exc).__name__}: {exc}"


def _check_reconstruction(op: Op, report: dict):
    if report["verdict"] != op.verdict:
        return "wrong", f"verdict {report['verdict']}, expected {op.verdict}"
    if op.matrix is not None:
        fitted = report["ellipse_matrix"]
        diff = sum((fitted[i][j] - op.matrix[i][j]) ** 2 for i in range(2) for j in range(2))
        norm = sum(op.matrix[i][j] ** 2 for i in range(2) for j in range(2))
        if not math.sqrt(diff) <= MATRIX_RTOL * math.sqrt(norm):
            return "wrong", f"fitted matrix off by {math.sqrt(diff / norm):.3e} (relative)"
    return "ok", ""


def _check_range(op: Op, files: dict):
    reports = json.loads(files["range_reports.json"])
    verdicts = [r["verdict"] for r in reports]
    if [r["degree"] for r in reports] != list(range(0, 2 * op.degree_limit + 1, 2)):
        return "wrong", "range reports do not cover degrees 0..2K"
    if op.expect_exit == 0 and verdicts != ["pass"] * len(verdicts):
        return "wrong", "an in-range body failed a membership test"
    if op.expect_exit == 1 and verdicts[1] != "fail":
        return "wrong", "the perturbation was not seen at degree 2"
    rows = files["moments.csv"].count(b"\n") - 1
    if rows != (op.degree_limit + 1) * op.grid:
        return "wrong", f"moments.csv has {rows} rows"
    return "ok", ""


def _check_identities(op: Op, payload: dict):
    if payload["m_max"] != op.identities_m:
        return "wrong", f"m_max {payload['m_max']}, expected {op.identities_m}"
    failed = [r["name"] for r in payload["results"] if not r["passed"]]
    if failed or not payload["results"]:
        return "wrong", f"identities failed: {failed}"
    if payload["disk_certificate"]["verdict"] != "pass":
        return "wrong", "disk certificate failed"
    return "ok", ""


def digest_update(h, op: Op, result: OpResult) -> None:
    """Fold one op's deterministic outputs into a running sha256."""
    h.update(op.label.encode() + b"\0")
    for name, data in result.files:
        h.update(name.encode() + b"\0" + str(len(data)).encode() + b"\0")
        h.update(data)
