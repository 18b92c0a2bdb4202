"""Closed-loop benchmark of the radonrange command line and its layers.

Run from the repository root:

    python3 bench/run.py --workload float-pipeline --seed 1 --seconds 50 --trace 0

One client, one process, one thread: each op calls ``radonrange.cli.main``
in-process (certify ops first call ``hankel_certificate`` through the public
API) and the next op is issued only after the previous one returned.  The
program is imported from ``src/`` next to this directory; it only ever sees
the body JSON files generated from ``--seed``.

``--trace 0`` measures the end-to-end metrics with tracing off.  The timed
phase repeats whole passes over the workload's ops (one per stratum, see
``workloads.py``) until they fill ``--seconds`` of op time, so every op runs
the same number of times; the checks between ops run with the clock
stopped.  ``setup_s`` is the median of ``SETUP_SAMPLES`` set-ups (import
of radonrange, corpus files and warm-up ops): the first timed from process
start, the others fresh re-imports spread between the passes, since the
host's speed drifts over a run and set-ups done back to back would all
sample one moment of it.

On a shared host the CPU runs the same op 1.6 to 2 times slower while a
neighbour is busy, in phases of tens of seconds to minutes, and that busy
state fills most of nearly every run.  A statistic that sits between the
two states (a mean or a median over the run, or a best-of-repeats that
finds a quiet phase in some runs and none in others) then reads how long
each state lasted, not the program.  So ``ops_per_s`` is the number of
distinct ops over the sum of each op's ``OP_QUANTILE`` latency among its
repeats, and ``op_tail_ms`` is the highest percentile of all samples with
``TAIL_BEYOND`` samples beyond it: both read the busy state, which is
there in every run.  The plain mean throughput and median are printed as
text lines.

``--trace 1`` runs one pass untraced and one
traced, and reports per-layer metrics of the traced pass plus the tracing
overhead (traced over untraced op time); its counts repeat exactly at one
seed.  Both modes print a sha256 of the deterministic output files of the
first pass, so a later change can show byte-identical outputs.

An op fails when it raises, exits with another code than its truth, gets
another verdict, fits a matrix off the constructed one by more than 1e-7
(relative), or fails the Hankel certificate.  A clean degenerate exit
(code 2) is a *refused* op: failed, but not a wrong answer; ``correct`` in
the result line is false when an op gave a wrong answer, or when tracing
changed an output byte.  The timed passes hold no body the program is
known to mishandle today; those bodies (``defect_strata`` in
``workloads.py``) run after the traced pass, and their failures are the
per-layer count ``reconstruct.defect_probe_failed``.

The last line of standard output is the result as one JSON object.  Run
records, the environment and the spans go to ``.bench_run/results/``.
"""

import time

_PROCESS_T0 = time.perf_counter()  # before numpy and radonrange are imported

import os  # noqa: E402

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

TAIL_BEYOND = 10
#: quantile of each op's latencies over its repeats that ``ops_per_s`` uses
OP_QUANTILE = 0.9
#: set-ups timed in a run: one from process start, the rest spread over it
SETUP_SAMPLES = 8


def _environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _setup(workload, seed: int, work: Path):
    """Fresh import, corpus files and the warm-up ops; returns (program, pass ops)."""
    program = workloads.Program(SRC)
    corpus = work / "corpus"
    if corpus.exists():
        shutil.rmtree(corpus)
    ops = workload.make_pass(seed, corpus)
    for op in workload.warmups(corpus):
        workloads.run_op(program, op, work / "out")
    return program, ops


def _run_passes(program, ops, work: Path, seconds: float, tracer=None, resetup=None):
    """Closed loop over whole passes of ``ops``.

    Passes run until their op time reaches ``seconds`` (at least one pass),
    so every op is repeated the same number of times.  ``resetup()``, when
    given, returns a fresh (program, ops); it runs after the pass that
    crosses each ``1 / SETUP_SAMPLES`` share of ``seconds``, so the set-ups
    are timed across the same stretch of the run as the ops.
    Returns ([(op, result)] in op order, sha256 of the outputs of the
    first pass).  Output bytes are dropped after each op, so the harness
    holds no more memory on a long run than on a short one.
    """
    done = []
    digest = hashlib.sha256()
    busy_ns = 0
    next_setup_ns = seconds * 1e9 / SETUP_SAMPLES
    first = True
    while first or busy_ns < seconds * 1e9:
        for op in ops:
            result = workloads.run_op(program, op, work / "out", tracer)
            busy_ns += result.latency_ns
            if first:
                workloads.digest_update(digest, op, result)
            result.files = None
            done.append((op, result))
        first = False
        if resetup is not None and next_setup_ns <= busy_ns < seconds * 1e9:
            program, ops = resetup()
            next_setup_ns += seconds * 1e9 / SETUP_SAMPLES
    return done, digest.hexdigest()


def _nearest_rank(sorted_values, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _summary(done) -> dict:
    """Failures, each op's ``OP_QUANTILE`` latency over its repeats, and percentiles."""
    repeats: dict = {}
    for op, res in done:
        repeats.setdefault(op.label, []).append(res.latency_ns / 1e6)
    op_q_ms = [_nearest_rank(sorted(v), OP_QUANTILE) for v in repeats.values()]
    lat_ms = sorted(res.latency_ns / 1e6 for _, res in done)
    n = len(lat_ms)
    rank = max(1, n - TAIL_BEYOND)  # 1-based; TAIL_BEYOND samples lie above it
    refused = sum(res.outcome == "refused" for _, res in done)
    wrong = sum(res.outcome == "wrong" for _, res in done)
    return {
        "ops": n,
        "distinct_ops": len(op_q_ms),
        "passes": n // len(op_q_ms),
        "busy_s": sum(lat_ms) / 1e3,
        "op_quantile_sum_s": sum(op_q_ms) / 1e3,
        "p50_ms": statistics.median(lat_ms),
        "tail_ms": lat_ms[rank - 1],
        "tail_rank": rank,
        "tail_pct": 100.0 * rank / n,
        "refused": refused,
        "wrong": wrong,
        "failed": refused + wrong,
    }


def _layer_metrics(tracer: Tracer, done, overhead: float) -> dict:
    layers = tracer.layer_totals()
    counts = tracer.counts

    def calls(name):
        return layers[name]["calls"]

    def total_ms(name):
        return layers[name]["total_ns"] / 1e6

    def self_ms(name):
        return layers[name]["self_ns"] / 1e6

    attempted = counts["reconstruct.node.calls"]
    nodes = counts["algebra.hankel_nodes"]
    values = {
        "cli.self_ms": (self_ms("cli.main"), "ms"),
        "cli.output_bytes": (sum(res.output_bytes for _, res in done), "bytes"),
        "bodies.load_tangential.total_ms": (total_ms("bodies.load_tangential"), "ms"),
        "moments.synthesize_moments.total_ms": (total_ms("moments.synthesize_moments"), "ms"),
        "moments.moment.calls": (calls("moments.moment"), "count"),
        "moments.moment.total_ms": (total_ms("moments.moment"), "ms"),
        "circle.trigpoly_mul.calls": (calls("circle.trigpoly_mul"), "count"),
        "circle.trigpoly_mul.total_ms": (total_ms("circle.trigpoly_mul"), "ms"),
        "circle.trig_from_samples.total_ms": (total_ms("circle.trig_from_samples"), "ms"),
        "geometry.samples.total_ms": (total_ms("geometry.samples"), "ms"),
        "geometry.fit_quadratic_form.calls": (calls("geometry.fit_quadratic_form"), "count"),
        "reconstruct.reconstruct.self_ms": (self_ms("reconstruct.reconstruct"), "ms"),
        "reconstruct.reconstruct.raised": (layers["reconstruct.reconstruct"]["raised"], "count"),
        "reconstruct.nodes_attempted": (attempted, "count"),
        "reconstruct.nodes_degenerate": (counts["reconstruct.node.degenerate"], "count"),
        "reconstruct.solved_ratio": (
            counts["reconstruct.node.returned"] / attempted if attempted else 0.0, "ratio"),
        "linalg.solve.calls": (calls("linalg.solve"), "count"),
        "linalg.cond.calls": (calls("linalg.cond"), "count"),
        "linalg.det.calls": (calls("linalg.det"), "count"),
        "rangetest.is_homogeneous_restriction.calls": (
            calls("rangetest.is_homogeneous_restriction"), "count"),
        "rangetest.is_homogeneous_restriction.total_ms": (
            total_ms("rangetest.is_homogeneous_restriction"), "ms"),
        "algebra.hankel_certificate.self_ms": (self_ms("algebra.hankel_certificate"), "ms"),
        "algebra.hankel_reuse_ratio": (
            1.0 - counts["algebra.shift_matrix.in_hankel"] / nodes if nodes else 0.0, "ratio"),
        "algebra.conjugated_shift.total_ms": (total_ms("algebra.conjugated_shift"), "ms"),
        "algebra.krylov_spans.total_ms": (total_ms("algebra.krylov_spans"), "ms"),
        "algebra.identity_suite.total_ms": (total_ms("algebra.identity_suite"), "ms"),
        "exactla.solve.calls": (calls("exactla.solve"), "count"),
        "exactla.solve.total_ms": (total_ms("exactla.solve"), "ms"),
        "exactla.det.calls": (calls("exactla.det"), "count"),
        "exactla.det.total_ms": (total_ms("exactla.det"), "ms"),
        "exactla.inv.total_ms": (total_ms("exactla.inv"), "ms"),
        "exactla.rank.total_ms": (total_ms("exactla.rank"), "ms"),
        "exactla.char_poly.total_ms": (total_ms("exactla.char_poly"), "ms"),
        "exactla.mat_pow.total_ms": (total_ms("exactla.mat_pow"), "ms"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def _solve_check(tracer: Tracer, done) -> str:
    """linalg.solve calls against the nodes reconstruct attempted on m >= 2 float ops.

    The float solve runs at every node whose system passed the condition
    test: m = 1 divides by the pivot instead, and a degenerate node skips
    the solve, so the two numbers agree exactly when no node is degenerate.
    """
    solves = sum(1 for span in tracer.spans if span[0] == "linalg.solve")
    attempted = degenerate = 0
    for op, _ in done:
        if op.m >= 2 and op.verdict is not None and "--exact" not in op.argv:
            counts = tracer.op_counts[op.label]
            attempted += counts["reconstruct.node.calls"]
            degenerate += counts["reconstruct.node.degenerate"]
    return (f"linalg.solve.calls {solves}; nodes attempted by reconstruct on m >= 2 float ops "
            f"{attempted}, of which degenerate (no solve) {degenerate}")


def main(argv=None, tiny: bool = False, run_dir: Path = RUN_DIR) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "radonrange" / "__init__.py").is_file():
        print(f"error: no radonrange sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](tiny=tiny)
    results = run_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = run_dir / f"work-{os.getpid()}"
    try:
        return _measure(args, workload, work, results, tiny)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _defect_probe(program, workload, seed: int, work: Path) -> list:
    """Run the bodies the program is known to mishandle today, untimed and untraced."""
    ops = workload.make_defect_probe(seed, work / "defects")
    return [(op, workloads.run_op(program, op, work / "out")) for op in ops]


def _measure(args, workload, work: Path, results: Path, tiny: bool) -> int:
    setup_s = []

    def timed_setup(start=None):
        start = time.perf_counter() if start is None else start
        program_ops = _setup(workload, args.seed, work)
        setup_s.append(time.perf_counter() - start)
        return program_ops

    program, ops = timed_setup(_PROCESS_T0)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if tiny else "")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": _environment()}

    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, 1 thread")
    if args.trace:
        plain, plain_digest = _run_passes(program, ops, work, 0.0)
        tracer = Tracer()
        tracer.install()
        try:
            done, digest = _run_passes(program, ops, work, 0.0, tracer)
        finally:
            tracer.uninstall()
        s = _summary(done)
        overhead = s["busy_s"] / _summary(plain)["busy_s"]
        probe = _defect_probe(program, workload, args.seed, work)
        metrics = _layer_metrics(tracer, done, overhead)
        metrics["reconstruct.defect_probe_failed"] = {
            "value": sum(res.outcome != "ok" for _, res in probe), "unit": "count"}
        same_bytes = digest == plain_digest
        tracer.write(results / f"{stem}-spans.jsonl")
        print(_solve_check(tracer, done))
        print(f"reconstruct nodes attempted {tracer.counts['reconstruct.node.calls']}, "
              f"degenerate {tracer.counts['reconstruct.node.degenerate']}")
        print(f"tracing overhead: traced op time / untraced op time = {overhead:.4f}")
        for op, res in probe:
            print(f"  defect probe, {res.outcome}: {op.label} [{op.known_defect}] {res.reason}")
        if not same_bytes:
            print("error: traced and untraced outputs differ", file=sys.stderr)
    else:
        done, digest = _run_passes(program, ops, work, args.seconds, resetup=timed_setup)
        same_bytes = True
        s = _summary(done)
        metrics = {
            "ops_per_s": {"value": s["distinct_ops"] / s["op_quantile_sum_s"], "unit": "1/s"},
            "op_tail_ms": {"value": s["tail_ms"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        print(f"{s['ops']} ops: {s['passes']} passes over {s['distinct_ops']} distinct ops, "
              f"{s['busy_s']:.3f} s of op time; ops_per_s uses each op's p{100 * OP_QUANTILE:g} "
              f"latency over its {s['passes']} repeats")
        print(f"op_tail_ms is p{s['tail_pct']:.2f}: rank {s['tail_rank']} of {s['ops']} samples")
        print(f"all samples: {s['ops'] / s['busy_s']:.4f} ops/s, p50 {s['p50_ms']:.3f} ms")
        print(f"setup_s is the median of {len(setup_s)} set-ups spread over the run: "
              + ", ".join(f"{x:.4f}" for x in setup_s) + " s (the first from process start)")

    print(f"ops {s['ops']}, failed {s['failed']} (refused {s['refused']}, wrong {s['wrong']}), "
          f"failed_op_fraction {s['failed'] / s['ops']:.6g}")
    for op, res in done:
        if res.outcome != "ok":
            print(f"  {res.outcome}: {op.label}: {res.reason}")
    print(f"output digest: sha256:{digest} over the first {s['distinct_ops']} ops")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")

    record.update(summary=s, digest=digest, metrics=metrics, setup_s=setup_s,
                  ops=[{"label": op.label, "latency_ns": res.latency_ns, "outcome": res.outcome,
                        "reason": res.reason, "output_bytes": res.output_bytes}
                       for op, res in done])
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"run record: {results / (stem + '.json')}")
    print(json.dumps({
        "correct": s["wrong"] == 0 and same_bytes,
        "attempted": s["ops"],
        "failed": s["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
