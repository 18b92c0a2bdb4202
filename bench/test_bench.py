"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def _tiny_run(capsys, run_dir, workload, trace, seed=3):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, tiny=True, run_dir=run_dir) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(capsys, tmp_path, workload, trace, section):
    lines, result = _tiny_run(capsys, tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, unit in want.items():
        value = result["metrics"][name]["value"]
        assert f"{name} = {value} {unit}" in lines
    assert any(line.startswith("output digest: sha256:") for line in lines)


def test_malformed_body_counts_as_failed(tmp_path):
    program = workloads.Program(run.SRC)
    ops = workloads.FloatPipeline(tiny=True).make_pass(1, tmp_path / "corpus")
    good = next(op for op in ops if op.label.startswith("certify-ellipse-m1"))
    bad_body = tmp_path / "bad.json"
    bad_body.write_text('{"kind": "ellipse", "a": -1, "b": 1}', encoding="utf-8")
    bad = workloads._certify(1, 256, "ellipse", ((1.0, 0.0), (0.0, 1.0)))("bad", str(bad_body))
    done, _ = run._run_passes(program, [good, bad], tmp_path, 0.0)
    assert [res.outcome for _, res in done] == ["ok", "wrong"]
    summary = run._summary(done)
    assert (summary["ops"], summary["failed"]) == (2, 1)


def test_summary_takes_each_ops_quantile_latency_over_its_repeats():
    a = workloads.Op(label="a", argv=(), expect_exit=0)
    b = workloads.Op(label="b", argv=(), expect_exit=0)

    def ran(ms):
        return workloads.OpResult(ms * 1_000_000, "ok", "", 0, None)

    passes = 20
    done = [(op, ran(ms + i)) for i in range(passes) for op, ms in ((a, 100), (b, 200))]
    summary = run._summary(done)
    assert (summary["ops"], summary["distinct_ops"], summary["passes"]) == (40, 2, passes)
    # nearest rank: the 18th of 20 repeats
    assert summary["op_quantile_sum_s"] == pytest.approx((117 + 217) / 1e3)
    assert summary["tail_rank"] == 30
    assert summary["tail_ms"] == pytest.approx(209)


def test_known_defects_stay_out_of_the_timed_pass_and_in_the_probe(tmp_path):
    for seed in range(20):
        for cls in (workloads.FloatPipeline, workloads.ExactPipeline):
            ops = cls().make_pass(seed, tmp_path / f"{cls.name}-{seed}")
            assert not any(op.known_defect for op in ops)
            for op in ops:
                if op.m == 4 and op.verdict == "ellipse":
                    body = json.loads(Path(op.body).read_text(encoding="utf-8"))
                    assert body["a"] / body["b"] < workloads.ILL_CONDITIONED_M4_RATIO
        probe = workloads.FloatPipeline().make_defect_probe(seed, tmp_path / f"probe-{seed}")
        assert probe and all(op.known_defect and op.m == 4 for op in probe)


def test_span_self_times_sum_to_the_op_duration(tmp_path):
    program = workloads.Program(run.SRC)
    ops = workloads.ExactPipeline(tiny=True).make_pass(2, tmp_path / "corpus")
    tracer = Tracer()
    tracer.install()
    try:
        run._run_passes(program, ops, tmp_path, 0.0, tracer)
    finally:
        tracer.uninstall()
    own = tracer.self_times()
    assert min(own) >= 0
    summed = Counter()
    duration = {}
    for i, (name, start, end, _, label, _) in enumerate(tracer.spans):
        assert label is not None
        summed[label] += own[i]
        if name == "op":
            duration[label] = end - start
    assert len(duration) == len(ops)
    assert dict(summed) == duration
    assert len({name for name, *_ in tracer.spans}) > 5


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_bytes_and_digest_repeat_exactly(capsys, tmp_path, workload):
    runs = [_tiny_run(capsys, tmp_path, workload, 1) for _ in range(2)]

    def exact(lines, result):
        counts = {name: m["value"] for name, m in result["metrics"].items()
                  if m["unit"] in ("count", "bytes")}
        digest = [line for line in lines if line.startswith("output digest:")]
        return counts, digest

    assert exact(*runs[0]) == exact(*runs[1])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
