"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/check_bench.py
(The file name keeps it out of the program's own test collection.)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads as wl  # noqa: E402

RUN = os.path.join(wl.HERE, "run.py")


def benchmark_spec():
    with open(os.path.join(wl.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(*extra, cwd=wl.ROOT, flags=()):
    proc = subprocess.run(
        [sys.executable, *flags, RUN if cwd == wl.ROOT else "perfbench/run.py", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc, result


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc, result = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = benchmark_spec()["end_to_end" if trace == "0" else "per_layer"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def copy_tree(dest, program=True):
    """The files a benchmark checkout holds, copied to dest."""
    shutil.copy(os.path.join(wl.ROOT, "BENCHMARK.json"), dest)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(wl.HERE, dest / "perfbench", ignore=skip)
    if program:
        shutil.copytree(wl.SRC, dest / "src", ignore=skip)


@pytest.mark.parametrize("key,field", [("solve:103:1", "u"), ("yseries:7:1", "sha256")])
def test_corrupt_reference_counts_as_failed(tmp_path, key, field):
    workload = "p1-cold" if key.startswith("solve") else "series"
    copy_tree(tmp_path)
    reference = tmp_path / "perfbench" / "reference.json"
    doc = json.loads(reference.read_text())
    value = doc["entries"][key][field]
    doc["entries"][key][field] = value[:-1] + ("1" if value[-1] != "1" else "2")
    reference.write_text(json.dumps(doc))
    proc, result = run_bench("--workload", workload, "--seconds", "1", "--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_optimized():
    proc, result = run_bench("--workload", "series", "--smoke", flags=("-O",))
    assert proc.returncode != 0
    assert result is None


def test_fails_without_the_program(tmp_path):
    copy_tree(tmp_path, program=False)
    proc, result = run_bench("--workload", "series", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


def test_reference_covers_every_pool_entry():
    entries = wl.load_reference()
    for spec in wl.WORKLOADS.values():
        for key in spec["pool"] + spec["timed"] + spec["smoke"] + [spec["warmup"]]:
            assert key in entries, key
            assert "error" not in entries[key], entries[key]
            assert set(spec["timed"]) <= set(spec["pool"])


def test_check_recomputes_the_cube_identity():
    entries = wl.load_reference()
    want = entries["solve:103:1"]
    report = {"p": 103, "i": 1, "cube_sum": {"u": want["u"], "v": want["v"]},
              "checks": {"cube_identity": {"ok": True}}, "bits": 192, "terms": 1,
              "site": "x"}
    assert wl.check("solve:103:1", 0, json.dumps(report), entries) is None
    report["cube_sum"]["v"] = want["u"]  # program claims ok, identity fails
    assert "u^3 + v^3" in wl.check("solve:103:1", 0, json.dumps(report), entries)
    assert wl.check("solve:103:1", 4, "", entries) == "solve:103:1: exit code 4"


def test_tracer_tags_an_attempt_by_the_exception_that_ends_it(monkeypatch):
    sys.path.insert(0, wl.SRC)
    from cubesum import parametrize as par
    from mpmath import mp
    from tracer import FAIL_CLASSES, Tracer

    # each attempt of the stub first calls the traced recognize with garbage
    # and catches its RecognitionFailed, which must not tag the attempt;
    # then it ends with the next outcome: a class to raise, or None to win
    outcomes = iter([getattr(par, name) for name in FAIL_CLASSES] + [None, ZeroDivisionError])

    def stub(cand, split, p, i, prec, max_terms, forms_cache, form_factory):
        try:
            par.recognize((mp.mpc(0.1234567, 0.7), mp.mpc(0.7654321, 0.3)), split, i, 2, 64)
        except par.RecognitionFailed:
            pass
        end = next(outcomes)
        if end is None:
            return "result"
        raise end("raised by the stub")

    monkeypatch.setattr(par, "_attempt_site", stub)
    tracer = Tracer().install()
    try:
        assert par.solve_pipeline(103, 1) == "result"
        with pytest.raises(ZeroDivisionError):
            par.solve_pipeline(103, 1)
    finally:
        tracer.uninstall()
    got = [(a["won"], a["fail"]) for a in tracer.attempts]
    assert got == [(False, name) for name in FAIL_CLASSES] + [(True, None), (False, "other")]
    assert tracer.calls("parametrize.recognize") == len(got)
    metrics = tracer.layer_metrics(1, 1.0, 1.0)
    for name in FAIL_CLASSES:
        assert metrics[f"parametrize.fail.{name}"] == 1
    assert metrics["parametrize.fail.other"] == 1
