"""Tests of the benchmark itself: seeded generation is deterministic, jobs
never repeat within a run, the stored reference covers the default seed, and
the tracer's wrappers sit where the package looks its names up."""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from mnseries import cli, freeness  # noqa: E402


def _snapshot(jobs):
    return [(job.argv, job.files) for job in jobs]


def _cheap(jobs, count=3):
    """A few fast jobs of every kind in the list."""
    small = {"group-algebra": lambda e: e["L"] == 2, "magnus": lambda e: e["D"] == 3,
             "digit-sum": lambda e: e["N"] <= 6, "monoid": lambda e: e["L"] <= 5,
             "pingpong": lambda e: e["L"] <= 4, "expand": lambda e: True,
             "classify": lambda e: True, "crossed": lambda e: False}
    picked = {}
    for job in jobs:
        kind = job.expect["kind"]
        if small[kind](job.expect) and len(picked.setdefault(kind, [])) < count:
            picked[kind].append(job)
    return [job for group in picked.values() for job in group]


def _run(job):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run_command(list(job.argv))
    payload = json.loads(out.getvalue())
    assert checks.check(job, code, payload) is None
    return code, payload["digest"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs_and_digests(workload, tmp_path):
    first = workloads.build(workload, 7, 1, str(tmp_path))
    assert _snapshot(first) == _snapshot(workloads.build(workload, 7, 1, str(tmp_path)))
    for job in first:
        for name, text in job.files.items():
            (tmp_path / name).write_text(text)
    for job in _cheap(first):
        assert _run(job) == _run(job)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_jobs(workload):
    keys = [job.key for job in workloads.build(workload, 7, 1)]
    assert keys != [job.key for job in workloads.build(workload, 8, 1)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_job_repeats_within_a_run(workload):
    keys = [job.key for job in workloads.build(workload, 7, 3)]
    assert len(keys) == len(set(keys))


def test_reference_covers_the_default_seed():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    for workload in workloads.WORKLOADS:
        jobs = workloads.build(workload, workloads.DEFAULT_SEED, workloads.reps_for(workload, seconds))
        assert set(reference[workload]) == {job.key_id for job in jobs}


def test_tracer_patches_names_where_they_are_looked_up():
    original = cli.digit_sum_check
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.digit_sum_check.__wrapped__ is original
        assert freeness.rank_and_left_nullspace.__wrapped__ is not None
        tracer.begin_job(0)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run_command(["digit-sum", "--r", "3/2", "--N", "5"]) == 0
        tracer.end_job()
    finally:
        tracer.uninstall()
    assert cli.digit_sum_check is original
    assert not hasattr(freeness.rank_and_left_nullspace, "__wrapped__")
    totals = tracer.totals()
    assert totals["run_command"][0] == totals["digit_sum_check"][0] == 1
    assert tracer.counters["freeness.items"] == 2 ** 6 - 1
    assert tracer.layer_totals(2)["freeness"] > 0
