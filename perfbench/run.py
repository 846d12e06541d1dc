"""Benchmark of the mnseries CLI.

    python3 perfbench/run.py --workload certify-algebra --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from src/.
One client drives the public CLI entry point (mnseries.cli.run_command) in
this process, with stdout captured: a closed loop that sends each job only
after the previous one returned. Every job is timed from argv in to report
bytes out, and every report is checked (checks.py), and compared with the
stored reference when the job is one of the default seed's (reference.json).

--trace 0 prints the end-to-end metrics:
  wall_s       seconds for the pass, the sum of the job times
  job_s.p50    median seconds per job, argv in to report out
  job_s.p90    90th percentile of the same (each workload has over 200 jobs)
               These three are speed-normalised: a fixed probe runs before
               every job, and each job time is scaled to the reference
               machine's speed by the probes around it (speed_normalised).
  peak_rss_mb  peak resident memory of this process after the pass
  setup_s      median over fresh interpreters of importing the CLI and
               building the registry's groups, fields and crossed systems
  ok_ratio     share of jobs that passed: 1 - fail_ratio, where a job fails
               on exit 64, 65 or 70, on raising, on a failed check or on a
               reference mismatch (exits 2 and 3 are verdicts, not failures)
--trace 1 first runs the same seed untraced in a child process, then runs
the pass again under the tracer (tracer.py) and prints the per-layer
metrics, trace.overhead_ratio (traced over untraced wall_s) and the layers'
shares of self time. The last line of stdout is the JSON result; the
per-job records (key, exit, digest, seconds), the run's stamp and the spans
are written under .bench_out/. compare.py compares two result files job by
job.

--write-reference stores the default seed's (exit code, digest) per job of
every workload in reference.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = ".bench_out"
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_SAMPLES = 9
FAILING_EXITS = (64, 65, 70)
# Median seconds of _probe() on the reference machine (2 cores, Python
# 3.11.7), and the number of jobs on each side whose probes set a job's speed.
PROBE_REFERENCE_S = 0.002
PROBE_WINDOW = 7

Record = namedtuple("Record", "code data seconds probe")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_OF, Tracer  # noqa: E402

# A fresh interpreter imports the CLI and builds the registry's groups,
# fields and crossed systems; it prints the seconds that took.
_SETUP_CODE = r"""
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mnseries.cli
from mnseries import registry
from mnseries.scalars import field_from_spec
for g in registry.group_ids():
    registry.resolve_group(g)
    registry.trivial_on(g)
for m in ("free:2", "free:3"):
    registry.resolve_monoid(m)
for f in ("Q", "Fp:5", "Fp:7", "Qsqrt:2"):
    field_from_spec(f)
for s in registry.CROSSED_IDS[1:]:
    registry.builtin_system(s)
print(time.perf_counter() - t0)
"""


def _load_cli():
    if not os.path.isfile(os.path.join(SRC, "mnseries", "cli.py")):
        raise SystemExit(f"perfbench: no package source at {SRC}/mnseries")
    sys.path.insert(0, SRC)
    import mnseries.cli

    if not os.path.abspath(mnseries.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported mnseries from {mnseries.cli.__file__}, not {SRC}")
    return mnseries.cli


def measure_setup():
    """Median seconds, over fresh interpreters, to import the CLI and build the
    registry objects (one unrecorded warm-up first, which also compiles)."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-I", "-c", _SETUP_CODE, SRC], check=True,
                             capture_output=True, text=True, timeout=60).stdout
        if i:
            samples.append(float(out.strip()))
    return statistics.median(samples)


def _probe():
    """Fixed pure-Python work that does not touch the package: Fraction
    arithmetic, tuple keys and dict updates, about 2 ms."""
    acc = {}
    x = Fraction(1, 3)
    for i in range(300):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i + 1)
        key = (i % 17, i % 13)
        acc[key] = acc.get(key, 0) + x.numerator % 1000
    return acc


def run_pass(cli, jobs, tracer=None):
    """Run every job once, in order, each after one run of the probe; returns
    a Record (exit, stdout bytes, seconds, probe seconds) per job."""
    records = []
    for index, job in enumerate(jobs):
        gc.collect()
        t0 = time.perf_counter()
        _probe()
        probe = time.perf_counter() - t0
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_job(index)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run_command(list(job.argv))
            except Exception as exc:  # a raising job is a failed job, not a benchmark crash
                code = f"raised {type(exc).__name__}: {exc}"
        data = out.getvalue().encode()
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_job()
        records.append(Record(code, data, seconds, probe))
    return records


def speed_normalised(records):
    """Job times at the reference machine's speed.

    The host's speed drifts by 15% and more within minutes, and every job of
    a run moves with it. Each job's time is scaled by PROBE_REFERENCE_S over
    the median probe time of the jobs around it, which cancels most of that
    drift; the raw times stay in the result file."""
    probes = [r.probe for r in records]
    out = []
    for i, r in enumerate(records):
        local = statistics.median(probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1])
        out.append(r.seconds * PROBE_REFERENCE_S / local)
    return out


def judge(jobs, records, reference):
    """Per-job verdicts: (digest or None, failure or None)."""
    verdicts = []
    for job, (code, data, _, _) in zip(jobs, records):
        digest, failure = None, None
        if not isinstance(code, int) or code in FAILING_EXITS:
            failure = f"exit {code}"
        else:
            try:
                payload = json.loads(data)
            except ValueError:
                payload = None
            if payload is None:
                failure = "report is not JSON"
            else:
                digest = payload.get("digest")
                try:
                    failure = checks.check(job, code, payload)
                except Exception as exc:  # a malformed report fails its job, not the run
                    failure = f"check raised {type(exc).__name__}: {exc}"
        ref = reference.get(job.key_id)
        if failure is None and ref is not None and ref != [code, digest]:
            failure = f"reference mismatch: got {[code, digest]}, stored {ref}"
        verdicts.append((digest, failure))
    return verdicts


def stamp(args, jobs):
    """Where and on what a result was measured. A checkout without .git has
    no commit; the digest of the package source identifies the code then."""
    source = hashlib.sha256()
    for name in sorted(os.listdir(os.path.join(SRC, "mnseries"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "mnseries", name), "rb") as f:
                source.update(name.encode() + b"\0" + f.read())
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        path = os.path.join(ROOT, ".git", ref[5:]) if ref.startswith("ref: ") else None
        commit = ref if path is None else (open(path).read().strip() if os.path.isfile(path) else ref)
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": commit,
            "source_sha256": source.hexdigest()[:16], "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "jobs": len(jobs),
            "reps": workloads.reps_for(args.workload, args.seconds)}


def end_to_end(records, verdicts, setup_s, peak_kb):
    """wall_s sums the job times: one client in a closed loop waits on every
    job in turn, and the benchmark's own work between jobs is left out. Job
    times are speed-normalised (speed_normalised)."""
    times = speed_normalised(records)
    failed = sum(1 for _, f in verdicts if f is not None)
    return {
        "wall_s": (sum(times), "s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.p90": (statistics.quantiles(times, n=10)[8], "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
        "ok_ratio": ((len(records) - failed) / len(records), "ratio"),
    }


def per_layer(tracer, records, untraced_wall):
    """The per-layer metrics of a traced pass, and each layer's share of it."""
    totals = tracer.totals()
    c = tracer.counters

    def pick(names, column):
        return sum(totals[k][column] for k in names if k in totals)

    def of(layer, method):
        return [name for name, owner in LAYER_OF.items() if owner == layer and name.endswith(method)]

    self_s = tracer.layer_totals(2)
    traced_wall = sum(r.seconds for r in records)
    metrics = {
        "linalg.rank_s": (pick(["rank_and_left_nullspace"], 1), "s"),
        "linalg.rows": (c.get("linalg.rows", 0), "count"),
        "linalg.cols": (c.get("linalg.cols", 0), "count"),
        "linalg.deficient_calls": (c.get("linalg.deficient_calls", 0), "count"),
        "scalars.field_ops": (pick(of("scalars", ""), 0), "count"),
        "scalars.field_s": (self_s["scalars"], "s"),
        "magnus.image_calls": (pick(["magnus_image"], 0), "count"),
        "magnus.image_s": (pick(["magnus_image"], 1), "s"),
        "series.mul_calls": (pick(["GradedSeries.__mul__"], 0), "count"),
        "series.mul_self_s": (pick(["GradedSeries.__mul__"], 2), "s"),
        "series.pair_useful_ratio": (c.get("series.products", 0) / c["series.pairs"]
                                     if c.get("series.pairs") else 0.0, "ratio"),
        "series.invert_s": (pick(["GradedSeries.invert"], 1), "s"),
        "series.peak_terms": (c.get("series.peak_terms", 0), "count"),
        "series.text_s": (pick(["from_text", "to_text"], 1), "s"),
        "groups.weight_calls": (pick(of("groups", ".weight"), 0), "count"),
        "groups.weight_s": (pick(of("groups", ".weight"), 1), "s"),
        "groups.multiply_calls": (pick(of("groups", ".multiply"), 0), "count"),
        "groups.multiply_s": (pick(of("groups", ".multiply"), 1), "s"),
        "groups.enumerate_s": (pick(["enumerate_monoid"], 1), "s"),
        "freeness.self_s": (self_s["freeness"], "s"),
        "freeness.items": (c.get("freeness.items", 0), "count"),
        "crossed.twist_calls": (pick(["CrossedSystem.twist"], 0), "count"),
        "crossed.check_s": (pick(["check_crossed_system"], 1), "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.output_bytes": (sum(len(r.data) for r in records), "bytes"),
        "trace.overhead_ratio": (traced_wall / untraced_wall, "ratio"),
    }
    shares = {layer: own / traced_wall for layer, own in self_s.items()}
    return metrics, shares


# Per-layer metrics that must fire on the workload their table row names, and
# the layers that must not be called at all on the bypass workload.
FIRES_ON = {
    "certify-algebra": ("linalg.rank_s", "linalg.rows", "linalg.cols", "linalg.deficient_calls",
                        "scalars.field_ops", "scalars.field_s", "magnus.image_calls",
                        "magnus.image_s", "series.mul_calls", "series.mul_self_s",
                        "series.pair_useful_ratio", "series.invert_s", "series.peak_terms",
                        "cli.self_s", "cli.output_bytes"),
    "certify-combinatorial": ("groups.multiply_calls", "groups.multiply_s", "groups.enumerate_s",
                              "freeness.self_s", "freeness.items", "cli.self_s",
                              "cli.output_bytes"),
    "series-expand": ("scalars.field_ops", "scalars.field_s", "series.mul_calls",
                      "series.mul_self_s", "series.pair_useful_ratio", "series.invert_s",
                      "series.peak_terms", "series.text_s", "groups.weight_calls",
                      "groups.weight_s", "crossed.twist_calls", "crossed.check_s"),
}
IDLE_ON = {"certify-combinatorial": ("linalg", "magnus", "series")}


def self_check(workload, metrics, tracer):
    calls = tracer.layer_totals(0)
    problems = [f"{m} did not fire" for m in FIRES_ON[workload] if not metrics[m][0]]
    problems += [f"layer {layer} was called {calls[layer]} times on the bypass workload"
                 for layer in IDLE_ON.get(workload, ()) if calls[layer]]
    return problems


def _dump(path, obj):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1)
    os.replace(tmp, path)


def _write_files(jobs, file_dir):
    os.makedirs(file_dir, exist_ok=True)
    for job in jobs:
        for name, text in job.files.items():
            with open(os.path.join(file_dir, name), "w") as f:
                f.write(text)


def _load_reference(workload, seed):
    if seed != workloads.DEFAULT_SEED or not os.path.isfile(REFERENCE):
        return {}
    with open(REFERENCE) as f:
        return json.load(f).get(workload, {})


def _result_path(args, trace):
    return os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{trace}.json")


def _untraced_child(args):
    """Run the same seed untraced in a fresh process; returns its result file."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=170)
    with open(_result_path(args, 0)) as f:
        return json.load(f)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    cli = _load_cli()
    if args.write_reference:
        return write_reference(cli, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")

    file_dir = os.path.join(OUT, "series")
    jobs = workloads.build(args.workload, args.seed, workloads.reps_for(args.workload, args.seconds),
                           file_dir)
    _write_files(jobs, file_dir)
    reference = _load_reference(args.workload, args.seed)
    info = stamp(args, jobs)

    if args.trace:
        untraced = _untraced_child(args)
        tracer = Tracer()
        tracer.install()
        try:
            records = run_pass(cli, jobs, tracer)
        finally:
            tracer.uninstall()
        verdicts = judge(jobs, records, reference)
        # tracing must not change a single report
        verdicts = [(d, f or (None if [r.code, d] == [u["exit"], u["digest"]]
                              else "traced report differs from untraced"))
                    for (d, f), r, u in zip(verdicts, records, untraced["jobs"])]
        metrics, shares = per_layer(tracer, records, sum(u["seconds"] for u in untraced["jobs"]))
        problems = self_check(args.workload, metrics, tracer)
        _dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
              {"stamp": info, "spans": tracer.spans, "fine": tracer.jobs, "layer_share": shares})
        print("layer shares: " + ", ".join(f"{k} {v:.1%}" for k, v in
                                          sorted(shares.items(), key=lambda kv: -kv[1])))
    else:
        setup_s = measure_setup()
        records = run_pass(cli, jobs)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        verdicts = judge(jobs, records, reference)
        metrics = end_to_end(records, verdicts, setup_s, peak)
        problems = []

    failures = [(job.key, f) for job, (_, f) in zip(jobs, verdicts) if f is not None]
    for key, failure in failures[:20]:
        print(f"FAILED {failure}: {key[:200]}", file=sys.stderr)
    for problem in problems:
        print(f"SELF-CHECK {problem}", file=sys.stderr)
    _dump(_result_path(args, args.trace), {
        "stamp": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "jobs": [{"key": job.key, "exit": r.code if isinstance(r.code, int) else str(r.code),
                  "digest": digest, "seconds": r.seconds, "probe_s": r.probe, "bytes": len(r.data),
                  "failure": failure}
                 for job, r, (digest, failure) in zip(jobs, records, verdicts)],
    })
    print("stamp: " + json.dumps(info, sort_keys=True))
    print("metrics: " + ", ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
          + f" (samples {len(jobs)}, fail_ratio {len(failures) / len(jobs):.6g})")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def write_reference(cli, seconds):
    reference = {}
    for workload in workloads.WORKLOADS:
        file_dir = os.path.join(OUT, "series")
        jobs = workloads.build(workload, workloads.DEFAULT_SEED,
                               workloads.reps_for(workload, seconds), file_dir)
        _write_files(jobs, file_dir)
        records = run_pass(cli, jobs)
        verdicts = judge(jobs, records, {})
        bad = [(job.key, f) for job, (_, f) in zip(jobs, verdicts) if f is not None]
        if bad:
            raise SystemExit(f"perfbench: {len(bad)} failing jobs, first {bad[0]}")
        reference[workload] = {job.key_id: [r.code, digest]
                               for job, r, (digest, _) in zip(jobs, records, verdicts)}
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
