"""End-to-end benchmark of the rosepen CLI.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client calls ``rosepen.cli.main(argv)`` in this process, one
request at a time, on JSON inputs generated from the seed (see
``workloads.py``).  Inputs come in rounds with a fixed class mix; the loop
runs whole rounds until ``--seconds`` have been spent inside requests.
Every output is checked after the loop (``checks.py``).

``--trace 0`` reports the end-to-end metrics: set-up time, throughput,
median and 90th-percentile request latency, and peak RSS.  ``--trace 1``
runs every request twice, untraced and traced (``spans.py``), and reports
the per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  Exit code 2 means the
benchmark could not run: the checkout has no ``src/rosepen``, or an
argument is invalid.  Generated inputs live in ``.perfbench_work/`` for the
length of a run; traced runs write their spans to ``.perfbench_out/``.

Times are reported at a fixed machine speed.  The machine is shared, and
its speed drifts by up to 2x for minutes at a time, which would swamp any
change in the code.  So a short fixed pure-Python loop, ``reference()``,
runs between requests, and each request's time is scaled by REFERENCE_MS /
(the mean of the reference times just before and just after it).
"""

from __future__ import annotations

import os

# One BLAS thread: set before numpy can be imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402 -- the benchmark's own module, found via HERE

TAIL_PERCENTILE = 90
SETUP_SAMPLES = 7
# Share of --seconds given to the untraced calls of a traced run; each is
# paired with a traced call on the same input.
TRACE_UNTRACED_SHARE = 0.5
# Time of reference() on an uncontended core of a 2-core x86-64 VM running
# CPython 3.11; the scale in which every time is reported.
REFERENCE_MS = 2.0


def reference():
    """Fixed pure-Python work (rationals, big ints, dicts) whose time tracks
    the machine's current speed; returns its wall time in seconds."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 300):
        acc += Fraction(k, k + 1) * Fraction(3, k + 2)
    table = {}
    for k in range(2000):
        table[k % 97] = table.get(k % 97, 0) + k * k
    return time.perf_counter() - start


def speed_scale(before, after):
    """Factor that turns a time measured between two reference runs into a
    time at REFERENCE_MS."""
    return REFERENCE_MS / ((before + after) / 2 * 1e3)


def _die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_library():
    if not (SRC / "rosepen" / "__init__.py").is_file():
        _die(f"no rosepen sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rosepen.cli

    if Path(rosepen.cli.__file__).resolve().parent != SRC / "rosepen":
        _die("imported rosepen from outside the checkout")
    return rosepen.cli


def measure_setup(modules):
    """Median, at reference speed, of the wall time a fresh interpreter
    takes to import rosepen.cli and ``modules``, the lazy imports that the
    workload's requests trigger."""
    code = "import rosepen.cli\n" + "".join(f"import {m}\n" for m in modules)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_SAMPLES):
        before = reference()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        elapsed = time.perf_counter() - start
        times.append(elapsed * speed_scale(before, reference()))
    return statistics.median(times)


def imports_during(fn, *args):
    """Run ``fn(*args)``; return the absolute imports that library code ran."""
    import builtins

    seen = set()
    original = builtins.__import__

    def hook(name, globals=None, locals=None, fromlist=(), level=0):
        if level == 0 and str((globals or {}).get("__name__", "")).startswith("rosepen"):
            seen.add(name)
        return original(name, globals, locals, fromlist, level)

    builtins.__import__ = hook
    try:
        fn(*args)
    finally:
        builtins.__import__ = original
    return sorted(seen)


class Request:
    __slots__ = ("label", "doc", "path", "rc", "out", "error", "seconds", "work")

    def __init__(self, label, doc, path):
        self.label, self.doc, self.path = label, doc, path
        self.rc = self.out = self.error = None
        self.seconds = 0.0
        self.work = 0

    def replay(self):
        return Request(self.label, self.doc, self.path)


class Round:
    """Requests run back to back, with the reference loop between them.

    ``reference[i]`` and ``reference[i + 1]`` bracket request i.  In a
    traced run ``traced`` holds a second call on each input.
    """

    def __init__(self, requests):
        self.requests = requests
        self.traced = []
        self.reference = []

    def latencies_ms(self):
        """Request times at reference speed."""
        ref = self.reference
        return [
            r.seconds * 1e3 * speed_scale(ref[i], ref[i + 1])
            for i, r in enumerate(self.requests)
        ]


class Runner:
    """Writes each round's inputs, then calls the CLI on them."""

    def __init__(self, cli, workload, seed, workdir):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.argv = workloads.WORKLOADS[workload]["argv"]

    def round(self, index):
        out = []
        for j, (label, doc) in enumerate(workloads.make_round(self.workload, self.seed, index)):
            path = self.workdir / f"r{index}-{j}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            out.append(Request(label, doc, path))
        return Round(out)

    def call(self, req, tracer=None):
        """One request: sets its exit code, stdout, exception type and time."""
        argv = self.argv + ["--input", str(req.path)]
        stdout = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                if tracer is None:
                    req.rc = self.cli.main(argv)
                else:
                    req.rc = tracer.request(req.label, self.cli.main, argv)
            except SystemExit as exc:  # argparse rejected the arguments
                req.rc = exc.code
            except Exception as exc:  # noqa: BLE001 -- a failed request is data
                req.error = type(exc).__name__
        req.seconds = time.perf_counter() - start
        req.out = stdout.getvalue()

    def run_round(self, rnd, tracer=None):
        """Run a round.  With a tracer, each input is also run traced, right
        before or after the untraced call, alternately, so both see the same
        machine speed and neither is always the second, warmer call."""
        for i, req in enumerate(rnd.requests):
            rnd.reference.append(reference())
            if tracer is None:
                self.call(req)
                continue
            twin = req.replay()
            rnd.traced.append(twin)
            calls = [(req, None), (twin, tracer)]
            for r, t in calls if i % 2 == 0 else calls[::-1]:
                self.call(r, t)
        rnd.reference.append(reference())
        return rnd

    def loop(self, seconds, tracer=None):
        """Whole rounds until ``seconds`` of untraced request time; at least
        one round."""
        rounds, spent = [], 0.0
        while True:
            rounds.append(self.run_round(self.round(len(rounds)), tracer))
            spent += sum(r.seconds for r in rounds[-1].requests)
            if spent >= seconds:
                return rounds


def check_all(reqs, check):
    """Check every request's output and set its ``work``.

    Returns the failures as (input index, class label, input file, error,
    input document); the document is kept because the input files are
    removed when the run ends.
    """
    failures = []
    for i, req in enumerate(reqs):
        try:
            if req.error is not None:
                raise RuntimeError(req.error)
            req.work = check(req.doc, req.rc, req.out)
        except Exception as exc:  # noqa: BLE001 -- any check error is a failure
            failures.append(
                (i, req.label, req.path.name, f"{type(exc).__name__}: {exc}", req.doc)
            )
    return failures


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * q // 100)) - 1]


def end_to_end(rounds, setup_s, peak_rss_mb):
    """Each timing is the median over rounds of that round's figure.

    Every round has the same class mix, so the rounds are comparable, and
    the median over them ignores a round that a burst of load disturbed.
    """

    def per_round(stat):
        return statistics.median(stat(rnd) for rnd in rounds)

    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "throughput_per_s": {
            "value": per_round(
                lambda rnd: sum(r.work for r in rnd.requests) * 1e3 / sum(rnd.latencies_ms())
            ),
            "unit": "1/s",
        },
        "latency_p50_ms": {
            "value": per_round(lambda rnd: statistics.median(rnd.latencies_ms())),
            "unit": "ms",
        },
        "latency_tail_ms": {
            "value": per_round(lambda rnd: percentile(rnd.latencies_ms(), TAIL_PERCENTILE)),
            "unit": "ms",
        },
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def run(cli, workload, seed, seconds, trace, workdir):
    """One benchmark run; returns the result object printed as the last line."""
    runner = Runner(cli, workload, seed, workdir)

    # Warm-up round: pays the lazy imports and first-call costs before
    # timing.  Its outputs are checked like every other request.
    warm = runner.round(-1)
    setup_s = measure_setup(imports_during(runner.run_round, warm))

    from checks import CHECKS

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    rounds = runner.loop(seconds * (TRACE_UNTRACED_SHARE if trace else 1), tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reqs = [req for rnd in rounds for req in rnd.requests]
    failures = check_all(warm.requests + reqs, CHECKS[runner.argv[0]])
    attempted = len(warm.requests) + len(reqs)

    if tracer is None:
        metrics = end_to_end(rounds, setup_s, peak_rss_mb)
    else:
        traced = [req for rnd in rounds for req in rnd.traced]
        attempted += len(traced)
        for i, (a, b) in enumerate(zip(reqs, traced)):
            if (a.rc, a.out, a.error) != (b.rc, b.out, b.error):
                failures.append(
                    (len(warm.requests) + i, b.label, b.path.name, "traced output differs", b.doc)
                )
        overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in reqs)
        metrics = tracer.metrics(overhead)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{workload}-{seed}.jsonl")
        scales = [
            speed_scale(rnd.reference[i], rnd.reference[i + 1])
            for rnd in rounds
            for i in range(len(rnd.traced))
        ]
        for label, row in tracer.class_breakdown(scales).items():
            print(json.dumps({"class": label, **row}, sort_keys=True))

    for failure in failures:
        print("failure:", json.dumps(failure), file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    cli = _import_library()

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(cli, args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
