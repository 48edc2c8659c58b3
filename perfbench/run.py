"""The masseyq benchmark: one closed-loop client calling masseyq.cli.main.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload queries --seed 1 --seconds 25 --trace 0

``--trace 1`` runs a fixed prefix of the request stream once plain and
once under the outside-in span recorder and reports per-layer metrics.
``--steady N`` runs the workload(s) N times in fresh processes, one seed
each, and prints each end-to-end metric's median, quartiles and spread
against its bound.  ``--record-digests`` rewrites digests.json from the
current code on the default seed.

The client sends its next request only when the previous one has
answered.  It measures whole rounds: it starts rounds until --seconds
have passed, so every run does the same mix of work.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib.util
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if not __package__:
    # Run as a script: make the perfbench package importable.
    sys.path[0] = ROOT

from perfbench import checks, spans, workloads  # noqa: E402

SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench-work")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

# Set-up (import, input generation, warm-up) is repeated this many times
# per run and reported as the median.
SETUP_REPS = 5
# The traced run replays this many rounds; counts repeat exactly for a seed.
TRACE_ROUNDS = {"queries": 3, "euler-chain": 1, "scan": 1}
# Rounds whose outputs --record-digests pins on the default seed: more
# than a run measures at the seed code.
DIGEST_ROUNDS = {"queries": 40, "euler-chain": 4, "scan": 1}
# The tail percentile, fixed.  A 25 s run of queries leaves ~10-15
# samples beyond p95; euler-chain (~24 requests) and scan (~5) leave
# fewer, and the detail line reports the count.  A percentile picked per
# run from the sample count would jump between runs whose counts
# straddle a threshold.
TAIL_PERCENTILE = 95.0

# Every time metric is scaled to a reference machine speed.  The speed of
# a shared machine drifts by +-50% over minutes, and masseyq's request
# times follow a small pure-Python Fraction kernel (correlation 0.77-0.95
# over 1 s windows on a shared 2-core x86 VM).  A SIGALRM handler times the
# kernel every PROBE_PERIOD seconds, inside requests too, and a time t is
# reported as t * REF_MS / k, with k the mean kernel time over t: the time
# t would take where the kernel takes REF_MS.  The handler's own time is
# taken out of every time measured.  Unscaled times are in the detail line.
PROBE_PERIOD = 0.1
REF_SIZE = 7
REF_MS = 1.0

UNITS = {
    "verdicts_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "error_ratio": "ratio",
}


def _reference_kernel() -> None:
    """Gauss-Jordan elimination of a fixed rational matrix."""
    n = REF_SIZE
    rows = [[Fraction((i * i + 3 * j + 1) % 13 - 6, 1 + (i + j) % 3) for j in range(n)] for i in range(n)]
    r = 0
    for c in range(n):
        p = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = rows[r][c]
        rows[r] = [e / inv for e in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1


class SpeedProbe:
    """Samples machine speed by timing the reference kernel on SIGALRM.

    Use as a context manager around everything that is timed.  ``spent``
    accumulates the handler's own time so intervals can exclude it.
    """

    def __init__(self):
        self.at: list[float] = []
        self.kernel_ms: list[float] = []
        self.spent = 0.0
        self._sampling = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._sampling:  # a signal that arrived during a sample
            return
        self._sampling = True
        start = time.perf_counter()
        _reference_kernel()
        end = time.perf_counter()
        self.at.append((start + end) / 2)
        self.kernel_ms.append((end - start) * 1000.0)
        self.spent += end - start
        self._sampling = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def stop(self, mark: tuple[float, float]) -> tuple[float, float, float]:
        """(start, end, seconds without handler time) of an interval."""
        end = time.perf_counter()
        return mark[0], end, end - mark[0] - (self.spent - mark[1])

    def scale(self, start: float, end: float) -> float:
        """REF_MS over the mean kernel time around [start, end]."""
        lo = bisect.bisect_left(self.at, start - PROBE_PERIOD)
        hi = bisect.bisect_right(self.at, end + PROBE_PERIOD)
        window = self.kernel_ms[lo:hi] or self.kernel_ms[max(lo - 1, 0):lo + 1]
        return REF_MS / statistics.fmean(window)


@dataclass
class Answer:
    request: workloads.Request
    rc: Optional[int]
    out: str
    error: Optional[str]
    start: float
    end: float
    seconds: float
    scaled_s: float = 0.0


def fresh_cli():
    """Import masseyq.cli from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "masseyq" or n.startswith("masseyq.")]:
        del sys.modules[name]
    return importlib.import_module("masseyq.cli")


def call(cli, req: workloads.Request, probe: SpeedProbe) -> Answer:
    out, err = io.StringIO(), io.StringIO()
    mark = probe.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(req.argv + ["--format", "structured"])
        error = None
    except Exception as exc:  # a crash is a wrong answer, not a benchmark failure
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return Answer(req, rc, out.getvalue(), error, *probe.stop(mark))


def scale_answers(answers: list[Answer], probe: SpeedProbe) -> None:
    for ans in answers:
        ans.scaled_s = ans.seconds * probe.scale(ans.start, ans.end)


def set_up(name: str, seed: int, probe: SpeedProbe):
    """Import, generate and write the inputs, warm up; SETUP_REPS times.

    Returns the fresh cli module, the workload, the last warm-up answers
    and the (start, end, seconds) of every set-up.
    """
    runs = []
    for _ in range(SETUP_REPS):
        mark = probe.start()
        cli = fresh_cli()
        with open(os.path.join(ROOT, "data", "rotation.datum"), encoding="utf-8") as fh:
            rotation = fh.read()
        wl = workloads.make(name, seed, rotation)
        for fname, text in wl.files.items():
            with open(fname, "w", encoding="utf-8") as fh:
                fh.write(text)
        warm = [call(cli, req, probe) for req in wl.warmup]
        runs.append(probe.stop(mark))
    return cli, wl, warm, runs


def make_checker(wl) -> checks.Checker:
    # The masseyq modules of the last set-up; imported here because each
    # set-up replaces them.
    from masseyq.fileformat import load_algebra_document

    oracles = _load_oracles()
    return checks.Checker(
        wl,
        oracles,
        lambda fname: load_algebra_document(fname).algebra,
        checks.load_digests(wl.name, wl.seed),
    )


def _load_oracles():
    path = os.path.join(ROOT, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_all(checker, answers) -> list[str]:
    """The first problem of every wrong answer."""
    failures = []
    for ans in answers:
        problems = checker.check(ans.request, ans.rc, ans.out, ans.error)
        if problems:
            failures.append(f"{ans.request.key}: {problems[0]}")
    return failures


def tail(latencies: list[float]) -> tuple[float, int]:
    """Nearest-rank TAIL_PERCENTILE and the number of samples above it."""
    ordered = sorted(latencies)
    rank = math.ceil(len(ordered) * TAIL_PERCENTILE / 100.0)
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(cli, wl, seconds: float, probe: SpeedProbe):
    """Closed loop over whole rounds until ``seconds`` have passed."""
    answers = []
    start = time.perf_counter()
    rounds = 0
    while True:
        answers += [call(cli, req, probe) for req in wl.round(rounds)]
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    return answers, rounds, time.perf_counter() - start


def latency_metrics(answers, scaled: bool) -> dict[str, float]:
    times = [a.scaled_s if scaled else a.seconds for a in answers]
    latencies = [t * 1000.0 for t in times]
    return {
        "verdicts_per_s": sum(a.request.verdicts for a in answers) / sum(times),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail(latencies)[0],
    }


def run_plain(name, seed, seconds, probe):
    cli, wl, warm, setups = set_up(name, seed, probe)
    answers, rounds, elapsed = measure(cli, wl, seconds, probe)
    rss = peak_rss_mb()
    scale_answers(answers, probe)
    checker = make_checker(wl)
    failures = check_all(checker, warm + answers)
    attempted = len(warm) + len(answers)
    models_seen, reused = set(), 0
    for a in answers:
        model = a.request.argv[1]
        reused += model in models_seen
        models_seen.add(model)
    metrics = latency_metrics(answers, scaled=True)
    metrics["setup_s"] = statistics.median(sec * probe.scale(s, e) for s, e, sec in setups)
    metrics["peak_rss_mb"] = rss
    raw = latency_metrics(answers, scaled=False)
    raw["setup_s"] = statistics.median(sec for _, _, sec in setups)
    detail = {
        "workload": name,
        "seed": seed,
        "rounds": rounds,
        "requests": len(answers),
        "verdicts": sum(a.request.verdicts for a in answers),
        "wall_s": elapsed,
        "error_ratio": len(failures) / attempted,
        "latency_tail_percentile": TAIL_PERCENTILE,
        "latency_samples": len(answers),
        "latency_samples_beyond_tail": tail([a.seconds for a in answers])[1],
        "model_reuse_rate": reused / len(answers),
        "kernel_ms_median": statistics.median(probe.kernel_ms),
        "speed_samples": len(probe.kernel_ms),
        "unscaled": raw,
        "setup_runs_s": [sec for _, _, sec in setups],
        "digests_checked": checker.digests_checked,
        "failures": failures[:5],
    }
    shown = dict(metrics, error_ratio=detail["error_ratio"])
    return shown, metrics, detail, attempted, len(failures)


def run_traced(name, seed, probe):
    cli, wl, warm, _ = set_up(name, seed, probe)
    reqs = [req for r in range(TRACE_ROUNDS[name]) for req in wl.round(r)]
    plain = [call(cli, req, probe) for req in reqs]

    recorder = spans.Recorder()
    recorder.install()
    try:
        traced_answers = []
        for i, req in enumerate(reqs):
            recorder.begin_request(i)
            traced_answers.append(call(cli, req, probe))
    finally:
        recorder.uninstall()
    scale_answers(plain + traced_answers, probe)
    untraced = sum(a.scaled_s for a in plain)
    traced = sum(a.scaled_s for a in traced_answers)
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
    recorder.write_spans(span_file)

    checker = make_checker(wl)
    answers = warm + plain + traced_answers
    failures = check_all(checker, answers)
    metrics = recorder.metrics()
    metrics["trace.overhead_ratio"] = traced / untraced
    detail = {
        "workload": name,
        "seed": seed,
        "requests": len(reqs),
        "untraced_scaled_s": untraced,
        "traced_scaled_s": traced,
        "spans": len(recorder.spans),
        "span_file": os.path.relpath(span_file, ROOT),
        "error_ratio": len(failures) / len(answers),
        "failures": failures[:5],
    }
    return metrics, metrics, detail, len(answers), len(failures)


def per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


@contextlib.contextmanager
def work_dir(name: str):
    """A fresh scratch directory under the checkout, as the cwd."""
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    home = os.getcwd()
    os.chdir(work)
    try:
        yield
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> None:
    with work_dir(name), SpeedProbe() as probe:
        if trace:
            shown, metrics, detail, attempted, failed = run_traced(name, seed, probe)
            units = per_layer_units()
        else:
            shown, metrics, detail, attempted, failed = run_plain(name, seed, seconds, probe)
            units = UNITS
    for key, value in shown.items():
        print(f"{key:44s} {value:>16.6f} {units[key]}")
    print(json.dumps({"detail": detail}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def steady(names, runs: int, seconds: float, first_seed: int) -> None:
    """Run each workload ``runs`` times, one seed each, and report spreads."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for name in names:
        values: dict[str, list[float]] = {}
        for i in range(runs):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(first_seed + i),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            shown = " ".join(f"{k} {m['value']:.4g}" for k, m in result["metrics"].items())
            print(f"  seed {first_seed + i}: correct {result['correct']} {shown}", flush=True)
        print(f"{name}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}")
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if metric["name"] == "setup_s" or spread < metric["bound"] / 3 else "WIDE"
            print(
                f"  {metric['name']:16s} median {med:12.4f} {metric['unit']:4s} "
                f"q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:7.4f} "
                f"bound {metric['bound']:.3f} {verdict}"
            )


def record_digests() -> None:
    """Pin the structured outputs of the default seed's first rounds."""
    table = {}
    for name in workloads.WORKLOADS:
        with work_dir(name), SpeedProbe() as probe:
            cli, wl, _, _ = set_up(name, checks.DEFAULT_SEED, probe)
            checker = make_checker(wl)
            checker.digests = {}
            entries = {}
            for r in range(DIGEST_ROUNDS[name]):
                for req in wl.round(r):
                    if req.key in entries:
                        continue
                    ans = call(cli, req, probe)
                    problems = checker.check(req, ans.rc, ans.out, ans.error)
                    if problems:
                        raise SystemExit(f"refusing to pin a wrong answer: {req.key}: {problems}")
                    entries[req.key] = checks.digest(ans.out)
        table[name] = entries
        print(f"{name}: {len(entries)} outputs pinned")
    with open(checks.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="RUNS")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "masseyq", "__init__.py")):
        print(f"masseyq sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.record_digests:
        record_digests()
    elif args.steady:
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        steady(names, args.steady, args.seconds, args.seed)
    elif args.workload == "all":
        parser.error("a single run needs --workload")
    else:
        run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
