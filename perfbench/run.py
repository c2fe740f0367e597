"""symfree benchmark runner.

    python3 perfbench/run.py --workload rn_sidon --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout, with symfree taken from `src/`.
One process, one thread: a closed loop calls `symfree.cli.main(argv)` for
each command of the workload in turn, capturing stdout and stderr, and
repeats the whole sequence (a round) while another round is expected to end
within `--seconds` of measured command time; at least one round runs.
Every output is checked by `check.py`, which does not use symfree; the first
round's outputs are checked and later rounds must repeat them byte for byte.

With `--trace 0` the run reports the end-to-end metrics: the median round
wall time rescaled to the reference speed (`wall_ref_s`, see `Speedometer`;
the raw times are printed beside it), the set-up time (median over fresh
interpreters importing `symfree.cli` and building its parser) and the peak
RSS of the process.  With `--trace 1` it alternates plain and traced rounds
and reports the per-layer metrics of `tracing.py`.  Every metric is printed
by name with its unit; the last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import monotonic, perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path[:0] = [str(BENCH), str(SRC)]
import tracing  # noqa: E402
from check import CheckFailed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# (name, unit); BENCHMARK.json lists the same names with their bounds.
END_TO_END = [("wall_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# Fresh interpreters timed for setup_s, after one untimed start that leaves
# the bytecode cache warm as an installed package would have it.
SETUP_PROBES = 11
_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import symfree.cli; "
    "symfree.cli.build_parser(); print(time.monotonic())"
)

# Roughly reference_loop's time on the 2-core Xeon (2.1 GHz) virtual machine
# this benchmark was written on, while its host was quiet.  A time multiplied
# by REF_LOOP_S / (loop time measured alongside it) is "at the reference speed".
REF_LOOP_S = 0.0015
SAMPLE_INTERVAL_S = 0.2


def _step(x: int, y: int) -> int:
    return x + y if x & 1 else x - y


def reference_loop() -> float:
    """Seconds taken by a fixed loop of small Python calls (about 1.5 ms).

    Calls track symfree's recursive searches better than plain arithmetic
    does; the pure-arithmetic loop tried first left twice the spread on rn_k3.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(16_000):
        acc = _step(i, acc) & 0xFFFF
    return perf_counter() - t0


class Speedometer:
    """Samples how fast the machine runs Python while commands run.

    On a shared host the same work takes up to 40% longer from one minute
    to the next, and no statistic over one run removes that.  Timing
    `reference_loop` alongside the work and dividing by it does: over runs
    on different seeds it cut the quartile spread of the median round time
    from 19% to 5% on rn_k3, 18% to 4% on sumset_trials and 20% to 7% on
    set_pipeline.  While active, SIGALRM runs the loop every
    SAMPLE_INTERVAL_S in the main thread; that time is excluded from command
    times.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_) -> None:
        t0 = perf_counter()
        self.samples.append(reference_loop())
        self.spent += perf_counter() - t0

    def factor(self, first: int) -> float:
        """REF_LOOP_S over the mean loop time of samples from `first` on."""
        return REF_LOOP_S / statistics.mean(self.samples[first:])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def measure_setup() -> float:
    """Median seconds from starting an interpreter until symfree.cli is
    imported and its parser built.

    Left unscaled: start-up is mostly loading files and extension modules,
    which a reference loop does not track; scaling by the arithmetic loop
    first tried widened the spread of these medians from 10% to 14%.
    """
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = monotonic()
        done = subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        if i:
            times.append(float(done.stdout) - t0)
    return statistics.median(times)


class Session:
    """Runs one workload's commands in rounds and checks their outputs."""

    def __init__(self, commands):
        self.commands = commands
        self.cli = importlib.import_module("symfree.cli")
        self.speed = Speedometer()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.figures: dict[str, int] = {}
        # command index -> (digest of its first output, that output's problem)
        self._verdicts: dict[int, tuple[bytes, str | None]] = {}

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        spent = self.speed.spent
        t0 = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                # Looked up on every call so that tracing wrappers apply.
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a raw traceback is a failed command
                traceback.print_exc()
                rc = 1
        seconds = perf_counter() - t0 - (self.speed.spent - spent)
        return seconds, rc, out.getvalue(), err.getvalue()

    def _problem(self, index, cmd, rc, out, err) -> str | None:
        if rc != 0:
            return f"exit code {rc}: {err.strip()[:300]}"
        if err:
            return f"stderr: {err.strip()[:300]}"
        digest = hashlib.sha256(out.encode()).digest()
        if index in self._verdicts:
            first, problem = self._verdicts[index]
            return problem if digest == first else "output differs from the first round's"
        problem = None
        try:
            for name, value in cmd.check(out).items():
                self.figures[name] = self.figures.get(name, 0) + value
        except CheckFailed as exc:
            problem = str(exc)
        self._verdicts[index] = (digest, problem)
        return problem

    def run_round(self) -> tuple[float, float]:
        """Run every command once; return the summed command time raw and
        at the reference speed."""
        first = len(self.speed.samples)
        self.speed.sample()
        total = 0.0
        for index, cmd in enumerate(self.commands):
            seconds, rc, out, err = self._call(cmd.argv)
            total += seconds
            self.attempted += 1
            problem = self._problem(index, cmd, rc, out, err)
            if problem is not None:
                self.failed += 1
                self.errors.append(f"{' '.join(cmd.argv)}: {problem}")
        self.speed.sample()
        return total, total * self.speed.factor(first)


def _series(label: str, samples: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples above
    it, of one series of round times."""
    n = len(samples)
    if n < 11:
        tail = "no tail percentile below 11 rounds"
    else:
        tail = f"p{100 * (n - 10) / n:.0f} {sorted(samples)[n - 11]:.4f} s"
    rounds = " ".join(f"{t:.4f}" for t in samples)
    return f"{label}: median {statistics.median(samples):.4f} s of {n} rounds, {tail} [{rounds}]"


def measure_plain(session: Session, seconds: float):
    """End-to-end metrics and report lines."""
    setup_s = measure_setup()
    raw, scaled = [], []
    with session.speed:
        while not raw or sum(raw) + statistics.median(raw) <= seconds:
            r, s = session.run_round()
            raw.append(r)
            scaled.append(s)
    metrics = {
        "wall_ref_s": statistics.median(scaled),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines = [
        _series("round wall time at the reference speed", scaled),
        _series("round wall time", raw),
        f"setup_s: median of {SETUP_PROBES} interpreter starts",
    ]
    lines += [f"{name} {session.figures[name]} count"
              for name in ("exact_frontier_n", "rn_size_sum") if name in session.figures]
    return metrics, dict(END_TO_END), lines, []


def measure_traced(session: Session, seconds: float, spans_path: Path):
    """Per-layer metrics, report lines and defects found."""
    tracer = tracing.Tracer()
    plain, traced, profiles = [], [], []
    while not traced or sum(plain) + sum(traced) + 2 * statistics.median(traced) <= seconds:
        plain.append(session.run_round()[0])
        first = tracer.span_count()
        tracer.counters.clear()
        with tracer:
            traced.append(session.run_round()[0])
        profiles.append((tracer.self_times(first), tracer.counters.copy()))
    defects = []
    if any(counts != profiles[0][1] for _, counts in profiles):
        defects.append("work counters differ between traced rounds of one run")
    figures = {name: session.figures.get(name, 0) for name in ("exact_frontier_n", "rn_size_sum")}
    figures["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics = tracing.layer_metrics(profiles, figures)
    tracer.write(spans_path)
    lines = [
        _series("plain rounds", plain),
        _series("traced rounds", traced),
        f"spans: {tracer.span_count()} written to {spans_path}",
    ]
    return metrics, {name: unit for name, unit, _ in tracing.PER_LAYER}, lines, defects


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Measure one workload; return (report lines, result object)."""
    work = BENCH / "work" / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session(WORKLOADS[workload](seed, work, tiny=tiny))
    if trace:
        metrics, units, notes, defects = measure_traced(session, seconds, work / "spans.tsv")
    else:
        metrics, units, notes, defects = measure_plain(session, seconds)
    lines = [f"workload {workload} seed {seed}: {len(session.commands)} commands a round, "
             f"{session.attempted} attempted, {session.failed} failed, "
             f"failed_ratio {session.failed / session.attempted:.4f}"]
    lines += notes
    lines += [f"{name} {value} {units[name]}" for name, value in metrics.items()]
    lines += [f"failed: {e}" for e in session.errors[:20]]
    lines += [f"defect: {d}" for d in defects]
    result = {
        "correct": session.failed == 0 and not defects,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "symfree" / "__init__.py").is_file():
        print(f"error: no symfree source tree at {SRC / 'symfree'}", file=sys.stderr)
        return 2
    lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
