"""Benchmark for hankelideals: one closed-loop client, in one process.

    python3 bench/run.py --workload certify --seed 1 --seconds 36 --trace 0

The client sends `hankelideals.cli.main(["--json", ...])` requests one after
another, each from an empty basis cache, as a fresh `hankelideals` process
would start.  One pass runs the workload's request list once; passes repeat
while another is expected to finish within `--seconds` (at least one always
runs).  Every answer is checked against its known answer after the pass,
outside the timed region.

`--trace 0` prints the end-to-end metrics, measured with tracing off.  The
only instrument then is a clock on `hankel.run_instance`, so that each
theorem instance inside a `verify` request counts as one verdict; it reads
the clock twice per instance.  `--trace 1` alternates untraced and traced
passes and prints the per-layer metrics: the wall-clock times of the
untraced passes, those of `tracer.py`, and the tracing overhead as the
difference of their median pass times.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The program must be in
`src/` next to this directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import resource
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
INPUTS = HERE / ".inputs"

# Set-up is repeated this many times and its median reported: once before
# the first pass, SETUP_REPEATS_PER_ROUND times after each round of passes,
# and the rest at the end, so the repetitions sample the whole run.
SETUP_REPEATS = 9
SETUP_REPEATS_PER_ROUND = 2

# The shared host the benchmark was tuned on drifts in speed by up to 1.7x
# over minutes, which moved the median set-up time of ten runs by 40% between
# two sets of runs.  Each set-up is therefore timed against a reference timed
# right before and after it: importing the benchmark's own modules afresh,
# the same kind of work, which does not change when the program does.
# `setup_s` is the median ratio times the reference's nominal time.
REFERENCE_MODULES = ("workloads", "tracer")
REFERENCE_NOMINAL_S = 0.010

PACKAGE_MODULES = ("ring", "groebner", "ideal_ops", "graphs", "hankel", "cli")

END_TO_END = (
    ("setup_s", "s"),
    ("pairs", "count"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

# Wall-clock times of the untraced passes.  The same drift gave them a
# run-to-run spread of up to a third of their median, so they carry no
# bound: every run prints them and traced runs record them per layer.
WALL_TIMES = (
    ("wall_s", "s", "lower"),
    ("verdict_s.p50", "s", "lower"),
    ("verdict_s.p90", "s", "lower"),
)
PER_LAYER = WALL_TIMES + tracing.PER_LAYER


class SetupError(RuntimeError):
    """The program under test cannot be loaded."""


def import_package() -> dict:
    """Imports `hankelideals` afresh from `src/`; returns its modules by name."""
    for name in [m for m in sys.modules if m == "hankelideals" or m.startswith("hankelideals.")]:
        del sys.modules[name]
    try:
        package = importlib.import_module("hankelideals")
        modules = {"hankelideals": package}
        for name in PACKAGE_MODULES:
            modules[name] = importlib.import_module(f"hankelideals.{name}")
    except ImportError as exc:
        raise SetupError(f"cannot import hankelideals from {SRC}: {exc}") from exc
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"hankelideals was loaded from {package.__file__}, not from {SRC}")
    return modules


class InstanceClock:
    """Times every theorem instance that `verify_theorem` runs."""

    def __init__(self, hankel):
        self.samples: list[float] = []
        run_instance = hankel.run_instance

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return run_instance(*args, **kwargs)
            finally:
                self.samples.append(perf_counter() - start)

        hankel.run_instance = timed


@dataclass
class Response:
    seconds: float
    code: object
    stdout: str
    stderr: str
    instance_seconds: list[float]


def send(modules: dict, clock: InstanceClock, request: workloads.Request) -> Response:
    """Runs one request from an empty basis cache; only the call is timed."""
    modules["groebner"].basis_cache_clear()
    out, err = io.StringIO(), io.StringIO()
    clock.samples = []
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = modules["cli"].main(["--json", *request.argv])
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception:  # a raised request is a failed one; keep running
        code = "raised"
        err.write(traceback.format_exc())
    seconds = perf_counter() - start
    return Response(seconds, code, out.getvalue(), err.getvalue(), clock.samples)


def judge(request: workloads.Request, response: Response) -> tuple[int, str | None]:
    """The request's pair count (`budget_used`) and its problem, if any."""
    report = None
    if response.stdout:
        try:
            report = json.loads(response.stdout)
        except json.JSONDecodeError:
            return 0, "output is not JSON"
    pairs = report.get("budget_used", 0) if isinstance(report, dict) else 0
    if response.code != request.expect_code:
        detail = response.stderr.strip().splitlines()[-1:] or [""]
        return pairs, f"exit {response.code}, want {request.expect_code}: {detail[0]}"
    try:
        return pairs, request.check(report)
    except (KeyError, TypeError) as exc:
        return pairs, f"malformed report: {exc!r}"


@dataclass
class Pass:
    times: list[float]
    pairs: list[int]
    problems: list[str | None]
    verdicts: list[float]
    layers: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        """The pass time: its requests' times, back to back."""
        return sum(self.times)


def run_pass(modules: dict, clock: InstanceClock, requests: tuple, traced: bool) -> Pass:
    """One pass over the workload's requests, judged after the last one."""
    responses = []
    tracer = tracing.Tracer(modules)
    with tracer if traced else contextlib.nullcontext():
        for index, request in enumerate(requests):
            tracer.request = index
            responses.append(send(modules, clock, request))
    judged = [judge(q, r) for q, r in zip(requests, responses)]
    verdicts = [s for r in responses for s in (r.instance_seconds or [r.seconds])]
    result = Pass([r.seconds for r in responses], [p for p, _ in judged], [e for _, e in judged], verdicts)
    if traced:
        budgeted = {k for k, q in enumerate(requests) if q.budgeted}
        result.layers = tracing.summarize(tracer, budgeted, result.pairs)
    return result


def reference_import() -> float:
    """Time to import the reference modules afresh."""
    start = perf_counter()
    for name in REFERENCE_MODULES:
        spec = importlib.util.spec_from_file_location(f"_reference_{name}", HERE / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
        del sys.modules[spec.name]
    return perf_counter() - start


def set_up(name: str, seed: int, inputs: Path) -> tuple[dict, tuple, float, float]:
    """Imports the package afresh and builds the workload's requests.
    Returns both, the time taken and its ratio to the reference around it."""
    before = reference_import()
    start = perf_counter()
    modules = import_package()
    requests = workloads.build(name, seed, inputs)
    seconds = perf_counter() - start
    return modules, requests, seconds, seconds / ((before + reference_import()) / 2)


def measure(modules: dict, requests: tuple, seconds: float, trace: bool, between):
    """Untraced passes (and, with `trace`, traced ones after each) until the
    next round would overrun `seconds`; `between()` runs after each round,
    outside the measured time."""
    clock = InstanceClock(modules["hankel"])
    plain: list[Pass] = []
    traced: list[Pass] = []
    spent = longest = 0.0
    while True:
        round_start = perf_counter()
        plain.append(run_pass(modules, clock, requests, traced=False))
        if trace:
            traced.append(run_pass(modules, clock, requests, traced=True))
        took = perf_counter() - round_start
        spent += took
        longest = max(longest, took)
        between()
        if spent + longest > seconds:
            return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    INPUTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=INPUTS) as tmp:
        inputs = Path(tmp)
        try:
            # The passes use the first import; later set-ups only time.
            modules, requests, *first = set_up(args.workload, args.seed, inputs)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        setups = [first]

        def set_up_again(times: int):
            for _ in range(times):
                setups.append(set_up(args.workload, args.seed, inputs)[2:])

        plain, traced = measure(
            modules, requests, args.seconds, bool(args.trace), lambda: set_up_again(SETUP_REPEATS_PER_ROUND)
        )
        set_up_again(max(0, SETUP_REPEATS - len(setups)))

    every = plain + traced
    problems = [
        f"pass {k} {q.label}: {p}"
        for k, run in enumerate(every)
        for q, p in zip(requests, run.problems)
        if p is not None
    ]
    if any(run.pairs != every[0].pairs for run in every):
        problems.append("pair counts differ between passes")
    attempted = len(requests) * len(every)
    failed = sum(p is not None for run in every for p in run.problems)

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and {len(traced)} traced passes")
    for q, pairs, seconds in zip(requests, plain[0].pairs, plain[0].times):
        print(f"  {q.label:24s} {seconds:9.4f} s {pairs:7d} pairs{'  (budgeted)' if q.budgeted else ''}")
    verdicts = [v for run in plain for v in run.verdicts]
    times = {
        "wall_s": statistics.median(run.wall for run in plain),
        "verdict_s.p50": statistics.median(verdicts),
        "verdict_s.p90": tracing.percentile(verdicts, 90),
    }
    beyond = sum(v > times["verdict_s.p90"] for v in verdicts)
    print(f"  verdicts: {len(verdicts)} samples, {beyond} beyond p90; failed {failed} of {attempted} requests")
    raw_setup = statistics.median(seconds for seconds, _ in setups)
    print(f"  set-ups: {len(setups)}, median {raw_setup:.6g} s, first {setups[0][0]:.6g} s")
    if traced:
        metrics = _layer_metrics(plain, traced, problems, times)
    else:
        for name, value in times.items():
            print(f"  {name:46s} {value:.6g} s")
        values = {
            "setup_s": statistics.median(ratio for _, ratio in setups) * REFERENCE_NOMINAL_S,
            "pairs": sum(plain[0].pairs),
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for line in problems:
        print(f"FAIL {line}")
    for name, metric in metrics.items():
        print(f"  {name:46s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _layer_metrics(plain: list[Pass], traced: list[Pass], problems: list[str], times: dict) -> dict:
    """The untraced passes' wall-clock `times`, counts from the traced
    passes (which must agree), median times, and the tracing overhead."""
    first = traced[0].layers
    values = dict(times)
    for name, unit, _ in tracing.PER_LAYER:
        if name == "trace.overhead_s":
            values[name] = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in plain)
        elif unit == "s":
            values[name] = statistics.median(r.layers[name] for r in traced)
        else:
            if any(r.layers[name] != first[name] for r in traced):
                problems.append(f"{name} differs between traced passes")
            values[name] = first[name]
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
