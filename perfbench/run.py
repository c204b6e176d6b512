#!/usr/bin/env python3
"""Run one cosum benchmark workload and print its metrics.

    python3 perfbench/run.py --workload decode_sweep --seed 0 --seconds 30 --trace 0

Run from the root of a cosum checkout; the program is imported from its
`src/` directory. One client drives `cosum.cli.main` in-process in a closed
loop: the next CLI request starts only after the previous one returned.
The client repeats the workload's pass of requests until `--seconds` have
passed, and always runs whole passes, at least two, so every request runs
twice and both outputs can be compared byte for byte.

Every request is checked: exit code 0, outputs present and parseable, and
output bytes equal to the reference digests in digests.json on the
default seed, or to the same request's first output on any seed. A request
that fails the check counts as failed.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs two untraced
passes, then the traced passes, and prints the per-layer metrics and the
tracing overhead. The last line of stdout is a JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
DIGESTS_PATH = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 30

# `cosum train` runs at least this often, and for at least this long in
# total, so setup_s is a median of many short timings.
SETUP_MIN_RUNS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_RUNS = 101

sys.path.insert(0, HERE)
import workloads  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def import_cosum() -> Callable[[List[str]], int]:
    """cosum.cli.main from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "cosum", "cli.py")):
        raise BenchError(f"no cosum source under {SRC}")
    sys.path.insert(0, SRC)
    import cosum.cli
    import cosum.decoding

    if not os.path.abspath(cosum.cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported cosum from {cosum.cli.__file__}, not {SRC}")
    if tuple(cosum.decoding.ALL_MODES) != workloads.ALL_MODES:
        raise BenchError("cosum.decoding.ALL_MODES changed; update perfbench/workloads.py")
    return cosum.cli.main


def load_reference_digests(workload: str) -> Dict[str, str]:
    try:
        with open(DIGESTS_PATH, encoding="utf-8") as fh:
            return json.load(fh)[workload]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no reference digests for {workload}: {exc}") from exc


@dataclass
class Outcome:
    """Totals of one run of whole passes."""

    latencies: List[float] = field(default_factory=list)
    pass_request_rates: List[float] = field(default_factory=list)
    pass_token_rates: List[float] = field(default_factory=list)
    tokens: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)


class Client:
    """The closed-loop client: runs requests and checks every output."""

    def __init__(self, main, inputs: workloads.Inputs, reference: Optional[Dict[str, str]]):
        self.main = main
        self.inputs = inputs
        self.reference = reference
        self.seen: Dict[str, str] = {}

    def call(self, argv: List[str]) -> tuple:
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = self.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a raising request is a failed request
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        return elapsed, code, stderr.getvalue()

    def check(self, request: workloads.Request, code, stderr: str) -> tuple:
        """(summary tokens, None) if the output is right, else (0, reason)."""
        if code != 0:
            return 0, f"exit {code!r}: {stderr.strip()[-200:]}"
        try:
            blobs = []
            for path in request.outputs:
                with open(path, "rb") as fh:
                    blobs.append(fh.read())
            tokens = request.verify(blobs)
        except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
            return 0, f"bad output: {type(exc).__name__}: {exc}"
        digest = hashlib.sha256(b"".join(blobs)).hexdigest()
        expected = self.seen.setdefault(request.key, digest)
        if digest != expected:
            return 0, "output differs from this request's first output"
        if self.reference is not None and digest != self.reference.get(request.key):
            return 0, "output differs from the reference digest of the default seed"
        return tokens, None

    def run(self, seconds: float, min_passes: int, scope=None) -> Outcome:
        """Whole passes until `seconds` have passed and min_passes ran."""
        outcome = Outcome()
        start = time.perf_counter()
        passes = 0
        while passes < min_passes or time.perf_counter() - start < seconds:
            pass_start = time.perf_counter()
            completed, tokens_before = len(outcome.latencies), outcome.tokens
            for request in self.inputs.requests:
                outcome.attempted += 1
                with scope(outcome.attempted) if scope else contextlib.nullcontext():
                    elapsed, code, stderr = self.call(request.argv)
                tokens, error = self.check(request, code, stderr)
                if error is None:
                    outcome.latencies.append(elapsed)
                    outcome.tokens += tokens
                else:
                    outcome.failed += 1
                    outcome.errors.append(f"{request.key}: {error}")
            passes += 1
            pass_seconds = time.perf_counter() - pass_start
            outcome.pass_request_rates.append(
                (len(outcome.latencies) - completed) / pass_seconds
            )
            outcome.pass_token_rates.append((outcome.tokens - tokens_before) / pass_seconds)
        return outcome


def set_up(client: Client, repeat: bool) -> List[float]:
    """Time `cosum train` on the workload corpus; the model stays for requests.

    With `repeat`, train SETUP_MIN_RUNS times and for SETUP_MIN_SECONDS.
    """
    inputs = client.inputs
    argv = ["train", "--reviews", inputs.corpus, "--out", inputs.model]
    times: List[float] = []
    while not times or repeat and (
        len(times) < SETUP_MIN_RUNS
        or sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_RUNS
    ):
        elapsed, code, stderr = client.call(argv)
        if code != 0:
            raise BenchError(f"cosum train failed: {code!r} {stderr.strip()}")
        times.append(elapsed)
    return times


def vocabulary_size(model_path: str) -> int:
    with open(model_path, encoding="utf-8") as fh:
        return len(json.load(fh)["vocabulary"]) + 3  # + BOS, EOS, UNK


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_times: List[float], outcome: Outcome) -> Dict[str, tuple]:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "requests_per_s": (statistics.median(outcome.pass_request_rates), "1/s"),
        "request_s.p50": (statistics.median(outcome.latencies or [0.0]), "s"),
        "summary_tokens_per_s": (statistics.median(outcome.pass_token_rates), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0
) -> dict:
    """Generate inputs, set up, run, check; return the result object."""
    main = import_cosum()
    reference = load_reference_digests(name) if seed == DEFAULT_SEED and scale == 1.0 else None
    workdir = os.path.join(WORK_ROOT, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = workloads.WORKLOADS[name](workdir, seed, scale)
        client = Client(main, inputs, reference)
        setup_times = set_up(client, repeat=not trace)
        size = dict(inputs.size, vocabulary=vocabulary_size(inputs.model))
        print(f"# workload {name} seed {seed}: 1 client, closed loop; inputs {json.dumps(size, sort_keys=True)}")
        if trace:
            metrics, outcome = traced_run(client, seconds)
        else:
            outcome = client.run(seconds, min_passes=2)
            metrics = end_to_end(setup_times, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)  # only if no other run is using it
    for error in outcome.errors[:10]:
        print(f"# FAILED {error}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value:.6g} {unit}")
    rate = outcome.failed / outcome.attempted
    print(f"error_rate {rate:.6g} ratio ({outcome.failed} failed of {outcome.attempted} requests)")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def traced_run(client: Client, seconds: float) -> tuple:
    """Two untraced passes, then traced set-up and passes; per-layer metrics."""
    import tracing

    untraced = client.run(0.0, min_passes=2)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        set_up(client, repeat=False)
        traced = client.run(seconds, min_passes=1, scope=tracer.request_scope)
    untraced_rps = statistics.median(untraced.pass_request_rates)
    traced_rps = statistics.median(traced.pass_request_rates)
    print(
        f"# traced {traced.attempted} requests, {len(tracer.start)} spans; "
        f"untraced pass {untraced_rps:.4g} req/s"
    )
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    traced.errors = untraced.errors + traced.errors
    return tracing.layer_metrics(tracer, traced_rps, untraced_rps), traced


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
