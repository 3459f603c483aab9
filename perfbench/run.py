"""Pipeline benchmark for docqa.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then repeats the workload's
`docqa` commands (order, serialize, predict, eval, and analyze where the
workload has it) for about S seconds. Each command runs through
`docqa.cli.main(argv)` in a process forked from an interpreter that imported
docqa from the checkout's `src/` (stage.py), so stage times exclude
interpreter start-up; `setup_s` times that separately on fresh interpreters.
After the repetitions the stage files are checked against independent
oracles (checks.py) and must be byte-identical across repetitions. The last
line of stdout is one JSON object with the end-to-end metrics (--trace 0) or
the per-layer metrics (--trace 1).

Times are in reference seconds. On a shared host the CPU speed a process
gets drifts by up to a factor of two, over milliseconds as well as minutes,
so raw wall times of the same work spread too widely between runs to compare
two commits. Next to every command the forked child times a fixed calibration
job (stage.py); the command's CPU time is scaled by CAL_REF_S over that job's
time, and its off-CPU time (waiting on the endpoint or the disk) is added
unscaled. The result is the command's wall time at the speed at which the
calibration job takes CAL_REF_S, which is about what it takes on an idle
2-vCPU cloud VM, so reference seconds are close to wall seconds there.

Where the stage's objects land in memory moves its speed too: the raster
scan of one input in one placement can run 10% faster than in another, and
children forked from the same state always get the same placement. Each
command therefore first allocates a number of small objects, drawn from a
fixed pseudo-random sequence, so the repetitions of a run average over many
placements instead of measuring one placement per seed.

End-to-end metrics: setup_s is the median time from spawning a fresh
interpreter until docqa.cli is imported, scaled by the calibration job timed
in that interpreter. Each step of the plan gets the interquartile mean of its
`main` reference times over the run (a step shorter than MIN_STAGE_S is run
again within a repetition); <stage>_s sums those over the steps of that stage
and pipeline_s over all steps, analyze included. The interquartile mean
ignores a few disturbed runs, as a median does, and averages over more of
them. peak_rss_mb is the median over repetitions of the largest peak RSS of
any stage process. Per-layer figures are raw medians over traced repetitions.
answered_frac is the share of predictions that did not fail: on the mock
workloads it is 1, on http_predict the injected 503s lower it.

With --trace 1 the run alternates untraced and traced repetitions; traced
ones wrap docqa's public functions (tracer.py) and report per-layer times,
counts and self times, plus the tracing overhead.

Workloads: raster_dense, qa_heavy, http_predict (see workloads.py).
Exit codes: 0 when every check passed, 1 when a check failed, 2 when the
checkout holds no docqa sources.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

STAGES = ("order", "serialize", "predict", "eval", "analyze")
STAGE_TIMEOUT_S = 150
# Fewest repetitions a run makes (of each kind, with --trace 1), and fewest
# interpreter start-ups it times for setup_s. Untraced, a stage shorter than
# MIN_STAGE_S runs again (up to MAX_STAGE_RUNS times) within a repetition.
MIN_REPS = 2
MIN_SETUPS = 11
MIN_STAGE_S = 0.15
MAX_STAGE_RUNS = 8
# Each command allocates up to MAX_PAD small objects before it starts.
MAX_PAD = 4096
# Time the calibration job (stage.py) takes at the reference CPU speed.
CAL_REF_S = 0.015

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "order_s": "s",
    "serialize_s": "s",
    "predict_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
    "answered_frac": "ratio",
}

PER_LAYER = {
    "geometry.load_ocr_corpus.s": "s",
    "geometry.load_ocr_corpus.calls": "count",
    "geometry.load_ocr_corpus.words": "count",
    "geometry.load_ocr_corpus.parse_s": "s",
    "geometry.load_ocr_corpus.build_s": "s",
    "ordering.raster_scan_order.s": "s",
    "ordering.raster_scan_order.calls": "count",
    "ordering.raster_scan_order.docs": "count",
    "ordering.raster_scan_order.words": "count",
    "ordering.shuffled_order.s": "s",
    "ordering.load_orders.s": "s",
    "serialize.build_context.s": "s",
    "serialize.truncate_context.s": "s",
    "serialize.truncate_context.truncated": "count",
    "serialize.truncate_context.words_dropped": "count",
    "serialize.build_prompt.s": "s",
    "serialize.build_prompt.chars": "count",
    "serialize.load_contexts.s": "s",
    "datasets.load_qa.s": "s",
    "datasets.load_qa.records": "count",
    "llmclient.predict_batch.s": "s",
    "llmclient.MockBackend.complete.s": "s",
    "llmclient.HTTPBackend.complete.calls": "count",
    "llmclient.HTTPBackend.complete.p50_ms": "ms",
    "llmclient.HTTPBackend.complete.p99_ms": "ms",
    "llmclient.HTTPBackend.complete.failed": "count",
    "llmclient.attempts_per_request": "ratio",
    "llmclient.in_flight_mean": "ratio",
    "metrics.score.s": "s",
    "metrics.score.calls": "count",
    "metrics.levenshtein.s": "s",
    "metrics.levenshtein.calls": "count",
    "analysis.evaluate_rows.self_s": "s",
    "analysis.answer_in_text.s": "s",
    "analysis.answer_in_text.calls": "count",
    "analysis.answer_in_text.chars": "count",
    "analysis.load_predictions.s": "s",
    "analysis.reports.s": "s",
    "jsonl.write_stage_file.s": "s",
    "jsonl.write_stage_file.bytes": "bytes",
    **{f"cli.{stage}.{kind}": "s" for stage in STAGES for kind in ("self_s", "cpu_s")},
    "trace.overhead_frac": "ratio",
}

# Which end-to-end metric each layer should move, and on which workload.
LAYER_MAP = {
    "geometry": "order_s, serialize_s, peak_rss_mb on raster_dense and qa_heavy; "
                "barely on http_predict",
    "ordering": "order_s on raster_dense only (raster scan); qa_heavy and http_predict never run it",
    "serialize": "serialize_s on raster_dense (truncation); predict_s on qa_heavy (prompts)",
    "datasets": "predict_s and eval_s on qa_heavy",
    "llmclient": "predict_s on qa_heavy (mock); predict_s and answered_frac on http_predict",
    "metrics": "eval_s on qa_heavy; almost nothing on raster_dense",
    "analysis": "eval_s and pipeline_s on qa_heavy",
    "jsonl": "every stage on qa_heavy",
    "cli": "the matching <stage>_s; import cost moves setup_s on every workload",
    "trace": "nothing: the cost of tracing itself",
}


@dataclass
class StageRun:
    name: str
    main_s: float
    cpu_s: float
    rss_mb: float
    cal_s: float
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    server: dict | None = None

    @property
    def ref_s(self) -> float:
        """main_s at the reference speed: CPU time scaled, waiting kept."""
        return self.cpu_s * CAL_REF_S / self.cal_s + max(0.0, self.main_s - self.cpu_s)


def _child_env() -> dict:
    env = dict(os.environ)
    # Requests to the local mock must never go through a proxy.
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def _readline(proc: subprocess.Popen, timeout: float, what: str) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline() if ready else ""
    if not line:
        raise checks.CheckError(f"{what} gave no answer within {timeout:.0f} s")
    return line


def _stop(proc: subprocess.Popen) -> None:
    """Stop a helper started in its own session, with anything it forked."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        except ProcessLookupError:
            proc.wait()


class MockEndpoint:
    """The mock completion server, in its own process, for one run."""

    def __init__(self, workdir: Path) -> None:
        self._log = open(workdir / "_logs" / "mock_server.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "mock_server.py")], cwd=workdir,
            stdout=subprocess.PIPE, stderr=self._log, text=True, start_new_session=True,
        )
        try:
            port = _readline(self.proc, 30, "mock server").strip()
        except checks.CheckError:
            self.close()
            raise
        self.base = f"http://127.0.0.1:{port}"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    @property
    def endpoint(self) -> str:
        return f"{self.base}/complete"

    def reset(self) -> None:
        request = urllib.request.Request(f"{self.base}/reset", data=b"{}", method="POST")
        self._opener.open(request, timeout=10).read()

    def stats(self) -> dict:
        return json.load(self._opener.open(f"{self.base}/stats", timeout=10))

    def close(self) -> None:
        _stop(self.proc)
        self.proc.stdout.close()
        self._log.close()


class StageRunner:
    """A `stage.py serve` process that forks one child per docqa command."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.missing: set[str] = set()
        self._layouts = random.Random(0)
        self._log = open(workdir / "_logs" / "stage_server.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stage.py"), "serve"], cwd=workdir,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log, text=True,
            env=_child_env(), start_new_session=True,
        )
        try:
            _readline(self.proc, 60, "stage server")
        except checks.CheckError:
            self.close()
            raise

    def run(self, stage, index: int, traced: bool, server) -> StageRun:
        result_path = self.workdir / "_results" / f"{index}-{stage.name}.json"
        log_path = self.workdir / "_logs" / f"{index}-{stage.name}.log"
        if server is not None and stage.name == "predict":
            server.reset()
        command = {"argv": list(stage.argv), "trace": traced,
                   "result": str(result_path), "log": str(log_path),
                   "pad": self._layouts.randrange(MAX_PAD)}
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        status = json.loads(_readline(self.proc, STAGE_TIMEOUT_S, f"docqa {stage.name}"))
        result = json.loads(result_path.read_text()) if status["status"] == 0 else None
        if result is None or result["code"] not in stage.ok_codes:
            tail = log_path.read_text(errors="replace")[-2000:]
            code = result["code"] if result else f"runner status {status['status']}"
            raise checks.CheckError(f"`docqa {' '.join(stage.argv)}` exited {code}:\n{tail}")
        for name in set(result.get("missing", [])) - self.missing:
            self.missing.add(name)
            print(f"warning: nothing to trace for {name}; its metrics read 0", file=sys.stderr)
        return StageRun(
            name=stage.name,
            main_s=result["end"] - result["start"],
            cpu_s=result["cpu_s"],
            rss_mb=result["maxrss_kb"] / 1024.0,
            cal_s=statistics.fmean(result["cal_s"]),
            spans=result.get("spans", []),
            counters=result.get("counters", {}),
            server=server.stats() if server is not None and stage.name == "predict" else None,
        )

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        _stop(self.proc)
        self.proc.stdout.close()
        self._log.close()


def setup_probe(workdir: Path) -> float:
    """Seconds from spawning a fresh interpreter until docqa.cli is imported,
    at the reference speed."""
    spawned = time.monotonic()
    out = subprocess.run([sys.executable, str(HERE / "stage.py"), "probe"], cwd=workdir,
                         capture_output=True, text=True, timeout=60, env=_child_env())
    if out.returncode != 0:
        raise checks.CheckError(f"importing docqa.cli failed:\n{out.stderr[-2000:]}")
    imported, cal_s = (float(v) for v in out.stdout.split())
    return (imported - spawned) * CAL_REF_S / cal_s


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _interquartile_mean(values) -> float:
    """Mean of the values left after dropping the lowest and highest quarter."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def step_times(reps: list[list[list[StageRun]]]) -> list[tuple[str, float]]:
    """(stage name, interquartile mean of reference times) for each step of the
    plan, over every run of it."""
    return [
        (runs[0].name, _interquartile_mean(r.ref_s for rep in reps for r in rep[step]))
        for step, runs in enumerate(reps[0])
    ]


def end_to_end(reps: list[list[list[StageRun]]], setups: list[float],
               answered_frac: float) -> dict[str, float]:
    steps = step_times(reps)
    metrics = {"setup_s": statistics.median(setups)}
    metrics["pipeline_s"] = sum(t for _, t in steps)
    for stage in ("order", "serialize", "predict", "eval"):
        metrics[f"{stage}_s"] = sum(t for name, t in steps if name == stage)
    metrics["peak_rss_mb"] = _median(
        max(r.rss_mb for runs in rep for r in runs) for rep in reps
    )
    metrics["answered_frac"] = answered_frac
    return metrics


def http_latencies_ms(rep: list[StageRun]) -> list[float]:
    return [1000.0 * (end - start) for stage in rep for _, _, name, start, end in stage.spans
            if name == "llmclient.HTTPBackend.complete"]


def layer_metrics(rep: list[StageRun]) -> dict[str, float]:
    """Per-layer figures of one traced repetition, except latency percentiles."""
    spans: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "calls": 0, "self_s": 0.0})
    counters: dict[str, float] = defaultdict(float)
    for stage in rep:
        for name, entry in tracer.summarize(stage.spans).items():
            for key, value in entry.items():
                spans[name][key] += value
        for name, value in stage.counters.items():
            counters[name] += value

    def s(name):
        return spans[name]["s"] if name in spans else 0.0

    def calls(name):
        return spans[name]["calls"] if name in spans else 0

    m = {name: 0.0 for name in PER_LAYER}
    m.update(counters)
    m["geometry.load_ocr_corpus.s"] = s("geometry.load_ocr_corpus")
    m["geometry.load_ocr_corpus.calls"] = calls("geometry.load_ocr_corpus")
    m["geometry.load_ocr_corpus.parse_s"] = s(tracer.PARSE_SPAN)
    m["geometry.load_ocr_corpus.build_s"] = s("geometry.load_ocr_corpus") - s(tracer.PARSE_SPAN)
    for name in ("ordering.raster_scan_order", "ordering.shuffled_order", "ordering.load_orders",
                 "serialize.build_context", "serialize.truncate_context",
                 "serialize.build_prompt", "serialize.load_contexts", "datasets.load_qa",
                 "llmclient.predict_batch", "llmclient.MockBackend.complete",
                 "metrics.score", "metrics.levenshtein", "analysis.answer_in_text",
                 "analysis.load_predictions", "analysis.reports", "jsonl.write_stage_file"):
        m[f"{name}.s"] = s(name)
    for name in ("ordering.raster_scan_order", "metrics.score", "metrics.levenshtein",
                 "analysis.answer_in_text", "llmclient.HTTPBackend.complete"):
        m[f"{name}.calls"] = calls(name)
    served = [stage.server for stage in rep if stage.server]
    answered = sum(st["answered"] for st in served)
    m["llmclient.attempts_per_request"] = (
        sum(st["attempts"] for st in served) / answered if answered else 0.0
    )
    busy = s("llmclient.MockBackend.complete") + s("llmclient.HTTPBackend.complete")
    batch = s("llmclient.predict_batch")
    m["llmclient.in_flight_mean"] = busy / batch if batch else 0.0
    m["analysis.evaluate_rows.self_s"] = (
        spans["analysis.evaluate_rows"]["self_s"] if "analysis.evaluate_rows" in spans else 0.0
    )
    for stage in STAGES:
        name = f"cli.{stage}"
        m[f"{name}.self_s"] = spans[name]["self_s"] if name in spans else 0.0
        m[f"{name}.cpu_s"] = sum(st.cpu_s for st in rep if st.name == stage)
    return {name: m[name] for name in PER_LAYER}


def _answered_frac(workdir: Path, plan) -> float:
    attempted = failed = 0
    for stage in plan:
        if stage.name == "predict":
            _, rows = checks.read_jsonl(workdir / stage.output)
            attempted += len(rows)
            failed += sum(1 for row in rows if "error" in row)
    return (attempted - failed) / attempted


def run(workload: str, seed: int, seconds: float, trace: bool,
        shape: workloads.Shape | None = None, keep: Path | None = None) -> dict:
    """Run one workload; return the result object the benchmark prints."""
    shape = shape or workloads.SHAPES[workload]
    workdir = keep or ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    for sub in ("_results", "_logs"):
        (workdir / sub).mkdir(parents=True)
    server = runner = None
    attempted = 0
    outcome = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        inputs = workloads.generate(workload, seed, shape, workdir)
        if workload == "http_predict":
            server = MockEndpoint(workdir)
        runner = StageRunner(workdir)
        plan = workloads.stage_plan(workload, seed, server.endpoint if server else None)
        outputs = [stage.output for stage in plan]
        plain: list[list[list[StageRun]]] = []
        traced: list[list[list[StageRun]]] = []
        setups: list[float] = []
        reference = None
        started = time.monotonic()
        while True:
            with_trace = trace and len(plain) > len(traced)
            if not trace:
                setups.append(setup_probe(workdir))
            rep = []
            for index, stage in enumerate(plan):
                runs = []
                while not runs or (not with_trace and len(runs) < MAX_STAGE_RUNS
                                   and sum(r.main_s for r in runs) < MIN_STAGE_S):
                    attempted += 1
                    runs.append(runner.run(stage, index, with_trace, server))
                rep.append(runs)
            (traced if with_trace else plain).append(rep)
            digests = checks.digest_files(workdir, outputs)
            if reference is None:
                reference = digests
            elif digests != reference:
                changed = sorted(k for k in digests if digests[k] != reference[k])
                raise checks.CheckError(f"stage files differ between repetitions: {changed}")
            done = len(plain) + len(traced)
            elapsed = time.monotonic() - started
            enough = len(plain) >= MIN_REPS and (not trace or len(traced) >= MIN_REPS)
            if enough and elapsed * (done + 1) / done > seconds:
                break
        while not trace and len(setups) < MIN_SETUPS:
            setups.append(setup_probe(workdir))
        aggregates = checks.check_workload(workdir, plan, inputs, shape.budget,
                                           workloads.ANLS_TAU, workloads.DATASET, seed)
        if trace:
            traced = [[runs[0] for runs in rep] for rep in traced]
            per_rep = [layer_metrics(rep) for rep in traced]
            metrics = {name: _median(r[name] for r in per_rep) for name in PER_LAYER}
            # Percentiles pool every traced repetition, so p99 has at least
            # ten samples beyond it.
            latencies = [ms for rep in traced for ms in http_latencies_ms(rep)]
            metrics["llmclient.HTTPBackend.complete.p50_ms"] = _percentile(latencies, 50)
            metrics["llmclient.HTTPBackend.complete.p99_ms"] = _percentile(latencies, 99)
            plain_main = sum(t for _, t in step_times(plain))
            traced_main = statistics.median(sum(s.ref_s for s in rep) for rep in traced)
            metrics["trace.overhead_frac"] = traced_main / plain_main - 1.0
            units = PER_LAYER
        else:
            metrics = end_to_end(plain, setups, _answered_frac(workdir, plan))
            units = END_TO_END
        outcome.update(
            correct=True,
            metrics={name: {"value": metrics[name], "unit": units[name]} for name in units},
            repetitions={"untraced": len(plain), "traced": len(traced)},
            anls=aggregates,
        )
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        outcome["failed"] = 1
    finally:
        if runner is not None:
            runner.close()
        if server is not None:
            server.close()
        if keep is None:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                workdir.parent.rmdir()
            except OSError:
                pass
    outcome["attempted"] = max(attempted, 1)
    return outcome


def _report(workload: str, outcome: dict, trace: bool) -> None:
    print(f"workload {workload}: repetitions {outcome.get('repetitions')}, "
          f"ANLS by arm {outcome.get('anls')}")
    layer = None
    for name, entry in outcome["metrics"].items():
        prefix = name.split(".")[0]
        if trace and prefix != layer:
            layer = prefix
            print(f"[{layer}] moves {LAYER_MAP.get(layer, '?')}")
        print(f"  {name:45s} {entry['value']:>14.6g} {entry['unit']}")


def _terminate(signum, frame) -> None:
    # Unwind through run()'s cleanup, which stops the helper processes.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "docqa" / "cli.py").is_file():
        print(f"no docqa sources under {ROOT / 'src'}; run from a docqa checkout",
              file=sys.stderr)
        return 2
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if outcome["correct"]:
        _report(args.workload, outcome, bool(args.trace))
    print(json.dumps({key: outcome[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
