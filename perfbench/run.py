#!/usr/bin/env python3
"""Layered benchmark for zeqr, driving the real command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload batch-large-corpus --seed 1 \
        --seconds 10 --trace 0

Each `zeqr index`, `zeqr run`, `zeqr eval` and `zeqr repl` is its own child
process, so interpreter start and imports are counted. Load is closed-loop
from this one benchmark process; the only other process is the loopback reader
service of the remote-reader workloads. Inputs come from --seed alone.

Workloads:
  batch-remote-reader  3000 docs, 200 turns, 10 judgments per query; `zeqr
                       run` asks the loopback reader service, which sleeps
                       a fixed 10 ms per request. Reader round trips
                       dominate a turn.
  batch-large-corpus   20000 docs, 300 turns, 50 judgments per query; an
                       in-process oracle reader, so index build, IDF,
                       BM25 search and evaluate_run dominate.
  repl-remote-reader   one user typing 150 turns into `zeqr repl` over
                       pipes, with `:reset` between sessions; each turn's
                       context holds the previous turn's top hit, so turns
                       cannot be batched.

A run repeats whole cycles of its measured steps a fixed number of times
(see WORKLOADS), then until --seconds have passed, and reports medians.
--trace 0 prints the end-to-end metrics; --trace 1 does every step untraced
and traced and prints the per-layer metrics, with the tracing overhead as
traced minus untraced. Every step's output passes the correctness gate
(perfbench/gate.py), or the benchmark exits 1 without printing metrics.
Lines before the last describe the machine, the inputs and every metric
with its unit and sample count; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from gate import (BatchOutput, BruteForceBM25, GateError, check_batch, check_eval,  # noqa: E402
                  check_repl, parse_repl_turn, read_qrels, read_run)
from generate import Sizes, generate  # noqa: E402
from layers import (OVERHEAD, TABLE_ONLY, LayerTotals, layer_metrics,  # noqa: E402
                    metric_units, note, percentile)

ZEQR_MAIN = "import sys; from zeqr.cli import main; sys.exit(main())"
# Pinned so the brute-force reference and the workload do not follow a
# change of zeqr's defaults.
PIPELINE_FLAGS = ["--idf-threshold", "2.65", "--bm25-k1", "0.9", "--bm25-b", "0.4"]
K1, B = 0.9, 0.4
RUN_DEPTH = 100
REPL_DEPTH = 5
# The generated sessions put a pronoun in 3 of 5 turns and a bare noun in
# 3 of 5; fewer means the generator no longer exercises both rewrite steps.
COREF_FLOOR = 0.4
OMISSION_FLOOR = 0.4
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """A step of the workload could not run."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "batch" or "repl"
    reader: str  # "remote" or "oracle"
    sizes: Sizes
    service_ms: float
    # Least number of untraced cycles in a run. A batch cycle is `zeqr index`,
    # `zeqr run` and `zeqr eval`; a REPL cycle is one session over every topic
    # and `zeqr eval`. Medians over several cycles keep a run steady on a
    # machine with noisy neighbours.
    cycles: int


WORKLOADS = {
    w.name: w for w in (
        Workload("batch-remote-reader", "batch", "remote",
                 Sizes(docs=3000, sessions=40, judgments=10), 10.0, 3),
        Workload("batch-large-corpus", "batch", "oracle",
                 Sizes(docs=20000, sessions=60, judgments=50), 0.0, 3),
        Workload("repl-remote-reader", "repl", "remote",
                 Sizes(docs=3000, sessions=30, judgments=10), 10.0, 3),
    )
}
# For the benchmark's own tests: seconds per workload, no service sleep.
SMOKE_SIZES = Sizes(docs=300, sessions=4, judgments=10)


def smoke(workload: Workload) -> Workload:
    return Workload(workload.name, workload.kind, workload.reader, SMOKE_SIZES, 0.0, 1)


def child_env(**extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZEQR_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


@dataclass
class Child:
    returncode: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def _wait(proc: subprocess.Popen) -> tuple[int, float]:
    """Reap proc, killing it after CHILD_TIMEOUT_S; return (code, ru_maxrss MB)."""
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class Runner:
    """Starts zeqr commands, traced through perfbench/launch.py or not."""

    def __init__(self, work: Path):
        self.work = work
        self.spans: list[Path] = []
        self._count = 0

    def command(self, traced: bool) -> list[str]:
        self._count += 1
        if not traced:
            return [sys.executable, "-c", ZEQR_MAIN]
        spans = self.work / f"spans-{self._count}.json"
        self.spans.append(spans)
        return [sys.executable, str(HERE / "launch.py"), str(spans)]

    def zeqr(self, args: list[str], traced: bool = False) -> Child:
        cmd = self.command(traced) + [str(a) for a in args]
        out_path = self.work / f"child-{self._count}.out"
        err_path = self.work / f"child-{self._count}.err"
        with out_path.open("w") as out, err_path.open("w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=child_env(), cwd=self.work)
            code, rss = _wait(proc)
            wall = time.perf_counter() - start
        child = Child(code, wall, rss, out_path.read_text(), err_path.read_text())
        if code not in (0, 1):
            raise BenchError(f"zeqr {args[0]} exited {code}: {child.stderr[-2000:]}")
        return child


class ReaderService:
    """The loopback reader service process (perfbench/reader_service.py)."""

    def __init__(self, answers: Path, service_ms: float, work: Path):
        self._log = (work / "service.err").open("w")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "reader_service.py"), str(answers), str(service_ms)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=self._log,
            env=child_env(), cwd=work)
        ready, _, _ = select.select([self.proc.stdout], [], [], 30)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("port "):
            self.close()
            raise BenchError("reader service did not start")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as response:
            return json.load(response)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


@dataclass
class Samples:
    """End-to-end samples of one mode (traced or untraced)."""

    setup_s: list = field(default_factory=list)
    turns_per_s: list = field(default_factory=list)
    eval_s: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    turn_latency_s: list = field(default_factory=list)
    services: list = field(default_factory=list)


@dataclass
class Context:
    workload: Workload
    seed: int
    seconds: float
    trace: bool
    work: Path
    inputs: object = None
    runner: Runner = None
    service: ReaderService | None = None
    reference: BruteForceBM25 = None
    qrels: dict = None
    ndcg_at_5: float | None = None
    attempted: int = 0
    failed: int = 0
    samples: dict = field(default_factory=lambda: {False: Samples(), True: Samples()})
    local_spans: list = field(default_factory=list)

    @property
    def modes(self) -> tuple[bool, ...]:
        return (False, True) if self.trace else (False,)

    @property
    def reader_spec(self) -> str:
        if self.workload.reader == "remote":
            return f"remote:{self.service.url}"
        return f"oracle:{self.inputs.oracle}"

    @property
    def index_dir(self) -> Path:
        return self.work / "index"

    @property
    def run_path(self) -> Path:
        return self.work / "run.trec"

    @property
    def traces_path(self) -> Path:
        return self.work / "traces.jsonl"


def census(ctx: Context) -> dict:
    """Untimed check that the topics carry both ambiguity kinds.

    Runs after the measured steps, on the IDF cache `zeqr index` wrote.
    """
    child = ctx.runner.zeqr(["census", "--topics", ctx.inputs.topics,
                             "--idf-cache", ctx.index_dir / "idf.tsv", *PIPELINE_FLAGS])
    counts = dict(re.findall(r"^(coreference|omission)\t(\d+)$", child.stdout, re.M))
    turns = ctx.inputs.num_turns
    shares = {k: int(counts.get(k, 0)) / turns for k in ("coreference", "omission")}
    if shares["coreference"] < COREF_FLOOR or shares["omission"] < OMISSION_FLOOR:
        raise GateError(f"census shares {shares} below floors "
                        f"{COREF_FLOOR}/{OMISSION_FLOOR}")
    return shares


def index(ctx: Context, traced: bool) -> Child:
    child = ctx.runner.zeqr(["index", "--collection", ctx.inputs.collection,
                             "--out", ctx.index_dir], traced)
    if child.returncode:
        raise BenchError(f"zeqr index failed: {child.stderr[-2000:]}")
    return child


def evaluate(ctx: Context, traced: bool) -> Child:
    child = ctx.runner.zeqr(["eval", "--run", ctx.run_path, "--qrels", ctx.inputs.qrels],
                            traced)
    if child.returncode:
        raise BenchError(f"zeqr eval failed: {child.stderr[-2000:]}")
    return child


def expected_ids(ctx: Context) -> set[str]:
    return {f"{sid}_{t}" for sid, turns in ctx.inputs.sessions
            for t in range(1, len(turns) + 1)}


def cycles(ctx: Context):
    """Yield once per cycle: the workload's cycles, then until --seconds pass.

    A traced run does each step untraced and traced, so it halves the cycles.
    """
    least = (ctx.workload.cycles + 1) // 2 if ctx.trace else ctx.workload.cycles
    start = time.perf_counter()
    done = 0
    while done < least or time.perf_counter() - start < ctx.seconds:
        yield
        done += 1


def gate_eval(ctx: Context, ev: Child, first: dict, check) -> None:
    """Gate the first eval output with `check`; later ones must equal it."""
    if "eval" not in first:
        ctx.ndcg_at_5 = check(ev.stdout)
        first["eval"] = ev.stdout
    elif ev.stdout != first["eval"]:
        raise GateError("eval output differs from the first gated one")


def batch_run(ctx: Context, traced: bool, first: dict) -> None:
    """One `zeqr run`; its outputs must equal the first run's."""
    samples = ctx.samples[traced]
    before = ctx.service.stats() if ctx.service else None
    run = ctx.runner.zeqr(["run", "--index", ctx.index_dir, "--topics", ctx.inputs.topics,
                           "--collection", ctx.inputs.collection, "--reader", ctx.reader_spec,
                           "--mode", "full", "-k", RUN_DEPTH, "--out", ctx.run_path,
                           "--traces", ctx.traces_path, *PIPELINE_FLAGS], traced)
    if ctx.service:
        samples.services.append(_delta(before, ctx.service.stats()))
    ran = re.search(r"ran (\d+)/(\d+) turns", run.stdout)
    if ran is None:
        raise BenchError(f"zeqr run printed no summary: {run.stderr[-2000:]}")
    completed, attempted = int(ran.group(1)), int(ran.group(2))
    outputs = (ctx.run_path.read_bytes(), ctx.traces_path.read_bytes(), attempted - completed)
    if first.setdefault("run", outputs) != outputs:
        raise GateError("run or trace output differs from the first run's")
    ctx.attempted += attempted
    ctx.failed += attempted - completed
    samples.turns_per_s.append(completed / run.wall_s)
    samples.rss_mb.append(run.rss_mb)


def run_batch(ctx: Context) -> None:
    first: dict = {}

    def check(eval_stdout: str) -> float:
        out = BatchOutput(ctx.run_path, ctx.traces_path, eval_stdout, first["run"][2])
        return check_batch(out, expected_ids(ctx), ctx.qrels, ctx.reference, RUN_DEPTH,
                           ctx.seed)

    for _ in cycles(ctx):
        for traced in ctx.modes:
            samples = ctx.samples[traced]
            child = index(ctx, traced)
            samples.setup_s.append(child.wall_s)
            samples.rss_mb.append(child.rss_mb)
            batch_run(ctx, traced, first)
            ev = evaluate(ctx, traced)
            gate_eval(ctx, ev, first, check)
            samples.eval_s.append(ev.wall_s)
            samples.rss_mb.append(ev.rss_mb)


class PromptReader:
    """Reads a REPL's merged output up to its next `> ` prompt."""

    def __init__(self, proc: subprocess.Popen):
        self.proc = proc
        self.fd = proc.stdout.fileno()

    def until_prompt(self, timeout: float = 60.0) -> str:
        data = b""
        deadline = time.monotonic() + timeout
        while not (data.endswith(b"\n> ") or data == b"> "):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.fd], [], [], max(remaining, 0))
            if not ready:
                raise BenchError(f"REPL gave no prompt within {timeout}s: {data[-500:]!r}")
            chunk = os.read(self.fd, 65536)
            if not chunk:
                raise BenchError(f"REPL exited: {data[-2000:]!r}")
            data += chunk
        return data[:-2].decode("utf-8")


def repl_session(ctx: Context, traced: bool, sessions) -> tuple[list, list]:
    """Type every session into one `zeqr repl`; return (turns, transcript)."""
    samples = ctx.samples[traced]
    cmd = ctx.runner.command(traced) + [
        "repl", "--collection", str(ctx.inputs.collection), "--index", str(ctx.index_dir),
        "--reader", ctx.reader_spec, "-k", str(REPL_DEPTH), *PIPELINE_FLAGS]
    before = ctx.service.stats() if ctx.service else None
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, env=child_env(PYTHONUNBUFFERED="1"),
                            cwd=ctx.work)
    turns, transcript, latencies = [], [], []
    try:
        reader = PromptReader(proc)
        reader.until_prompt()
        setup = time.perf_counter() - start
        for session in sessions:
            for turn in session.turns:
                line = (turn.raw_query + "\n").encode()
                sent = time.perf_counter()
                proc.stdin.write(line)
                proc.stdin.flush()
                text = reader.until_prompt()
                latencies.append(time.perf_counter() - sent)
                turns.append(parse_repl_turn(f"{session.session_id}_{turn.turn_id}", text))
                transcript.append(text)
            proc.stdin.write(b":reset\n")
            proc.stdin.flush()
            reader.until_prompt()
        proc.stdin.write(b":quit\n")
        proc.stdin.close()
        _, rss = _wait(proc)
    finally:
        if proc.returncode is None:
            proc.kill()
            _wait(proc)
        proc.stdin.close()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"zeqr repl exited {proc.returncode}")
    if ctx.service:
        samples.services.append(_delta(before, ctx.service.stats()))
    samples.setup_s.append(setup)
    samples.rss_mb.append(rss)
    samples.turn_latency_s += latencies
    samples.turns_per_s.append(len(latencies) / sum(latencies))
    return turns, transcript


def repl_cycle(ctx: Context, traced: bool, first: dict) -> None:
    """One REPL session over every topic, its rankings written as a run file.

    This process reads the topics and writes the run file through zeqr's own
    functions, which the in-process wrappers time in a traced run.
    """
    import zeqr.ingest
    import zeqr.retrieval

    from tracer import Tracer

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        sessions = zeqr.ingest.load_topics(ctx.inputs.topics)
        turns, transcript = repl_session(ctx, traced, sessions)
        zeqr.retrieval.write_run(
            [zeqr.retrieval.RunResult(t.query_id, tuple(t.ranked), tag="repl")
             for t in turns if t.error is None], ctx.run_path)
    finally:
        if tracer:
            tracer.uninstall()
            ctx.local_spans.append(tracer.spans)
    if "transcript" not in first:
        check_repl(turns, ctx.reference, REPL_DEPTH, ctx.seed)
        first["transcript"] = transcript
    elif transcript != first["transcript"]:
        raise GateError("REPL transcript differs from the first gated session")
    ctx.attempted += len(turns)
    ctx.failed += sum(t.error is not None for t in turns)


def run_repl(ctx: Context) -> None:
    for traced in ctx.modes:
        ctx.samples[traced].rss_mb.append(index(ctx, traced).rss_mb)
    first: dict = {}

    def check(eval_stdout: str) -> float:
        return check_eval(eval_stdout, read_run(ctx.run_path), ctx.qrels)

    for _ in cycles(ctx):
        for traced in ctx.modes:
            repl_cycle(ctx, traced, first)
            ev = evaluate(ctx, traced)
            gate_eval(ctx, ev, first, check)
            ctx.samples[traced].eval_s.append(ev.wall_s)
            ctx.samples[traced].rss_mb.append(ev.rss_mb)


def end_to_end(ctx: Context, samples: Samples) -> dict[str, tuple[float, int]]:
    """(value, sample count) per metric; medians except where stated."""
    m = {
        "setup_s": (statistics.median(samples.setup_s), len(samples.setup_s)),
        "run_turns_per_s": (statistics.median(samples.turns_per_s), len(samples.turns_per_s)),
        "eval_s": (statistics.median(samples.eval_s), len(samples.eval_s)),
        "peak_rss_mb": (max(samples.rss_mb), len(samples.rss_mb)),
        "ndcg_at_5": (ctx.ndcg_at_5, 1),
    }
    if samples.turn_latency_s:
        n = len(samples.turn_latency_s)
        m["turn_p50_ms"] = (1e3 * percentile(samples.turn_latency_s, 50), n)
        m["turn_p95_ms"] = (1e3 * percentile(samples.turn_latency_s, 95), n)
    m["failed_turn_ratio"] = (ctx.failed / ctx.attempted, ctx.attempted)
    return m


def per_layer(ctx: Context) -> dict[str, float]:
    processes, import_s = [], []
    for path in ctx.runner.spans:
        data = json.loads(path.read_text())
        import_s.append(data["import_s"])
        processes.append((data["command"], LayerTotals.of(data["spans"])))
    processes += [("local", LayerTotals.of(spans)) for spans in ctx.local_spans]
    services = ctx.samples[True].services
    service = ({k: statistics.median_low(s[k] for s in services) for k in services[0]}
               if services else None)
    metrics = layer_metrics(processes, import_s, service, ctx.workload.service_ms)
    untraced = end_to_end(ctx, ctx.samples[False])
    traced = end_to_end(ctx, ctx.samples[True])
    for name in metric_units("per_layer"):
        if name.startswith(OVERHEAD):
            base = name.removeprefix(OVERHEAD)
            metrics[name] = traced[base][0] - untraced[base][0]
    return metrics


def machine_facts(ctx: Context) -> dict:
    import numpy
    import scipy
    import zeqr

    sizes = ctx.workload.sizes
    return {
        "workload": ctx.workload.name, "seed": ctx.seed, "seconds": ctx.seconds,
        "trace": int(ctx.trace), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": getattr(zeqr, "KERNEL_BACKEND", None),
        "docs": sizes.docs, "sessions": sizes.sessions, "turns": sizes.turns,
        "judgments_per_query": sizes.judgments,
        "qrels_lines": ctx.inputs.num_judgments,
        "reader": ctx.workload.reader, "service_ms": ctx.workload.service_ms,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work: Path) -> dict:
    """Run one workload in `work` (created and removed here); return the result."""
    ctx = Context(workload, seed, seconds, trace, work)
    work.mkdir(parents=True)
    try:
        ctx.inputs = generate(work / "inputs", seed, workload.sizes)
        ctx.runner = Runner(work)
        ctx.reference = BruteForceBM25(ctx.inputs.collection, K1, B)
        ctx.qrels = read_qrels(ctx.inputs.qrels)
        if workload.reader == "remote":
            ctx.service = ReaderService(ctx.inputs.oracle, workload.service_ms, work)
        try:
            (run_batch if workload.kind == "batch" else run_repl)(ctx)
        finally:
            if ctx.service:
                ctx.service.close()
        census_shares = census(ctx)
        return {
            "facts": {**machine_facts(ctx), "census": census_shares},
            "end_to_end": end_to_end(ctx, ctx.samples[False]),
            "samples": {k: [round(v, 4) for v in getattr(ctx.samples[False], k)]
                        for k in ("setup_s", "turns_per_s", "eval_s")},
            "per_layer": per_layer(ctx) if trace else None,
            "attempted": ctx.attempted,
            "failed": ctx.failed,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(result: dict) -> str:
    """Human-readable lines, then the one-line JSON result."""
    lines = ["facts " + json.dumps(result["facts"], sort_keys=True),
             "samples " + json.dumps(result["samples"])]
    end_to_end = metric_units("end_to_end")
    units = {**end_to_end, **TABLE_ONLY}
    lines.append(f"{'end-to-end metric':<28} {'unit':<8} {'median':>14} {'samples':>8}")
    for name, (value, count) in result["end_to_end"].items():
        lines.append(f"{name:<28} {units[name]:<8} {value:>14.6g} {count:>8}  {note(name)}")
    if result["per_layer"] is None:
        metrics = {name: {"value": result["end_to_end"][name][0], "unit": unit}
                   for name, unit in end_to_end.items()}
    else:
        lines.append(f"{'per-layer metric':<46} {'unit':<10} {'value':>14}  should move")
        metrics = {}
        for name, unit in metric_units("per_layer").items():
            value = result["per_layer"][name]
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name:<46} {unit:<10} {value:>14.6g}  {note(name)}")
    lines.append(json.dumps({"correct": True, "attempted": result["attempted"],
                             "failed": result["failed"], "metrics": metrics}))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zeqr" / "__init__.py").is_file():
        print(f"error: zeqr sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), work)
    except GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 1
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(report(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
