#!/usr/bin/env python3
"""The xmlift benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload whitehead --seed 1 --seconds 30 --trace 0

Run from the repository root.  The run prints each metric by name and unit,
then, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` measures the
end-to-end metrics of BENCHMARK.json with tracing off; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics.
``--workload all`` runs the three workloads in turn.  ``--smoke`` runs one
round at the smallest size.  WORKLOADS.md says what each workload runs and
why.

Load model: a closed loop with one client, one query at a time, in this
process (``whitehead``, ``construct``) or in one child process at a time
(``cold-cli``).  A run is a sequence of rounds.  Round 0 is the
reference round, the same for every seed; its report bytes give the run's
report digest.  Later rounds draw their inputs from ``--seed``.  A run
measures whole rounds only: an untraced run stops after the round in which
``--seconds`` of query latency are reached; a traced run stops after a
whole traced round.  Every round holds the same mix of query shapes, so
every run measures the same mix, repeated.

Timings are reported at a fixed reference machine speed.  On a shared host
the speed of the CPU a run gets drifts by up to 1.5x within minutes, more
than any bound a benchmark could keep.  So the benchmark times a fixed
calibration kernel (a table scan of its own, see ``calibrate``) before the
first query of a round and after every query, and scales each latency by
``CAL_REF_S`` over the mean of the two kernel times around it; ``setup_s``
is scaled by the median kernel time between its child processes.  A change to xmlift moves the scaled
figures exactly as much as the raw ones, since the kernel runs no xmlift
code.  The run prints the raw figures beside the scaled ones.  The
benchmark and its child processes are pinned to one CPU, so the kernel
times the CPU the queries run on.  The
warm-up pass uses a fixed seed and smaller inputs than any round, so it
cannot pre-fill an input-keyed cache with measured answers.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import algebra, coldcli, construct, whitehead  # noqa: E402
from perfbench.tracer import LAYERS, Tracer  # noqa: E402

WORKLOADS = ("whitehead", "construct", "cold-cli")
IN_PROCESS = {"whitehead": whitehead, "construct": construct}
# fresh interpreters timed per run for the start-up metrics, and for setup_s
REPEATS = 5
SETUP_REPEATS = 11
# The calibration kernel scans this table for associativity (24^3 steps,
# about 1 ms); reported timings are those of a machine on which it takes
# CAL_REF_S seconds.
CAL_TABLE = algebra.cyclic(24)
CAL_REF_S = 0.001


# -- helpers shared with child.py ---------------------------------------------------


def work_dir() -> Path:
    path = ROOT / "perfbench" / "_work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_docs(docs: dict[str, str], work: Path) -> dict[str, Path]:
    paths = {}
    for doc_id, text in docs.items():
        paths[doc_id] = work / f"{doc_id}.xmf"
        paths[doc_id].write_text(text, encoding="utf-8")
    return paths


def argv_of(q, paths) -> list[str]:
    if q.doc is None:
        return list(q.args)
    return ["--fixture", str(paths[q.doc]), "--format", "machine", *q.args]


def warmup_round(workload: str):
    return IN_PROCESS[workload].make_round(random.Random(f"{workload}:warm-up"), "warm", small=True)


def make_round(workload: str, seed: int, r: int, smoke: bool):
    """Round r: round 0 is the seed-independent reference round."""
    rng = random.Random(f"{workload}:reference" if r == 0 else f"{workload}:{seed}:{r}")
    return IN_PROCESS[workload].make_round(rng, f"r{r}", small=smoke, index=0 if r == 0 else seed + r)


# -- measurement --------------------------------------------------------------------------


def pin_to_one_cpu() -> None:
    """Run this process and every child it starts on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def calibrate() -> float:
    """Seconds the calibration kernel takes now."""
    t0 = time.perf_counter()
    if algebra.group_violation(CAL_TABLE) is not None:
        raise AssertionError("calibration table is not a group")
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the kernel times around it."""
    return seconds * CAL_REF_S / ((before + after) / 2)


class Tally:
    """Latencies, answers and the report digest of one run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.scaled: list[float] = []  # untraced latencies at the reference speed
        self.kernel: list[float] = []  # calibration kernel times
        self.traced_latencies: list[float] = []
        self.attempted = self.failed = self.rejects = self.shared = 0
        self.seen_docs: set[str] = set()
        self.digest = hashlib.sha256()
        self.digest_reports = self.digest_bytes = 0
        self.problems: list[str] = []

    def record(self, q, code, text, seconds, *, traced: bool, reference: bool, scaled_s: float = 0.0) -> None:
        if traced:
            self.traced_latencies.append(seconds)
        else:
            self.latencies.append(seconds)
            self.scaled.append(scaled_s)
        self.attempted += 1
        self.rejects += q.reject
        doc = q.doc if q.doc is not None else _fixture_of(q.args)
        if doc is not None:
            self.shared += doc in self.seen_docs
            self.seen_docs.add(doc)
        problem = text if code is None else q.check(code, text)
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{q.label}: {problem}")
        if reference:
            data = text.encode("utf-8")
            self.digest.update(len(data).to_bytes(8, "big") + data)
            self.digest_reports += 1
            self.digest_bytes += len(data)


def _fixture_of(args: list[str]) -> str | None:
    return args[args.index("--fixture") + 1] if "--fixture" in args else None


def call_in_process(cli, argv):
    """(exit code, output, seconds); an exception escaping ``run`` is a failed query."""
    t0 = time.perf_counter()
    try:
        code, text = cli.run(argv)
    except Exception as err:  # a defect in xmlift must not end the run
        return None, f"{type(err).__name__} escaped cli.run: {err}", time.perf_counter() - t0
    return code, text, time.perf_counter() - t0


def median_child_seconds(cmd: list[str], repeats: int, **kw) -> float:
    return statistics.median(child_seconds(cmd, repeats, **kw))


def child_seconds(cmd: list[str], repeats: int, **kw) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, capture_output=True, check=True, **kw)
        times.append(time.perf_counter() - t0)
    return times


def setup_seconds(workload: str, repeats: int) -> tuple[float, float]:
    """Median over fresh interpreters of ``import xmlift`` plus the warm-up
    pass: (raw, scaled to the reference speed) seconds.

    In ``cold-cli`` every call pays its own set-up; there it is a fresh
    interpreter importing ``xmlift.cli``.  The first kernel run after a
    child exits is often slow, so the scale comes from the median of three
    kernel runs between each two children.
    """
    env = coldcli.child_env(ROOT)
    raw, kernel = [], []
    for _ in range(repeats):
        kernel += [calibrate() for _ in range(3)]
        if workload == "cold-cli":
            [t] = child_seconds([sys.executable, "-c", "import xmlift.cli"], 1, cwd=ROOT, env=env)
        else:
            out = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "child.py"), "setup", workload],
                cwd=ROOT, env=env, capture_output=True, text=True, check=True,
            )
            t = float(out.stdout.strip().splitlines()[-1])
        raw.append(t)
    kernel += [calibrate() for _ in range(3)]
    setup_s = statistics.median(raw)
    return setup_s, setup_s * CAL_REF_S / statistics.median(kernel)


def startup_metrics(repeats: int) -> dict[str, float]:
    """Bare interpreter start-up and ``import xmlift`` (from -X importtime), in ms."""
    env = coldcli.child_env(ROOT)
    python_ms = 1000 * median_child_seconds([sys.executable, "-c", "pass"], repeats, cwd=ROOT, env=env)
    imports = []
    for _ in range(repeats):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import xmlift"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        ).stderr
        for line in err.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "xmlift":
                imports.append(int(fields[1]) / 1000)
    return {"startup.python_ms": python_ms, "import.xmlift_ms": statistics.median(imports)}


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Run rounds until ``seconds`` are measured; returns (tally, tracer, rounds).

    A traced run alternates untraced and traced rounds and ends after a
    whole traced round, so per-layer totals cover whole rounds.
    """
    tally, tracer = Tally(), Tracer()
    work = work_dir()
    cli = None
    try:
        if workload in IN_PROCESS:
            sys.path.insert(0, str(ROOT / "src"))
            cli = importlib.import_module("xmlift.cli")
            docs, queries = warmup_round(workload)
            paths = write_docs(docs, work)
            for q in queries:
                code, text, _ = call_in_process(cli, argv_of(q, paths))
                problem = text if code is None else q.check(code, text)
                if problem is not None:
                    tally.problems.append(f"warm-up {q.label}: {problem}")
        start = time.perf_counter()
        r = 0
        done = False
        while not done:
            traced = trace and r % 2 == 1
            if workload in IN_PROCESS:
                docs, queries = make_round(workload, seed, r, smoke)
                paths = write_docs(docs, work)
            else:
                queries, paths = coldcli.make_round(ROOT), {}
            gc.collect()
            if not traced:
                before = calibrate()
                tally.kernel.append(before)
            if traced and cli is not None:
                tracer.install()
            for q in queries:
                tracer.query += 1
                if cli is not None:
                    code, text, dt = call_in_process(cli, argv_of(q, paths))
                else:
                    code, text, dt, child = coldcli.run_child(ROOT, argv_of(q, paths), traced)
                    if child is not None:
                        tracer.merge(child["names"], child["spans"], child["counters"], tracer.query)
                if traced:
                    tally.record(q, code, text, dt, traced=True, reference=r == 0)
                else:
                    after = calibrate()
                    tally.record(q, code, text, dt, traced=False, reference=r == 0,
                                 scaled_s=scaled(dt, before, after))
                    before = after
                    tally.kernel.append(after)
            tracer.uninstall()
            r += 1
            if smoke:
                done = r >= (2 if trace else 1)
            elif trace:
                done = r % 2 == 0 and time.perf_counter() - start >= seconds
            elif sum(tally.latencies) >= seconds:
                done = True
        return tally, tracer, r
    finally:
        shutil.rmtree(work, ignore_errors=True)


# -- metrics --------------------------------------------------------------------------------


def end_to_end(workload: str, tally: Tally, setup_s: float) -> dict[str, tuple[float, str]]:
    """The BENCHMARK.json end-to-end metrics, timings at the reference speed."""
    lat = tally.scaled
    p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]
    if workload == "cold-cli":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "qps": ((tally.attempted - tally.failed) / sum(lat), "1/s"),
        "query_p50_ms": (1000 * statistics.median(lat), "ms"),
        "query_p90_ms": (1000 * p90, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tracer: Tracer, tally: Tally, traced_rounds: int, startup: dict) -> dict[str, tuple[float, str]]:
    """Per-layer totals divided by the number of traced rounds (one round = one pass)."""
    totals = tracer.totals()
    out: dict[str, tuple[float, str]] = {}
    for name in PER_LAYER:
        value = totals.get(name, 0.0) / traced_rounds
        out[name] = (value, _unit(name))
    elems = totals.get("derivations.elements", 0.0)
    calls = totals.get("derivations.make_derivation.calls", 0.0)
    out["derivations.validations_per_element"] = (calls / elems if elems else 0.0, "ratio")
    for name, value in startup.items():
        out[name] = (value, "ms")
    untraced = sum(tally.latencies) / len(tally.latencies)
    traced = sum(tally.traced_latencies) / len(tally.traced_latencies)
    out["trace.overhead_ratio"] = (traced / untraced, "ratio")
    return out


def _unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith(".cells"):
        return "cells"
    if name == "report.bytes":
        return "bytes"
    return "count"


# Per-layer metrics that come straight from the tracer's totals; the rest
# (validations_per_element, start-up, overhead) are derived above.
PER_LAYER = [f"{layer}.{key}" for layer in LAYERS for key in ("self_s", "calls", "errors")] + [
    "groups.make_group.self_s", "groups.make_group.cells", "groups.make_hom.self_s",
    "groups.make_action.self_s", "xmod.make_crossed_module.self_s",
    "groups.subgroups.self_s", "groups.closure.calls", "groups.enumerate_homs.self_s",
    "groups.enumerate_homs.found", "groups.automorphism_group.self_s", "groups.quotient.self_s",
    "groups.pullback_group.self_s", "lifting.enumerate_liftings.self_s",
    "lifting.lift_morphism.self_s", "lifting.make_lifting.calls", "xmod.make_morphism.self_s",
    "homotopy.make_homotopy.self_s",
    "derivations.enumerate_derivations.self_s", "derivations.make_derivation.calls",
    "derivations.make_derivation.self_s", "derivations.whitehead_compose.self_s",
    "derivations.elements",
    "groupoid.make_groupoid.self_s", "groupoid.make_group_groupoid.self_s",
    "groupoid.make_gg_action.self_s", "groupoid.action_groupoid.self_s",
    "groupoid.pullback_action.self_s",
    "fixturefile.parse_fixture.self_s", "fixturefile.declarations", "report.bytes",
    "cli.run.self_s",
]


def run_all(args) -> int:
    """Every workload in turn, each in its own process so peak RSS stays its own.

    The last line merges the results, with metric names prefixed by workload.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd + (["--smoke"] if args.smoke else []), capture_output=True, text=True)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            return out.returncode
        *lines, last = out.stdout.strip().splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round at the smallest size")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/xmlift/cli.py", "fixtures", "tests/regen_goldens.py", "tests/golden") if not (ROOT / p).exists()]
    if missing:
        print(f"benchmark needs the xmlift sources; missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)
    pin_to_one_cpu()
    if args.trace:
        startup = startup_metrics(1 if args.smoke else REPEATS)
    else:
        raw_setup_s, setup_s = setup_seconds(args.workload, 1 if args.smoke else SETUP_REPEATS)
    tally, tracer, rounds = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    if args.trace:
        spans = ROOT / "perfbench" / "_work" / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.dump(spans)
        metrics = per_layer(tracer, tally, rounds // 2, startup)
    else:
        metrics = end_to_end(args.workload, tally, setup_s)

    n = tally.attempted
    for problem in tally.problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"xmlift benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        print(f"rounds {rounds} ({rounds // 2} traced), queries {n}")
    else:
        print(f"rounds {rounds}, queries {n} = latency samples ({n // 10} beyond p90)")
    print(f"error_rate {tally.failed / n} ({tally.failed} failed of {n} attempted)")
    print(f"shared_input_share {tally.shared / n} ({tally.shared} of {n}),"
          f" reject_share {tally.rejects / n} ({tally.rejects} of {n})")
    print(f"report_digest sha256:{tally.digest.hexdigest()} over {tally.digest_reports} reports,"
          f" {tally.digest_bytes} bytes (round 0, the same for every seed)")
    if args.trace:
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        lat = tally.latencies
        print(f"unscaled: qps {len(lat) / sum(lat)} 1/s, p50 {1000 * statistics.median(lat)} ms,"
              f" p90 {1000 * statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else 0.0} ms"
              f" over all queries; setup {raw_setup_s} s; the calibration kernel ran at"
              f" {CAL_REF_S / statistics.median(tally.kernel)} of the reference speed")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    correct = not tally.problems
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
