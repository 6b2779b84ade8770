"""conexa benchmark: seeded CLI workloads, end-to-end batch metrics, traced layers.

    python3 benchmarks/run.py --workload states --seed 1 --seconds 16 --trace 0

Run from the repository root or anywhere else; the program is imported from
`src/` next to this directory.  One process serves one workload as a single
closed-loop client: items run one after another through `conexa.cli.main`
with standard output captured.  The workload's fixed corpus is run in whole
passes, as many as fill `--seconds` at the reference speed (see
`corpus.Corpus.pass_s`).

With `--trace 0` the last stdout line carries the end-to-end metrics named in
BENCHMARK.json; with `--trace 1` it carries the per-layer metrics, measured by
alternating untraced and traced passes, after a self-test of the tracer.  The
lines before it print every metric with its unit, the run conditions, the
input digest and a digest of the reports.  Every report is checked after
timing; a nonzero exit or a failed check counts the item as failed.  Timings
are scaled to a reference host speed by the probe in `calibrate.py`; the
values as measured are printed beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 8
# Ratio metrics: hits of a layer over its calls, which are reported as <layer>.calls.
RATIOS = {
    "quantum.partial_contract.hit_ratio": "quantum.partial_contract",
    "disentangle.certified_ratio": "disentangle.classify_on_subset",
    "density.ppt_necessary_ratio": "density.is_completely_entangled_on",
}
SELF_TEST_PROBES = [
    ["analyze-state", "--builtin", "GHZ", "--seed", "1"],
    ["analyze-device", "--builtin", "K"],
    ["derive-device", "--builtin-state", "K", "--menus", "Xp,Zp", "--recode", "paper"],
    ["analyze-density", "--builtin", "O2"],
    ["analyze-rvs", "--file", "@selftest-rvs.json"],
]
# (probe, layer) -> calls: the first gates the run; the K-device counts record
# the CLI computing each device layer twice, which a later change may remove.
GATED_COUNTS = {(0, "disentangle.classify_on_subset"): 4}
REPORTED_COUNTS = {(1, "devices.tensorial_structures"): 2, (1, "devices.domanial_structures"): 2}


def _pin_environment() -> None:
    """Serial program: no thread pool, one BLAS thread, set before numpy loads."""
    os.environ.pop("CONEXA_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _resolve(argv: list, workdir: Path) -> list:
    return [str(workdir / a[1:]) if a.startswith("@") else a for a in argv]


def call_cli(cli, argv: list) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed item, not a failed benchmark
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def fresh_setup(argv: list) -> float:
    """Wall time for a new interpreter to import conexa.cli and finish one item."""
    code = "import sys; from conexa import cli; sys.exit(cli.main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up item failed: {proc.stderr.decode()[-500:]}")
    return elapsed


class Runner:
    """Runs corpus passes and keeps every sample and the first pass's reports.

    After each item the host-speed probe (`calibrate.Probe`) runs for a tenth
    of the item's time, so that every execution can be scaled by the speed
    the host gave this process around it."""

    def __init__(self, cli, corpus, workdir: Path):
        from calibrate import Probe

        self.cli = cli
        self.items = corpus.items
        self.argvs = [_resolve(item.argv, workdir) for item in corpus.items]
        self.first = [None] * len(self.items)
        self.samples: list = []  # (item index, seconds, pass index, start, end)
        self.unstable = Counter()  # item index -> executions that failed or differed
        self.pass_spans: list = []  # (start, end) of each pass
        self.pass_walls: list = []  # seconds per pass, probes included
        self.probe = Probe()

    def run_pass(self, tracer=None) -> float:
        """Run every item once; the pass's program time at the reference speed."""
        self.probe.settle()
        start = time.perf_counter()
        index = self.passes
        for i, argv in enumerate(self.argvs):
            if tracer is not None:
                tracer.item = i
            t0 = time.perf_counter()
            code, out, err = call_cli(self.cli, argv)
            t1 = time.perf_counter()
            self.samples.append((i, t1 - t0, index, t0, t1))
            self.probe.owe(t1 - t0)
            if self.first[i] is None:
                self.first[i] = (code, out, err)
            if code != 0 or out != self.first[i][1]:
                self.unstable[i] += 1
        self.probe.settle()
        end = time.perf_counter()
        self.pass_spans.append((start, end))
        self.pass_walls.append(end - start)
        return sum(self.scaled(s) for s in self.samples if s[2] == index)

    def scaled(self, sample) -> float:
        """An execution's seconds at the reference speed."""
        _, seconds, _, t0, t1 = sample
        return seconds * self.probe.speed(t0, t1)

    @property
    def passes(self) -> int:
        return len(self.pass_walls)


def pass_plan(corpus, seconds: float) -> tuple:
    """(passes, deadline): passes that fill `seconds` at the reference speed.
    No pass starts after the deadline, so a much slower host still ends."""
    return max(1, round(seconds / corpus.pass_s)), time.perf_counter() + 4 * seconds


def timed_passes(runner: Runner, plan: tuple, warmup: list) -> list:
    """(seconds, start, end) of each fresh set-up; set-ups run between
    passes, so that their samples spread over the run like the passes do."""
    passes, deadline = plan
    per_pass = -(-SETUP_REPEATS // passes)
    setup_times = []
    while runner.passes < passes and (not runner.passes or time.perf_counter() < deadline):
        for _ in range(per_pass):
            runner.probe.settle()
            t0 = time.perf_counter()
            seconds = fresh_setup(warmup)
            setup_times.append((seconds, t0, time.perf_counter()))
            runner.probe.settle()
        runner.run_pass()
    return setup_times


def check_outputs(cli, runner: Runner, validator) -> tuple:
    """(failed executions, problems by item name)."""
    from checks import check_report

    builtin_devices = {}
    for name in ("GHZ", "K"):
        code, out, _ = call_cli(cli, ["builtin", "--device", name])
        builtin_devices[name] = json.loads(out)["result"]["device"] if code == 0 else None
    executions = Counter(i for i, *_ in runner.samples)
    failed = 0
    problems = {}
    for i, item in enumerate(runner.items):
        code, out, err = runner.first[i]
        if code != 0:
            found = [f"exit {code}: {err.strip()[-300:]}"]
        else:
            try:
                found = check_report(item, json.loads(out), validator, builtin_devices)
            except (ValueError, KeyError, TypeError) as exc:
                found = [f"unreadable report: {exc!r}"]
        failed += executions[i] if found else runner.unstable[i]
        if runner.unstable[i] and code == 0:
            found.append("report changed between passes")
        if found:
            problems[item.name] = found
    return failed, problems


def report_digest(runner: Runner) -> str:
    h = hashlib.sha256()
    for item, (code, out, _) in zip(runner.items, runner.first):
        h.update(f"{item.name}\0{code}\0".encode() + out.encode())
    return h.hexdigest()


def tail(values: list) -> tuple:
    """(value, percentile): the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _timings(corpus, runner: Runner, setup_times: list, scale, setup_scale) -> tuple:
    """Time metrics over every execution; corpus_s sums each item's median."""
    by_item: dict = {}
    for sample in runner.samples:
        by_item.setdefault(sample[0], []).append(scale(sample))
    times = [t for v in by_item.values() for t in v]
    largest = [t for i, v in by_item.items() if runner.items[i].size_class == corpus.largest
               for t in v]
    tail_value, tail_pct = tail(times)
    metrics = {
        "corpus_s": sum(statistics.median(v) for v in by_item.values()),
        "item_p50_s": statistics.median(times),
        "item_tail_s": tail_value,
        "largest_p50_s": statistics.median(largest),
        "setup_s": statistics.median(setup_scale(s) for s in setup_times),
    }
    facts = {"by_item": by_item, "samples": len(times), "largest": len(largest),
             "tail_pct": tail_pct}
    return metrics, facts


def end_to_end(corpus, runner: Runner, setup_times: list) -> tuple:
    """Metrics over every execution, each scaled to the reference speed by the
    probes run next to it, and the same timings as measured."""
    metrics, facts = _timings(corpus, runner, setup_times, runner.scaled,
                              lambda s: s[0] * runner.probe.speed(s[1], s[2]))
    measured, _ = _timings(corpus, runner, setup_times, lambda s: s[1], lambda s: s[0])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    classes: dict = {}
    for i, v in facts["by_item"].items():
        classes.setdefault(runner.items[i].size_class, []).extend(v)
    info = {
        "items": len(runner.items),
        "passes": runner.passes,
        "pass_wall_s": runner.pass_walls,
        "pass_speed": [runner.probe.mean_speed(*span) for span in runner.pass_spans],
        "measured_s": measured,
        "items_per_s": len(runner.items) / metrics["corpus_s"],
        "item_tail": {"percentile": round(facts["tail_pct"], 2), "samples": facts["samples"]},
        "largest_class": {"name": corpus.largest, "samples": facts["largest"]},
        "class_p50_s": {k: {"p50_s": statistics.median(v), "samples": len(v)}
                        for k, v in sorted(classes.items())},
        "setup_runs_s": [s[0] for s in setup_times],
    }
    return metrics, info


def self_test(cli, workdir: Path) -> tuple:
    """Problems with the tracer itself, and the counts it saw on the probes."""
    from tracing import Tracer

    tracer = Tracer()
    argvs = [_resolve(a, workdir) for a in SELF_TEST_PROBES]
    problems = []

    def probes():
        for i, argv in enumerate(argvs):
            tracer.item = i
            code, _, err = call_cli(cli, argv)
            if code != 0:
                problems.append(f"probe {' '.join(SELF_TEST_PROBES[i])} exited {code}: {err[-300:]}")

    with tracer:
        profiled = tracer.profile_counts(probes)
    first = tracer.calls_by_item()
    spanned = Counter(name for name, *_ in tracer.spans)
    escaped = {name: profiled[name] - spanned[name]
               for name in profiled if profiled[name] != spanned[name]}
    if escaped:
        problems.append(f"calls escaped their spans: {escaped}")
    tracer.reset()
    with tracer:
        probes()
    if tracer.calls_by_item() != first:
        problems.append("probe call counts differ between two runs")
    for key, expected in GATED_COUNTS.items():
        if first.get(key, 0) != expected:
            problems.append(f"{key[1]} on probe {key[0]}: {first.get(key, 0)} calls, expected {expected}")
    known = {f"{' '.join(SELF_TEST_PROBES[p])} | {layer}.calls": {"seen": first.get((p, layer), 0),
                                                                  "at_baseline": n}
             for (p, layer), n in {**GATED_COUNTS, **REPORTED_COUNTS}.items()}
    return problems, known


def traced_passes(runner: Runner, plan: tuple, spans_path: Path) -> tuple:
    """Alternate untraced and traced passes; per-layer medians and run facts.
    Self times are scaled to the reference speed like the pass they ran in."""
    from tracing import Tracer, median_layers

    passes, deadline = plan
    tracer = Tracer()
    untraced, traced, layer_passes, problems = [], [], [], []
    while len(traced) < max(1, passes // 2) and (not traced or time.perf_counter() < deadline):
        untraced.append(runner.run_pass())
        tracer.reset()
        with tracer:
            traced.append(runner.run_pass(tracer))
        layers = tracer.aggregate()
        for entry in layers.values():
            entry["self_s"] *= runner.probe.mean_speed(*runner.pass_spans[-1])
        layer_passes.append(layers)
    counts = [{k: (v["calls"], v["hits"]) for k, v in p.items()} for p in layer_passes]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced passes")
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)
    layers = median_layers(layer_passes)
    facts = {
        "traced_corpus_s": statistics.median(traced),
        "untraced_corpus_s": statistics.median(untraced),
        "overhead_s": statistics.median(traced) - statistics.median(untraced),
        "pass_speed": [runner.probe.mean_speed(*span) for span in runner.pass_spans],
        "present": set(tracer.names.values()),
    }
    return layers, facts, problems


def per_layer(declared: list, runner: Runner, layers: dict, facts: dict) -> tuple:
    """Values of the declared per-layer metrics; layers the program lacks read 0."""
    device_items = sum(1 for item in runner.items if item.argv[0] == "analyze-device")
    values, absent = {}, []
    for name in declared:
        if name == "trace.overhead_s":
            values[name] = facts["overhead_s"]
            continue
        if name in RATIOS:
            entry = layers.get(RATIOS[name], {"calls": 0, "hits": 0})
            values[name] = entry["hits"] / entry["calls"] if entry["calls"] else 0.0
            continue
        layer, field = name.rsplit(".", 1)
        if layer not in facts["present"]:
            absent.append(layer)
        entry = layers.get(layer, {"calls": 0, "self_s": 0.0})
        if field == "calls_per_item":
            values[name] = entry["calls"] / device_items if device_items else 0.0
        else:
            values[name] = entry[field]
    return values, sorted(set(absent))


def conditions() -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "process": "one per workload, one closed-loop client, no threads",
        "CONEXA_THREADS": os.environ.get("CONEXA_THREADS", "unset"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    from corpus import WORKLOADS, brunnian_family, build

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "conexa" / "cli.py").is_file():
        print(f"error: no conexa sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    _pin_environment()
    sys.path.insert(0, str(SRC))
    corpus = build(args.workload, args.seed)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for name, data in corpus.files.items():
            (workdir / name).write_bytes(data)
        (workdir / "selftest-rvs.json").write_text(json.dumps(brunnian_family(2, 2)))
        warmup = _resolve(corpus.warmup.argv, workdir)

        from checks import load_validator
        from conexa import cli

        validator = load_validator(SRC / "conexa" / "schemas" / "report.schema.json")
        code, _, err = call_cli(cli, warmup)
        if code != 0:
            raise RuntimeError(f"warm-up item failed: {err[-500:]}")
        runner = Runner(cli, corpus, workdir)
        plan = pass_plan(corpus, args.seconds)
        problems = {}
        info = {"workload": args.workload, "seed": args.seed, "conditions": conditions(),
                "input_digest": corpus.digest()}
        if args.trace:
            test_problems, info["self_test"] = self_test(cli, workdir)
            spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            layers, facts, trace_problems = traced_passes(runner, plan, spans_path)
            values, info["absent_layers"] = per_layer([m["name"] for m in declared],
                                                      runner, layers, facts)
            info["tracing"] = {k: v for k, v in facts.items() if k != "present"}
            info["spans"] = str(spans_path.relative_to(ROOT))
            if test_problems or trace_problems:
                problems["tracer"] = test_problems + trace_problems
        else:
            setup_times = timed_passes(runner, plan, warmup)
            values, run_info = end_to_end(corpus, runner, setup_times)
            info.update(run_info)
        failed, item_problems = check_outputs(cli, runner, validator)
        problems.update(item_problems)
        attempted = len(runner.samples)
        info["failed_share"] = failed / attempted
        info["report_digest"] = report_digest(runner)
        info["problems"] = dict(list(problems.items())[:20])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'failed_share':48s} {info['failed_share']:.6g} ratio")
    if not args.trace:
        print(f"{'items_per_s':48s} {info['items_per_s']:.6g} 1/s")
        print(f"{'item_tail_s percentile':48s} {info['item_tail']['percentile']:.4g} "
              f"% of {info['item_tail']['samples']} samples")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
