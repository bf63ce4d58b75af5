"""labeldp benchmark: three workloads, each timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports labeldp from ./src.  Work is
closed-loop with one caller: each operation starts when the previous one has
finished, and at most one worker process (a CLI subprocess, an import probe
or a host calibration) runs at a time.

  cli-randomize-1m       two `python -m labeldp.cli randomize` subprocesses
                         on 1e6 labels: cold import, ingest and output
  mechanism-sweep        one in-process `labeldp.cli.main(["bench", ...])`
                         call per mechanism on 2e5 labels: the samplers
  optimize-public-prior  optimize_bins on public zipf priors for four losses:
                         the bin tables and the partition search

A pass runs every operation of the workload once; passes repeat until
--seconds have elapsed.  Every operation's output is checked, and a failed
check counts as a failed operation.  Every operation is bracketed by host
calibrations (host.py), and end-to-end timings are normalized by them to a
reference host speed.  With --trace 0 the end-to-end metrics are measured;
with --trace 1 untraced and traced passes alternate and the per-layer metrics
are measured (METRICS.md defines both).  The last line of stdout is a JSON
object with the keys correct, attempted, failed and metrics; its metrics are
exactly those BENCHMARK.json lists for the mode, which every workload
measures.  The workload's own breakdown (per mechanism, per loss,
per CLI call) is printed above it as text.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import spans
from host import calibrate
from spans import Tracer, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MANIFEST = ROOT / "BENCHMARK.json"     # names the metrics of the result line

UNIVERSE = "0:400:1"
Y_MIN, Y_MAX = 0.0, 400.0
SETUP_REPEATS = 3     # fresh interpreters per run behind setup_s
IMPORT_PROBES = 3     # `python -X importtime` runs per traced run
OP_TIMEOUT_S = 120
# Normalized timings read as seconds on a host where host.calibrate() takes
# CAL_REF_S, about its time on a quiet 2.1 GHz Xeon vCPU.
CAL_REF_S = 0.04
REL_TOL = 1e-9


@dataclass
class Op:
    name: str
    seconds: float
    problem: str | None = None          # None when the output check passed
    facts: dict = field(default_factory=dict)
    host_s: float = 0.0                 # calibrate() just before the operation
    norm_s: float = 0.0                 # seconds scaled to the reference host speed


@dataclass
class Pass:
    traced: bool
    ops: list
    traces: list                        # Tracer.to_json() dicts
    rss_mb: float = 0.0                 # peak resident size once the pass ended

    @property
    def wall(self) -> float:
        return sum(op.seconds for op in self.ops)


class Metrics:
    """Metric name -> value, unit and whether it was measured or computed."""

    def __init__(self):
        self.values: dict[str, tuple[float, str, str]] = {}
        self.missing: list[str] = []

    def put(self, name, value, unit, source="measured"):
        if value is None or not math.isfinite(value):
            self.missing.append(name)
        else:
            self.values[name] = (float(value), unit, source)


def program_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("LABELDP_SEED", None)
    return env


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def put_per_call(m: Metrics, metric: str, all_spans, span_name: str):
    """Put and return the median seconds of one traced call to span_name."""
    value = median(map(spans.seconds, spans.named(all_spans, span_name)))
    m.put(metric, value, "s")
    return value


def put_optimizer(m: Metrics, traced_passes):
    """Per-layer metrics of binopt, the one layer besides the import that all
    three workloads reach: directly, through label_randomizer in `bench`, or
    inside the CLI subprocess."""
    per_pass = [[s for t in p.traces for s in spans.named(t["spans"], "binopt.optimize_bins")]
                for p in traced_passes]
    per_pass = [found for found in per_pass if found]
    if not per_pass:
        return
    secs = [sum(map(spans.seconds, found)) for found in per_pass]
    cells = [sum(s[spans.ATTRS]["k"] ** 2 for s in found) for found in per_pass]
    m.put("binopt.optimize_bins_s", median(secs), "s")
    m.put("binopt.cells", median(cells), "count")
    m.put("binopt.ns_per_cell", median(1e9 * s / c for s, c in zip(secs, cells)), "ns/cell")
    m.put("binopt.d_max", max(s[spans.ATTRS]["d"] for found in per_pass for s in found), "count")
    k_max = max(s[spans.ATTRS]["k"] for found in per_pass for s in found)
    m.put("binopt.table_mb", 2 * k_max * k_max * 8 / 1e6, "MB", "computed")


def put_pipeline(m: Metrics, all_spans, n_snapped: int):
    put_per_call(m, "pipeline.label_randomizer_s", all_spans, "pipeline.label_randomizer")
    put_per_call(m, "pipeline.snap_to_universe_s", all_spans, "pipeline.snap_to_universe")
    m.put("pipeline.n_snapped", n_snapped, "count", "computed")


class Workload:
    rss_who = resource.RUSAGE_SELF      # whose peak resident size is reported

    def prepare(self, seed: int):
        """Generate the inputs (not timed)."""
        raise NotImplementedError

    def build(self) -> float:
        """Build the program's own input objects; returns the seconds taken."""
        return 0.0

    def calibrate(self) -> float:
        """Host speed where the operations run: here, in this process."""
        return calibrate()

    def run_pass(self, traced: bool) -> Pass:
        raise NotImplementedError

    def breakdown(self, passes, m: Metrics):
        """Add the workload's own end-to-end breakdown (untraced passes)."""

    def layer_breakdown(self, passes, m: Metrics):
        """Add the workload's own per-layer breakdown (traced passes)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# cli-randomize-1m
# ---------------------------------------------------------------------------

class CliRandomize(Workload):
    """Two CLI subprocesses per pass on one file of 1e6 labels.  This is the
    only workload where cold import, ingest and output do most of the work."""

    N = 10**6
    EPS = 1.0
    MECHS = ("rr-on-bins", "laplace")
    rss_who = resource.RUSAGE_CHILDREN

    def calibrate(self) -> float:
        """Host speed in a fresh interpreter, where the CLI runs; the
        benchmark process, idle meanwhile, does not follow it."""
        return fresh_calibrate()

    def prepare(self, seed):
        self.seed = seed
        self.labels = WORK / "labels-1m.txt"
        values = inputs.label_file(str(self.labels), self.N, seed)
        self.n_snapped = int(np.count_nonzero(values != np.floor(values)))

    def run_pass(self, traced: bool) -> Pass:
        ops, traces = [], []
        for mech in self.MECHS:
            out = WORK / f"randomized-{mech}.txt"
            report = Path(f"{out}.report.json")
            span_file = WORK / f"spans-{mech}.json"
            for stale in (out, report, span_file):
                stale.unlink(missing_ok=True)
            argv = ["randomize", "--input", str(self.labels), "--output", str(out),
                    "--universe", UNIVERSE, "--eps", repr(self.EPS), "--loss", "squared",
                    "--mechanism", mech, "--seed", str(self.seed)]
            if traced:
                cmd = [sys.executable, str(HERE / "traced_cli.py"), str(span_file), *argv]
            else:
                cmd = [sys.executable, "-m", "labeldp.cli", *argv]
            host_s = self.calibrate()
            start = time.perf_counter()
            try:
                proc = subprocess.run(cmd, env=program_env(), cwd=ROOT, timeout=OP_TIMEOUT_S,
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
                code, err = proc.returncode, proc.stderr
            except subprocess.TimeoutExpired:
                code, err = None, f"timed out after {OP_TIMEOUT_S} s"
            op = Op(mech, time.perf_counter() - start, host_s=host_s)
            op.problem = self.check(op, out, report, code, err)
            ops.append(op)
            if traced and span_file.exists():
                traces.append(json.loads(span_file.read_text()))
        return Pass(traced, ops, traces)

    def check(self, op, out, report_path, code, err):
        if code != 0:
            return f"exit code {code}: {err.strip()[-300:]}"
        try:
            data = out.read_bytes()
            report = json.loads(report_path.read_text())
            op.facts["output_bytes"] = len(data)
            values = np.array(data.split(), dtype=float)
            lines = data.count(b"\n")
            if lines != self.N or values.size != self.N:
                return f"{values.size} output values on {lines} lines, expected {self.N}"
            if op.name == "rr-on-bins":
                outputs = np.array([float(v) for v in report["layout"]["outputs"]])
                if not np.isin(values, outputs).all():
                    return "an output is not one of the layout's bin outputs"
                if float(report["budget"]["total"]) != self.EPS:
                    return f"budget total {report['budget']['total']} != eps {self.EPS!r}"
            elif not ((values >= Y_MIN) & (values <= Y_MAX)).all():
                return f"a clipped laplace output lies outside [{Y_MIN}, {Y_MAX}]"
        except (OSError, ValueError, KeyError, TypeError) as e:
            return f"unreadable output: {e!r}"
        return None

    def breakdown(self, passes, m: Metrics):
        for mech in self.MECHS:
            m.put(f"cli_s.{mech}", median_of(passes, mech, "seconds"), "s")
            m.put(f"cli_norm_s.{mech}", median_of(passes, mech, "norm_s"), "s")

    def layer_breakdown(self, passes, m: Metrics):
        traces = [t for p in passes for t in p.traces]
        all_spans = [s for t in traces for s in t["spans"]]
        read_s = put_per_call(m, "cli.read_labels_s", all_spans, "cli.read_labels")
        input_mb = self.labels.stat().st_size / 1e6
        m.put("cli.read_labels.input_mb", input_mb, "MB", "computed")
        m.put("cli.read_labels.mb_per_s", input_mb / read_s if read_s else None, "MB/s")
        for mech in self.MECHS:
            m.put(f"cli.main.self_s.{mech}", median(
                spans.self_seconds(s) for t in traces
                for s in spans.named(t["spans"], "cli.main", mech)), "s")
            m.put(f"cli.output_bytes.{mech}", median(
                op.facts["output_bytes"] for p in passes for op in p.ops
                if op.name == mech and "output_bytes" in op.facts), "count")
        put_pipeline(m, all_spans, self.n_snapped)
        put_per_call(m, "prior.laplace_histogram_s", all_spans, "prior.laplace_histogram")
        m.put("prior.n_zero_cells", median(
            s[spans.ATTRS]["n_zero_cells"] for s in spans.named(all_spans, "prior.laplace_histogram")
            if "n_zero_cells" in s[spans.ATTRS]), "count")


# ---------------------------------------------------------------------------
# mechanism-sweep
# ---------------------------------------------------------------------------

class MechanismSweep(Workload):
    """The paper's loss-vs-eps evaluation: one in-process bench call per
    mechanism, so the samplers do the work and there is no output file I/O
    beyond a small CSV.  The eps list varies the exponential mechanism's
    rejection rate."""

    N = 200_000
    EPS_LIST = (0.5, 1.0, 2.0, 4.0)
    MECHS = ("rr-on-bins", "laplace", "discrete-laplace", "staircase",
             "discrete-staircase", "exponential", "rr")

    def prepare(self, seed):
        self.seed = seed
        self.labels = WORK / "labels-200k.txt"
        self.values = inputs.label_file(str(self.labels), self.N, seed)
        self.n_snapped = int(np.count_nonzero(self.values != np.floor(self.values)))

    def run_pass(self, traced: bool) -> Pass:
        import labeldp.cli

        ops = []
        tracer = Tracer().install() if traced else None
        try:
            for mech in self.MECHS:
                out = WORK / f"bench-{mech}.csv"
                out.unlink(missing_ok=True)
                argv = ["bench", "--input", str(self.labels), "--universe", UNIVERSE,
                        "--eps-list", ",".join(f"{e:g}" for e in self.EPS_LIST),
                        "--reps", "1", "--mechanisms", mech, "--seed", str(self.seed),
                        "--output", str(out)]
                host_s = self.calibrate()
                start = time.perf_counter()
                try:
                    code = labeldp.cli.main(argv)
                except Exception as e:  # one failed operation must not end the run
                    code = e
                op = Op(mech, time.perf_counter() - start, host_s=host_s)
                op.problem = self.check(op, out, code)
                ops.append(op)
        finally:
            if tracer:
                tracer.restore()
        self.check_dominance(ops)
        return Pass(traced, ops, [tracer.to_json()] if tracer else [])

    def check(self, op, out, code):
        if isinstance(code, Exception):
            return f"raised {code!r}"
        if code != 0:
            return f"exit code {code}"
        try:
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
            losses = {float(eps): float(loss) for mech, eps, _rep, loss in rows if mech == op.name}
        except (OSError, ValueError) as e:
            return f"unreadable CSV: {e!r}"
        if len(rows) != len(self.EPS_LIST) or sorted(losses) != list(self.EPS_LIST):
            return f"{len(rows)} rows for eps {sorted(losses)}, expected {self.EPS_LIST}"
        if not all(math.isfinite(v) for v in losses.values()):
            return "non-finite loss"
        op.facts["loss"] = losses
        return None

    def check_dominance(self, ops):
        """At each eps rr-on-bins must have the lowest loss (acceptance
        criterion 10); a violation fails the rr-on-bins operation."""
        ours = next(op for op in ops if op.name == "rr-on-bins")
        others = [op for op in ops if op is not ours and "loss" in op.facts]
        if "loss" not in ours.facts:
            return
        for eps in self.EPS_LIST:
            rival = min(others, key=lambda op: op.facts["loss"][eps], default=None)
            if rival and not ours.facts["loss"][eps] < rival.facts["loss"][eps]:
                ours.problem = f"eps={eps:g}: {rival.name} beats rr-on-bins"
                return

    def layer_breakdown(self, passes, m: Metrics):
        traces = [t for p in passes for t in p.traces]
        labels_per_call = self.N * len(self.EPS_LIST)
        for mech in self.MECHS:
            rates = []
            for t in traces:
                for idx, s in enumerate(t["spans"]):
                    if s[spans.NAME] == "cli.main" and s[spans.KEY] == mech:
                        ingest = sum(spans.seconds(c) for name in ("cli.read_labels", "cli.parse_universe")
                                     for c in spans.children(t["spans"], idx, name))
                        rates.append(labels_per_call / (spans.seconds(s) - ingest))
            m.put(f"mechanisms.{mech}.labels_per_s", median(rates), "labels/s")
        ys = np.clip(np.floor(self.values), Y_MIN, Y_MAX)
        for eps in self.EPS_LIST:
            key = f"eps{eps:g}"
            calls = sum(c for t in traces for name, k, c, _ in t["totals"]
                        if name == "mechanisms.exponential_mechanism_sample" and k == key)
            secs = sum(s for t in traces for name, k, _, s in t["totals"]
                       if name == "mechanisms.exponential_mechanism_sample" and k == key)
            m.put(f"mechanisms.exponential.labels_per_s.{key}", calls / secs if secs else None,
                  "labels/s")
            # y + Laplace(b) lands in [lo, hi] with probability
            # 1 - e^(-(y-lo)/b)/2 - e^(-(hi-y)/b)/2; attempts are geometric.
            b = 2.0 * (Y_MAX - Y_MIN) / eps
            accept = 1.0 - 0.5 * np.exp(-(ys - Y_MIN) / b) - 0.5 * np.exp(-(Y_MAX - ys) / b)
            attempts = float(np.sum(1.0 / accept))
            m.put(f"mechanisms.exponential.attempts.{key}", attempts, "count", "computed")
            m.put(f"mechanisms.exponential.accept_ratio.{key}", self.N / attempts, "ratio",
                  "computed")
        put_pipeline(m, [s for t in traces for s in t["spans"]], self.n_snapped)


# ---------------------------------------------------------------------------
# optimize-public-prior
# ---------------------------------------------------------------------------

class OptimizePublicPrior(Workload):
    """optimize_bins on public priors: the tables and the search do all the
    work, with no labels and no sampling.  eps=1 gives two bins and eps=8 a
    rich layout; each loss takes its own inner-solver path (closed form,
    amortized median loop, golden section)."""

    def prepare(self, seed):
        self.weights = {k: inputs.prior_weights(seed, k) for _, k in inputs.OPT_CASES}
        recorded = json.loads((HERE / "reference_objectives.json").read_text())
        self.recorded = recorded[str(inputs.prior_member(seed))]

    def build(self) -> float:
        from labeldp import losses
        from labeldp.core import make_label_set, make_prior

        start = time.perf_counter()
        self.priors = {k: make_prior(make_label_set(range(k)), w) for k, w in self.weights.items()}
        self.losses = {"squared": losses.SQUARED, "poisson": losses.POISSON,
                       "absolute": losses.ABSOLUTE,
                       "custom": losses.custom_loss(inputs.huber, convex_in_first_arg=True)}
        return time.perf_counter() - start

    def run_pass(self, traced: bool) -> Pass:
        from labeldp import binopt

        ops = []
        tracer = Tracer().install() if traced else None
        try:
            for loss, k in inputs.OPT_CASES:
                for eps in inputs.OPT_EPS:
                    host_s = self.calibrate()
                    start = time.perf_counter()
                    try:
                        layout = binopt.optimize_bins(self.priors[k], eps, self.losses[loss])
                        problem = None
                    except Exception as e:  # one failed operation must not end the run
                        layout, problem = None, f"raised {e!r}"
                    op = Op(f"{loss}.eps{eps:g}", time.perf_counter() - start, problem,
                            host_s=host_s)
                    if layout is not None:
                        op.problem = self.check(layout, self.priors[k], eps, self.losses[loss],
                                                self.recorded[op.name])
                    ops.append(op)
        finally:
            if tracer:
                tracer.restore()
        return Pass(traced, ops, [tracer.to_json()] if tracer else [])

    @staticmethod
    def check(layout, prior, eps, loss, recorded):
        from labeldp.core import expected_loss
        from labeldp.mechanisms import rr_on_bins_matrix

        model = expected_loss(rr_on_bins_matrix(layout, eps), prior, loss)
        if rel_diff(layout.objective, model) > REL_TOL:
            return f"objective {layout.objective!r} != expected loss {model!r}"
        if rel_diff(layout.objective, recorded) > REL_TOL:
            return f"objective {layout.objective!r} != recorded {recorded!r}"
        return None

    def breakdown(self, passes, m: Metrics):
        for loss, _ in inputs.OPT_CASES:
            for attr, metric in (("seconds", "optimize_s"), ("norm_s", "optimize_norm_s")):
                m.put(f"{metric}.{loss}", sum(median_of(passes, f"{loss}.eps{eps:g}", attr)
                                              for eps in inputs.OPT_EPS), "s")

    def layer_breakdown(self, passes, m: Metrics):
        traces = [t for p in passes for t in p.traces]
        for loss, k in inputs.OPT_CASES:
            for eps in inputs.OPT_EPS:
                key = f"{loss}.eps{eps:g}"
                found = [s for t in traces for s in spans.named(t["spans"], "binopt.optimize_bins", key)]
                m.put(f"binopt.optimize_bins_s.{key}", median(map(spans.seconds, found)), "s")
                m.put(f"binopt.d.{key}", median(s[spans.ATTRS]["d"] for s in found
                                                if "d" in s[spans.ATTRS]), "count")
            per_pass = [sum(spans.seconds(s) for s in spans.named(t["spans"], "binopt.optimize_bins")
                            if s[spans.KEY].startswith(f"{loss}.")) for t in traces]
            m.put(f"binopt.ns_per_cell.{loss}",
                  median(1e9 * s / (len(inputs.OPT_EPS) * k * k) for s in per_pass), "ns/cell")


WORKLOADS = {
    "cli-randomize-1m": CliRandomize,
    "mechanism-sweep": MechanismSweep,
    "optimize-public-prior": OptimizePublicPrior,
}


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------

def fresh_import(*flags) -> subprocess.CompletedProcess:
    code = ("import time; t = time.perf_counter(); import labeldp.cli; "
            "print(time.perf_counter() - t)")
    return subprocess.run([sys.executable, *flags, "-c", code], env=program_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True)


def fresh_calibrate() -> float:
    """host.calibrate() in a fresh interpreter."""
    return float(subprocess.run([sys.executable, str(HERE / "host.py")], capture_output=True,
                                text=True, timeout=OP_TIMEOUT_S, check=True).stdout)


def normalized(seconds: float, host_before: float, host_after: float) -> float:
    """Seconds scaled to the reference host speed by the calibrations just
    before and just after them."""
    return seconds * CAL_REF_S / (0.5 * (host_before + host_after))


def setup_seconds(workload) -> tuple[float, float]:
    """Median over fresh interpreters of `import labeldp.cli` plus the
    program-side input objects the workload builds before its first op, raw
    and normalized by fresh-interpreter calibrations around each repeat.
    The median also absorbs the one import that compiles bytecode in a fresh
    checkout."""
    raw, norm = [], []
    before = fresh_calibrate()
    for _ in range(SETUP_REPEATS):
        seconds = float(fresh_import().stdout) + workload.build()
        after = fresh_calibrate()
        raw.append(seconds)
        norm.append(normalized(seconds, before, after))
        before = after
    return median(raw), median(norm)


def run_passes(workload, seconds: float, trace: bool) -> list:
    """Closed loop: passes back to back for about `seconds`.  Another pass
    starts only if half a typical pass still fits, so a run ends within half
    a pass of `seconds`.  A traced run alternates untraced and traced passes
    and has at least one of each."""
    passes = []
    start = time.perf_counter()
    while (len(passes) < (2 if trace else 1)
           or time.perf_counter() - start + 0.5 * median(p.wall for p in passes) < seconds):
        passes.append(workload.run_pass(traced=trace and len(passes) % 2 == 1))
        passes[-1].rss_mb = resource.getrusage(workload.rss_who).ru_maxrss / 1024
        ops = passes[-1].ops
        for op, host_after in zip(ops, [op.host_s for op in ops[1:]] + [workload.calibrate()]):
            op.norm_s = normalized(op.seconds, op.host_s, host_after)
    return passes


def median_of(passes, op_name: str, attr: str):
    """Median of one Op attribute over the passes' operations named op_name."""
    return median(getattr(op, attr) for p in passes for op in p.ops if op.name == op_name)


def measure(name: str, seed: int, seconds: float, trace: bool):
    workload = WORKLOADS[name]()
    workload.prepare(seed)
    m = Metrics()
    if trace:
        probes = [spans.import_breakdown(fresh_import("-X", "importtime").stderr)
                  for _ in range(IMPORT_PROBES)]
        workload.build()
    else:
        setup_wall_s, setup_s = setup_seconds(workload)
    passes = run_passes(workload, seconds, trace)
    if trace:
        m.put("import.labeldp_s", median(p["labeldp_s"] for p in probes), "s")
        m.put("import.scipy_stats_s", median(p["scipy_stats_s"] for p in probes), "s")
        plain = [p.wall for p in passes if not p.traced]
        traced = [p for p in passes if p.traced]
        m.put("trace.overhead_s", median(p.wall for p in traced) - median(plain), "s")
        put_optimizer(m, traced)
        workload.layer_breakdown(traced, m)
        m.missing += sorted({name for p in traced for t in p.traces for name in t["missing"]})
        with open(WORK / f"spans-{name}.json", "w") as fh:
            json.dump([t for p in traced for t in p.traces], fh)
    else:
        names = dict.fromkeys(op.name for p in passes for op in p.ops)
        m.put("wall_norm_s", sum(median_of(passes, n, "norm_s") for n in names), "s")
        m.put("wall_s", median(p.wall for p in passes), "s")
        m.put("host_s", median(op.host_s for p in passes for op in p.ops), "s")
        m.put("setup_s", setup_s, "s")
        m.put("setup_wall_s", setup_wall_s, "s")
        # after the first pass: later passes only add allocator fragmentation,
        # and how many passes fit in a run depends on the machine's speed
        m.put("peak_rss_mb", passes[0].rss_mb, "MB")
        workload.breakdown(passes, m)
    return m, passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "labeldp" / "cli.py").is_file():
        print(f"error: no labeldp sources under {SRC}", file=sys.stderr)
        return 2
    if not MANIFEST.is_file():
        print(f"error: no {MANIFEST.name} in {ROOT}", file=sys.stderr)
        return 2
    manifest = json.loads(MANIFEST.read_text())
    wanted = [e["name"] for e in manifest["per_layer" if args.trace else "end_to_end"]]
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    try:
        m, passes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        for big in WORK.glob("*.txt*"):
            big.unlink()
    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if op.problem]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes, {len(ops)} operations")
    for i, p in enumerate(passes):
        print(f"pass {i}{' traced' if p.traced else ''}: peak {p.rss_mb:.1f} MB, {p.wall:.4f} s = "
              + " + ".join(f"{op.name} {op.seconds:.4f} (host {op.host_s:.4f})" for op in p.ops))
    for op in failed:
        print(f"FAILED {op.name}: {op.problem}")
    print(f"error_rate = {len(failed)}/{len(ops)} = {len(failed) / len(ops):g}")
    for name, (value, unit, source) in m.values.items():
        where = "" if name in wanted else ", breakdown"
        print(f"{name} = {value:.6g} {unit} ({source}{where})")
    for name in m.missing + [n for n in wanted if n not in m.values and n not in m.missing]:
        print(f"missing: {name}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": m.values[name][0], "unit": m.values[name][1]}
                    for name in wanted if name in m.values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
