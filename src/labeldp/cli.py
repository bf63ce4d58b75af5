"""Batch command-line frontend.

Subcommands:
  randomize      privatize a label file (one numeric label per line)
  optimize-bins  compute the optimal bin layout for a prior
  bench          sweep mechanisms x epsilons into a CSV of per-rep losses
  verify         run the self-check suites (oracle, LP, DP ratio, samplers)

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 precondition
or configuration error.  The default seed comes from the LABELDP_SEED
environment variable, where a value that is not an integer is a parse error;
an explicit --seed wins and leaves the variable unread.  Output is a pure
function of (input bytes, flags, seed).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from decimal import Decimal, InvalidOperation

import numpy as np

from . import losses
from .binopt import BinLayout, optimize_bins
from .core import LabelSet, Prior, make_label_set, make_prior
from .mechanisms import Rng
from .pipeline import MECHANISMS, randomize, randomize_mapped, universe_indices

SEED_ENV = "LABELDP_SEED"
FLOAT_NOISE = ("laplace, staircase and exponential draw float noise and are not hardened "
               "against floating-point attacks (Mironov, CCS 2012); rr-on-bins still "
               "estimates its prior histogram with float Laplace noise")
POISSON_AT_ZERO = ("poisson costs +inf for an output of 0 against a label above 0, so rr and "
                   "laplace read inf on a universe that holds 0; a run whose outputs can fall "
                   "below 0 (a universe below 0, or additive noise with --no-clip) is refused")


class ParseError(Exception):
    """Malformed input file or value (exit code 2)."""


FMT_SPEC = ".17g"  # the shortest spec that round-trips every double


def fmt(x: float) -> str:
    """Round-trip exact decimal for machine-readable output."""
    return format(float(x), FMT_SPEC)


def read_labels(path: str, column: int | None = None) -> np.ndarray:
    """One numeric label per row, as a float array; a single non-numeric
    header line is allowed.  With column=N, rows are comma-split and field N
    (0-based) is used."""
    labels = _bulk_labels(path) if column is None else None
    if labels is None:
        try:
            with open(path) as fh:
                lines = fh.read().splitlines()
        except OSError as e:
            raise ParseError(f"cannot read {path}: {e}")
        labels = np.array(_parse_lines(path, lines, column))
    return labels


def _bulk_labels(path: str) -> np.ndarray | None:
    """The file through numpy's C reader, which parses each token as float()
    does, after skipping a first line that float() rejects as the header.
    None where the per-line parser might differ: a row that is not one finite
    float, no labels or a first line that splitlines() would split; and for a
    pipe, which yields its data once, or a suffix numpy's opener decompresses."""
    path = os.path.abspath(path)  # numpy's opener never takes it for a URL
    if not os.path.isfile(path) or path.endswith((".gz", ".bz2", ".xz", ".lzma")):
        return None
    header = 0
    try:
        with open(path) as fh:
            first = fh.readline()
        if len(first.splitlines()) > 1:
            return None
        try:
            float(first)
        except ValueError:
            header = 1
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            labels = np.loadtxt(path, dtype=float, comments=None, ndmin=2, skiprows=header)
    except (OSError, ValueError):
        return None
    if labels.shape[1:] != (1,) or labels.size == 0 or not np.isfinite(labels).all():
        return None
    return labels.reshape(-1)


def _parse_lines(path: str, lines: list[str], column: int | None) -> list[float]:
    """Line by line, skipping blank lines; a malformed line raises a
    ParseError that names it."""
    out: list[float] = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        if column is not None:
            fields = text.split(",")
            if column >= len(fields):
                raise ParseError(f"{path}:{lineno}: no column {column} in {text!r}")
            text = fields[column].strip()
        try:
            v = float(text)
        except ValueError:
            if lineno == 1 and not out:
                continue  # header
            raise ParseError(f"{path}:{lineno}: not a number: {text!r}")
        if not math.isfinite(v):
            raise ParseError(f"{path}:{lineno}: non-finite label {text!r}")
        out.append(v)
    if not out:
        raise ParseError(f"{path}: no labels found")
    return out


def read_prior_file(path: str) -> Prior:
    """Two comma-separated columns: label,probability.  Header optional."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}")
    labels: list[float] = []
    weights: list[float] = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        parts = [t.strip() for t in text.split(",")]
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'label,probability', got {text!r}")
        try:
            y, w = float(parts[0]), float(parts[1])
        except ValueError:
            if lineno == 1 and not labels:
                continue  # header
            raise ParseError(f"{path}:{lineno}: not numeric: {text!r}")
        labels.append(y)
        weights.append(w)
    if not labels:
        raise ParseError(f"{path}: no prior rows found")
    # one weight per distinct label, in label order; bincount adds each
    # label's weights in file order
    _, inverse = np.unique(labels, return_inverse=True)
    return make_prior(make_label_set(labels), np.bincount(inverse, weights))


def parse_universe(spec: str) -> LabelSet:
    """'min:max:step' or an explicit comma-separated value list."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ParseError(f"universe spec must be min:max:step, got {spec!r}")
        # decimal arithmetic, so that each element is the double nearest to
        # lo + i*step and labels written on the grid stay where they are
        try:
            lo, hi, step = (Decimal(t.strip()) for t in parts)
        except InvalidOperation:
            raise ParseError(f"non-numeric universe spec: {spec!r}")
        if not all(v.is_finite() for v in (lo, hi, step)):
            raise ParseError(f"non-finite universe spec: {spec!r}")
        if step <= 0:
            raise ParseError(f"universe step must be positive, got {step}")
        if lo > hi:
            raise ParseError(f"universe min {lo} > max {hi}")
        n = int((hi - lo) // step) + 1
        return make_label_set([float(lo + i * step) for i in range(n)])
    try:
        vals = [float(t) for t in spec.split(",") if t.strip()]
    except ValueError:
        raise ParseError(f"non-numeric universe list: {spec!r}")
    if not vals:
        raise ParseError("empty universe")
    return make_label_set(vals)


WRITE_CHUNK = 1 << 16  # lines joined per write


def _write_lines(path: str, values) -> None:
    """One fmt(v) line per value, in order.  A value that occurs more than once
    is formatted once and its text reused; the other values of a chunk go
    through one printf-style call, whose "%" + FMT_SPEC gives fmt's text.
    Values are told apart by their bits, so -0.0 and 0.0 keep their signs."""
    values = np.asarray(values, dtype=float).ravel()
    bits = values.view(np.int64)
    ordered = np.sort(bits)
    fresh = ordered[1:] != ordered[:-1]
    repeated = ordered[1:][~fresh & np.append(fresh[1:], True)]  # last of each run of 2+
    texts = np.array([fmt(v) + "\n" for v in repeated.view(float).tolist()]
                     + ["%" + FMT_SPEC + "\n"], dtype=object)
    with open(path, "w") as fh:
        for start in range(0, values.size, WRITE_CHUNK):
            chunk = bits[start:start + WRITE_CHUNK]
            at = np.searchsorted(repeated, chunk)
            hit = at < repeated.size
            hit[hit] = repeated[at[hit]] == chunk[hit]
            text = "".join(texts[np.where(hit, at, repeated.size)].tolist())
            if not hit.all():
                text %= tuple(values[start:start + WRITE_CHUNK][~hit].tolist())
            fh.write(text)


def _layout_json(layout: BinLayout) -> dict:
    return {
        "d": layout.d,
        "boundaries": list(layout.boundaries),
        "outputs": [fmt(v) for v in layout.outputs],
        "eps": fmt(layout.eps),
        "objective": fmt(layout.objective),
    }


# ---------------------------------------------------------------------------
# randomize
# ---------------------------------------------------------------------------

def cmd_randomize(args) -> int:
    raw = read_labels(args.input, args.column)
    universe = parse_universe(args.universe)
    noisy, run = randomize(args.mechanism, raw, universe, args.eps, losses.by_name(args.loss),
                           Rng(args.seed), clip=args.clip, eps1=args.eps1)
    report: dict = {"mechanism": args.mechanism, "seed": args.seed, "n": len(raw),
                    "mechanism_loss_on_inputs": fmt(run.mechanism_loss_on_inputs)}
    if run.layout is None:
        report.update(eps=fmt(args.eps), clip=bool(args.clip))
    else:
        budget = run.budget
        report.update(
            budget={"eps1": fmt(budget.eps1), "eps2": fmt(budget.eps2), "total": fmt(budget.total)},
            layout=_layout_json(run.layout),
            estimated_prior={
                "labels": [fmt(v) for v in run.estimated_prior.labels.values],
                "probs": [fmt(p) for p in run.estimated_prior.probs],
            },
            loss_kind=run.loss_kind,
        )

    _write_lines(args.output, noisy)
    with open(args.output + ".report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# optimize-bins
# ---------------------------------------------------------------------------

def cmd_optimize_bins(args) -> int:
    if args.prior_file:
        prior = read_prior_file(args.prior_file)
    elif args.input:
        if not args.public_prior:
            raise ValueError(
                "raw labels feed the optimizer directly only with --public-prior; "
                "use 'randomize' for private estimation"
            )
        raw = read_labels(args.input, args.column)
        universe = parse_universe(args.universe) if args.universe else make_label_set(raw)
        counts = np.bincount(universe_indices(raw, universe), minlength=universe.k)
        prior = make_prior(universe, counts)
    else:
        raise ValueError("need --prior-file or --input with --public-prior")

    loss = losses.by_name(args.loss)
    layout = optimize_bins(prior, args.eps, loss)

    ys = prior.labels.values
    print(f"d = {layout.d}   objective = {layout.objective:.6g}   eps = {args.eps:.6g}")
    print("bin  interval              output")
    start = 0
    for b_idx, end in enumerate(layout.boundaries):
        lo, hi = ys[start], ys[end - 1]
        print(f"{b_idx + 1:>3}  [{lo:.6g}, {hi:.6g}]".ljust(27) + f"{layout.outputs[b_idx]:.6g}")
        start = end
    blob = json.dumps(_layout_json(layout), sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(blob + "\n")
    else:
        print(blob)
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _flag_float(flag: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{flag}: not a number: {text!r}") from None


def _synthetic_prior(spec: str, universe: LabelSet) -> Prior:
    name, _, arg = spec.partition(":")
    k = universe.k
    ranks = np.arange(1, k + 1, dtype=float)
    if name == "zipf":
        a = _flag_float("--synthetic", arg) if arg else 1.5
        w = ranks ** (-a)
    elif name == "geometric":
        q = _flag_float("--synthetic", arg) if arg else 0.95
        if not 0 < q < 1:
            raise ValueError(f"geometric ratio must be in (0,1), got {q}")
        w = q ** (ranks - 1)
    elif name == "uniform":
        w = np.ones(k)
    else:
        raise ValueError(f"unknown synthetic prior {name!r} (zipf|geometric|uniform)")
    return make_prior(universe, w)


def cmd_bench(args) -> int:
    universe = parse_universe(args.universe)
    loss = losses.by_name(args.loss)
    eps_grid = [_flag_float("--eps-list", t) for t in args.eps_list.split(",") if t.strip()]
    if not eps_grid or any(e <= 0 for e in eps_grid):
        raise ValueError(f"bad eps list {args.eps_list!r}")
    mechs = [m.strip() for m in args.mechanisms.split(",") if m.strip()]
    for m in mechs:
        if m not in MECHANISMS:
            raise ValueError(f"unknown mechanism {m!r}; pick from {', '.join(MECHANISMS)}")

    root = Rng(args.seed)
    grid = universe.as_array()
    if args.input:
        # every cell runs on these labels, so they are mapped only once
        idx = universe_indices(read_labels(args.input, args.column), universe)
        fixed = idx, grid[idx]
        draw = lambda rng: fixed
    else:
        probs = _synthetic_prior(args.synthetic, universe).probs_array()

        def draw(rng):
            idx = rng.gen.choice(universe.k, size=args.n, p=probs)
            return idx, grid[idx]

    rows = ["mechanism,eps,rep,loss"]
    cell = 0
    for mech in mechs:
        for eps in eps_grid:
            for rep in range(args.reps):
                rng = root.spawn(cell)
                cell += 1
                idx, ys = draw(rng)
                _, run = randomize_mapped(mech, ys, idx, universe, eps, loss, rng, clip=args.clip)
                rows.append(f"{mech},{fmt(eps)},{rep},{fmt(run.mechanism_loss_on_inputs)}")
    text = "\n".join(rows) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    from . import selfcheck

    results = selfcheck.run_suites(
        quick=args.quick, seed=args.seed, dp_check_eps_offset=args.dp_offset
    )
    passed = sum(ok for _, ok, _ in results)
    if args.json:
        print(json.dumps({"suites": [{"name": name, "ok": ok, "detail": detail}
                                     for name, ok, detail in results],
                          "passed": passed, "total": len(results)}))
    else:
        for name, ok, detail in results:
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _env_seed() -> int:
    text = os.environ.get(SEED_ENV, "0")
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"${SEED_ENV}: not an integer seed: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="labeldp", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default from ${SEED_ENV}, else 0)")
        p.add_argument("--loss", choices=losses.BUILTIN_KINDS, default="squared",
                       help=POISSON_AT_ZERO)

    p = sub.add_parser("randomize", help="privatize a label file")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--eps", type=float, required=True, help="total privacy budget")
    p.add_argument("--eps1", type=float, default=None,
                   help="explicit prior-estimation budget (default sqrt(k/n))")
    p.add_argument("--mechanism", choices=MECHANISMS, default="rr-on-bins", help=FLOAT_NOISE)
    p.add_argument("--universe", required=True, help="min:max:step or v1,v2,...")
    p.add_argument("--column", type=int, default=None, help="CSV column index")
    p.add_argument("--clip", action=argparse.BooleanOptionalAction, default=True,
                   help="clip additive-noise outputs into the label range")
    p.set_defaults(fn=cmd_randomize)

    p = sub.add_parser("optimize-bins", help="compute the optimal bin layout")
    common(p)
    p.add_argument("--prior-file", help="CSV of label,probability rows")
    p.add_argument("--input", help="raw label file (requires --public-prior)")
    p.add_argument("--public-prior", action="store_true",
                   help="affirm the label file is public, not sensitive")
    p.add_argument("--universe", default=None)
    p.add_argument("--column", type=int, default=None)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--output", default=None, help="write machine-readable JSON here")
    p.set_defaults(fn=cmd_optimize_bins)

    p = sub.add_parser("bench", help="mechanism x eps sweep to CSV")
    common(p)
    p.add_argument("--input", help="label file; alternative to --synthetic")
    p.add_argument("--synthetic", default="zipf:1.5",
                   help="synthetic prior spec: zipf[:a] | geometric[:q] | uniform")
    p.add_argument("--n", type=int, default=10000, help="samples per replicate")
    p.add_argument("--universe", required=True)
    p.add_argument("--column", type=int, default=None)
    p.add_argument("--eps-list", default="0.5,1,2,4")
    p.add_argument("--mechanisms", default=",".join(MECHANISMS),
                   help=f"comma-separated, from {', '.join(MECHANISMS)}; {FLOAT_NOISE}")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--clip", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("verify", help="run the self-check suites")
    common(p)
    p.add_argument("--quick", action="store_true", help="small instances only (<10s)")
    p.add_argument("--dp-offset", type=float, default=0.0,
                   help="offset added to eps in the DP ratio check (fault injection)")
    p.add_argument("--json", action="store_true",
                   help="print one JSON object: each suite's name, ok and detail, "
                        "and the passed and total counts")
    p.set_defaults(fn=cmd_verify)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _env_seed()
        return args.fn(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
