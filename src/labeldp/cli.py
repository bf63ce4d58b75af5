"""Batch command-line frontend.

Subcommands:
  randomize      privatize a label file (one numeric label per line)
  optimize-bins  compute the optimal bin layout for a prior
  bench          sweep mechanisms x epsilons into a CSV of per-rep losses
  verify         run the self-check suites (oracle, LP, DP ratio, samplers)

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 precondition
or configuration error.  The default seed comes from the LABELDP_SEED
environment variable, where a value that is not an integer is a parse error;
an explicit --seed wins and leaves the variable unread.  A negative seed is a
configuration error.  Output is a pure function of (input bytes, flags, seed),
independent of the CPU count, with one exception: exponential's output bytes,
and a bench CSV that includes exponential, also depend on numpy's build and on
its CPU dispatch of np.expm1 and np.log1p.  On an AVX-512 host, running with
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" shows the effect.
"""
from __future__ import annotations

import argparse
import contextlib
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
from .pipeline import MECHANISMS, randomize, universe_indices

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
    """One numeric label per row, or with column=N field N (0-based) of each
    comma-split row, as a float array, read by the rules of _rows."""
    if column is not None and column < 0:
        raise ParseError(f"--column must be a non-negative index, got {column}")

    def field(text):
        try:
            return [text if column is None else text.split(",")[column]]
        except IndexError:
            raise ValueError(f"no column {column} in {text!r}") from None

    labels = _bulk_labels(path) if column is None else None
    if labels is None:
        labels = _rows(path, field)
    if not labels.size:
        raise ParseError(f"{path}: no labels found")
    return labels


def _bulk_labels(path: str) -> np.ndarray | None:
    """The file through numpy's C reader, which parses each token as float()
    does, after skipping a first line that _rows takes for the header.  None
    where _rows might differ: a row that is not one finite float (as a
    numeric row after a byte-order mark is to numpy), no labels or a first line
    that splitlines() splits; a pipe, and a suffix numpy's opener decompresses."""
    path = os.path.abspath(path)  # numpy's opener never takes it for a URL
    if not os.path.isfile(path) or path.endswith((".gz", ".bz2", ".xz", ".lzma")):
        return None
    try:
        with open(path) as fh:
            first = fh.readline().removeprefix("\ufeff")
        if len(first.splitlines()) > 1:
            return None
        header = int(_numbers([first]) is None)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            labels = np.loadtxt(path, dtype=float, comments=None, ndmin=2, skiprows=header)
    except (OSError, ValueError):
        return None
    if labels.shape[1:] != (1,) or labels.size == 0 or not np.isfinite(labels).all():
        return None
    return labels.reshape(-1)


def _numbers(fields: list[str]) -> list[float] | None:
    """The fields as floats, or None where float() rejects one."""
    try:
        return [float(f) for f in fields]
    except ValueError:
        return None


def _rows(path: str, fields) -> np.ndarray:
    """A text file's numbers, row after row.  fields(line) picks a data line's
    number fields, as many on every line, or raises ValueError with a reason.
    A file that cannot be opened or decoded cannot be read; a leading
    byte-order mark is not part of line 1; blank lines are skipped; a first
    line with a field that float() rejects is the header.  Past it, the first
    reason, else the first such field or non-finite number, is a ParseError
    naming its line."""
    try:
        with open(path) as fh:
            lines = fh.read().removeprefix("\ufeff").splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    at, texts = [], []  # each row's line number; the rows' fields, in order
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            row = fields(text)
        except ValueError as e:
            raise ParseError(f"{path}:{lineno}: {e}") from None
        if lineno > 1 or _numbers(row) is not None:  # else the header
            at.append(lineno)
            texts.extend(row)
    numbers: list[float] = []
    with contextlib.suppress(ValueError):
        numbers.extend(map(float, texts))  # up to the first field float() rejects
    values = np.array(numbers)
    bad = np.append(np.flatnonzero(~np.isfinite(values)), len(numbers))[0]
    if bad < len(texts):
        lineno = at[bad * len(at) // len(texts)]  # every row has as many fields
        reason = "not a number" if bad == len(numbers) else "non-finite value"
        raise ParseError(f"{path}:{lineno}: {reason} in {lines[lineno - 1].strip()!r}")
    return values


def read_prior_file(path: str) -> Prior:
    """Two comma-separated columns, label,probability, with no negative
    weight, read by the rules of _rows; a label's weights add up in file order."""
    def fields(text):
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 'label,probability', got {text!r}")
        if (_numbers(parts) or [0, 0])[1] < 0:  # a row that is not two numbers is _rows' to name
            raise ValueError(f"negative probability in {text!r}")
        return parts

    rows = _rows(path, fields)
    if not rows.size:
        raise ParseError(f"{path}: no prior rows found")
    labels, weights = rows.reshape(-1, 2).T
    support = make_label_set(labels)
    return make_prior(support, np.bincount(np.searchsorted(support.values, labels), weights))


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
    vals = _numbers([t for t in spec.split(",") if t.strip()])
    if vals is None:
        raise ParseError(f"non-numeric universe list: {spec!r}")
    if not vals:
        raise ParseError("empty universe")
    if not all(map(math.isfinite, vals)):
        raise ParseError(f"non-finite universe list: {spec!r}")
    return make_label_set(vals)


WRITE_CHUNK = 1 << 16  # lines per write
PRINTF = "%" + FMT_SPEC + "\n"  # printf-style, fmt's text and a newline

# A chunk that holds a fresh value with 1 <= |v| < 1e16 is built as rows of
# _ROW bytes: a sign slot, then a line of at most 24 characters and its
# newline.  A row's keep code is its line's length, plus _ROW + 1 where the
# sign slot is kept; _KEEP[code] marks the bytes written.
_ROW = 26
_SPAN = np.arange(_ROW) <= np.arange(_ROW + 1)[:, None]
_KEEP = np.concatenate([_SPAN & (np.arange(_ROW) > 0), _SPAN])
_POW10 = np.array([float(10 ** x) for x in range(17)])  # exact doubles
_X_OF_EXP = np.searchsorted(_POW10, 2.0 ** np.arange(54), "right") - 1  # 10^x <= 2^e < 10^(x+1)
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)


def _halves(x: np.ndarray):
    """Veltkamp's split of each double into two halves of at most 26 bits."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _text_rows(texts: list[str]):
    """Rows and keep codes of lines given as text."""
    blob = "".join(("\0" + t).ljust(_ROW, "\0") for t in texts).encode()
    return np.frombuffer(blob, np.uint8).reshape(-1, _ROW), np.array([len(t) for t in texts])


def _digit_rows(v: np.ndarray):
    """Rows and keep codes of fmt(v) + newline for doubles with 1 <= |v| < 1e16,
    in the returned order of v.  With 10^x <= |v| < 10^(x+1), found by exact
    comparisons with powers of ten, the 17 significant digits are
    n = |v| * 10^(16 - x) rounded half-even.  Dekker's product gives it
    exactly as hi + lo, where hi >= 1e16 > 2^53 is an even integer, so
    n = hi + rint(lo).  |v| lies at least 10^(x+1) / 2^53 below 10^(x+1), so
    n < 10^17 - 11: rounding never carries to an 18th digit.  The digits are
    written in pairs and their trailing zeros counted, as n >= 10^16 starts
    with a digit other than 0; then the fraction digits move one byte right
    to make room for the point, in groups of rows of one x."""
    a = np.abs(v)
    x = _X_OF_EXP[(a.view(np.int64) >> 52) - 1023]
    x += a >= _POW10[x + 1]
    order = np.argsort(x.astype(np.uint8), kind="stable")
    v, a, x = v[order], a[order], x[order]
    s = _POW10[16 - x]
    hi = a * s
    (ah, al), (sh, sl) = _halves(a), _halves(s)
    n = hi.astype(np.int64) + np.rint((ah * sh - hi) + ah * sl + al * sh + al * sl).astype(np.int64)
    rows = np.empty((n.size, _ROW), np.uint8)
    pairs = rows.view(np.uint16)  # digit k of n goes to byte k + 1
    top = (n // 10**8).astype(np.int32)
    low = (n - top * np.int64(10**8)).astype(np.int32)
    for j in range(4, 0, -1):
        q = top // 100
        pairs[:, j] = _PAIRS.take(top - 100 * q)
        top = q
        q = low // 100
        pairs[:, 4 + j] = _PAIRS.take(low - 100 * q)
        low = q
    rows[:, 0], rows[:, 1] = ord("-"), top + ord("0")
    zeros = np.argmax(rows[:, 17:0:-1] != ord("0"), axis=1)  # n's trailing zeros
    cuts = np.searchsorted(x, np.arange(17))
    for k in range(x[0], x[-1] + 1):
        group = rows[cuts[k]:cuts[k + 1]]
        group[:, k + 3:19] = group[:, k + 2:18]
        group[:, k + 2] = ord(".")
    frac = 16 - x - zeros  # fraction digits kept
    size = np.where(frac > 0, x + 3 + frac, x + 2)
    rows.reshape(-1)[np.arange(n.size) * _ROW + size] = ord("\n")
    return order, rows, size + (_ROW + 1) * (v < 0)


def _write_lines(path: str, values=None, table=None, index=None) -> None:
    """One fmt(v) line per value, in order, or where index is given, one line
    per index i, table[i], with each table entry formatted once.  Of values,
    one that occurs more than once is formatted once and its text reused.
    The other values of a chunk are formatted in numpy where 1 <= |v| < 1e16
    (_digit_rows), and otherwise by one printf-style call, whose PRINTF gives
    fmt's text; a chunk with no value in that range is joined as text.
    Values are told apart by their bits, so -0.0 and 0.0 keep their signs."""
    if index is not None:
        texts = np.array([fmt(v) + "\n" for v in np.asarray(table, dtype=float).tolist()],
                         dtype=object)
        with open(path, "wb") as fh:
            for start in range(0, index.size, WRITE_CHUNK):
                fh.write("".join(texts[index[start:start + WRITE_CHUNK]].tolist()).encode())
        return
    values = np.asarray(values, dtype=float).ravel()
    bits = values.view(np.int64)
    ordered = np.sort(bits)
    fresh = ordered[1:] != ordered[:-1]
    repeated = ordered[1:][~fresh & np.append(fresh[1:], True)]  # last of each run of 2+
    texts = np.array([fmt(v) + "\n" for v in repeated.view(float).tolist()] + [PRINTF],
                     dtype=object)
    known = None  # the rows of texts, built for the first chunk that needs them
    with open(path, "wb") as fh:
        for start in range(0, values.size, WRITE_CHUNK):
            chunk = bits[start:start + WRITE_CHUNK]
            at = np.searchsorted(repeated, chunk)
            hit = at < repeated.size
            hit[hit] = repeated[at[hit]] == chunk[hit]
            at[~hit] = repeated.size
            pos = np.flatnonzero(~hit)
            v = values[start:start + WRITE_CHUNK][pos]
            fast = (np.abs(v) >= 1) & (np.abs(v) < 1e16)
            if not fast.any():
                text = "".join(texts[at].tolist())
                fh.write((text % tuple(v.tolist()) if v.size else text).encode())
                continue
            known = known or _text_rows(texts.tolist())
            rows, codes = known[0].take(at, axis=0), known[1].take(at)
            order, fast_rows, fast_codes = _digit_rows(v[fast])
            rows[pos[fast][order]], codes[pos[fast][order]] = fast_rows, fast_codes
            slow = PRINTF * (v.size - int(np.count_nonzero(fast))) % tuple(v[~fast].tolist())
            rows[pos[~fast]], codes[pos[~fast]] = _text_rows(slow.splitlines(True))
            fh.write(rows[_KEEP.take(codes, axis=0)])


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
    out, run = randomize(args.mechanism, raw, universe, args.eps, losses.by_name(args.loss),
                         np.random.default_rng(args.seed), clip=args.clip, eps1=args.eps1)
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

    if out.index is None:
        _write_lines(args.output, out.values)
    else:
        _write_lines(args.output, table=out.table, index=out.index)
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


BENCH_MAX_THREADS = 4  # cells in flight at most; each holds a few label-sized arrays


def _bench_workers(cells: int) -> int:
    """Threads for bench's cells: one per CPU this process may run on, at
    most one per cell and BENCH_MAX_THREADS."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(cells, cpus, BENCH_MAX_THREADS))


def cmd_bench(args) -> int:
    import threading
    from concurrent.futures import ThreadPoolExecutor

    universe = parse_universe(args.universe)
    loss = losses.by_name(args.loss)
    eps_grid = [_flag_float("--eps-list", t) for t in args.eps_list.split(",") if t.strip()]
    if not eps_grid or not all(e > 0 for e in eps_grid):
        raise ValueError(f"bad eps list {args.eps_list!r}")
    for flag, count in (("--n", args.n), ("--reps", args.reps)):
        if count < 1:
            raise ValueError(f"{flag} must be at least 1, got {count}")
    mechs = [m.strip() for m in args.mechanisms.split(",") if m.strip()]
    if not mechs:
        raise ValueError(f"--mechanisms names no mechanism: {args.mechanisms!r}")
    for m in mechs:
        if m not in MECHANISMS:
            raise ValueError(f"unknown mechanism {m!r}; pick from {', '.join(MECHANISMS)}")

    grid = universe.values
    if args.input:
        # every cell runs on these labels, so they are mapped only once, and
        # read-only: a sampler that wrote into them would corrupt the cells
        # running beside it, so it raises instead
        idx = universe_indices(read_labels(args.input, args.column), universe)
        fixed = idx, grid[idx]
        for a in fixed:
            a.flags.writeable = False
        draw = lambda rng: fixed
    else:
        probs = _synthetic_prior(args.synthetic, universe).probs

        def draw(rng):
            idx = rng.choice(universe.k, size=args.n, p=probs)
            return idx, grid[idx]

    # the cells in CSV order, each with its own child stream, so a row does
    # not depend on which thread runs its cell, or when
    cells = [(mech, eps, rep) for mech in mechs for eps in eps_grid for rep in range(args.reps)]
    seeds = np.random.SeedSequence(args.seed).spawn(len(cells))

    failed = threading.Event()  # set by a cell that raised

    def run_cell(cell, seed):
        if failed.is_set():
            return None  # a cell queued before this one failed; map raises its error
        mech, eps, rep = cell
        try:
            rng = np.random.default_rng(seed)
            idx, ys = draw(rng)
            _, run = randomize(mech, ys, universe, eps, loss, rng, clip=args.clip, indices=idx)
        except BaseException:
            failed.set()
            raise
        return f"{mech},{fmt(eps)},{rep},{fmt(run.mechanism_loss_on_inputs)}"

    # map gives the rows in cell order and raises the first failing cell's
    # error; the cells that have not started by then never run
    pool = ThreadPoolExecutor(_bench_workers(len(cells)))
    try:
        rows = ["mechanism,eps,rep,loss", *pool.map(run_cell, cells, seeds)]
    finally:
        pool.shutdown(cancel_futures=True)
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
    from . import verify

    results = verify.run_suites(quick=args.quick, seed=args.seed)
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

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="labeldp", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, loss=True):
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default from ${SEED_ENV}, else 0)")
        if loss:
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
    common(p, loss=False)
    p.add_argument("--quick", action="store_true", help="small instances only (<10s)")
    p.add_argument("--json", action="store_true",
                   help="print one JSON object: each suite's name, ok and detail, "
                        "and the passed and total counts")
    p.set_defaults(fn=cmd_verify)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        source = "--seed"
        if args.seed is None:
            source, text = f"${SEED_ENV}", os.environ.get(SEED_ENV, "0")
            try:
                args.seed = int(text)
            except ValueError:
                raise ParseError(f"{source}: not an integer seed: {text!r}") from None
        if args.seed < 0:
            raise ValueError(f"{source} must be a non-negative integer, got {args.seed}")
        return args.fn(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
