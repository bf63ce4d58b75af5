import functools
import gzip
import json
import math
import os
import subprocess
import sys
import threading
import time
import urllib.request
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from labeldp import cli, core, losses, pipeline
from labeldp.cli import (
    ParseError,
    _bulk_labels,
    _rows,
    _write_lines,
    fmt,
    main,
    parse_universe,
    read_labels,
    read_prior_file,
)
from labeldp.core import make_label_set, make_prior
from labeldp.pipeline import MECHANISMS, randomize, universe_indices

SRC = Path(__file__).resolve().parents[1] / "src"


def run(args):
    return main([str(a) for a in args])


def write(path, text):
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_read_labels_plain_and_header(tmp_path):
    p = write(tmp_path / "a.txt", "1\n2.5\n3\n")
    assert read_labels(p).tolist() == [1.0, 2.5, 3.0]
    p = write(tmp_path / "b.txt", "value\n1\n2\n")
    assert read_labels(p).tolist() == [1.0, 2.0]


def test_read_labels_column(tmp_path):
    p = write(tmp_path / "c.csv", "id,value\n7,1.5\n8,2.5\n")
    assert read_labels(p, column=1).tolist() == [1.5, 2.5]


def test_read_labels_error_names_line(tmp_path):
    p = write(tmp_path / "bad.txt", "1\nnope\n3\n")
    with pytest.raises(ParseError, match=":2:"):
        read_labels(p)


def _per_line(path):
    return _rows(path, lambda line: [line]).tolist()


@pytest.mark.parametrize("text", [
    "1\n2.5\n3\n",                 # no header
    "label\n1\n2.5\n3\n",          # header
    "label\r\n1\r\n2.5\r\n-3\r\n",  # CRLF line ends
    "1\n2\n3",                     # no trailing newline
    "+.5\n1_000\n1.\n -2e3 \n",    # float() spellings, padded line
    "1 2\n3\n",                    # a non-numeric first line is the header
])
def test_bulk_parse_matches_per_line(tmp_path, text):
    p = write(tmp_path / "l.txt", text)
    bulk = _bulk_labels(p)
    if "_" in text:
        assert bulk is None  # numpy's reader takes no digit separators
    else:
        assert bulk is not None
        assert bulk.tolist() == _per_line(p)
    assert read_labels(p).tolist() == _per_line(p)


def test_blank_lines_skipped_as_per_line_parser_does(tmp_path):
    p = write(tmp_path / "l.txt", "label\n1\n\n  \n2\n")
    assert _bulk_labels(p).tolist() == [1.0, 2.0]
    assert read_labels(p).tolist() == _per_line(p) == [1.0, 2.0]


def _assert_matches_per_line(path):
    """read_labels gives the per-line reader's labels, bit for bit, raises
    the ParseError it raises, or finds no labels where it finds none."""
    try:
        expected = _rows(path, lambda line: [line])
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            read_labels(path)
        assert str(got.value) == str(e)
    else:
        if not expected.size:
            with pytest.raises(ParseError, match="no labels found"):
                read_labels(path)
            return
        got = read_labels(path)
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()


_TOKENS = ["0", "7", "-3", "12.5", "+.5", "1.", "-0", "2e3", "-2.5E-3", "1e-400",
           "  4\t", "\t-6 ", "1_000", "nan", "inf", "-inf", "1e400", "\u0661\u0662",
           "1 2", "abc", "label", "", "   ", "\x0c", "\x1c", "\x85", "\u2028", "\x0b", "\x00"]
_NUMBERS = ["0", "7", "-3", "12.5", "+.5", "1.", "-0", "2e3", "-2.5E-3", " 9 "]
_line = st.one_of(st.sampled_from(_NUMBERS),
                  st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=3).map("".join))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=st.sampled_from(["", "label", "\ufefflabel", "\ufeff", "y\x0c1", "\x0c",
                               "\ufeff1", "\ufeff-2.5e3", "\ufeff 9", "\ufeffnan"]),
       lines=st.lists(_line, max_size=8),
       newline=st.sampled_from(["\n", "\r\n", "\r"]),
       tail=st.booleans())
def test_read_labels_matches_per_line_parser(tmp_path, header, lines, newline, tail):
    rows = ([header] if header else []) + lines
    p = tmp_path / "labels.txt"
    p.write_bytes((newline.join(rows) + (newline if tail else "")).encode())
    _assert_matches_per_line(str(p))


def test_compressed_suffix_is_read_as_text(tmp_path, monkeypatch):
    # numpy's opener would decompress a .gz path; the CLI reads its bytes as
    # text, here as a latin-1 locale does (utf-8 rejects gzip's magic byte)
    latin1 = functools.partial(open, encoding="latin-1")
    monkeypatch.setattr(cli, "open", latin1, raising=False)
    p = tmp_path / "labels.gz"
    p.write_bytes(gzip.compress(b"label\n1\n2\n", mtime=0))
    _assert_matches_per_line(str(p))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_labels_reads_a_pipe_once(tmp_path):
    # a pipe yields its data once, so it goes straight to the per-line
    # parser; a first read for the header would drain part of it
    text = "label\n" + "".join(f"{i / 7:.6f}\n" for i in range(20000))  # several pipe buffers
    fifo = str(tmp_path / "labels.fifo")
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "w") as fh:
            fh.write(text)

    got = []
    threads = [threading.Thread(target=feed, daemon=True),
               threading.Thread(target=lambda: got.append(read_labels(fifo)), daemon=True)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert got, "read_labels blocked on the pipe"
    assert got[0].tolist() == _per_line(write(tmp_path / "labels.txt", text))


def test_url_like_path_is_read_as_local_file(tmp_path, monkeypatch):
    # numpy's opener fetches a string with a scheme and a host; the relative
    # path http://host/x names the local file http:/host/x
    def no_network(*args, **kwargs):
        raise AssertionError("tried to fetch a URL")

    monkeypatch.setattr(urllib.request, "urlopen", no_network)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "http:" / "host").mkdir(parents=True)
    write(tmp_path / "http:" / "host" / "x", "label\n1\n2.5\n")
    assert _bulk_labels("http://host/x").tolist() == [1.0, 2.5]
    assert read_labels("http://host/x").tolist() == [1.0, 2.5]


@pytest.mark.parametrize("text", ["", "label\n", "label\n\n  \n"])
def test_read_labels_without_labels_warns_nothing(tmp_path, text):
    p = write(tmp_path / "l.txt", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="no labels found"):
            read_labels(p)


def test_byte_order_mark_is_not_part_of_the_first_row(tmp_path, capsys):
    # float("\ufeff1") fails, so a mark kept on the first row made it a header
    p = tmp_path / "labels.txt"
    p.write_bytes(b"\xef\xbb\xbf1\n2\n3\n")
    assert read_labels(str(p)).tolist() == _per_line(str(p)) == [1.0, 2.0, 3.0]
    p.write_bytes(b"\xef\xbb\xbflabel\n1\n")
    assert read_labels(str(p)).tolist() == _per_line(str(p)) == [1.0]
    prior = tmp_path / "prior.csv"
    prior.write_bytes(b"\xef\xbb\xbf1,0.5\n2,0.5\n")
    assert read_prior_file(str(prior)) == make_prior(make_label_set([1, 2]), [0.5, 0.5])
    assert run(["optimize-bins", "--prior-file", prior, "--eps", "1"]) == 0
    assert "  [1, " in capsys.readouterr().out


@pytest.mark.parametrize("command, text", [
    ("randomize", b"label\n1\n2\xe9\n"),
    ("optimize-bins", b"label,p\n1,0.5\n2\xe9,0.5\n"),
])
def test_undecodable_file_is_parse_error_naming_it(tmp_path, capsys, monkeypatch, command, text):
    # decoded as under a UTF-8 locale, where 0xe9 before a newline is invalid
    monkeypatch.setattr(cli, "open", functools.partial(open, encoding="utf-8"), raising=False)
    src = tmp_path / "in.txt"
    src.write_bytes(text)
    args = {"randomize": ["--input", src, "--output", tmp_path / "out.txt",
                          "--universe", "0:4:1", "--eps", "1"],
            "optimize-bins": ["--prior-file", src, "--eps", "1"]}[command]
    assert run([command, *args]) == 2
    assert f"cannot read {src}: 'utf-8' codec can't decode byte 0xe9" in capsys.readouterr().err


@pytest.mark.parametrize("text,match", [
    ("1\n1 2\n3\n", ":2: not a number"),
    ("label\nnan\n3\n", ":2: non-finite"),
    ("1\ninf\n", ":2: non-finite"),
    ("1\n1e400\n", ":2: non-finite"),
    ("label\n", "no labels found"),
    ("", "no labels found"),
])
def test_bulk_parse_keeps_per_line_errors(tmp_path, capsys, text, match):
    p = write(tmp_path / "bad.txt", text)
    with pytest.raises(ParseError, match=match):
        read_labels(p)
    assert run(["randomize", "--input", p, "--output", tmp_path / "o.txt",
                "--eps", "1", "--universe", "0:1:1"]) == 2
    assert match in capsys.readouterr().err


def test_read_prior_file(tmp_path):
    p = write(tmp_path / "prior.csv", "label,probability\n0,0.25\n1,0.75\n")
    prior = read_prior_file(p)
    assert prior.labels.values.tolist() == [0.0, 1.0]
    assert prior.probs.tolist() == [0.25, 0.75]


def test_read_prior_file_merges_duplicates_in_file_order(tmp_path):
    # label 5's weights add up left to right: (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    p = write(tmp_path / "prior.csv", "5,0.1\n2,0.2\n5,0.2\n0,0.25\n5,0.3\n2,0.05\n")
    expected = make_prior(make_label_set([0, 2, 5]), [0.25, 0.2 + 0.05, (0.1 + 0.2) + 0.3])
    assert read_prior_file(p) == expected


@pytest.mark.parametrize("text, match", [
    ("0,0.5\n1,nan\n", ":2: non-finite"),
    ("0,inf\n1,0.5\n", ":1: non-finite"),
    ("label,p\n0,0.5\n-inf,0.5\n", ":3: non-finite"),
    ("nan,0.5\n1,0.5\n", ":1: non-finite"),
])
def test_read_prior_file_refuses_non_finite_values(tmp_path, capsys, text, match):
    p = write(tmp_path / "prior.csv", text)
    with pytest.raises(ParseError, match=match):
        read_prior_file(p)
    assert run(["optimize-bins", "--prior-file", p, "--eps", "1"]) == 2
    assert match in capsys.readouterr().err


def test_read_prior_file_refuses_a_negative_weight_on_its_line(tmp_path, capsys):
    p = write(tmp_path / "prior.csv", "label,p\n0,0.5\n1,-0.1\n2,0.6\n")
    with pytest.raises(ParseError, match=r":3: negative probability in '1,-0.1'"):
        read_prior_file(p)
    assert run(["optimize-bins", "--prior-file", p, "--eps", "1"]) == 2
    err = capsys.readouterr().err
    assert ":3: negative" in err and "np.float64" not in err


@pytest.mark.parametrize("command", ["randomize", "optimize-bins", "bench"])
def test_negative_column_is_parse_error(tmp_path, capsys, command):
    src = write(tmp_path / "in.csv", "0,1\n1,2\n2,3\n")
    out = tmp_path / "out.txt"
    args = {"randomize": ["--output", out, "--universe", "0:4:1", "--eps", "1"],
            "optimize-bins": ["--public-prior", "--eps", "1"],
            "bench": ["--universe", "0:4:1", "--mechanisms", "rr", "--output", out]}
    assert run([command, "--input", src, "--column", "-1", *args[command]]) == 2
    assert "--column" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["randomize", "optimize-bins"])
def test_missing_file_is_parse_error(tmp_path, capsys, command):
    missing = tmp_path / "missing.txt"
    reader, args = {
        "randomize": (read_labels, ["--input", missing, "--output", tmp_path / "out.txt",
                                    "--universe", "0:4:1", "--eps", "1"]),
        "optimize-bins": (read_prior_file, ["--prior-file", missing, "--eps", "1"])}[command]
    with pytest.raises(ParseError, match=f"cannot read {missing}"):
        reader(str(missing))
    assert run([command, *args]) == 2
    assert f"cannot read {missing}" in capsys.readouterr().err


def test_column_past_the_row_names_the_line(tmp_path, capsys):
    src = write(tmp_path / "in.csv", "0,1\n1,2\n")
    with pytest.raises(ParseError, match="no column 3"):
        read_labels(src, column=3)
    assert run(["randomize", "--input", src, "--output", tmp_path / "out.txt", "--universe",
                "0:4:1", "--eps", "1", "--column", "3"]) == 2
    assert f"{src}:1: no column 3 in '0,1'" in capsys.readouterr().err


def test_parse_universe():
    assert parse_universe("0:3:1").values.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert parse_universe("0,5,2").values.tolist() == [0.0, 2.0, 5.0]
    assert parse_universe("0:400:1").values.tolist() == [float(v) for v in range(401)]
    # decimal steps: every element is the double nearest to lo + i*step, so
    # the index pass leaves labels written on the grid in place
    tenths = parse_universe("0:1:0.1")
    assert tenths.values.tolist() == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    assert universe_indices([0.3, 0.6, 0.7], tenths).tolist() == [3, 6, 7]
    assert tenths.values[universe_indices([0.3, 0.6, 0.7], tenths)].tolist() == [0.3, 0.6, 0.7]
    with pytest.raises(ParseError):
        parse_universe("0:3:0")
    with pytest.raises(ParseError):
        parse_universe("3:0:1")


def test_universe_past_physical_memory_is_refused_unbuilt(monkeypatch):
    # the limit is patched, so no spec here is ever built past 4 elements
    monkeypatch.setattr(core, "_physical_memory", lambda: 4 * cli.UNIVERSE_ELEMENT_BYTES)
    assert parse_universe("0:3:1").k == 4
    with pytest.raises(ValueError, match="universe '0:4:1' has 5 elements, whose build needs "):
        parse_universe("0:4:1")
    with pytest.raises(ValueError, match="universe '0:1:1e-9' has 1,000,000,001 elements"):
        parse_universe("0:1:1e-9")


@pytest.mark.parametrize("spec", ["0:1:1e-300", "0:1e1000000:1", "1e1000000:1e1000000:1"])
def test_universe_past_decimal_range_is_precondition_error(tmp_path, capsys, spec):
    src = write(tmp_path / "in.txt", "1\n2\n")
    assert run(["randomize", "--input", src, "--output", tmp_path / "out.txt", "--eps", "1",
                "--universe", spec]) == 3
    assert f"universe {spec!r} has 10^28 elements or more" in capsys.readouterr().err


def test_universe_of_a_million_decimal_steps_builds():
    grid = parse_universe("0:1000:0.001").values
    assert grid.size == 1_000_001
    assert grid[[0, 1, 3, 999_999, 1_000_000]].tolist() == [0.0, 0.001, 0.003, 999.999, 1000.0]


@pytest.mark.parametrize("spec, match", [
    ("0:1", "must be min:max:step"),
    ("a:1:1", "non-numeric universe spec"),
    ("0:inf:1", "non-finite universe spec"),
    ("1,x", "non-numeric universe list"),
    ("1,nan,3", "non-finite universe list: '1,nan,3'"),
    ("1,inf", "non-finite universe list: '1,inf'"),
    (",", "empty universe"),
])
def test_malformed_universe_is_parse_error(tmp_path, capsys, spec, match):
    src = write(tmp_path / "in.txt", "0\n1\n")
    assert run(["randomize", "--input", src, "--output", tmp_path / "out.txt", "--eps", "1",
                f"--universe={spec}"]) == 2
    assert match in capsys.readouterr().err


@pytest.mark.parametrize("text, match", [
    ("0,0.5,1\n1,0.5\n", ":1: expected 'label,probability'"),
    ("label,p\n0,0.5\n1,x\n", ":3: not a number in '1,x'"),
    ("label,p\n", "no prior rows found"),
])
def test_malformed_prior_file_is_parse_error(tmp_path, capsys, text, match):
    p = write(tmp_path / "prior.csv", text)
    assert run(["optimize-bins", "--prior-file", p, "--eps", "1"]) == 2
    assert match in capsys.readouterr().err


def test_read_prior_file_skips_blank_lines(tmp_path):
    p = write(tmp_path / "prior.csv", "label,p\n\n0,0.25\n\n1,0.75\n\n")
    assert read_prior_file(p) == make_prior(make_label_set([0, 1]), [0.25, 0.75])


def test_optimize_bins_without_a_prior_is_precondition_error(capsys):
    assert run(["optimize-bins", "--eps", "1"]) == 3
    assert "need --prior-file or --input" in capsys.readouterr().err


@pytest.mark.parametrize("spec, match", [
    ("foo", "unknown synthetic prior 'foo'"),
    ("geometric:1.5", "geometric ratio must be in (0,1), got 1.5"),
    ("zipf:nan", "weight at index 1 is not finite: nan"),  # 1 ** -nan is 1
])
def test_bad_synthetic_prior_is_precondition_error(capsys, spec, match):
    assert run(["bench", "--universe", "0:3:1", "--synthetic", spec, "--mechanisms", "rr"]) == 3
    assert match in capsys.readouterr().err


def test_bench_geometric_synthetic_prior(tmp_path):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--synthetic", "geometric:0.9", "--n", "200", "--universe", "0:20:1",
                "--eps-list", "1", "--reps", "2", "--mechanisms", "rr,laplace", "--seed", "3",
                "--output", out]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "mechanism,eps,rep,loss" and len(rows) == 5
    assert all(math.isfinite(float(r.split(",")[3])) for r in rows[1:])


def test_discrete_mechanism_on_fractional_universe_is_precondition_error(tmp_path, capsys):
    src = write(tmp_path / "in.txt", "0\n0.5\n")
    out = tmp_path / "out.txt"
    assert run(["randomize", "--input", src, "--output", out, "--eps", "1",
                "--mechanism", "discrete-laplace", "--universe", "0:1:0.5"]) == 3
    assert "integer universe" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("universe, eps, message", [
    # an element past int64: refused by the integer rule, before any draw
    ("0,1e19", "1", "the discrete mechanisms need an integer universe: entry at index 1 is 1e+19"),
    # every element within int64, but not the span Delta: refused before any draw
    ("-5e18,5e18", "1", "discrete staircase span 10000000000000000000 is past the int64 range"),
    # a drawn rung whose rung * Delta + offset, plus the universe's reach,
    # passes int64: refused before any product, where it wrapped silently
    ("0,4000000000000000000", "0.05", "eps 0.05 drew a discrete staircase rung of 30 at span "
                                      "4000000000000000000: the noisy labels would pass the "
                                      "int64 range"),
], ids=["element", "span", "rung"])
def test_discrete_staircase_past_int64_is_precondition_error(tmp_path, capsys, universe, eps,
                                                              message):
    src = write(tmp_path / "in.txt", "0\n" * 8)
    out = tmp_path / "out.txt"
    assert run(["randomize", "--input", src, "--output", out, "--eps", eps, "--seed", "3",
                "--mechanism", "discrete-staircase", "--no-clip", f"--universe={universe}"]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_discrete_laplace_past_int64_is_precondition_error(tmp_path, capsys):
    # noise plus the universe's reach passes int64: refused before the add,
    # where it wrapped silently
    src = write(tmp_path / "in.txt", "9223372036854774784\n" * 8)
    out = tmp_path / "out.txt"
    assert run(["randomize", "--input", src, "--output", out, "--eps", "1", "--seed", "3",
                "--mechanism", "discrete-laplace", "--no-clip",
                "--universe", "9223000000000000000,9223372036854774784"]) == 3
    assert capsys.readouterr().err == (
        "error: eps 1.0 drew discrete laplace noise of 724952790571106 at scale "
        "372036854774784.0: the noisy labels would pass the int64 range\n")
    assert not out.exists() and not Path(f"{out}.report.json").exists()


@pytest.mark.parametrize("mechanism, universe, clip, message", [
    # the span itself is inf: refused before any draw, where it wrote nan
    ("staircase", "-1e308,1e308", "--clip", "eps 1.0: the staircase span inf is past the float "
                                            "range"),
    # no eps can help a span of inf: laplace and exponential name it, where
    # they blamed eps for a scale of inf
    *((mech, "-1e308,1e308", "--clip", f"eps 1.0: the {mech} span inf is past the float range")
      for mech in ("laplace", "exponential")),
    # drawn noise plus the universe's reach passes the largest double:
    # refused before the add, where it wrote inf, or the range's top once clipped
    *((mech, "0,1e307,1e308", clip, f"eps 1.0 drew {mech} noise of inf at {at} 1e+308: the "
                                    "noisy labels would pass the float range")
      for mech, at in (("laplace", "scale"), ("staircase", "span"))
      for clip in ("--clip", "--no-clip")),
], ids=["span", "laplace-span", "exponential-span", "laplace-clip", "laplace-no-clip",
        "staircase-clip", "staircase-no-clip"])
def test_noise_past_the_float_range_is_precondition_error(tmp_path, capsys, mechanism, universe,
                                                          clip, message):
    labels = np.random.default_rng(0).choice([0.0, 1e307, 1e308], 200)
    src = write(tmp_path / "in.txt", "".join(f"{v!r}\n" for v in labels.tolist()))
    out = tmp_path / "out.txt"
    assert run(["randomize", "--input", src, "--output", out, "--eps", "1", "--seed", "1",
                "--mechanism", mechanism, clip, f"--universe={universe}"]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not Path(f"{out}.report.json").exists()


def test_loss_diagnostic_past_the_float_range_reads_inf(tmp_path, capsys):
    # rr's outputs are +-1e308 and their squared error passes the float range:
    # the diagnostic reads inf, with no numpy warning, which Tier-1 makes an error
    src = write(tmp_path / "in.txt", "1\n2\n3\n")
    out, csv = tmp_path / "out.txt", tmp_path / "bench.csv"
    assert run(["randomize", "--input", src, "--output", out, "--eps", "1", "--mechanism", "rr",
                "--universe=-1e308,1e308"]) == 0
    assert json.loads(Path(f"{out}.report.json").read_text())["mechanism_loss_on_inputs"] == "inf"
    assert run(["bench", "--input", src, "--output", csv, "--eps-list", "1", "--reps", "1",
                "--mechanisms", "rr", "--universe=-1e308,1e308"]) == 0
    assert csv.read_text() == "mechanism,eps,rep,loss\nrr,1,0,inf\n"
    assert capsys.readouterr().err == ""


def test_discrete_staircase_on_one_point_is_precondition_error(tmp_path, capsys):
    # a one-point universe has sensitivity 1, as for the other additive mechanisms
    src = write(tmp_path / "in.txt", "5\n5\n")
    out = tmp_path / "out.txt"
    assert run(["randomize", "--input", src, "--output", out, "--eps", "1",
                "--mechanism", "discrete-staircase", "--universe", "5"]) == 3
    assert capsys.readouterr().err == "error: discrete staircase requires integer sensitivity >= 2\n"
    assert not out.exists()


PRIOR_TO_1E200 = "0,0.3\n1,0.4\n1e200,0.3\n"


@pytest.mark.parametrize("loss, eps", [("squared", "1"), ("poisson", "800"), ("absolute", "800")])
def test_optimize_bins_table_past_the_float_range_is_precondition_error(tmp_path, capsys, loss,
                                                                         eps):
    # squared and poisson read NaN cells, where the search raised numpy's
    # "argmin of an empty sequence"; absolute read inf ones, where the ratio
    # search never settled
    prior = write(tmp_path / "prior.csv", PRIOR_TO_1E200)
    assert run(["optimize-bins", "--prior-file", prior, "--loss", loss, "--eps", eps]) == 3
    assert capsys.readouterr() == ("", f"error: the {loss} loss's bin table at eps {float(eps)} "
                                       "overflows on labels in [0, 1e+200]\n")


def test_rr_on_bins_table_past_the_float_range_is_precondition_error(tmp_path, capsys):
    src = write(tmp_path / "in.txt", "1\n2\n3\n")
    out = tmp_path / "out.txt"
    assert run(["randomize", "--input", src, "--output", out, "--eps", "1", "--eps1", "0.5",
                "--universe", "0,1e160"]) == 3
    assert capsys.readouterr().err == ("error: the squared loss's bin table at eps 0.5 overflows "
                                       "on labels in [0, 1e+160]\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

_rng = np.random.default_rng(0)
WRITER_CASES = {
    "few-distinct": _rng.choice([0.1, 2 / 3, 400.0], size=1000),
    "all-distinct": _rng.normal(scale=100.0, size=1000),
    "signed-zeros": np.array([0.0, -0.0, 0.0, -0.0, 1.0, -0.0]),
    "extremes": np.array([5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300, 1e300]),
    "empty": np.array([]),
    # laplace's shape: clipping sends many outputs to exactly 0.0 and 400.0
    "clipped-laplace": np.clip(_rng.integers(0, 401, size=1000) + _rng.laplace(scale=200.0, size=1000),
                               0.0, 400.0),
    # runs of one repeated value across a boundary of either chunk size
    "run-across-chunks": np.where(
        np.isin(np.arange(cli.WRITE_CHUNK + 8), np.r_[3:13, cli.WRITE_CHUNK - 4:cli.WRITE_CHUNK + 4]),
        7.25, np.arange(cli.WRITE_CHUNK + 8) / 3),
    "all-equal": np.full(50, 2 / 3),
    "nan-and-inf": np.array([math.nan, math.inf, -math.inf, 1.0, -math.nan, math.inf, math.nan]),
    "single": np.array([0.1]),
}


@pytest.mark.parametrize("chunk", [cli.WRITE_CHUNK, 7])
@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_write_lines_bytes(tmp_path, monkeypatch, case, chunk):
    monkeypatch.setattr(cli, "WRITE_CHUNK", chunk)
    values = WRITER_CASES[case]
    dest = tmp_path / "out.txt"
    _write_lines(str(dest), values)
    assert dest.read_bytes() == "".join(fmt(v) + "\n" for v in values).encode()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 400.0, math.nan])),
                       max_size=40),
       chunk=st.integers(1, 9))
def test_write_lines_matches_fmt(tmp_path, values, chunk):
    dest = tmp_path / "out.txt"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "WRITE_CHUNK", chunk)
        _write_lines(str(dest), values)
    assert dest.read_bytes() == "".join(fmt(v) + "\n" for v in values).encode()


def _writes_fmt(tmp_path, values):
    dest = tmp_path / "out.txt"
    _write_lines(str(dest), values)
    return dest.read_bytes() == "".join(fmt(v) + "\n" for v in values.tolist()).encode()


def test_write_lines_near_powers_of_ten(tmp_path):
    # every double within 64 ulps of 10^0 .. 10^16, of both signs: where the
    # digit count and the point move, and where rounding could carry
    steps = np.arange(-64, 65)
    powers = np.array([float(10 ** x) for x in range(17)])
    near = (powers.view(np.int64)[:, None] + steps).view(float).ravel()
    assert _writes_fmt(tmp_path, np.concatenate([near, -near]))


def test_write_lines_half_way_cases(tmp_path):
    # |v| * 10^(16 - x) ends in exactly .5, so the last digit rounds half to even
    values = np.array([1234567890123456.25, 1234567890123456.75, 2251799813685247.75,
                       123456789012345.125, 123456789012345.375, 123456789012345.625,
                       562949953421311.875])
    for v in values.tolist():
        assert (Fraction(v) * 10 ** (16 - len(str(int(v))) + 1)).denominator == 2
    assert _writes_fmt(tmp_path, np.concatenate([values, -values]))


def test_write_lines_random_doubles_in_range(tmp_path):
    rng = np.random.default_rng(15)
    spread = 10.0 ** rng.uniform(0.0, 16.0, 500_000)
    values = np.concatenate([rng.uniform(1.0, 1e16, 500_000), spread[spread < 1e16]])
    assert _writes_fmt(tmp_path, values * rng.choice([-1.0, 1.0], values.size))


@example(table=[0.0, -0.0], picks=[0, 1, 1, 0, 1], chunk=2)
@example(table=[2 / 3, 400.0, 2 / 3], picks=[2, 0, 1, 2, 0, 1], chunk=4)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 400.0, math.nan])),
                      min_size=1, max_size=6),
       picks=st.lists(st.integers(0, 7), max_size=40), chunk=st.integers(1, 9))
def test_write_lines_from_a_table_matches_fmt(tmp_path, table, picks, chunk):
    # -0.0 and 0.0 are separate entries, and an entry may repeat another's value
    index = np.array(picks, dtype=np.intp) % len(table)
    dest = tmp_path / "out.txt"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "WRITE_CHUNK", chunk)
        _write_lines(str(dest), table=table, index=index)
    assert dest.read_bytes() == "".join(fmt(table[i]) + "\n" for i in index.tolist()).encode()


@pytest.mark.parametrize("chunk", [cli.WRITE_CHUNK, 7])
def test_write_lines_from_a_table_bytes(tmp_path, monkeypatch, chunk):
    # rr's shape, a universe as the table, plus entries in and out of [1, 1e16)
    monkeypatch.setattr(cli, "WRITE_CHUNK", chunk)
    table = np.r_[np.arange(401.0), -0.0, 0.1, 1e300]
    index = np.random.default_rng(17).integers(0, table.size, cli.WRITE_CHUNK + 100)
    dest = tmp_path / "out.txt"
    _write_lines(str(dest), table=table, index=index)
    assert dest.read_bytes() == "".join(fmt(v) + "\n" for v in table[index].tolist()).encode()


def test_write_lines_random_bit_patterns(tmp_path):
    bits = np.random.default_rng(16).integers(-2 ** 63, 2 ** 63, 300_000, dtype=np.int64)
    values = bits.view(float)
    assert _writes_fmt(tmp_path, values)
    # most random bit patterns lie outside [1, 1e16); these all lie inside
    assert _writes_fmt(tmp_path, values[(np.abs(values) >= 1) & (np.abs(values) < 1e16)])


@pytest.mark.parametrize("mech", MECHANISMS)
def test_randomize_output_is_fmt_of_pipeline_values(tmp_path, monkeypatch, mech):
    chunk = 5
    monkeypatch.setattr(cli, "WRITE_CHUNK", chunk)
    labels = np.random.default_rng(4).integers(0, 11, size=300) + np.r_[0.25, -0.5, np.zeros(298)]
    src = write(tmp_path / "in.txt", "".join(f"{v}\n" for v in labels))
    out = tmp_path / "out.txt"
    assert run(["randomize", "--input", src, "--output", out, "--eps", "1", "--universe",
                "0:10:1", "--mechanism", mech, "--seed", "11"]) == 0
    noisy = randomize(mech, read_labels(src), parse_universe("0:10:1"), 1.0,
                      losses.by_name("squared"), np.random.default_rng(11))[0].values
    splits = sum(noisy[i] == noisy[i - 1] for i in range(chunk, noisy.size, chunk))
    # exponential's outputs are continuous, so all distinct; the others repeat
    # values, and some chunk boundary falls inside a run of one value
    assert splits == 0 if mech == "exponential" else splits > 0
    assert out.read_bytes() == "".join(fmt(v) + "\n" for v in noisy).encode()


# ---------------------------------------------------------------------------
# randomize
# ---------------------------------------------------------------------------

def test_randomize_no_privacy_identity(tmp_path):
    src = write(tmp_path / "in.txt", "0\n0\n1\n1\n")
    out = tmp_path / "out.txt"
    code = run(["randomize", "--input", src, "--output", out, "--eps", "1e6",
                "--loss", "squared", "--universe", "0:1:1", "--seed", "3"])
    assert code == 0
    assert out.read_text() == "0\n0\n1\n1\n"
    report = json.loads((tmp_path / "out.txt.report.json").read_text())
    assert report["mechanism"] == "rr-on-bins"
    assert report["seed"] == 3
    assert "layout" in report and "budget" in report
    assert "raw" not in json.dumps(report)


def test_randomize_report_has_all_run_fields(tmp_path):
    src = write(tmp_path / "in.txt", "\n".join(str(v % 3) for v in range(30)) + "\n")
    out = tmp_path / "out.txt"
    assert run(["randomize", "--input", src, "--output", out, "--eps", "2",
                "--universe", "0:2:1", "--seed", "4"]) == 0
    report = json.loads((tmp_path / "out.txt.report.json").read_text())
    for field in ("budget", "estimated_prior", "layout",
                  "mechanism_loss_on_inputs", "n", "loss_kind", "seed"):
        assert field in report, field
    assert report["n"] == 30


def test_seed_env_var_default(tmp_path, monkeypatch):
    src = write(tmp_path / "in.txt", "\n".join(str(v % 3) for v in range(30)) + "\n")
    a, b, c = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
    monkeypatch.setenv("LABELDP_SEED", "123")
    run(["randomize", "--input", src, "--output", a, "--eps", "2", "--universe", "0:2:1"])
    run(["randomize", "--input", src, "--output", b, "--eps", "2", "--universe", "0:2:1"])
    # explicit flag wins over the environment default
    run(["randomize", "--input", src, "--output", c, "--eps", "2",
         "--universe", "0:2:1", "--seed", "124"])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_seed_env_var_malformed(tmp_path, monkeypatch, capsys):
    bench = ["bench", "--synthetic", "uniform", "--n", "50", "--universe", "0:3:1",
             "--eps-list", "1", "--mechanisms", "rr", "--reps", "1"]
    monkeypatch.setenv("LABELDP_SEED", "abc")
    assert run(bench) == 2
    assert "LABELDP_SEED" in capsys.readouterr().err
    # an explicit flag wins and never reads the variable
    assert run([*bench, "--seed", "5", "--output", tmp_path / "a.csv"]) == 0
    monkeypatch.delenv("LABELDP_SEED")
    assert run([*bench, "--seed", "5", "--output", tmp_path / "b.csv"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("source", ["--seed", "$LABELDP_SEED"])
@pytest.mark.parametrize("command", ["randomize", "bench", "verify"])
def test_negative_seed_is_precondition_error_naming_its_source(tmp_path, capsys, monkeypatch,
                                                               source, command):
    src = write(tmp_path / "in.txt", "0\n1\n2\n")
    out = tmp_path / "out.txt"
    args = {"randomize": ["--input", src, "--output", out, "--universe", "0:2:1", "--eps", "1"],
            "bench": ["--universe", "0:2:1", "--mechanisms", "rr", "--output", out],
            "verify": ["--quick"]}[command]
    if source == "--seed":
        args.append("--seed=-1")
    else:
        monkeypatch.setenv("LABELDP_SEED", "-1")
    assert run([command, *args]) == 3
    assert f"{source} must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists() and not Path(f"{out}.report.json").exists()


@pytest.mark.parametrize("flag, value, entry", [
    ("--eps-list", "1,x", "'x'"),
    ("--synthetic", "zipf:abc", "'abc'"),
    ("--synthetic", "geometric:q", "'q'"),
])
def test_bench_malformed_number_is_parse_error(flag, value, entry, capsys):
    assert run(["bench", "--universe", "0:3:1", flag, value]) == 2
    err = capsys.readouterr().err
    assert flag in err and entry in err


def test_bench_nonpositive_eps_is_precondition_error():
    assert run(["bench", "--universe", "0:3:1", "--eps-list", "1,-2"]) == 3


def test_bench_names_the_eps_it_refuses(capsys):
    assert run(["bench", "--universe", "0:3:1", "--eps-list", "1,-2"]) == 3
    assert "eps must be positive, got -2.0" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["1e-17", "5e-324"])
@pytest.mark.parametrize("mechanism", ["discrete-laplace", "staircase", "discrete-staircase"])
@pytest.mark.parametrize("command", ["randomize", "bench"])
def test_eps_whose_geometric_ratio_rounds_to_1_is_precondition_error(tmp_path, capsys, command,
                                                                      mechanism, eps):
    # 1 - e^(-eps) (the staircases) or 1 - e^(-eps/4) (discrete Laplace) rounds to 0
    src = write(tmp_path / "in.txt", "label\n1\n2\n3\n")
    out = tmp_path / "out.txt"
    args = {"randomize": ["--input", src, "--mechanism", mechanism, "--eps", eps],
            "bench": ["--input", src, "--mechanisms", mechanism, "--eps-list", eps, "--reps", "1"]}
    assert run([command, *args[command], "--universe", "0:4:1", "--output", out]) == 3
    assert f"eps {float(eps)!r} too small: the noise's geometric ratio" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mechanism", ["laplace", "exponential", "rr"])
def test_eps_1e_17_still_runs_where_no_ratio_rounds(tmp_path, mechanism):
    src = write(tmp_path / "in.txt", "label\n1\n2\n3\n")
    out = tmp_path / "out.txt"
    assert run(["randomize", "--input", src, "--output", out, "--universe", "0:4:1",
                "--mechanism", mechanism, "--eps", "1e-17"]) == 0
    assert len(out.read_text().splitlines()) == 3


@pytest.mark.parametrize("args, sensitivity", [
    (["randomize", "--mechanism", "laplace", "--eps", "5e-324", "--no-clip"], 4.0),
    (["randomize", "--mechanism", "laplace", "--eps", "5e-324", "--clip"], 4.0),
    (["bench", "--mechanisms", "laplace", "--eps-list", "5e-324", "--reps", "1"], 4.0),
    # the prior's histogram draws at scale 2/eps1
    (["randomize", "--mechanism", "rr-on-bins", "--eps", "1", "--eps1", "5e-324"], 2.0),
])
def test_laplace_scale_that_overflows_is_precondition_error(tmp_path, capsys, args, sensitivity):
    # sensitivity/eps is inf: the noise would be +-inf, or the range's ends once clipped
    src = write(tmp_path / "in.txt", "label\n1\n2\n3\n")
    out = tmp_path / "out.txt"
    assert run([*args, "--input", src, "--universe", "0:4:1", "--output", out]) == 3
    assert (f"eps 5e-324 too small for sensitivity {sensitivity}: the noise scale overflows"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command, mechanism", [
    *(("randomize", m) for m in MECHANISMS), ("optimize-bins", None), ("bench", None)])
def test_nan_eps_is_precondition_error(tmp_path, capsys, command, mechanism):
    src = write(tmp_path / "in.txt", "1\n2\n3\n")
    out = tmp_path / "out.txt"
    args = {"randomize": ["--input", src, "--output", out, "--universe", "0:4:1",
                          "--mechanism", mechanism, "--eps", "nan"],
            "optimize-bins": ["--input", src, "--public-prior", "--eps", "nan"],
            "bench": ["--universe", "0:4:1", "--mechanisms", "rr", "--eps-list", "nan"]}
    assert run([command, *args[command]]) == 3
    assert "eps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mech", [m for m in MECHANISMS if m != "rr-on-bins"])
def test_randomize_eps_inf_publishes_the_mapped_labels(tmp_path, mech):
    src = write(tmp_path / "in.txt", "1\n2\n3\n-1\n9\n")
    out = tmp_path / "out.txt"
    assert run(["randomize", "--input", src, "--output", out, "--eps", "inf",
                "--mechanism", mech, "--universe", "0:4:1"]) == 0
    assert out.read_text() == "1\n2\n3\n0\n4\n"


def test_rr_on_bins_eps_inf_publishes_each_labels_bin_output(tmp_path):
    src = write(tmp_path / "in.txt", "\n".join(str(v % 5) for v in range(40)) + "\n")
    out = tmp_path / "out.txt"
    assert run(["randomize", "--input", src, "--output", out, "--eps", "inf", "--eps1", "1",
                "--universe", "0:4:1", "--seed", "3"]) == 0
    layout = json.loads((tmp_path / "out.txt.report.json").read_text())["layout"]
    own_bin = np.searchsorted(layout["boundaries"], np.arange(40) % 5, side="right")
    assert out.read_text().split() == [layout["outputs"][b] for b in own_bin]


def test_randomize_explicit_split(tmp_path):
    src = write(tmp_path / "in.txt", "0\n1\n2\n0\n1\n2\n")
    out = tmp_path / "out.txt"
    assert run(["randomize", "--input", src, "--output", out, "--eps", "2",
                "--eps1", "0.5", "--universe", "0:2:1", "--seed", "1"]) == 0
    report = json.loads((tmp_path / "out.txt.report.json").read_text())
    assert float(report["budget"]["eps1"]) == 0.5
    assert float(report["budget"]["eps2"]) == 1.5
    assert run(["randomize", "--input", src, "--output", out, "--eps", "2",
                "--eps1", "2.5", "--universe", "0:2:1"]) == 3


def test_randomize_deterministic(tmp_path):
    src = write(tmp_path / "in.txt", "\n".join(str(v % 5) for v in range(40)) + "\n")
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert run(["randomize", "--input", src, "--output", out, "--eps", "2",
                    "--universe", "0:4:1", "--seed", "11"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.txt.report.json").read_bytes() == (
        tmp_path / "b.txt.report.json"
    ).read_bytes()


def test_randomize_laplace_clip(tmp_path):
    src = write(tmp_path / "in.txt", "\n".join(["0", "200", "400"] * 5) + "\n")
    out = tmp_path / "out.txt"
    assert run(["randomize", "--input", src, "--output", out, "--eps", "0.5",
                "--mechanism", "laplace", "--universe", "0:400:1", "--seed", "1"]) == 0
    vals = [float(t) for t in out.read_text().split()]
    assert all(0 <= v <= 400 for v in vals)


def test_randomize_parse_error_exit2(tmp_path, capsys):
    src = write(tmp_path / "in.txt", "1\nbogus\n")
    assert run(["randomize", "--input", src, "--output", tmp_path / "o.txt",
                "--eps", "1", "--universe", "0:1:1"]) == 2
    assert ":2:" in capsys.readouterr().err


def test_randomize_precondition_exit3(tmp_path, capsys):
    # default split needs sqrt(k/n) < eps: k = 401, n = 4 -> sqrt ~ 10 > 0.5
    src = write(tmp_path / "in.txt", "0\n1\n2\n3\n")
    assert run(["randomize", "--input", src, "--output", tmp_path / "o.txt",
                "--eps", "0.5", "--universe", "0:400:1"]) == 3
    assert "explicit split" in capsys.readouterr().err


@pytest.mark.parametrize("mech", list(MECHANISMS))
def test_randomize_other_mechanisms(tmp_path, mech):
    src = write(tmp_path / "in.txt", "\n".join(str(v % 10) for v in range(30)) + "\n")
    out = tmp_path / "out.txt"
    assert run(["randomize", "--input", src, "--output", out, "--eps", "2",
                "--mechanism", mech, "--universe", "0:9:1", "--seed", "5"]) == 0
    vals = [float(t) for t in out.read_text().split()]
    assert len(vals) == 30
    report = json.loads((tmp_path / "out.txt.report.json").read_text())
    assert report["mechanism"] == mech


@pytest.mark.parametrize("mech", list(MECHANISMS))
def test_randomize_maps_labels_into_universe(tmp_path, mech):
    # labels outside the universe must be randomized exactly like the
    # universe ends they map to; noise added to the raw value would leak it
    outs = []
    for name, labels in (("far", "0\n400\n100000\n-50000\n"), ("ends", "0\n400\n400\n0\n")):
        src = write(tmp_path / f"{name}.txt", labels)
        out = tmp_path / f"{name}-out.txt"
        assert run(["randomize", "--input", src, "--output", out, "--eps", "1", "--eps1", "0.5",
                    "--mechanism", mech, "--universe", "0:400:1", "--no-clip", "--seed", "0"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# optimize-bins
# ---------------------------------------------------------------------------

def test_optimize_bins_uniform_eps0(tmp_path, capsys):
    prior = write(tmp_path / "p.csv", "0,0.5\n1,0.5\n")
    assert run(["optimize-bins", "--prior-file", prior, "--eps", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    blob = json.loads(lines[-1])
    assert blob["d"] == 1
    assert float(blob["outputs"][0]) == 0.5
    assert float(blob["objective"]) == pytest.approx(0.25, abs=1e-15)


def test_optimize_bins_ln7(tmp_path, capsys):
    prior = write(tmp_path / "p.csv", "0,0.5\n1,0.5\n")
    assert run(["optimize-bins", "--prior-file", prior, "--eps", str(math.log(7))]) == 0
    blob = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert blob["d"] == 2
    assert float(blob["outputs"][0]) == pytest.approx(0.125, abs=1e-12)
    assert float(blob["outputs"][1]) == pytest.approx(0.875, abs=1e-12)
    assert float(blob["objective"]) == pytest.approx(7 / 64, abs=1e-12)


def test_optimize_bins_high_eps_identity(tmp_path, capsys):
    prior = write(tmp_path / "p.csv", "0,0.5\n1,0.5\n")
    assert run(["optimize-bins", "--prior-file", prior, "--eps", "50"]) == 0
    blob = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert blob["d"] == 2
    assert float(blob["objective"]) < 1e-10


def test_optimize_bins_from_labels_requires_flag(tmp_path):
    src = write(tmp_path / "l.txt", "0\n1\n1\n")
    assert run(["optimize-bins", "--input", src, "--eps", "1"]) == 3
    assert run(["optimize-bins", "--input", src, "--eps", "1", "--public-prior"]) == 0


def test_optimize_bins_json_output(tmp_path):
    prior = write(tmp_path / "p.csv", "0,0.25\n1,0.25\n2,0.5\n")
    dest = tmp_path / "layout.json"
    assert run(["optimize-bins", "--prior-file", prior, "--eps", "1",
                "--output", dest]) == 0
    blob = json.loads(dest.read_text())
    assert blob["boundaries"][-1] == 3


def test_optimize_bins_reads_no_seed(tmp_path, capsys, monkeypatch):
    prior = write(tmp_path / "p.csv", "0,0.25\n1,0.25\n2,0.5\n")
    args = ["optimize-bins", "--prior-file", prior, "--eps", "1"]
    monkeypatch.delenv("LABELDP_SEED", raising=False)
    assert run(args) == 0
    unset = capsys.readouterr().out
    # it draws nothing, so a value the seeded commands refuse is never read
    for value in ("abc", "-1"):
        monkeypatch.setenv("LABELDP_SEED", value)
        assert run(args) == 0
        assert capsys.readouterr().out == unset
    with pytest.raises(SystemExit) as exit_info:
        run([*args, "--seed", "7"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_info:
        run(["optimize-bins", "--help"])
    assert exit_info.value.code == 0
    assert "--seed" not in capsys.readouterr().out


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_csv_shape_and_determinism(tmp_path):
    out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    args = ["bench", "--synthetic", "zipf:1.5", "--n", "400", "--universe", "0:20:1",
            "--eps-list", "1,4", "--mechanisms", "rr-on-bins,laplace", "--reps", "2",
            "--seed", "7", "--output"]
    assert run(args + [out1]) == 0
    assert run(args + [out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "mechanism,eps,rep,loss"
    assert len(lines) == 1 + 2 * 2 * 2
    for line in lines[1:]:
        mech, eps, rep, loss = line.split(",")
        assert mech in ("rr-on-bins", "laplace")
        assert float(loss) >= 0


def test_bench_from_file(tmp_path):
    src = write(tmp_path / "l.txt", "\n".join(str(v % 4) for v in range(200)) + "\n")
    out = tmp_path / "b.csv"
    assert run(["bench", "--input", src, "--universe", "0:3:1", "--eps-list", "2",
                "--mechanisms", "laplace,staircase", "--reps", "1", "--output", out]) == 0
    assert len(out.read_text().splitlines()) == 3


def _bench_per_cell(labels_per_cell, universe, mechs, eps_list, reps, seed):
    """The bench CSV as one randomize() call per cell on grid labels."""
    uni = parse_universe(universe)
    root = np.random.SeedSequence(seed)
    rows = ["mechanism,eps,rep,loss"]
    for mech in mechs:
        for eps in eps_list:
            for rep in range(reps):
                rng = np.random.default_rng(root.spawn(1)[0])
                ys = labels_per_cell(rng, uni)
                _, report = randomize(mech, ys, uni, eps, losses.SQUARED, rng)
                rows.append(f"{mech},{fmt(eps)},{rep},{fmt(report.mechanism_loss_on_inputs)}")
    return "\n".join(rows) + "\n"


BENCH_UNIVERSES = {  # universe -> mechanisms it admits (the discrete ones need integers)
    "0:2:0.25": [m for m in MECHANISMS if not m.startswith("discrete")],
    "-2:9:1": list(MECHANISMS),
    "0,1,3,7,8": list(MECHANISMS),
}


@pytest.mark.parametrize("universe", list(BENCH_UNIVERSES))
def test_bench_from_file_matches_randomize_per_cell(tmp_path, universe):
    labels = [-1.3, 0.0, 0.1, 0.25, 0.6, 1.99, 2.0, 2.7, 3, 5.5, 7.9, 9.0, 11.2] * 20
    src = write(tmp_path / "l.txt", "label\n" + "\n".join(map(repr, labels)) + "\n")
    mechs = BENCH_UNIVERSES[universe]
    out = tmp_path / "b.csv"
    assert run(["bench", "--input", src, f"--universe={universe}", "--eps-list", "0.5,1,4",
                "--mechanisms", ",".join(mechs), "--reps", "2", "--seed", "9",
                "--output", out]) == 0
    uni = parse_universe(universe)
    snapped = uni.values[universe_indices(read_labels(src), uni)]
    expected = _bench_per_cell(lambda rng, uni: snapped, universe, mechs, [0.5, 1.0, 4.0], 2, 9)
    assert out.read_text() == expected


def test_bench_synthetic_matches_randomize_per_cell(tmp_path):
    universe = "0:2:0.25"
    mechs = BENCH_UNIVERSES[universe]
    out = tmp_path / "b.csv"
    assert run(["bench", "--synthetic", "zipf:1.1", "--n", "300", "--universe", universe,
                "--eps-list", "1,4", "--mechanisms", ",".join(mechs), "--reps", "2",
                "--seed", "5", "--output", out]) == 0

    def draw(rng, uni):
        probs = cli._synthetic_prior("zipf:1.1", uni).probs
        return rng.choice(uni.values, size=300, p=probs)

    assert out.read_text() == _bench_per_cell(draw, universe, mechs, [1.0, 4.0], 2, 5)


def test_bench_maps_input_to_universe_once(tmp_path, monkeypatch):
    calls = []

    def counting(labels, universe):
        calls.append(len(labels))
        return universe_indices(labels, universe)

    monkeypatch.setattr(pipeline, "universe_indices", counting)
    monkeypatch.setattr(cli, "universe_indices", counting)
    src = write(tmp_path / "l.txt", "\n".join(str(v % 7) for v in range(300)) + "\n")
    common = ["--universe", "0:6:1", "--eps-list", "1,2", "--reps", "2", "--output",
              tmp_path / "b.csv"]
    assert run(["bench", "--input", src, *common]) == 0
    assert calls == [300]
    calls.clear()
    assert run(["bench", "--synthetic", "uniform", "--n", "300", *common]) == 0
    assert calls == []


@pytest.mark.parametrize("source", ["input", "synthetic"])
def test_bench_csv_does_not_depend_on_the_worker_count(tmp_path, monkeypatch, source):
    # three workers, more than a 2-core host has, on a short switch interval,
    # against one
    src = write(tmp_path / "l.txt", "\n".join(str(v % 23 - 1) for v in range(400)) + "\n")
    data = ["--input", src] if source == "input" else ["--synthetic", "zipf:1.1", "--n", "300"]
    common = ["bench", *data, "--universe", "0:20:1", "--eps-list", "0.5,1,4", "--reps", "2",
              "--seed", "4"]
    blobs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 3):
            monkeypatch.setattr(cli, "_bench_workers", lambda cells, w=workers: w)
            out = tmp_path / f"b{workers}.csv"
            assert run([*common, "--output", out]) == 0
            blobs.append(out.read_bytes())
    finally:
        sys.setswitchinterval(interval)
    assert blobs[0] == blobs[1]
    assert len(blobs[0].splitlines()) == 1 + len(MECHANISMS) * 3 * 2


def test_bench_workers_are_capped_by_cells_and_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert cli._bench_workers(1) == 1
    assert cli._bench_workers(1000) == cli.BENCH_MAX_THREADS
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._bench_workers(1000) == 1


def test_bench_workers_without_cpu_affinity(monkeypatch):
    # a platform without sched_getaffinity counts every CPU, and one if it cannot
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._bench_workers(1000) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._bench_workers(1000) == 1


def test_bench_eps_list_of_no_entry_is_precondition_error(tmp_path, capsys):
    assert run(["bench", "--synthetic", "uniform", "--n", "10", "--universe", "0:4:1",
                "--eps-list", ","]) == 3
    assert capsys.readouterr().err == "error: bad eps list ','\n"


@pytest.mark.parametrize("workers", [1, 3])
def test_bench_raises_the_first_failing_cell(tmp_path, capsys, monkeypatch, workers):
    # cell 2 (rr at eps 2) waits before it fails, so with three workers cell
    # 6 (laplace at eps 2) may fail first; cell 2's message is the one printed,
    # and with one worker no cell after it starts
    calls = []
    real = cli.randomize

    def failing(mechanism, labels, universe, eps, *args, **kwargs):
        calls.append((mechanism, eps))
        if eps == 2.0:
            if mechanism == "rr":
                time.sleep(0.05)
            raise ValueError(f"{mechanism} failed at eps 2")
        return real(mechanism, labels, universe, eps, *args, **kwargs)

    monkeypatch.setattr(cli, "randomize", failing)
    monkeypatch.setattr(cli, "_bench_workers", lambda cells: workers)
    out = tmp_path / "b.csv"
    assert run(["bench", "--universe", "0:20:1", "--n", "300", "--reps", "1",
                "--eps-list", "0.5,1,2,4", "--mechanisms", "rr,laplace,staircase",
                "--output", out]) == 3
    assert capsys.readouterr().err == "error: rr failed at eps 2\n"
    assert not out.exists()
    if workers == 1:
        assert calls == [("rr", 0.5), ("rr", 1.0), ("rr", 2.0)]


@pytest.mark.parametrize("flag", ["--n", "--reps"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_bench_counts_below_one_are_precondition_errors(tmp_path, capsys, flag, value):
    out = tmp_path / "b.csv"
    assert run(["bench", "--universe", "0:3:1", flag, value, "--output", out]) == 3
    assert f"{flag} must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_bench_rejects_bad_mechanism(tmp_path):
    assert run(["bench", "--universe", "0:3:1", "--mechanisms", "nope"]) == 3


@pytest.mark.parametrize("mechanisms", [",", "", " , "])
def test_bench_refuses_an_empty_mechanism_list(tmp_path, capsys, mechanisms):
    out = tmp_path / "b.csv"
    assert run(["bench", "--universe", "0:3:1", "--mechanisms", mechanisms, "--output", out]) == 3
    assert "--mechanisms" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mechanism", ("rr", "laplace", "discrete-laplace"))
def test_randomize_poisson_output_zero_warns_nothing(tmp_path, mechanism):
    # outputs of 0 for labels above 0 cost +inf, and nothing reaches stderr
    inp = write(tmp_path / "in.txt", "\n".join(str(v % 6) for v in range(300)) + "\n")
    out = tmp_path / "out.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["randomize", "--input", inp, "--output", out, "--eps", "1", "--loss", "poisson",
                    "--mechanism", mechanism, "--universe", "0:5:1", "--seed", "3"]) == 0
    assert (np.loadtxt(out) == 0).any()
    report = json.loads((tmp_path / "out.txt.report.json").read_text())
    assert report["mechanism_loss_on_inputs"] == "inf"


def test_bench_poisson_output_zero_warns_nothing(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["bench", "--loss", "poisson", "--mechanisms", "rr,laplace", "--universe", "0:5:1",
                    "--n", "300", "--reps", "1", "--eps-list", "1", "--seed", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["rr,1,0,inf", "laplace,1,0,inf"]


@pytest.mark.parametrize("mechanism", ("laplace", "staircase", "discrete-laplace", "discrete-staircase"))
def test_poisson_refuses_unclipped_additive_noise(tmp_path, capsys, mechanism):
    # unclipped noise can go below 0, where the poisson loss is NaN
    inp = write(tmp_path / "in.txt", "\n".join(str(v % 6) for v in range(300)) + "\n")
    out = tmp_path / "out.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["randomize", "--input", inp, "--output", out, "--eps", "1", "--loss", "poisson",
                    "--mechanism", mechanism, "--no-clip", "--universe", "0:5:1"]) == 3
        assert run(["bench", "--loss", "poisson", "--mechanisms", mechanism, "--no-clip",
                    "--universe", "0:5:1", "--n", "300", "--reps", "1", "--eps-list", "1"]) == 3
    assert capsys.readouterr().err.count(f"clip the outputs of {mechanism}") == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ("randomize", "bench"))
@pytest.mark.parametrize("mechanism", ("rr", "exponential", "laplace", "discrete-staircase"))
def test_poisson_refuses_a_universe_below_zero(tmp_path, capsys, command, mechanism):
    inp = write(tmp_path / "in.txt", "\n".join(str(v % 8 - 2) for v in range(300)) + "\n")
    out = tmp_path / "out.txt"
    args = {"randomize": ["--input", inp, "--output", out, "--eps", "1", "--mechanism", mechanism],
            "bench": ["--mechanisms", mechanism, "--n", "300", "--reps", "1", "--eps-list", "1"]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, *args[command], "--loss", "poisson", "--universe=-2:5:1"]) == 3
    assert "the universe reaches -2" in capsys.readouterr().err
    assert not out.exists()


def test_poisson_rr_on_bins_keeps_its_refusal(tmp_path, capsys):
    inp = write(tmp_path / "in.txt", "\n".join(str(v % 8 - 2) for v in range(300)) + "\n")
    assert run(["randomize", "--input", inp, "--output", tmp_path / "out.txt", "--eps", "1",
                "--eps1", "0.5", "--loss", "poisson", "--universe=-2:5:1"]) == 3
    assert "poisson loss requires non-negative labels" in capsys.readouterr().err


def test_rr_on_bins_refuses_a_table_past_physical_memory(tmp_path, capsys, monkeypatch):
    # k = 401 needs 80,601 cells of 8 bytes; the limit is patched, never reached
    monkeypatch.setattr(core, "_physical_memory", lambda: 8 * 80_600)
    inp = write(tmp_path / "in.txt", "\n".join(str(v % 401) for v in range(2000)) + "\n")
    assert run(["randomize", "--input", inp, "--output", tmp_path / "out.txt", "--eps", "1",
                "--eps1", "0.5", "--universe", "0:400:1"]) == 3
    assert "k=401 labels needs 644,808 bytes" in capsys.readouterr().err
    monkeypatch.setattr(core, "_physical_memory", lambda: 8 * 80_601)
    assert run(["randomize", "--input", inp, "--output", tmp_path / "out.txt", "--eps", "1",
                "--eps1", "0.5", "--universe", "0:400:1"]) == 0


def test_bench_no_noise_limit(tmp_path):
    out = tmp_path / "b.csv"
    assert run(["bench", "--synthetic", "uniform", "--n", "500", "--universe", "0:20:1",
                "--eps-list", "1e6", "--reps", "1", "--seed", "3", "--output", out]) == 0
    range_sq = 20.0**2
    for line in out.read_text().splitlines()[1:]:
        mech, _, _, loss = line.split(",")
        assert float(loss) < 1e-3 * range_sq, (mech, loss)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def fresh(code):
    """Run code in a fresh interpreter on this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_scipy_out():
    # scipy.stats costs about a second to import; only the sampler check of
    # `verify` loads it, on demand
    fresh("import sys, labeldp, labeldp.cli\n"
          "assert 'scipy.stats' not in sys.modules, 'imported at start'\n"
          "assert labeldp.cli.main(['verify', '--quick', '--seed', '2']) == 0\n"
          "assert 'scipy.stats' in sys.modules\n")


def test_cli_import_leaves_oracles_out():
    # the oracles, and the optimizer, load on first use of their names, not with the CLI
    fresh("import sys, labeldp.cli\n"
          "assert 'labeldp.verify' not in sys.modules, 'oracles imported'\n"
          "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules), 'scipy imported'\n"
          "from labeldp import brute_force_optimal_bins\n"
          "assert brute_force_optimal_bins is sys.modules['labeldp.verify'].brute_force_optimal_bins\n"
          "from labeldp import BinLayout, inner_min_generic, optimize_bins\n"
          "from labeldp import binopt\n"
          "assert (BinLayout, inner_min_generic, optimize_bins) == "
          "(binopt.BinLayout, binopt.inner_min_generic, binopt.optimize_bins)\n")


def test_cli_import_leaves_optimizer_and_logging_out():
    # only the commands that run the optimizer load it, and only the uniform
    # fallback of the prior estimate loads logging; modules the interpreter
    # loaded before labeldp (site's .pth files) are not labeldp's
    fresh("import sys\n"
          "before = set(sys.modules)\n"
          "import labeldp.cli\n"
          "new = set(sys.modules) - before\n"
          "heavy = {'labeldp.binopt', 'labeldp.verify', 'logging', 'traceback'}\n"
          "assert not heavy & new, sorted(heavy & new)\n"
          "assert not any(m.split('.')[0] == 'scipy' for m in new), 'scipy imported'\n")


def test_additive_commands_leave_the_optimizer_out(tmp_path):
    inp = write(tmp_path / "in.txt", "\n".join(str(v % 21) for v in range(300)) + "\n")
    fresh("import sys\n"
          "from labeldp.cli import main\n"
          f"assert main(['randomize', '--input', {inp!r}, '--output', {str(tmp_path / 'o.txt')!r}, "
          "'--universe', '0:20:1', '--eps', '1', '--seed', '1', '--mechanism', 'laplace']) == 0\n"
          "assert main(['bench', '--synthetic', 'uniform', '--n', '200', '--universe', '0:20:1', "
          f"'--eps-list', '1,2', '--reps', '2', '--seed', '3', '--output', {str(tmp_path / 'b.csv')!r}, "
          "'--mechanisms', 'laplace,rr']) == 0\n"
          "assert 'labeldp.binopt' not in sys.modules\n")


def test_bench_loads_the_optimizer_on_its_pool_threads(tmp_path):
    # a fresh interpreter first imports binopt on a worker thread, in cells
    # that race for it; the CSV is the one of the same call in this process
    common = ["bench", "--synthetic", "zipf:1.1", "--n", "300", "--universe", "0:20:1",
              "--eps-list", "0.5,1,4", "--reps", "2", "--seed", "4",
              "--mechanisms", "rr-on-bins,laplace"]
    assert run([*common, "--output", tmp_path / "in_process.csv"]) == 0
    fresh("import sys\n"
          "sys.setswitchinterval(1e-5)\n"
          "from labeldp import cli\n"
          "cli._bench_workers = lambda cells: 3\n"
          f"assert cli.main({[*common, '--output', str(tmp_path / 'fresh.csv')]!r}) == 0\n"
          "assert 'labeldp.binopt' in sys.modules\n")
    expected = (tmp_path / "in_process.csv").read_bytes()
    assert (tmp_path / "fresh.csv").read_bytes() == expected
    assert len(expected.splitlines()) == 1 + 2 * 3 * 2


def test_verify_quick_passes(capsys):
    import time

    t0 = time.perf_counter()
    assert run(["verify", "--quick", "--seed", "2"]) == 0
    assert time.perf_counter() - t0 < 10.0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "huber" in out  # the oracle check covers a custom loss too


def _reject_every_matrix(monkeypatch):
    from labeldp import verify

    monkeypatch.setattr(verify, "check_eps_dp", lambda matrix, eps: False)


def test_verify_detects_injected_dp_fault(capsys, monkeypatch):
    _reject_every_matrix(monkeypatch)
    assert run(["verify", "--quick", "--seed", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  dp-ratio" in out


def test_verify_takes_no_loss(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(["verify", "--loss", "squared"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --loss" in capsys.readouterr().err


def test_verify_json_lists_each_suite(capsys, monkeypatch):
    assert run(["verify", "--quick", "--seed", "2", "--json"]) == 0
    ok = json.loads(capsys.readouterr().out)
    assert [s["name"] for s in ok["suites"]] == ["oracle-equivalence", "lp-cross-check",
                                                 "dp-ratio", "sampler-fit"]
    assert all(s["ok"] is True and s["detail"] for s in ok["suites"])
    assert (ok["passed"], ok["total"]) == (4, 4)
    _reject_every_matrix(monkeypatch)
    assert run(["verify", "--quick", "--seed", "2", "--json"]) == 1
    bad = json.loads(capsys.readouterr().out)
    assert [s["name"] for s in bad["suites"] if not s["ok"]] == ["dp-ratio"]
    assert (bad["passed"], bad["total"]) == (3, 4)
