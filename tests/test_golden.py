"""Byte identity of `labeldp randomize`: the sha256 of the output file and of
its report for every mechanism, on one small seeded label file; and of the
`labeldp bench` CSV over all mechanisms, on that file and on a synthetic
prior, where every cell draws from its own child stream of the seed.

The file has 4,000 labels on 0:400:1, skewed towards 0; 5% of them are off
the grid, some of those outside [0, 400].  The hashes pin the bytes a change
to the samplers, the pipeline or the writer must keep.  They also rest on
numpy's random streams and its float functions, so a numpy release that
changes either shows here first.
"""
import hashlib

import numpy as np
import pytest

from labeldp.cli import main
from labeldp.pipeline import MECHANISMS

N = 4000
SEED = 1018

# mechanism -> (sha256 of the output, sha256 of the report)
GOLDEN = {
    "rr-on-bins": ("a96fa06320bd3bdf81403f86ca699ddf1682677d82f0526d012a70dfc7e3190d",
                   "f9ffd6503889e29df50b73d0d8616f7d20ea4757b1d14061224309ea1de6f9fc"),
    "laplace": ("4dc0042790409c889c3fd300b9735b0b4bb45ebf710e442469e85bb8d6a0c583",
                "9407a8e0b4dccb6df31b3ca22b2dc73ec71a27be2ebbb01b6870e387cbc131b7"),
    "discrete-laplace": ("04b138f08a34f9873e9314d3ea64ec7116cfd66138d9b49712c1df61175a9ae3",
                         "d12783e48245d2a72f2c834d7cca3e1de5dc1e765d43a078159a80a985d5552b"),
    "staircase": ("0171f3d99d4a1f34c540d7270551c89a727ae23cebfe456ae1aa838e39dd6539",
                  "6298992e74fc55f786925541eba8e31c9ea13fa245b28db5f1b871e4a81af444"),
    "discrete-staircase": ("082e313221198bb8688bbc2420f0d69dd42e3c8227af93c93699d53a50a9a49a",
                           "3d1b9995f28aa0d2914ff1d34f48ded78b4aeac67be0a407183530915c9b9996"),
    "exponential": ("4d41f058f1f365c891334d0e1f6dc20a55a439f66f5112faa51fc6ca30b36013",
                    "d8e64a29c2e564083d3eeb315ab2c61114284d4d0ecd26e72f5ef89b67962eeb"),
    "rr": ("c2db3827a189f49d378969af163bf2f681044783c6754059caba7b8a69c55a32",
           "71cfb3a92def670e6f652ef50fef48fdc84c9cfac0b438997428ef993971430d"),
}


def label_file(path) -> None:
    g = np.random.Generator(np.random.PCG64(SEED))
    y = np.floor(401 * g.random(N) ** 3)
    off = np.flatnonzero(g.random(N) < 0.05)
    y[off] += np.round(g.random(off.size), 3)
    out = off[: off.size // 4]  # a quarter of the off-grid labels leave the range
    y[out] = np.where(g.random(out.size) < 0.5, -1 - y[out] / 40, 400 + y[out] / 40)
    path.write_text("".join(f"{v!r}\n" for v in y.tolist()))


@pytest.fixture(scope="module")
def labels(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "labels.txt"
    label_file(path)
    return path


def test_golden_covers_every_mechanism():
    assert set(GOLDEN) == set(MECHANISMS)


@pytest.mark.parametrize("mech", list(GOLDEN))
def test_randomize_output_and_report_bytes(tmp_path, labels, mech):
    out = tmp_path / "noisy.txt"
    assert main(["randomize", "--input", str(labels), "--output", str(out),
                 "--universe", "0:400:1", "--eps", "1", "--seed", str(SEED),
                 "--mechanism", mech]) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in (out, tmp_path / "noisy.txt.report.json"))
    assert digests == GOLDEN[mech]


# source -> sha256 of the `bench` CSV: 7 mechanisms x eps 0.5,1,2,4 x 2 reps
BENCH_GOLDEN = {
    "input": "af2679722763f22ba4186d8a0ddd4f625504e001036193d3cb4811d7c4046014",
    "synthetic": "d96d21472154a8b36b20e36ff54bbf6458847a78cdd19bb58fe585d168f7977e",
}


@pytest.mark.parametrize("source", list(BENCH_GOLDEN))
def test_bench_csv_bytes(tmp_path, labels, source):
    out = tmp_path / "bench.csv"
    data = (["--input", str(labels)] if source == "input"
            else ["--synthetic", "zipf:1.2", "--n", "3000"])
    assert main(["bench", *data, "--universe", "0:400:1", "--reps", "2",
                 "--seed", str(SEED), "--output", str(out)]) == 0
    text = out.read_text()
    assert text.count("\n") == 1 + len(MECHANISMS) * 4 * 2
    assert hashlib.sha256(text.encode()).hexdigest() == BENCH_GOLDEN[source]
