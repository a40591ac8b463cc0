"""Golden outputs: the files the CLI writes, pinned by SHA-256 digest.

Reruns with the same arguments must give byte-identical files, and a
change meant only to make the loop faster must not move a single byte.
Each case runs ``driftlab run --stride 1`` (every step record, plus the
summary and the series sidecar) or a small ``driftlab compare`` in
process, and compares the digests of what it wrote against digests
recorded before the per-step path was last optimised. One more case
pins the CSV and the sidecar that ``driftlab generate`` writes for a
gradual-drift spec; the CSV is the one the earlier flag form
(``--kind gradual --family sea-like-thresholds --n 2000 --changes 1000
--width 200 --seed 11``) wrote.

The streams are a ``gen:`` stream (numeric features, one sudden change)
and a small ARFF stream with nominal attributes, missing cells and a
class absent from its first rows, written by the test from a seeded
``random.Random``. The digests depend on numpy's ``default_rng``
streams and on the platform's ``exp``/``log``; when they fail on a new
platform, check the outputs against a known-good commit on that
platform before recording new digests.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from driftlab.cli import main

GEN = "gen:name=gen-golden,family=gaussian-clusters,kind=sudden,n=2000,changes=1000,seed=3"
GENERATE = "gen:family=sea-like-thresholds,kind=gradual,n=2000,changes=1000,width=200,seed=11"

RUNS = {
    "nb-random-none-0.1": ("gen", "nb", "random", "none", "0.1"),
    "nb-randvar-randuni-0.5": ("gen", "nb", "randvar", "randuni", "0.5"),
    "ht-sampling-cddm-0.5": ("gen", "ht", "sampling", "cddm", "0.5"),
    "ht-randvar-cddm-0.1": ("gen", "ht", "randvar", "cddm", "0.1"),
    "awe-randvar-randuni-0.1": ("gen", "awe", "randvar", "randuni", "0.1"),
    "arff-nb-randvar-cddm-0.1": ("arff", "nb", "randvar", "cddm", "0.1"),
    "arff-nb-sampling-randuni-0.5": ("arff", "nb", "sampling", "randuni", "0.5"),
    "arff-ht-random-none-0.5": ("arff", "ht", "random", "none", "0.5"),
    "arff-awe-randvar-randuni-0.5": ("arff", "awe", "randvar", "randuni", "0.5"),
}

DIGESTS = {
    "arff-awe-randvar-randuni-0.5": {
        "series.csv": "61aec1a10f6a34b69baf15e97062a6341b8f05b513f411450b306b720375dcce",
        "series.csv.meta.json": "9312ba998ad3860c49b5399bfcf031d70528c89bee48a02f02f713f472bf1e8f",
        "summary.json": "b6bfc2c06711b78b76978e278ec269e5233247af82a9c2c3ab1565d75ab254cd",
    },
    "arff-ht-random-none-0.5": {
        "series.csv": "8607dff8ad9b89704c49427054ddf3ffc0a645cdabf87e63cdb48a28dfdef111",
        "series.csv.meta.json": "5f24dcc44bc1a8f613bb9ab7b386bee767ff167e9ab6d89e8bc3e8a2678edf92",
        "summary.json": "6f888e65aef1625697c03a8a52c135adb6e2cb55ac0d0663d77250aa41d6facb",
    },
    "arff-nb-randvar-cddm-0.1": {
        "series.csv": "632830999a0fc50ec1134a923bdcd7584c1ac19683a14490a687974628edc100",
        "series.csv.meta.json": "7b590711b5da05089ab9bbf6f04ae79f2183a43749668793b3a917d28db2b689",
        "summary.json": "335cae442b91edc2ac91c6767b7ca8da061b226f37990c0e84127ddad6346ea4",
    },
    "arff-nb-sampling-randuni-0.5": {
        "series.csv": "99f610895adb18083f7e8d89b773122e94c5066456558d055a352c96b6bd0f9c",
        "series.csv.meta.json": "93e48b60172e78ccca641eafdb2cce59c33a68bbb9f22e1449c436a1c1b76d14",
        "summary.json": "2f2374d75e86ae8d17dc08808e60be0bbebe0a921239781472275ae574b2b03b",
    },
    "awe-randvar-randuni-0.1": {
        "series.csv": "83b01c200a28ec1f2cf3fccf2ccfe6032815bbde9848d5abe7ea2a4724bb4801",
        "series.csv.meta.json": "f63a3634e2c5b3d5cb68245fca7eca05eece0ee86dcadfe184648f9ce55f2952",
        "summary.json": "d91894d63c89162d38404f5d8d14c453a33e24e775e7ea2d00bc0fe759001470",
    },
    "compare": {
        "records.jsonl": "55e86f1b21b85cba6c3c54e865b8f42a8810525ddff1264e06d553aeecaf3be5",
        "table.txt": "cc6d174a482605a0acbbcddbbb970a5a3eb7db028df126c9f5c107f0d91bd659",
    },
    "generate": {
        "stream.csv": "a97fa12696f0998cb3f1465d4122b3287eb95d52bc57fc1424a7807718203f7a",
        "stream.csv.meta.json": "3c62c81033026bafa594259ee890d96a67a13b981936624895f5dd5b39712eaa",
    },
    "ht-randvar-cddm-0.1": {
        "series.csv": "10367c54a61604ba734cb59476e5e824479957f98d94ed0242e72e2046a58041",
        "series.csv.meta.json": "485b256ebabe564ece9e915ce8a5c8fac274230d761771ce2adb5f0ff01f98ed",
        "summary.json": "f75718a0c18b287b50f92f9279090211088e5fea80855c36b3ea6cc497bb9789",
    },
    "ht-sampling-cddm-0.5": {
        "series.csv": "980d8b7321a70645a2e0277ca63908d7b3cfbd8ab2f23f5bd24f7b1f7731bb10",
        "series.csv.meta.json": "36c4f2ce393c4c4baf3dbfacac6cc19d29251971af490070c39ee34a2eb3748e",
        "summary.json": "04ae5a2a5b6343e49f0544a7d03876d7e9e6ff938bb186391f6125336f3ee284",
    },
    "nb-random-none-0.1": {
        "series.csv": "8e44d304cb08db3a6a600d4d1a1fffb6151dc0ea726f1ea6375d08f89ac8d9e9",
        "series.csv.meta.json": "ca946d1dc7a1894f4b6e665f371a0a4be92b25a6ae8a7b02220188b004924334",
        "summary.json": "ab2cbed4cb56a09ca64a2101d87b9de717130cc12549fa05a2b0d79982781921",
    },
    "nb-randvar-randuni-0.5": {
        "series.csv": "ac881d8876d254316daac59c240faade43dbd814b21f5616362cacce9bcd5322",
        "series.csv.meta.json": "aa342a53b591950f1e8a44ed55923be8b83444d519b4ee3439609a0c44080a26",
        "summary.json": "08066332ccbdc5e7da95dc9292a87480e06137e28b16f858890a40e481a89e6f",
    },
}


def write_arff(path, n=1600, seed=5):
    """Three classes, two numeric and two nominal attributes, about 8%
    missing cells, the third class absent from the first 150 rows and a
    change in the class-conditional means half way."""
    rng = random.Random(seed)
    lines = [
        "@relation golden",
        "@attribute x numeric",
        "@attribute y numeric",
        "@attribute colour {red, green, blue}",
        "@attribute size {s, m, l, xl}",
        "@attribute class {a, b, c}",
        "@data",
    ]
    for i in range(n):
        label = rng.randrange(2 if i < 150 else 3)
        shift = 1.5 if i >= n // 2 else 0.0
        cells = [
            repr(round(label + shift + rng.gauss(0.0, 0.8), 6)),
            repr(round(-label * shift + rng.gauss(0.0, 1.2), 6)),
            ("red", "green", "blue")[(label + (rng.random() < 0.3)) % 3],
            ("s", "m", "l", "xl")[rng.randrange(4) if rng.random() < 0.5 else label],
        ]
        cells = ["?" if rng.random() < 0.08 else cell for cell in cells]
        lines.append(",".join(cells + ["abc"[label]]))
    path.write_text("\n".join(lines) + "\n")


def digests(directory) -> dict:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


@pytest.fixture
def sources(tmp_path, monkeypatch):
    # file streams echo their path into the outputs, so keep it relative
    monkeypatch.chdir(tmp_path)
    write_arff(tmp_path / "golden.arff")
    out = tmp_path / "out"
    out.mkdir()
    return {"gen": GEN, "arff": "golden.arff"}, out


@pytest.mark.parametrize("case", sorted(RUNS))
def test_run_outputs_are_golden(case, sources, capsys):
    streams, out = sources
    source, learner, al, sl, budget = RUNS[case]
    argv = ["run", "--stream", streams[source], "--learner", learner, "--al", al]
    argv += ["--sl", sl, "--budget", budget, "--seed", "7", "--stride", "1"]
    argv += ["--series-out", str(out / "series.csv"), "--summary-out", str(out / "summary.json")]
    assert main(argv) == 0
    capsys.readouterr()
    assert digests(out) == DIGESTS[case]


def test_compare_outputs_are_golden(sources, capsys, monkeypatch):
    monkeypatch.delenv("DRIFTLAB_JOBS", raising=False)
    streams, out = sources
    argv = ["compare", "--streams", streams["gen"], streams["arff"]]
    argv += ["--learners", "nb,ht,awe", "--al", "random,sampling,randvar"]
    argv += ["--sl", "cddm,randuni", "--budgets", "0.1,0.5", "--seeds", "2", "--jobs", "1"]
    argv += ["--table-out", str(out / "table.txt"), "--records-out", str(out / "records.jsonl")]
    assert main(argv) == 0
    capsys.readouterr()
    assert digests(out) == DIGESTS["compare"]


def test_generate_outputs_are_golden(tmp_path, capsys):
    assert main(["generate", "--stream", GENERATE, "--out", str(tmp_path / "stream.csv")]) == 0
    capsys.readouterr()
    assert digests(tmp_path) == DIGESTS["generate"]
