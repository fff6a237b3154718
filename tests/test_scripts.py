"""The demo scripts run end to end as their own processes and leave their
outputs behind."""
import csv
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run(script, *args, cwd):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_make_synthetic_writes_the_three_tsvs(tmp_path):
    out = run("make_synthetic.py", "data", "--users", "50", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    for name in ("checkins.tsv", "pois.tsv", "social.tsv"):
        assert (tmp_path / "data" / name).stat().st_size > 0
    assert out.stdout.startswith("50 users")


def test_run_experiment_writes_table3(tmp_path):
    out = run("run_experiment.py", "exp", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    table = (tmp_path / "exp" / "out" / "table3.csv").read_text().splitlines()
    assert table[0].startswith("model,fusion,N,")
    assert len(table) == 1 + 4  # two models x product, sum at one cutoff
    for name in ("checkins.tsv", "pois.tsv", "social.tsv"):
        assert (tmp_path / "exp" / "data" / name).is_file()


def test_run_experiment_sweep_adds_weighted_sum(tmp_path):
    out = run("run_experiment.py", "exp", "--sweep", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    header, *rows = out.stdout.split("\n\n")[0].splitlines()
    cols = ["model", "fusion", "N", "nDCG", "nDCG_L", "nDCG_W", "dnDCG", "acc_unf"]
    assert header.split() == cols
    # two models x product, sum and weighted_sum at one cutoff, names whole
    # and each number table3.csv's to 6 significant digits
    with (tmp_path / "exp" / "out" / "table3.csv").open(newline="") as fh:
        table = list(csv.DictReader(fh))
    assert sorted(tuple(row.split()[:2]) for row in rows) == [
        (model, rule) for model in ("geosoca", "lore")
        for rule in ("product", "sum", "weighted_sum")
    ]
    for printed, want in zip(rows, table):
        cells = printed.split()
        assert cells[:2] == [want["model"], want["fusion"]]
        numbers = [want[c] for c in cols[2:]]
        if not numbers[-1]:  # an undefined acc_unf prints blank
            numbers.pop()
        assert cells[2:] == [f"{float(x):.6g}" for x in numbers]
    sweep = (tmp_path / "exp" / "out" / "sweep.csv").read_text().splitlines()
    assert len(sweep) == 2 * 66 + 1  # a header and the 0.1 grid per model
