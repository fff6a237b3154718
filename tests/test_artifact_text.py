"""Artifacts are written as formatted text lines, with no csv module: CSV
lines are those `csv.writer` writes with its defaults, here the oracle, and
ids that hold commas, quotes and non-ASCII text come back whole."""
import csv
import hashlib
import io

from hypothesis import given, settings, strategies as st

from poifair.config import ExperimentConfig
from poifair.pipeline import _csv_line, _fmt, run_pipeline
from poifair.synth import SynthConfig, generate, write_tsv

cell_st = st.one_of(
    st.text(st.characters(blacklist_characters="\x00")),
    st.sampled_from([",", '"', '""', "\r", "\n", "\r\n", " ", "a,b", 'x"y', "Ωμέγα"]),
    st.integers(min_value=-2**63, max_value=2**63),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
)


def writer_line(row) -> str:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerow([_fmt(x) for x in row])
    return buf.getvalue()


@settings(max_examples=500, deadline=None)
@given(row=st.lists(cell_st, min_size=2, max_size=8))
def test_csv_line_is_the_csv_writers(row):
    """Every artifact row has at least two cells: NUL-free text, ints,
    floats as `_fmt` writes them, or None for an empty cell."""
    assert _csv_line(row) == writer_line(row)


# A prefix with a comma, a quote and non-ASCII text; shared by every id, it
# keeps their order, and so every tie-break.
PREFIX = 'Ω,"μ·'
# The SHA-256 of the prefixed corpus's profiles.csv as csv.writer wrote it.
PROFILES_SHA256 = "612dab05625ec76b25f3809dbe658b2fb34581d28bb4a72a4e47bd700034a92d"


def _read_csv(path):
    return list(csv.reader(io.StringIO(path.read_bytes().decode(), newline="")))


def test_ids_with_commas_and_quotes_come_back_whole(tmp_path):
    """The corpus with every id and category behind PREFIX: each CSV
    artifact is the lines `csv.writer` writes for the rows `csv.reader`
    reads back from it, byte for byte, and those rows, the prefix removed,
    are the base corpus's; so are the TSV lists' rows, split on tabs."""
    base = write_tsv(
        generate(SynthConfig(n_users=60, n_clusters=4, pois_per_cluster=10, seed=11)),
        tmp_path / "base",
    )
    (tmp_path / "prefixed").mkdir()
    cols = {"checkins": (0, 1), "pois": (0, 3), "social": (0, 1)}
    prefixed = {}
    for name, path in base.items():
        prefixed[name] = tmp_path / "prefixed" / path.name
        prefixed[name].write_text("".join(
            "\t".join(PREFIX + f if i in cols[name] and f else f
                      for i, f in enumerate(line.rstrip("\n").split("\t"))) + "\n"
            for line in path.read_text(encoding="utf-8").splitlines()
        ), encoding="utf-8")
    outs = {}
    for kind, files in (("base", base), ("prefixed", prefixed)):
        outs[kind] = tmp_path / f"{kind}_out"
        run_pipeline(ExperimentConfig(
            checkin_path=str(files["checkins"]), poi_path=str(files["pois"]),
            social_path=str(files["social"]), out_dir=str(outs[kind]), models=["geosoca"],
        ))

    def unprefixed(rows):
        return [[c.replace(PREFIX, "") for c in row] for row in rows]

    for name in ("profiles.csv", "groups.csv", "table3.csv"):
        rows = _read_csv(outs["prefixed"] / name)
        written = (outs["prefixed"] / name).read_bytes().decode()
        assert "".join(map(writer_line, rows)) == written, name
        assert unprefixed(rows) == _read_csv(outs["base"] / name), name
    profiles = (outs["prefixed"] / "profiles.csv").read_bytes()
    assert hashlib.sha256(profiles).hexdigest() == PROFILES_SHA256
    users = [row[0] for row in _read_csv(outs["prefixed"] / "profiles.csv")[1:]]
    assert users and all(u.startswith(PREFIX) for u in users)
    for rule in ("product", "sum"):
        name = f"recommendations_geosoca_{rule}.tsv"
        rows, base_rows = (
            [line.split("\t") for line in (outs[kind] / name).read_text("utf-8").splitlines()]
            for kind in ("prefixed", "base")
        )
        assert unprefixed(rows) == base_rows, name
