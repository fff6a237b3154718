"""The parse codes ids block by block: its output does not depend on the
block size or on the order of the check-in lines, and its memory is bounded
by the block size and the number of distinct ids, not by the number of
lines."""
import random
import sys
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest

from poifair import data
from poifair.data import DataError, parse_dataset

COLUMNS = ("user", "poi", "ts", "lat", "lon", "category", "edges")


def write_corpus(path, n_users, n_pois, n_checkins, seed=0):
    """A corpus whose check-in lines are shuffled, so that users and POIs
    recur in blocks that are not next to each other, and that holds:
    - POI ids of 9 to 16 bytes, which take two key words, beside short ones;
    - a POI that only a line with an extra field defines, which check-in
      lines with and without an extra field visit;
    - a user that only a check-in line with an extra field names;
    - on its first check-in line, a user and a POI above every other id, so
      that every other id first appears after a larger one.
    Returns the (user, poi, ts) of each check-in line, in file order."""
    rng = random.Random(seed)
    path.mkdir(parents=True, exist_ok=True)
    pois = [f"p{i}" if i % 3 == 0 else f"poi-{i:0{5 + i % 8}d}" for i in range(n_pois)]
    users = [f"u{i}" for i in range(n_users)]
    poi_lines = [
        f"{p}\t{40 + i / 1000}\t{-100 - i / 1000}\tcat{i % 7}" for i, p in enumerate(pois)
    ]
    poi_lines.append("poi-extra-only\t40.5\t-100.5\tcat0\textra")
    poi_lines.append("zz-last-poi\t41\t-101")
    (path / "pois.tsv").write_text("\n".join(poi_lines) + "\n", encoding="utf-8")

    rows = [(rng.choice(users), rng.choice(pois), rng.randrange(1, 2**40))
            for _ in range(n_checkins)]
    rows += [(u, "poi-extra-only", 1000 + i) for i, u in enumerate(users[:5])]
    rows.append(("u-extra-only", pois[0], 7))
    rng.shuffle(rows)
    rows.insert(0, ("zz-last-user", "zz-last-poi", 5))
    lines = []
    for u, p, t in rows:
        # Every 50th line, and the extra-only user's, has an extra field.
        extra = "\tx" if len(lines) % 50 == 49 or u == "u-extra-only" else ""
        lines.append(f"{u}\t{p}\t{t}{extra}")
    (path / "checkins.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    edges = [f"{rng.choice(users)}\t{rng.choice(users + ['ghost'])}" for _ in range(n_users * 3)]
    (path / "social.tsv").write_text("\n".join(edges) + "\n", encoding="utf-8")
    return rows


def parse(path, block_bytes):
    with patch.object(data, "BLOCK_BYTES", block_bytes):
        return parse_dataset(path / "checkins.tsv", path / "pois.tsv", path / "social.tsv")


def test_block_size_changes_nothing(tmp_path):
    rows = write_corpus(tmp_path, n_users=300, n_pois=400, n_checkins=6000)
    small, whole = parse(tmp_path, 4 << 10), parse(tmp_path, 1 << 30)
    assert small.load_report.blocks >= 40 and whole.load_report.blocks == 3
    assert small.load_report.to_json() == whole.load_report.to_json()
    for name in ("user_ids", "poi_ids", "category_ids"):
        assert list(getattr(small, name)) == list(getattr(whole, name)), name
    for name in COLUMNS:
        a, b = getattr(small, name), getattr(whole, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    # ... and both are the file's lines.
    assert list(small.user_ids) == sorted({u for u, _, _ in rows})
    assert small.poi_ids[-1] == "zz-last-poi" and "poi-extra-only" in small.poi_ids
    assert any(len(p.encode()) > 8 for p in small.poi_ids)
    got = zip(
        small.user_ids.decode(small.user), small.poi_ids.decode(small.poi),
        small.ts.tolist(),
    )
    assert [tuple(r) for r in got] == [(u, p, t) for u, p, t in rows]


@pytest.mark.parametrize("block_bytes", [4 << 10, 1 << 30])
def test_unknown_poi_names_its_first_line(tmp_path, block_bytes):
    write_corpus(tmp_path, n_users=50, n_pois=60, n_checkins=1000)
    lines = (tmp_path / "checkins.tsv").read_text(encoding="utf-8").splitlines()
    # A line with an extra field, then one without, with unknown POIs, late
    # in the file.
    lines[700:700] = ["u1\tghost-poi-b\t5\textra", "u1\tghost-poi-a\t5"]
    (tmp_path / "checkins.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as e:
        parse(tmp_path, block_bytes)
    assert str(e.value) == "check-in at line 701 references unknown poi_id 'ghost-poi-b'"


def test_unknown_poi_ends_the_only_read_of_the_checkins(tmp_path):
    """The check-in file is read once: the scan stops in the block that
    holds the first unknown POI, and no block after it is read."""
    write_corpus(tmp_path, n_users=50, n_pois=60, n_checkins=1000)
    lines = (tmp_path / "checkins.tsv").read_text(encoding="utf-8").splitlines()
    lines.insert(300, "u1\tghost-poi\t5")
    (tmp_path / "checkins.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    reads, read_blocks = [], data._read_blocks

    def counted(path):
        reads.append([path.name, 0])
        for block in read_blocks(path):
            reads[-1][1] += 1
            yield block

    with patch.object(data, "_read_blocks", counted), pytest.raises(DataError) as e:
        parse(tmp_path, 4 << 10)
    assert str(e.value) == "check-in at line 301 references unknown poi_id 'ghost-poi'"
    assert [name for name, _ in reads] == ["pois.tsv", "checkins.tsv"]
    with patch.object(data, "BLOCK_BYTES", 4 << 10):
        n_blocks = sum(1 for _ in read_blocks(tmp_path / "checkins.tsv"))
    assert reads[1][1] < n_blocks / 2


@pytest.mark.parametrize("unknown_at,bad_at,error", [
    (100, 900, "check-in at line 101 references unknown poi_id 'ghost-poi'"),
    (900, 100, "line 101 of {} is not valid UTF-8"),
], ids=["unknown-poi-first", "invalid-utf8-first"])
def test_first_bad_block_names_the_error(tmp_path, unknown_at, bad_at, error):
    """Of an unknown POI and invalid UTF-8 in different blocks, the earlier
    one is reported: the scan stops at the first."""
    write_corpus(tmp_path, n_users=50, n_pois=60, n_checkins=1000)
    path = tmp_path / "checkins.tsv"
    lines = path.read_bytes().splitlines()
    lines[unknown_at] = b"u1\tghost-poi\t5"
    lines[bad_at] = b"u\xff\tp0\t5"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(DataError) as e:
        parse(tmp_path, 4 << 10)
    assert str(e.value) == error.format(path)


def test_parse_memory_is_bounded_by_blocks_and_ids(tmp_path):
    """The traced peak of a parse, less the columns and ids it returns,
    stays under a multiple of the block size plus an allowance per distinct
    id, however many lines share those ids. Interning keys of every line at
    once (about 60 bytes a check-in line) overshoots it several times over."""
    write_corpus(tmp_path, n_users=3000, n_pois=2000, n_checkins=40000)
    block_bytes = 16 << 10
    parse(tmp_path, block_bytes)  # warm up: imports, caches
    tracemalloc.start()
    try:
        d = parse(tmp_path, block_bytes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_ids = len(d.user_ids) + len(d.poi_ids)
    assert d.load_report.blocks >= 20 + 2
    returned = sum(getattr(d, name).nbytes for name in COLUMNS) + sum(
        len(ids.buf) + ids.offsets.nbytes for ids in (d.user_ids, d.poi_ids, d.category_ids)
    )
    assert peak - returned < 32 * block_bytes + 100 * n_ids, (peak, returned, n_ids)


def test_ids_hold_their_utf8_bytes_and_an_offset_each(tmp_path):
    """A parsed kind of id is one bytes buffer of the ids' UTF-8 and one
    int64 offset per id, plus one: no Python object per id."""
    rows = write_corpus(tmp_path, n_users=300, n_pois=200, n_checkins=2000)
    d = parse(tmp_path, 4 << 10)
    for ids in (d.user_ids, d.poi_ids, d.category_ids):
        assert type(ids.buf) is bytes and len(ids.buf) == sum(len(s.encode()) for s in ids)
        assert type(ids.offsets) is np.ndarray and ids.offsets.dtype == np.int64
        assert not hasattr(ids, "__dict__")
        assert sys.getsizeof(ids.buf) + ids.offsets.nbytes < 64 + len(ids.buf) + 8 * len(ids)
    assert len(d.user_ids) == len({u for u, _, _ in rows}) and len(d.category_ids) == 7
