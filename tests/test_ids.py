"""`data.Ids` behaves as the sorted list of its distinct strs, whatever
the ids hold (NUL, non-ASCII text, one, two or nine key words), and the
parse's id table grows only when a block brings a new id."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poifair import data
from poifair.data import Ids

import oracles
from test_parse_properties import CATEGORIES, IDS

POOL = [*IDS, *filter(None, CATEGORIES), "\x00", "c\x00", "ü", "𝄞x", "é" * 40, "M" * 70]
names = st.lists(
    st.one_of(st.sampled_from(POOL), st.text(st.characters(blacklist_categories=("Cs",)))),
    max_size=20,
)


def key_rows(ids):
    """The parse's key rows of NUL-free ids: their UTF-8 bytes, NUL-padded
    to whole big-endian uint64 words."""
    width = max(1, -(-max((len(s.encode()) for s in ids), default=0) // 8))
    raw = b"".join(s.encode().ljust(8 * width, b"\0") for s in ids)
    return np.frombuffer(raw, dtype=">u8").reshape(len(ids), width).astype(np.uint64)


@given(names=names, probes=names, data=st.data())
@settings(max_examples=300, deadline=None)
def test_ids_equal_sorted_list_oracle(names, probes, data):
    want = sorted(set(names))
    ids = oracles.ids_of(names)
    assert len(ids) == len(want)
    assert list(ids) == want
    assert [ids[i] for i in range(-len(want), len(want))] == want + want
    for i in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            ids[i]
    for s in names + probes:
        assert (s in ids) == (s in want)
        if s in want:
            assert ids.index(s) == want.index(s)
        else:
            with pytest.raises(ValueError):
                ids.index(s)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(want), max_size=len(want))),
                    dtype=bool)
    kept = ids.take(mask)
    assert list(kept) == [s for s, m in zip(want, mask.tolist()) if m]
    assert kept.offsets.dtype == np.int64 and len(kept.buf) == kept.offsets[-1]
    codes = data.draw(st.lists(st.integers(0, len(want) - 1), max_size=30)) if want else []
    assert ids.decode(np.array(codes, dtype=np.int32)) == [want[c] for c in codes]
    canonical = [s for s in want if s and "\x00" not in s]
    assert list(Ids.from_keys(key_rows(canonical))) == canonical


def test_a_block_of_known_ids_keeps_the_key_table():
    """Only a block that brings a new id copies the table; an empty field's
    zero row is numbered -1 and enters no table. A block's new ids are
    numbered in key order."""
    intern = data._Intern()
    first = intern.block(key_rows(["bb", "a", "a longer id"]))
    table, numbers = intern.keys, intern.number
    # Blocks of the table's width and narrower.
    for block, at in ((["a longer id", "bb"], [2, 0]), (["bb", "a", "bb"], [0, 1, 0])):
        assert intern.block(key_rows(block)).tolist() == first[at].tolist()
        assert intern.keys is table and intern.number is numbers
    assert intern.block(np.zeros((2, 1), dtype=np.uint64)).tolist() == [-1, -1]
    assert intern.keys is table
    assert intern.block(key_rows(["c"])).tolist() == [3] and intern.keys is not table
    assert intern.finish().tolist() == [0, 1, 2, 3]
    assert list(intern.ids) == ["a", "a longer id", "bb", "c"]
