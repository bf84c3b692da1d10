"""``Membership`` against a plain ``subject -> cs_id`` dict.

The schema's membership is two aligned read-only arrays; every edit returns
a new value.  A model test drives random ``assigned`` / ``without`` /
``without_table`` / ``remapped`` sequences against a dict and, after every
step, asks both the two questions (``cs_of`` over OIDs below, between and
above every stored subject; ``members`` of every table).  Examples are
derandomized, like the rest of the suite's hypothesis tests.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cs import EmergentSchema, Membership

OIDS = st.integers(0, 40)
TABLES = st.integers(0, 3)
PROBES = np.arange(-2, 44, dtype=np.int64)

EDITS = st.one_of(
    st.tuples(st.just("assigned"), st.lists(OIDS, max_size=8), TABLES),
    st.tuples(st.just("without"), st.lists(OIDS, max_size=8)),
    st.tuples(st.just("without_table"), TABLES),
    # a permutation of some OIDs among themselves, as subject clustering makes
    st.lists(OIDS, unique=True, max_size=10).flatmap(
        lambda olds: st.permutations(olds).map(lambda news: ("remapped", olds, news))),
)


def apply_to_model(model: dict, edit: tuple) -> dict:
    name, *args = edit
    if name == "assigned":
        return {**model, **dict.fromkeys(args[0], args[1])}
    if name == "without":
        return {s: cs for s, cs in model.items() if s not in args[0]}
    if name == "without_table":
        return {s: cs for s, cs in model.items() if cs != args[0]}
    moved = dict(zip(*args))
    return {moved.get(s, s): cs for s, cs in model.items()}


def assert_matches(membership: Membership, model: dict) -> None:
    assert membership.subjects.tolist() == sorted(model)
    assert membership.cs_ids.tolist() == [model[s] for s in sorted(model)]
    assert len(membership) == len(model)
    for array in (membership.subjects, membership.cs_ids):
        assert array.dtype == np.int64 and not array.flags.writeable
    assert membership.cs_of(PROBES).tolist() == [model.get(int(s), -1) for s in PROBES]
    for cs_id in range(-1, 5):
        assert membership.members(cs_id).tolist() == sorted(
            s for s, cs in model.items() if cs == cs_id)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(EDITS, max_size=12))
def test_edit_sequences_agree_with_a_dict(edits):
    membership, model = Membership(), {}
    assert_matches(membership, model)  # the empty membership answers too
    for edit in edits:
        name, *args = edit
        edited = getattr(membership, name)(*args)
        assert_matches(membership, model)  # an edit leaves its receiver alone
        membership, model = edited, apply_to_model(model, edit)
        assert_matches(membership, model)


def test_of_tables_takes_members_in_any_order():
    membership = Membership.of_tables({2: [9, 3], 0: [], 1: [5]})
    assert membership.subjects.tolist() == [3, 5, 9]
    assert membership.cs_ids.tolist() == [2, 1, 2]
    assert len(Membership.of_tables({})) == 0


def test_a_subject_belongs_to_one_table():
    with pytest.raises(ValueError, match="ascending"):
        Membership([3, 3], [0, 1])
    with pytest.raises(ValueError, match="ascending"):
        Membership([5, 3], [0, 0])
    with pytest.raises(ValueError, match="ascending"):
        Membership.of_tables({0: [4, 7], 1: [7]})
    with pytest.raises(ValueError, match="ascending"):
        Membership([3, 5], [0, 1]).remapped([3], [5])  # not a permutation
    with pytest.raises(ValueError, match="pairs"):
        Membership([3, 5], [0])


def test_arrays_cannot_be_written_and_do_not_alias_their_source():
    source = np.asarray([3, 5], dtype=np.int64)
    membership = Membership(source, [0, 1])
    source[0] = 4
    assert membership.subjects.tolist() == [3, 5]
    with pytest.raises(ValueError, match="read-only"):
        membership.subjects[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        membership.cs_ids[0] = 1


def test_a_copied_schema_shares_the_immutable_membership():
    schema = EmergentSchema(membership=Membership([3, 5], [0, 0]))
    pinned = copy.deepcopy(schema)
    assert pinned.membership is schema.membership
    schema.membership = schema.membership.assigned([7], 0)
    assert pinned.cs_of_subject(7) is None and schema.cs_of_subject(7) == 0
    assert schema.cs_of_subject(4) is None and schema.cs_of_subject(5) == 0
