import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from listboost.core import (
    Dataset,
    LabeledExample,
    ListFunction,
    RandomStream,
    as_instance_key,
    make_dataset,
    normalize,
    normalize_rows,
    ordered_dedup,
    stable_digest,
)
from listboost.errors import (
    AllZeroWeights,
    InvalidParams,
    InvalidWeight,
    ListLookupError,
)


def test_make_dataset_basic():
    ds = make_dataset([("a", 0), ("b", 1), ("a", 0)])
    assert ds.m == 3
    assert ds.alphabet == (0, 1)
    assert ds.instances == ("a", "b", "a")
    assert ds.labels.tolist() == [0, 1, 0]


def test_make_dataset_unique_instances_first_appearance_order():
    ds = make_dataset([("z", 1), ("a", 0), ("z", 1), ("m", 1)])
    assert ds.unique_instances == ("z", "a", "m")
    assert ds.group_ids.tolist() == [0, 1, 0, 2]
    assert ds.first_index.tolist() == [0, 1, 3]


def test_make_dataset_rejects_labels_outside_alphabet():
    with pytest.raises(InvalidParams):
        make_dataset([("a", 0), ("b", 5)], alphabet=(0, 1))


def test_make_dataset_needs_two_labels():
    with pytest.raises(InvalidParams):
        make_dataset([("a", 0)], alphabet=(0,))


def test_dataset_subset_returns_a_dataset_on_the_same_key_table():
    ds = make_dataset([("a", 0), ("b", 1), ("c", 1), ("b", 0)])
    assert ds.unique_instances is ds.key_table and ds.group_ids is ds.key_ids
    sub = ds.subset([3, 2, 0, 2])
    assert isinstance(sub, Dataset)
    assert sub.key_table is ds.key_table and sub.alphabet == ds.alphabet
    assert sub.instances == ("b", "c", "a", "c")
    assert sub.labels.tolist() == [0, 1, 0, 1]
    assert sub.unique_instances == ("b", "c", "a")
    assert sub.group_ids.tolist() == [0, 1, 2, 1]
    assert sub.first_index.tolist() == [0, 1, 2]
    assert sub.examples == (LabeledExample("b", 0), LabeledExample("c", 1),
                            LabeledExample("a", 0), LabeledExample("c", 1))
    assert not (sub.key_ids.flags.writeable or sub.labels.flags.writeable)
    again = sub.subset([1, 0])  # a subset of a subset still indexes the first table
    assert again.key_table is ds.key_table and again.instances == ("c", "b")
    empty = ds.subset([])
    assert empty.m == 0 and empty.unique_instances == () and empty.instances == ()


def test_as_instance_key_coerces_flat_numeric_sequences():
    assert as_instance_key([1, 2]) == (1.0, 2.0)
    assert as_instance_key("x") == "x"
    assert as_instance_key(3) == 3


def test_ordered_dedup_keeps_first_occurrence():
    assert ordered_dedup([3, 1, 3, 2, 1]) == (3, 1, 2)


def test_stable_digest_frozen_values():
    # frozen: digests must never drift across sessions or platforms
    assert stable_digest((1, 2, 3)) == "1df46f871fdb21372bf0d8cf"
    assert stable_digest(("a", 0, ("x", 1))) == "393ddcdc3d632fdd33cc61eb"
    assert stable_digest((1, 2, 3)) != stable_digest((1, 2, 4))


def test_normalize_sums_to_one():
    dist = normalize(np.array([2.0, 1.0, 1.0]))
    assert dist.weights.sum() == 1.0
    assert dist.weights[0] == 0.5


def test_normalize_rejects_bad_weights():
    with pytest.raises(InvalidWeight):
        normalize(np.array([1.0, -0.5]))
    with pytest.raises(InvalidWeight):
        normalize(np.array([1.0, np.nan]))
    with pytest.raises(InvalidWeight):
        normalize(np.array([1.0, np.inf]))
    with pytest.raises(AllZeroWeights):
        normalize(np.zeros(3))
    # finite weights whose total overflows: no bare OverflowError, no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidWeight):
            normalize(np.array([1e308, 1e308]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=1e-9, max_value=1e9), min_size=1, max_size=40))
# regression inputs: an earlier normalize left this sum at 1 - 3.3e-16 ...
@example([1.0, 67564957.0, 5247.5, 324730843.2207031, 588944982.625, 860391538.0625,
          974192491.0, 505138470.953125, 907823821.0, 106578247.33476654, 860322884.2931112])
# ... and moved entry 0 of this one by 3 ulp on renormalizing
@example([1.0, 67556875.0, 907831862.0, 974192529.0, 100.0])
def test_normalize_is_deterministic_and_ulp_stable(ws):
    once = normalize(np.array(ws)).weights
    again = normalize(np.array(ws)).weights
    assert np.array_equal(once, again)
    # fsum, not numpy's pairwise sum, which can sit an ulp or two off even then
    assert math.fsum(once) == 1.0
    twice = normalize(once).weights
    assert np.array_equal(twice, once)


def _weight_row(m):
    """One row of m weights: scaled from 1e-300 to 1e300, with exact zeros; a row that
    already sums to 1; a row of 0s and 1s (Hedge at eta = inf); or one that may be refused."""
    scaled = st.tuples(st.lists(st.one_of(st.just(0.0), st.floats(1.0, 10.0)),
                                min_size=m, max_size=m),
                       st.integers(-300, 300)).map(lambda p: [v * 10.0 ** p[1] for v in p[0]])
    summed = scaled.filter(any).map(lambda ws: normalize(ws).weights.tolist())
    peeled = st.lists(st.sampled_from([0.0, 1.0]), min_size=m, max_size=m)
    refused = st.lists(st.sampled_from([0.0, 1.0, -1.0, math.nan, math.inf, 1e308]),
                       min_size=m, max_size=m)
    return st.one_of(scaled, summed, peeled, refused)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_normalize_rows_is_normalize_of_each_row_bit_for_bit(data):
    m = data.draw(st.integers(1, 30), label="m")
    w = np.array(data.draw(st.lists(_weight_row(m), min_size=1, max_size=6), label="rows"))
    given_bytes = w.tobytes()
    expected = []
    for row in w:
        try:
            expected.append(normalize(row).weights)
        except (InvalidWeight, AllZeroWeights) as exc:  # the first refused row names the error
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                normalize_rows(w)
            break
    else:
        got = normalize_rows(w)
        assert got.tobytes() == np.array(expected).tobytes()
        for row, out in zip(w, got):  # the rule itself, read off each row
            assert math.fsum(out.tolist()) == 1.0
            if math.fsum(row.tolist()) == 1.0 and abs(row.sum() - 1.0) <= 1e-12:
                assert out.tobytes() == row.tobytes()
            else:
                share = row / row.sum()
                others = np.arange(m) != share.argmax()
                assert np.array_equal(out[others], share[others])
    assert w.tobytes() == given_bytes


@pytest.mark.parametrize("rows, error, message", [
    ([[0.0, 0.0], [1.0, math.nan]], AllZeroWeights, "cannot normalize an all-zero"),
    ([[1.0, math.nan], [0.0, 0.0]], InvalidWeight, "finite and non-negative"),
    ([[1.0, 2.0], [1e308, 1e308], [-1.0, 1.0]], InvalidWeight, "finite total, got inf"),
    ([1.0, 2.0], InvalidWeight, "non-empty 2-d array"),
    (np.zeros((2, 0)), InvalidWeight, "non-empty 2-d array"),
])
def test_normalize_rows_refuses_as_normalize_does_at_the_first_bad_row(rows, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            normalize_rows(rows)


def test_random_stream_children_are_reproducible():
    rs = RandomStream(7, ("t",))
    a1 = rs.child("a").generator().integers(0, 1000, size=3).tolist()
    a2 = rs.child("a").generator().integers(0, 1000, size=3).tolist()
    b = rs.child("b").generator().integers(0, 1000, size=3).tolist()
    assert a1 == a2 == [439, 335, 133]  # frozen
    assert b != a1


def test_random_stream_child_path_matters():
    left = RandomStream(0, ("x",)).child("round", 1).generator().random()
    right = RandomStream(0, ("x",)).child("round", 2).generator().random()
    assert left != right


def test_list_function_explicit_and_missing():
    mu = ListFunction.explicit({"a": (0, 1)}, declared_size=2)
    assert mu("a") == (0, 1)
    with pytest.raises(ListLookupError):
        mu("zzz")


def test_list_function_universal():
    mu = ListFunction.universal((0, 1, 2))
    assert mu.is_universal
    assert mu("anything") == (0, 1, 2)


def test_list_function_composed_truncates_extension_to_declared():
    mu = ListFunction.composed(lambda x: (0, 1, 2, 3), declared_size=2,
                               entries={"known": (5,)})
    assert mu("known") == (5,)       # entries win
    assert mu("other") == (0, 1)     # extension clipped


def test_dataset_rejects_empty():
    with pytest.raises(InvalidParams):
        make_dataset([])
