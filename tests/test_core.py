import math
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
