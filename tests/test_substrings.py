"""Property tests: the level-wise substring count against the naive oracle.

The miner counts only substrings that can still reach the support
threshold. Over arbitrary name multisets (duplicates included) and
mining parameters, its supports must equal the naive all-substrings
count above the threshold, and the batch miner and the standing
counter, whatever add/discard churn reached the multiset, must select
exactly the patterns selection over the naive count does.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.substrings import (
    SubstringCounter,
    _select_patterns,
    frequent_substrings,
    mine_substrings,
)
from tests.substring_oracle import naive_substring_counts

# A small alphabet makes long shared substrings, and so deep levels, likely.
_name = st.text(alphabet="abAB.-_0", max_size=16)


@st.composite
def _multisets(draw):
    distinct = draw(st.lists(_name, max_size=10))
    repeats = draw(
        st.lists(
            st.integers(min_value=1, max_value=4),
            min_size=len(distinct), max_size=len(distinct),
        )
    )
    names = [name for name, count in zip(distinct, repeats) for _ in range(count)]
    return draw(st.permutations(names))


_params = st.fixed_dictionaries(
    {
        "min_length": st.integers(min_value=1, max_value=6),
        "span": st.integers(min_value=0, max_value=10),
        "min_support": st.integers(min_value=1, max_value=6),
        "top": st.integers(min_value=1, max_value=30),
        "containment_slack": st.sampled_from([0.0, 0.5, 0.9, 1.0, 1.5]),
    }
)


def _oracle(names, params):
    counts = naive_substring_counts(
        names, params["min_length"], params["min_length"] + params["span"]
    )
    return _select_patterns(
        counts,
        min_support=params["min_support"],
        top=params["top"],
        containment_slack=params["containment_slack"],
    )


@settings(max_examples=300, deadline=None)
@given(names=_multisets(), params=_params)
def test_level_wise_supports_equal_the_frequent_naive_counts(names, params):
    max_length = params["min_length"] + params["span"]
    naive = naive_substring_counts(names, params["min_length"], max_length)
    supports = frequent_substrings(
        Counter(name.lower() for name in names),
        min_length=params["min_length"],
        max_length=max_length,
        min_support=params["min_support"],
    )
    assert supports == {
        substring: support
        for substring, support in naive.items()
        if support >= params["min_support"]
    }


@settings(max_examples=300, deadline=None)
@given(names=_multisets(), params=_params)
def test_batch_miner_selects_what_the_oracle_selects(names, params):
    mined = mine_substrings(
        names,
        min_length=params["min_length"],
        max_length=params["min_length"] + params["span"],
        min_support=params["min_support"],
        top=params["top"],
        containment_slack=params["containment_slack"],
    )
    assert mined == _oracle(names, params)


@settings(max_examples=200, deadline=None)
@given(names=_multisets(), churn=st.lists(_name, max_size=6), params=_params)
def test_standing_counter_selects_what_the_oracle_selects(names, churn, params):
    counter = SubstringCounter(
        min_length=params["min_length"],
        max_length=params["min_length"] + params["span"],
    )
    # Names that come and go before the multiset settles must leave no trace.
    for name in churn:
        counter.add(name)
    for name in names:
        counter.add(name)
    for name in churn:
        counter.discard(name)
    selected = counter.select(
        min_support=params["min_support"],
        top=params["top"],
        containment_slack=params["containment_slack"],
    )
    assert selected == _oracle(names, params)
