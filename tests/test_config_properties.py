"""parse_config keeps every finite number it reads and refuses the rest by key."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kdvlab.cli import ConfigError, parse_config  # noqa: E402

BASE = {"j": "1", "K": "8"}
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_FINITE = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "+Infinity", "1e400"])


@settings(max_examples=100, deadline=None)
@given(st.lists(FINITE, min_size=1, max_size=6, unique=True).map(sorted))
def test_n_list_round_trips_repr(values):
    # strictly increasing: unique under ==, so 0.0 and -0.0 never both occur
    text = ",".join(map(repr, values))
    resolved = parse_config("approx-sweep", None, {**BASE, "N_list": text})["N_list"]
    assert list(map(repr, resolved)) == list(map(repr, values))


@settings(max_examples=60, deadline=None)
@given(st.lists(FINITE, max_size=4), NON_FINITE, st.integers(0, 4), st.sampled_from(["N_list", "mu"]))
def test_non_finite_token_names_its_key(values, token, at, key):
    tokens = list(map(repr, values)) if key == "N_list" else []
    tokens.insert(at, token)
    with pytest.raises(ConfigError, match=f"bad value for key '{key}'"):
        parse_config("approx-sweep", None, {**BASE, "N_list": "4", key: ",".join(tokens)})
