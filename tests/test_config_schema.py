"""Properties of the one config schema: the RunConfig field table."""

import dataclasses

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import liouville_lab as ll
import liouville_lab.cli as ll_cli
from liouville_lab.config import RunConfig, config_from_entries

FIELDS = dataclasses.fields(RunConfig)
# derandomized, so that every run of the suite checks the same examples
SCHEMA = settings(max_examples=25, derandomize=True, deadline=None,
                  suppress_health_check=[HealthCheck.filter_too_much])

_reals = (st.floats(0.0, 1.0) | st.floats(allow_nan=False)).map(repr) \
    | st.integers(-10**6, 10**6).map(str)
_real_lists = st.lists(_reals, min_size=1, max_size=4).map(", ".join)
_texts = st.text(st.characters(codec="utf-8"), max_size=12)

# raw entry text per value kind; some texts are rejected by the checks
RAW = {
    "int": st.integers(-10, 10**9).map(str),
    "float": _reals,
    "bool": st.sampled_from(["true", "false"]),
    "floats": st.just("") | _real_lists,
    "opt_float": st.just("none") | _reals,
    "opt_floats": st.just("none") | _real_lists,
    "str": _texts,
    "opt_strs": st.just("none") | _texts,
}


def _config_or_reject(entries):
    try:
        return config_from_entries(entries)
    except ll.ConfigError:
        assume(False)


@st.composite
def _entries(draw):
    entries = {"seed": draw(RAW["int"])}
    for f in draw(st.lists(st.sampled_from(FIELDS), max_size=6)):
        entries[f.metadata["key"]] = draw(RAW[f.metadata["kind"]])
    return entries


@settings(SCHEMA, max_examples=300)
@given(_entries())
def test_emitted_config_parses_to_the_same_config(entries):
    cfg = _config_or_reject(entries)
    assert ll.parse_config(ll.emit_config(cfg)) == cfg


def test_every_field_has_a_flag_or_a_switch():
    assert all(f.metadata["flag"] or f.metadata["switches"] for f in FIELDS)


# every flag and switch of every field, read off the field table
SETTERS = [(f, f.metadata["flag"], None) for f in FIELDS if f.metadata["flag"]]
SETTERS += [(f, switch, value) for f in FIELDS
            for switch, value in f.metadata["switches"]]
PARSER = ll_cli._make_parser()


@pytest.mark.parametrize("f, option, const", SETTERS,
                         ids=[option for _, option, _ in SETTERS])
@SCHEMA
@given(data=st.data())
def test_each_flag_sets_its_key(f, option, const, data):
    key = f.metadata["key"]
    if const is None:
        raw = data.draw(RAW[f.metadata["kind"]])
        argv = [f"{option}={raw}"]
    else:
        raw, argv = const, [option]
    seed = [] if key == "seed" else ["--seed=0"]
    expected = _config_or_reject({"seed": "0", key: raw})
    args = PARSER.parse_args(["couple", *seed, *argv])
    entries = ll_cli._entries(args)
    assert entries[key] == raw
    assert getattr(config_from_entries(entries), f.name) \
        == getattr(expected, f.name)
