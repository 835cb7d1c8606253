"""Properties of the one config schema: the RunConfig field table."""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

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
FLAGS = {f.metadata["key"]: f.metadata["flag"] for f in FIELDS}
OTHER_END = {"coupling.x0": "coupling.y0", "coupling.y0": "coupling.x0"}


def _partners(key, raw):
    """The entries that a raw value of key needs beside it to pass."""
    if key == "coupling.dt":  # a horizon of whole steps: here one step
        return {"coupling.t_max": raw}
    if key not in OTHER_END:
        return {}
    if raw == "none":  # the start points are given together or not at all
        return {OTHER_END[key]: raw}
    # the other start point one unit away on the first axis, and field.dim
    # as long as the point
    first, *rest = raw.split(", ")
    return {OTHER_END[key]: ", ".join([repr(float(first) + 1), *rest]),
            "field.dim": str(1 + len(rest))}


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
    partner = _partners(key, raw)
    argv += [f"{FLAGS[other]}={value}" for other, value in partner.items()]
    expected = _config_or_reject({"seed": "0", key: raw, **partner})
    args = PARSER.parse_args(["couple", *seed, *argv])
    entries = ll_cli._entries(args)
    assert entries[key] == raw
    assert getattr(config_from_entries(entries), f.name) \
        == getattr(expected, f.name)


INT_FIELDS = [f for f in FIELDS if f.metadata["kind"] == "int"]


@pytest.mark.parametrize("f", INT_FIELDS,
                         ids=[f.metadata["key"] for f in INT_FIELDS])
def test_int_fields_refuse_a_fraction(f):
    # the text format holds whole numbers only, so a fraction passed from
    # Python would break parse_config(emit_config(cfg)) == cfg
    whole = 0 if f.default is dataclasses.MISSING else f.default
    cfg = RunConfig(**{"seed": 0, f.name: float(whole)})
    assert ll.parse_config(ll.emit_config(cfg)) == cfg
    for bad in (whole + 0.5, float("inf"), float("nan")):
        with pytest.raises(ll.ConfigError, match=re.escape(
                f"{f.metadata['key']} must be an integer")):
            RunConfig(**{"seed": 0, f.name: bad})


# the simulators take every run knob from cfg; a RunConfig knob that came
# back as a parameter would give two places to set it
SIMULATOR_PARAMETERS = {
    "simulate_coupling": ["field", "bounds", "cfg", "record_distance_at"],
    "simulate_pair_trajectory": ["field", "bounds", "cfg", "stride"],
    "martingale_check": ["field", "bounds", "cfg", "x0", "u"],
}


@pytest.mark.parametrize("name", sorted(SIMULATOR_PARAMETERS))
def test_simulators_take_their_run_from_the_config(name):
    params = inspect.signature(getattr(ll, name)).parameters
    assert list(params) == SIMULATOR_PARAMETERS[name]


@pytest.mark.parametrize("t_max, dt, n_steps", [
    (0.0, 1e-3, 0), (0.1, 1e-2, 10), (0.3, 0.1, 3), (1.0, 1e-3, 1000),
    (50.0, 1e-3, 50_000), (1e4, 1e-3, 10_000_000)])
def test_coupling_horizon_takes_whole_steps(t_max, dt, n_steps):
    # t_max/dt is a whole number up to rounding (0.3/0.1 = 2.9999999999999996)
    cfg = RunConfig(seed=0, coupling_t_max=t_max, coupling_dt=dt)
    assert cfg.n_steps() == n_steps


def _attributes(tree):
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


def test_every_field_is_read_outside_the_schema():
    # a knob that no module reads off the config, itself or through a
    # RunConfig method that a module calls, changes nothing
    src = Path(ll.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in src.glob("*.py")}
    read = set().union(*(_attributes(tree) for name, tree in trees.items()
                         if name != "config.py"))
    run_config, = [node for node in trees["config.py"].body
                   if isinstance(node, ast.ClassDef)
                   and node.name == "RunConfig"]
    for method in run_config.body:
        if isinstance(method, ast.FunctionDef) and method.name in read:
            read |= _attributes(method)
    assert [f.name for f in FIELDS if f.name not in read] == []
