"""Property tests of the config file codec over random valid configs."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evtheremin.events import Resolution
from evtheremin.harness import SimConfig, config_from_dict, config_to_dict
from evtheremin.tracker import CHIP_RES, TrackerConfig
from evtheremin.transport import ChannelConfig


def floats(lo=None, hi=None):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


nonnegative = floats(0.0, 1e6)
probability = floats(0.0, 1.0)
# Finite and above zero, however close.
above_zero = st.floats(0.0, exclude_min=True, allow_infinity=False)


# An input no smaller than the chip.
resolutions = st.builds(Resolution, st.integers(CHIP_RES.width, 4096), st.integers(CHIP_RES.height, 4096))
tracker_configs = st.builds(
    TrackerConfig,
    input_res=resolutions,
    window_us=st.integers(1, 2**63 - 1),
    detector=st.sampled_from(["blob", "sd_net"]),
    use_field=st.booleans(),
)


sim_configs = st.builds(
    SimConfig,
    seed=st.integers(0),
    scenario_path=st.text(),
    score_path=st.text(),
    tracker=tracker_configs,
    channel=st.builds(
        ChannelConfig, probability, probability, nonnegative, nonnegative,
        st.integers(0, 64), st.integers(0),
    ),
    reorder_window=st.integers(0),
    tempo=above_zero,
)


def slots(obj, path=""):
    """(parent, key, dotted path, value) for every value below obj."""
    for key, value in obj.items():
        dotted = f"{path}.{key}" if path else key
        yield obj, key, dotted, value
        if isinstance(value, dict):
            yield from slots(value, dotted)


@given(sim_configs)
def test_roundtrip_through_json(cfg):
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


@given(sim_configs, st.data())
def test_unknown_key_at_any_depth_is_named(cfg, data):
    obj = config_to_dict(cfg)
    sections = [("", obj)] + [(dotted, v) for _, _, dotted, v in slots(obj) if isinstance(v, dict)]
    path, section = data.draw(st.sampled_from(sections))
    key = data.draw(st.from_regex(r"[a-z_]{1,12}", fullmatch=True).filter(lambda k: k not in section))
    section[key] = 1
    with pytest.raises(ValueError) as exc:
        config_from_dict(obj)
    if path:
        assert str(exc.value) == f"unknown key {path}.{key}"
    else:
        assert str(exc.value) == f"unknown config keys: {[key]}"


scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats(), st.text())
# Not an object: what a section must be.
not_objects = st.one_of(scalars, st.lists(scalars, max_size=3))
# Not a pair of numbers: what a resolution must be.
not_pairs = st.one_of(
    scalars,
    st.dictionaries(st.text(), scalars, max_size=2),
    st.lists(st.integers(1, 100), max_size=4).filter(lambda v: len(v) != 2),
    st.tuples(st.one_of(st.none(), st.booleans(), st.text(), st.lists(st.integers())), st.integers(1, 100)).map(list),
)


@given(sim_configs, st.data())
def test_wrong_shape_is_a_value_error_naming_the_key(cfg, data):
    obj = config_to_dict(cfg)
    targets = [(parent, key, dotted) for parent, key, dotted, v in slots(obj) if isinstance(v, (dict, list))]
    parent, key, dotted = data.draw(st.sampled_from(targets))
    parent[key] = data.draw(not_objects if isinstance(parent[key], dict) else not_pairs)
    with pytest.raises(ValueError) as exc:
        config_from_dict(obj)
    assert dotted in str(exc.value)


not_finite = st.sampled_from([math.inf, -math.inf, math.nan])

# (section, key, out-of-range value): each trips a section's __post_init__.
# The top-level section is "", and its messages start with "config: <key>".
out_of_range = st.one_of(
    st.tuples(st.just("tracker"), st.just("window_us"), st.integers(-10**9, 0) | st.integers(2**63, 2**70)),
    st.tuples(st.just("tracker"), st.just("detector"), st.text().filter(lambda d: d not in ("blob", "sd_net"))),
    st.tuples(st.just("tracker.input_res"), st.just(None), st.tuples(st.integers(-5, 0), st.integers(1, 9)).map(list)),
    st.tuples(st.just("tracker"), st.just("input_res"), st.tuples(st.integers(1, CHIP_RES.width - 1),
                                                                  st.integers(1, 4096)).map(list)),
    st.tuples(st.just("channel"), st.just("loss_p"), floats(lo=1.0 + 1e-9)),
    st.tuples(st.just("channel"), st.just("seed"), st.integers(max_value=-1)),
    st.tuples(st.just(""), st.just("seed"), st.integers(max_value=-1)),
    st.tuples(st.just(""), st.just("reorder_window"), st.integers(max_value=-1)),
    st.tuples(st.just(""), st.just("tempo"), st.floats(max_value=0.0) | not_finite),
)


@given(sim_configs, out_of_range)
def test_range_error_names_the_section(cfg, bad):
    obj = config_to_dict(cfg)
    path, key, value = bad
    *parents, last = [name for name in (*path.split("."), key) if name]
    section = obj
    for name in parents:
        section = section[name]
    section[last] = value
    with pytest.raises(ValueError) as exc:
        config_from_dict(obj)
    assert str(exc.value).startswith(f"{path}: " if path else f"config: {key} ")
