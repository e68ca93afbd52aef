"""Config fuzz: every document either parses or raises ConfigError, and every
small run exits 0-3 without raising."""

import cmath
import tempfile
from dataclasses import fields

from hypothesis import given, settings, strategies as st

import zitterlab as zl
from zitterlab.cli import main, parse_config
from zitterlab.scenarios import SCENARIOS, ScenarioConfig

KEYS = [f.name for f in fields(ScenarioConfig) if f.name != "provided"]

# Value texts that some key accepts and others reject, plus the edge cases of
# the parsers: non-finite, signed, empty and malformed numbers and lists.
VALUE_TEXTS = [
    "1", "0", "-1", "2.5", "1e-3", "1e300", "-1e-300", "inf", "-inf", "nan", "1+0.5j", "2j", "nanj",
    "0.1, 0.01", "16, 32", "1, 2j, 3", ",", " , ", "", "true", "off", "maybe", "s_minus", "circular",
    "de_broglie", "compton", "polynomial", "constant", *SCENARIOS,
]
value_text = st.one_of(st.sampled_from(VALUE_TEXTS), st.text(max_size=8))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.tuples(st.sampled_from(KEYS + ["wibble"]), value_text), max_size=6))
def test_parse_config_returns_a_config_or_raises_config_error(pairs):
    text = "".join(f"{key} = {value}\n" for key, value in pairs)
    try:
        cfg = parse_config(text)
    except zl.ConfigError:
        return
    assert isinstance(cfg, ScenarioConfig)
    assert cfg.provided == {key for key, _ in pairs}
    for key in cfg.provided:
        value = getattr(cfg, key)
        for number in value if isinstance(value, tuple) else [value]:
            assert isinstance(number, str) or cmath.isfinite(number), (key, value)


# Bounds that keep each run short (grids of 16-64 points, T <= 0.1, 1000
# ensemble samples, a few cycles, omega >= 1 for the period-long harmonic
# runs); every other key mixes valid and invalid values.
SMALL = {
    "n_grid": st.sampled_from(["16", "32", "64"]),
    "box_half_width": st.sampled_from(["4", "8"]),
    "T": st.sampled_from(["0.02", "0.05", "0.1", "1e-5"]),  # 1e-5 < dt/2 at the default dt: a wave run of no step
    "ensemble_n": st.just("1000"),
    "cycles": st.sampled_from(["1", "2", "5"]),
    "hj_ns": st.sampled_from(["16, 32", "16, 32, 64"]),
    "omega": st.sampled_from(["1", "2", "4"]),
    "dt": st.sampled_from(["1e-3", "2e-3"]),
}
FREE = [key for key in KEYS if key not in SMALL and key != "scenario"]


@st.composite
def small_configs(draw):
    keys = {"scenario": draw(st.sampled_from(SCENARIOS))}
    keys.update({key: draw(strategy) for key, strategy in SMALL.items()})
    for key in draw(st.lists(st.sampled_from(FREE), max_size=2, unique=True)):
        keys[key] = draw(st.sampled_from(VALUE_TEXTS + ["0.5", "3", "1e-5", "1000", "-0.5"]))
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


@settings(derandomize=True, deadline=None, max_examples=300)
@given(small_configs())
def test_main_exits_zero_to_three(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/fuzz.cfg"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert main(["run", path, "--check", "--out", f"{tmp}/out"]) in (0, 1, 2, 3)
