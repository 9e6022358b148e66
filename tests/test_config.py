"""Config schema: round-trips, validation, canonical hashing."""

import copy
import dataclasses
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phononherald import config as C


def test_default_config_valid():
    cfg = C.default_config()
    assert cfg.protocol.p_pair == 0.03
    assert cfg.chain.window_read_ns == 55.0


def test_detector_efficiencies_sum_small():
    chain = C.default_config().chain
    e1, e2 = chain.detector_efficiency(1), chain.detector_efficiency(2)
    assert e1 == pytest.approx(0.011, rel=0.01)
    assert e2 == pytest.approx(0.016, rel=0.01)
    assert e1 + e2 == pytest.approx(0.027, rel=0.01)


def test_leak_mean_matches_leaked_fraction():
    # with mean leak m per pulse and pair rate p, the leaked share of
    # detected photons is m/(m+p); the default targets 4%
    chain = C.default_config().chain
    p = 0.03
    m = chain.leak_mean_photons(p)
    assert m / (m + p) == pytest.approx(chain.leak_fraction, abs=1e-12)


def test_save_load_round_trip(tmp_path):
    cfg = C.default_config().replace(seed=99)
    path = tmp_path / "config.json"
    C.save(cfg, path)
    loaded = C.load(path)
    assert loaded == cfg
    assert loaded.config_hash() == cfg.config_hash()


def test_hash_sensitive_to_any_field():
    cfg = C.default_config()
    h0 = cfg.config_hash()
    assert cfg.replace(seed=cfg.seed + 1).config_hash() != h0
    heated = cfg.replace(heating=dataclasses.replace(cfg.heating, n_base=0.03))
    assert heated.config_hash() != h0


def test_hash_is_stable_across_processes():
    # FNV-1a of the canonical JSON, not Python's salted hash()
    cfg = C.default_config()
    assert cfg.config_hash() == C.fnv1a64(cfg.canonical_json())
    assert format(cfg.config_hash(), "016x") == "8b42b4c67506512d"


def test_unknown_section_rejected():
    with pytest.raises(C.ConfigError, match="unknown config section"):
        C.from_dict({"detectorz": {}})


def test_unknown_field_rejected():
    with pytest.raises(C.ConfigError, match="unknown field"):
        C.from_dict({"protocol": {"p_pairs": 0.1}})


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(C.ConfigError, match="invalid JSON"):
        C.load(path)


@pytest.mark.parametrize("section,field,value,fragment", [
    ("protocol", "p_pair", 1.5, "outside [0, 1]"),
    ("protocol", "p_pair", -0.1, "outside [0, 1]"),
    ("heating", "tau_rise_us", 0.0, "must be > 0"),
    ("heating", "n_base", -1.0, "must be >= 0"),
    ("chain", "eta_qe1", 2.0, "outside [0, 1]"),
    ("numerics", "n_max", 1, "must be >= 2"),
])
def test_field_validation(section, field, value, fragment):
    # a config checks itself when built, so the replace raises
    cfg = C.default_config()
    bad = dataclasses.replace(getattr(cfg, section), **{field: value})
    with pytest.raises(C.ConfigError, match=f"{section}.{field}") as exc:
        cfg.replace(**{section: bad})
    assert fragment in str(exc.value)


def test_delta_t_list_must_ascend():
    cfg = C.default_config()
    with pytest.raises(C.ConfigError, match="ascending"):
        cfg.replace(protocol=dataclasses.replace(
            cfg.protocol, delta_t_list_ns=(200.0, 100.0)))


def test_high_pair_rate_accepted():
    # p_pair*(1+n_base) > 0.5 only strains the truncated Fock oracle, which
    # raises its own TruncationError; the closed-form tables handle it
    from phononherald import protocol
    cfg = C.default_config()
    for p_pair, n_base in ((0.9, 0.025), (0.3, 2.0), (1.0, 2.0)):
        high = cfg.replace(
            protocol=dataclasses.replace(cfg.protocol, p_pair=p_pair),
            heating=dataclasses.replace(cfg.heating, n_base=n_base))
        C.check(high)
        table = protocol.build_outcome_table(high, 100.0)
        assert table.probs.sum() == pytest.approx(1.0, abs=protocol.PROB_SUM_TOL)


def test_trials_bound_is_the_counter_range():
    # every (trial, draw) counter, trial * 8 + draw + 1, is a distinct uint64
    cfg = C.default_config()
    for delays in ((100.0,), (100.0, 200.0)):
        largest = (2 ** 61 - 1) // len(delays)
        C.check(cfg.replace(protocol=dataclasses.replace(
            cfg.protocol, delta_t_list_ns=delays, trials=largest)))
        with pytest.raises(C.ConfigError, match="protocol.trials"):
            C.check(cfg.replace(protocol=dataclasses.replace(
                cfg.protocol, delta_t_list_ns=delays, trials=largest + 1)))


def test_largest_occupations_build():
    from phononherald import protocol
    cfg = C.default_config()
    hot = cfg.replace(heating=dataclasses.replace(
        cfg.heating, n_base=1e4, a_heat=1e4, read_heat=1e4))
    C.check(hot)
    for delta_t in (0.0, 100.0, 1500.0, 1e6):
        table = protocol.build_outcome_table(hot, delta_t)
        assert table.probs.sum() == pytest.approx(1.0, abs=protocol.PROB_SUM_TOL)
    assert protocol.simulate_thermometry(hot, 20_000).clicks_red > 0


@pytest.mark.parametrize("chain_fields,fragment", [
    ({"leak_fraction": 1.0}, "chain.leak_fraction: 1.0 outside [0, 1)"),
    ({"eta_c": 1.0, "eta_fc": 1.0, "eta_qe1": 1.0, "eta_qe2": 1.0,
      "eta_path1": 0.6, "eta_path2": 0.5}, "chain.eta_path1, chain.eta_path2"),
    ({"dark_rate_hz": 2e7}, "chain.window_read_ns must be < 1"),  # 55 ns, not 40
    ({"dark_rate_hz": 3e7}, "chain.window_write_ns must be < 1"),
], ids=["leak-fraction-1", "efficiency-sum", "dark-read-window", "dark-both-windows"])
def test_detection_chain_gaps_rejected(chain_fields, fragment):
    cfg = C.default_config()
    with pytest.raises(C.ConfigError) as exc:
        cfg.replace(chain=dataclasses.replace(cfg.chain, **chain_fields))
    assert fragment in str(exc.value)


def test_detection_chain_edges_accepted():
    # the limits themselves are physical: a leak share just below 1, two
    # detectors that together catch every photon
    cfg = C.default_config()
    C.check(cfg.replace(chain=dataclasses.replace(
        cfg.chain, leak_fraction=0.999, eta_c=1.0, eta_fc=1.0, eta_qe1=1.0,
        eta_qe2=1.0, eta_path1=0.5, eta_path2=0.5)))


def test_canonical_json_is_sorted_and_compact():
    text = C.default_config().canonical_json()
    data = json.loads(text)
    assert list(data) == sorted(data)
    assert ": " not in text


_DEFAULT = C.default_config().to_dict()
# every field of every section, the seed, and the first delay element
_PATHS = [(section, name) for section, fields in _DEFAULT.items()
          if isinstance(fields, dict) for name in fields]
_PATHS += [("seed",), ("protocol", "delta_t_list_ns", 0)]
_NUMBERS = st.one_of(st.integers(-10 ** 400, 10 ** 400), st.floats())
_VALUES = st.one_of(_NUMBERS, st.booleans(), st.none(), st.text(max_size=3),
                    st.lists(_NUMBERS, max_size=3))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(_PATHS), _VALUES, min_size=1, max_size=3))
@example({("protocol", "p_pair"): 10 ** 400})
@example({("protocol", "delta_t_list_ns", 0): 10 ** 400})
@example({("chain", "dark_rate_hz"): 10 ** 308, ("chain", "window_read_ns"): 10 ** 308})
def test_schema_rejects_or_round_trips(replacements):
    # any value in any field is either a ConfigError or a config whose
    # canonical JSON loads back to the same config and hash
    data = copy.deepcopy(_DEFAULT)
    # a delay element first, so a later whole-list value replaces it
    for path in sorted(replacements, key=len, reverse=True):
        *parents, last = path
        node = data
        for key in parents:
            node = node[key]
        node[last] = replacements[path]
    try:
        cfg = C.from_dict(data)
    except C.ConfigError:
        return
    again = C.from_dict(json.loads(cfg.canonical_json()))
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()
