"""Property tests of the config boundary: every field of ExperimentConfig
refuses each JSON value outside its domain with a ParameterError that names
the field. The CLI turns that error into exit code 1 (see test_cli.py)."""

import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotrain import ExperimentConfig, ParameterError, config_from_mapping
from lotrain.experiments import SCHEMES

# JSON values of a shape no numeric field takes
NOT_A_NUMBER = st.one_of(
    st.booleans(),
    st.text(max_size=6),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


def bad_int(low: int, optional: bool = False):
    """Anything but an integer >= low; floats are refused even when integral."""
    bad = st.one_of(st.integers(max_value=low - 1), st.floats(), NOT_A_NUMBER)
    return bad if optional else st.one_of(bad, st.none())


def bad_real(floor: float = 0.0, inclusive: bool = False, optional: bool = False):
    """Anything but a finite number above floor (or at it, if inclusive)."""
    below = st.one_of(st.floats(max_value=floor), st.integers(max_value=math.floor(floor)))
    if inclusive:
        below = below.filter(lambda v: v < floor)
    bad = st.one_of(below, st.sampled_from([math.nan, math.inf, -math.inf]), NOT_A_NUMBER)
    return bad if optional else st.one_of(bad, st.none())


def bad_grid(good, bad_entry):
    """Not a list, an empty list, or a list with one bad entry among good ones."""
    return st.one_of(
        st.none(), st.integers(), st.text(max_size=4), st.just([]),
        st.builds(lambda head, entry, tail: [*head, entry, *tail],
                  st.lists(good, max_size=2), bad_entry, st.lists(good, max_size=2)),
    )


BAD = {
    "n_rrh": bad_int(1),
    "n_user": bad_int(1, optional=True),
    "k_grid": bad_grid(st.integers(1, 500), bad_int(1)),
    "side": bad_real(),
    "threshold": bad_real(optional=True),
    "r_grid": bad_grid(st.floats(0.5, 50.0), bad_real()),
    "rho": bad_real(optional=True),
    "t_coherence": bad_int(2),
    "eta": bad_real(),
    "beta": bad_real(inclusive=True),
    "snr_db": bad_grid(st.floats(-10.0, 60.0),
                       st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]),
                                 st.none(), NOT_A_NUMBER)),
    "schemes": bad_grid(st.sampled_from(SCHEMES),
                        st.one_of(st.text(max_size=12).filter(lambda s: s not in SCHEMES),
                                  st.none(), st.integers(), st.lists(st.sampled_from(SCHEMES)))),
    "trials": bad_int(1),
    "seed": bad_int(0),
    "min_distance": bad_real(),
    "workers": bad_int(1),
}


def test_every_field_has_a_bad_value_strategy():
    assert set(BAD) == {f.name for f in fields(ExperimentConfig)} - {"experiment"}


@pytest.mark.parametrize("key", sorted(BAD))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_bad_value_of_any_field_raises_naming_the_key(key, data):
    value = data.draw(BAD[key], label=key)
    with pytest.raises(ParameterError) as exc:
        config_from_mapping("compare", {"n_rrh": 4, key: value})
    assert key in str(exc.value)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n_rrh=st.integers(1, 500), trials=st.integers(1, 10**6), seed=st.integers(0, 2**63),
       side=st.floats(1e-3, 1e6), beta=st.floats(0.0, 10.0),
       snr_db=st.lists(st.floats(-50.0, 80.0), min_size=1, max_size=4, unique=True),
       schemes=st.lists(st.sampled_from(SCHEMES), min_size=1, max_size=4, unique=True))
def test_values_inside_every_domain_are_accepted(n_rrh, trials, seed, side, beta, snr_db, schemes):
    cfg = config_from_mapping("compare", dict(n_rrh=n_rrh, trials=trials, seed=seed, side=side,
                                              beta=beta, snr_db=snr_db, schemes=schemes))
    assert (cfg.n_rrh, cfg.snr_db, cfg.schemes) == (n_rrh, tuple(snr_db), tuple(schemes))


GOOD_GRID = {
    "k_grid": st.integers(1, 500),
    "r_grid": st.floats(0.5, 50.0),
    "snr_db": st.floats(-10.0, 60.0),
    "schemes": st.sampled_from(SCHEMES),
}


@pytest.mark.parametrize("key", sorted(GOOD_GRID))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_repeated_grid_entry_raises_naming_the_key(key, data):
    # a repeated scheme or grid point would run twice and write duplicate rows
    values = data.draw(st.lists(GOOD_GRID[key], min_size=1, max_size=4, unique=True), label="grid")
    twice = data.draw(st.sampled_from(values), label="repeated")
    at = data.draw(st.integers(0, len(values)), label="at")
    with pytest.raises(ParameterError) as exc:
        config_from_mapping("compare", {"n_rrh": 4, key: [*values[:at], twice, *values[at:]]})
    assert key in str(exc.value)
    # equal numbers are one grid point, whatever their JSON type
    if key == "snr_db" and float(twice).is_integer():
        with pytest.raises(ParameterError, match=key):
            config_from_mapping("compare", {"n_rrh": 4, key: [twice, int(twice)]})


def test_beta_above_the_global_orthogonal_bound_raises_naming_beta():
    # global-orthogonal trains min(K, T/2) users for as many uses, so beta may
    # reach T / min(K, T/2); sweep-k's largest K sets the bound
    base = {"n_rrh": 6, "t_coherence": 24, "schemes": ["global-orthogonal"]}
    for experiment, extra, length in (("compare", {"n_user": 8}, 8),
                                      ("sweep-r", {"n_user": 30}, 12),
                                      ("sweep-k", {"k_grid": [8, 4]}, 8)):
        bound = 24 / length
        assert config_from_mapping(experiment, {**base, **extra, "beta": bound}).beta == bound
        with pytest.raises(ParameterError, match=rf"^beta = .* exceeds 1/alpha = 24/{length} "):
            config_from_mapping(experiment, {**base, **extra, "beta": bound * 1.001})
    # the colored schemes' bound, T / chi, waits for each trial's coloring
    config_from_mapping("compare", {**base, "n_user": 8, "beta": 30.0, "schemes": ["proposed"]})
