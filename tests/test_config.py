"""Property tests of the config boundary: every field of ExperimentConfig
refuses each JSON value outside its domain with a ParameterError that names
the field, each experiment refuses every key it does not read, and a retired
key is refused whatever its value. A config refuses all of this when it is
constructed, in code as from a file, so one that constructs runs. The CLI
turns that error into exit code 1 (see test_cli.py)."""

import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotrain import (
    ExperimentConfig,
    ParameterError,
    TrainingLengthError,
    config_from_mapping,
    run_experiment,
)
from lotrain.experiments import SCHEMES, _grid, config_hash

# the keys every experiment reads, and the ones each reads beyond them: its
# K key, its radius key and, for the throughput experiments, the rate keys
COMMON = {"n_rrh", "side", "trials", "seed", "workers"}
RATES = {"t_coherence", "snr_db", "schemes"}
K_AND_RADIUS = {"n_user", "k_grid", "threshold", "r_grid", "rho"}
READS = {
    "scaling": {"k_grid", "rho"},
    "density": {"n_user", "rho"},
    "compare": {"n_user", "threshold", *RATES},
    "sweep-k": {"k_grid", "threshold", *RATES},
    "sweep-r": {"n_user", "r_grid", *RATES},
}


def reader(key: str) -> str:
    """An experiment that reads key, so that its value reaches the domain
    checks; compare for a key none reads."""
    return next((name for name in sorted(READS) if key in COMMON | READS[name]), "compare")

# a value inside each field's domain that suits every experiment reading it
GOOD = {"n_rrh": 4, "n_user": 8, "k_grid": [8, 16], "side": 30.0, "threshold": 10.0,
        "r_grid": [5.0, 10.0], "rho": 0.5, "t_coherence": 20, "snr_db": [10.0],
        "schemes": ["proposed"], "trials": 2, "seed": 1, "workers": 1}


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


def bad_real(floor: float = 0.0, optional: bool = False):
    """Anything but a finite number above floor."""
    below = st.one_of(st.floats(max_value=floor), st.integers(max_value=math.floor(floor)))
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
    "t_coherence": st.one_of(bad_int(2), st.integers(min_value=2**512)),  # its square overflows
    "snr_db": bad_grid(st.floats(-10.0, 60.0),
                       st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]),
                                 st.none(), NOT_A_NUMBER)),
    "schemes": bad_grid(st.sampled_from(SCHEMES),
                        st.one_of(st.text(max_size=12).filter(lambda s: s not in SCHEMES),
                                  st.none(), st.integers(), st.lists(st.sampled_from(SCHEMES)))),
    "trials": bad_int(1),
    "seed": bad_int(0),
    "workers": bad_int(1),
}

# retired keys: trials run at eta = 3.5, beta = 1 and min_distance = 1, so any
# value of them, the reference one too, is refused
RETIRED = ("eta", "beta", "min_distance")
BAD.update(dict.fromkeys(RETIRED, st.one_of(st.floats(), st.integers(), st.none(), NOT_A_NUMBER)))


def test_every_field_has_a_bad_value_strategy():
    assert set(BAD) - set(RETIRED) == {f.name for f in fields(ExperimentConfig)} - {"experiment"}


@pytest.mark.parametrize("key", sorted(BAD))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_bad_value_of_any_field_raises_naming_the_key(key, data):
    value = data.draw(BAD[key], label=key)
    # the reading experiment's other keys are good, so only key can be at fault
    name = reader(key)
    base = {k: GOOD[k] for k in COMMON | READS[name]}
    with pytest.raises(ParameterError) as exc:
        config_from_mapping(name, {**base, key: value})
    assert key in str(exc.value)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n_rrh=st.integers(1, 500), trials=st.integers(1, 10**6), seed=st.integers(0, 2**63),
       side=st.floats(1e-3, 1e6), t_half=st.integers(1, 2**510),
       snr_db=st.lists(st.floats(-50.0, 80.0), min_size=1, max_size=4, unique=True),
       schemes=st.lists(st.sampled_from(SCHEMES), min_size=1, max_size=4, unique=True))
def test_values_inside_every_domain_are_accepted(n_rrh, trials, seed, side, t_half, snr_db, schemes):
    # an even t_coherence suits every scheme, up to just below the square's overflow
    cfg = config_from_mapping("compare", dict(n_rrh=n_rrh, n_user=8, threshold=10.0, trials=trials, seed=seed,
                                              side=side, t_coherence=2 * t_half, snr_db=snr_db, schemes=schemes))
    assert (cfg.n_rrh, cfg.t_coherence, cfg.snr_db, cfg.schemes) == (
        n_rrh, 2 * t_half, tuple(snr_db), tuple(schemes))


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
        config_from_mapping(reader(key), {"n_rrh": 4, key: [*values[:at], twice, *values[at:]]})
    assert "must not list an entry twice" in str(exc.value) and key in str(exc.value)
    # equal numbers are one grid point, whatever their JSON type
    if key in ("r_grid", "snr_db") and float(twice).is_integer():
        with pytest.raises(ParameterError, match=key):
            config_from_mapping(reader(key), {"n_rrh": 4, key: [twice, int(twice)]})


def test_settable_keys_per_experiment():
    assert set(GOOD) == {f.name for f in fields(ExperimentConfig)} - {"experiment"}
    assert [len(COMMON | READS[name]) for name in sorted(READS)] == [10, 7, 7, 10, 10]


@pytest.mark.parametrize("name", sorted(READS))
def test_each_experiment_refuses_every_key_it_does_not_read(name):
    own = COMMON | READS[name]
    cfg = config_from_mapping(name, {key: GOOD[key] for key in own})
    assert _grid(cfg)
    for key in sorted(set(GOOD) - own):
        with pytest.raises(ParameterError, match=rf"config keys {name} does not read: \['{key}'\]"):
            config_from_mapping(name, {**{k: GOOD[k] for k in own}, key: GOOD[key]})
        # a config built in code meets the same contract: a K or radius field
        # the experiment does not read is refused when the config is constructed
        if key in K_AND_RADIUS:
            with pytest.raises(ParameterError, match=f"{name} does not read {key}$"):
                ExperimentConfig(name, **{k: v for k, v in GOOD.items() if k in own | {key}})
    # each K and radius field of its own is required, from a file and in code
    for key in sorted(READS[name] & K_AND_RADIUS):
        with pytest.raises(ParameterError, match=f"{name} requires {key}$"):
            config_from_mapping(name, {k: GOOD[k] for k in own - {key}})
        with pytest.raises(ParameterError, match=f"{name} requires {key}$"):
            ExperimentConfig(name, **{k: GOOD[k] for k in own - {key}})


@pytest.mark.parametrize("name,key,value", [
    ("compare", "snr_db", 10.0),
    ("sweep-r", "r_grid", 5.0),
    ("sweep-k", "k_grid", ()),
    ("compare", "k_grid", ()),
    ("compare", "schemes", ()),
], ids=["compare-scalar-snr_db", "sweep-r-scalar-r_grid", "sweep-k-empty-k_grid", "compare-empty-k_grid",
        "compare-empty-schemes"])
def test_a_grid_that_is_not_a_nonempty_list_is_refused_in_code(name, key, value):
    # a scalar once raised a raw TypeError, k_grid = () ran as if unset, and
    # schemes = () colored every trial and returned no rows
    own = {k: GOOD[k] for k in COMMON | READS[name]}
    with pytest.raises(ParameterError, match=f"{key} must be a nonempty list"):
        ExperimentConfig(name, **{**own, key: value})


@pytest.mark.parametrize("name", sorted(READS))
def test_a_config_built_with_lists_equals_and_hashes_like_one_with_tuples(name):
    own = {k: GOOD[k] for k in COMMON | READS[name]}
    listed = ExperimentConfig(name, **own)
    tupled = ExperimentConfig(name, **{k: tuple(v) if isinstance(v, list) else v for k, v in own.items()})
    assert listed == tupled and hash(listed) == hash(tupled)
    assert config_hash(listed) == config_hash(tupled)


def small_grid(entry):
    """Mostly a short list of distinct entries; now and then an empty list or a repeated entry."""
    distinct = st.lists(entry, min_size=1, max_size=3, unique=True)
    spoilt = st.one_of(st.just([]), distinct.map(lambda v: v + v[:1]))
    return st.integers(0, 9).flatmap(lambda i: spoilt if i == 9 else distinct)


# small values of every field, with the edges of side's range (the channel
# squares distances up to sqrt(2) side) and rho values whose rho-matched radius
# overflows, or underflows to zero
SMALL = {
    "n_rrh": st.integers(1, 6),
    "n_user": st.integers(1, 12),
    "k_grid": small_grid(st.integers(1, 12)),
    "side": st.one_of(st.floats(0.5, 60.0),
                      st.sampled_from([1e-200, 1e-160, 1.5e-154, 1e-153, 9.4e153, 1e200])),
    "threshold": st.floats(0.1, 40.0),
    "r_grid": small_grid(st.floats(0.1, 40.0)),
    "rho": st.one_of(st.floats(0.05, 3.0), st.sampled_from([1e-300, 1e308])),
    "t_coherence": st.integers(2, 40),
    "snr_db": small_grid(st.floats(-20.0, 60.0)),
    "schemes": small_grid(st.sampled_from(SCHEMES)),
    "trials": st.integers(1, 2),
    "seed": st.integers(0, 3),
    "workers": st.just(1),
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_config_that_constructs_runs(data):
    # a config is refused when it is constructed, or it runs to its rows;
    # only a coloring that reaches the coherence time may stop it
    name = data.draw(st.sampled_from(sorted(READS)), label="experiment")
    own = COMMON | READS[name]
    # n_rrh has no default; drop at most one other key of its own, add at most one foreign key
    dropped = data.draw(st.sets(st.sampled_from(sorted(own - {"n_rrh"})), max_size=1), label="dropped")
    foreign = data.draw(st.sets(st.sampled_from(sorted(set(SMALL) - own)), max_size=1), label="foreign")
    kwargs = {key: data.draw(SMALL[key], label=key) for key in sorted(own - dropped | foreign)}
    try:
        cfg = ExperimentConfig(name, **kwargs)
    except ParameterError:
        return
    try:
        rows = run_experiment(cfg)
    except TrainingLengthError:
        return
    assert rows
