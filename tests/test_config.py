"""The config's canonical form: re-emitting a parsed config in any order, with
any spacing and comments, keeps its hash; changing any one value changes it."""
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rdawave.config import parse_config

DTS = (0.0025, 0.005, 0.01, 0.02)  # pairwise integer ratios
SPLIT_LENGTH = st.integers(5, 250).map(lambda i: i * DTS[-1])  # 0.1 to 5, on every dt's grid
PROFILE = {"profile": st.sampled_from(["zero", "gaussian", "bump"]),
           "amplitude": st.floats(-3.0, 3.0), "width": st.floats(0.1, 5.0),
           "center": st.floats(-5.0, 5.0)}

# one strategy per key, each valid whatever the other keys hold: delta stays
# admissible for alpha, lambda in [0.5, 2]; seeds and ks are distinct, and every
# k is below L/sqrt(2); every tau lies inside the path range; dt_path is a
# power-of-two multiple of dt;
# every dt is within the stability bound (n <= 255 keeps the least bound, at
# dim 3 and L 20, at 0.225); every split length is a
# whole number of steps of the largest dt, hence of each dt
VALUES = {
    "model.alpha": st.floats(0.5, 2.0),
    "model.lambda": st.floats(0.5, 2.0),
    "model.delta": st.floats(0.001, 0.1),
    "model.gamma": st.floats(1.0, 3.0),
    "model.a": st.floats(0.1, 2.0),
    "model.b": st.floats(0.0, 1.0),
    **{f"model.{f}.{key}": s for f in "gh" for key, s in PROFILE.items()},
    "grid.dim": st.integers(1, 3),
    "grid.L": st.floats(20.0, 80.0),
    "grid.n": st.integers(3, 255),
    "solver.dt": st.sampled_from(DTS),
    "solver.scheme": st.sampled_from(["semi_implicit", "crank_nicolson_linear"]),
    "solver.record_every": st.integers(1, 50),
    "path.seeds": st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=8, unique=True),
    "path.t_min": st.floats(-400.0, -70.0),
    "path.dt_path": st.sampled_from(DTS),
    "experiment.tau_list": st.lists(st.floats(-64.0, -0.1), min_size=1, max_size=6),
    "experiment.radius_0": st.floats(0.1, 10.0),
    "experiment.growth_beta": st.floats(0.0, 1.0),
    "experiment.epsilon": st.floats(1e-6, 1.0),
    "experiment.k_list": st.lists(st.floats(0.5, 10.0), min_size=1, max_size=5, unique=True),
    "experiment.t_end": st.floats(0.1, 50.0),
    "experiment.initial": st.sampled_from(["zero", "random", "gaussian"]),
    "experiment.splits": st.lists(st.tuples(SPLIT_LENGTH, SPLIT_LENGTH), min_size=1, max_size=6),
}
REQUIRED = ("model.alpha", "model.lambda", "grid.n", "solver.dt")


def emit(key, value) -> str:
    """A value in the config's own syntax, exactly as parsed back."""
    if key == "experiment.splits":
        return ",".join(f"{s!r}:{t!r}" for s, t in value)
    if isinstance(value, list):
        return ",".join(repr(x) for x in value)
    return value if isinstance(value, str) else repr(value)


@st.composite
def config_texts(draw):
    """A valid config text: the required keys, k_list (the default needs
    L > 20*sqrt(2)) and a random subset of the rest."""
    keys = [k for k in VALUES
            if k in REQUIRED or k == "experiment.k_list" or draw(st.booleans())]
    return "\n".join(f"{k} = {emit(k, draw(VALUES[k]))}" for k in keys) + "\n"


@st.composite
def noisy(draw, values):
    """`values` as `key = value` lines in a shuffled order, with extra
    whitespace, blank lines, comment lines and trailing comments."""
    keys = draw(st.permutations([k for k, v in values.items() if v is not None]))
    pad = st.sampled_from(["", " ", "  ", "\t"])
    lines = []
    for k in keys:
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# a comment", "   # indented = comment"])))
        tail = draw(st.sampled_from(["", "  # trailing note"]))
        lines.append(f"{draw(pad)}{k}{draw(pad)}={draw(pad)}{emit(k, values[k])}{draw(pad)}{tail}")
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(config_texts(), st.data())
def test_reemitted_config_keeps_its_hash(text, data):
    cfg = parse_config(text)
    again = parse_config(data.draw(noisy(cfg.values)))
    assert again.values == cfg.values
    assert again.hash == cfg.hash


@settings(max_examples=80, deadline=None)
@given(config_texts(), st.sampled_from(sorted(VALUES)), st.data())
def test_changing_any_one_value_changes_the_hash(text, key, data):
    cfg = parse_config(text)
    new = data.draw(VALUES[key])
    assume(cfg[key] is None or emit(key, new) != emit(key, cfg[key]))
    changed = parse_config(data.draw(noisy({**cfg.values, key: new})))
    assert changed.values == {**cfg.values, key: new}
    assert changed.hash != cfg.hash
