"""The online recurrent model, which keeps one forward pass per step and
steps stacked streams on one leading axis, and `run_online_attacks`, which
shares one clean stream across spoof modes, match the reference model and
per-mode attack run bit for bit."""

import copy

import numpy as np
import pytest
from online_oracle import (_PARAM_ORDER, ReferenceOnlineModel, reference_online_attack,
                           reference_warmup)

from mlsec5g.attacks import run_online_attack, run_online_attacks
from mlsec5g.models import ModelSpec, OnlineRecurrentModel, init_online, load_model, save_model

SHAPES = [(1, 1), (1, 6), (5, 1), (5, 6), (16, 1), (16, 6)]  # (window, hidden)
MODES = [None, "floor_zero", "jitter"]
PERIOD_S, DT = 7.5, 2.0  # a spoof every round(3.75) = 4 steps


def _cqi(n, seed):
    rng = np.random.default_rng(seed)
    return np.clip(np.round(8.0 + np.cumsum(rng.uniform(-0.7, 0.7, n))), 0.0, 15.0)


def _warmed(window, hidden, seed=0):
    spec = ModelSpec("recurrent", "regress",
                     {"window": window, "hidden_size": hidden, "epochs": 6, "lr": 0.03},
                     seed=seed)
    warmup = _cqi(window + 20, seed)
    return init_online(spec, warmup), reference_warmup(spec, warmup)


def _factories(model):
    """Production and reference factories from one state, each recording
    the streams it makes."""
    meta, arrays = model.to_state()
    made, ref_made = [], []

    def factory():
        made.append(OnlineRecurrentModel.from_state(meta, arrays))
        return made[-1]

    def ref_factory():
        ref_made.append(ReferenceOnlineModel.from_state(meta, arrays))
        return ref_made[-1]

    return factory, ref_factory, made, ref_made


def _bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def assert_same_result(got, want):
    for name in ("t", "true_series", "pred_clean", "pred_attacked",
                 "crmse_clean", "crmse_attacked", "differential"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    assert got.spoof_steps == want.spoof_steps
    assert got.spoof_mode == want.spoof_mode


def assert_same_state(got, want):
    for k in _PARAM_ORDER:
        assert _bits(got.params[k]) == _bits(want.params[k]), k
    assert _bits(got.adam["m"]) == _bits(want.adam["m"])
    assert _bits(got.adam["v"]) == _bits(want.adam["v"])
    assert got.adam["t"] == want.adam["t"]
    assert _bits(got.history) == _bits(want.history)


@pytest.mark.parametrize("window,hidden", SHAPES)
def test_warmup_matches_reference(window, hidden):
    model, ref = _warmed(window, hidden)
    assert_same_state(model, ref)
    assert (model.mu, model.sd, model.lr) == (ref.mu, ref.sd, ref.lr)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("window,hidden", SHAPES)
def test_single_mode_run_matches_reference(window, hidden, mode):
    model, _ = _warmed(window, hidden)
    factory, ref_factory, made, ref_made = _factories(model)
    live = _cqi(24, 7)
    got = run_online_attack(factory, live, mode, period_s=PERIOD_S, dt=DT, seed=3)
    want = reference_online_attack(ref_factory, live, mode, period_s=PERIOD_S, dt=DT, seed=3)
    assert_same_result(got, want)
    assert len(got.spoof_steps) == (0 if mode is None else 6)
    assert len(made) == len(ref_made) == 2
    for stream, ref_stream in zip(made, ref_made):
        assert_same_state(stream, ref_stream)


@pytest.mark.parametrize("window,hidden", [(1, 6), (5, 1), (16, 6)])
def test_shared_clean_stream_matches_separate_runs(window, hidden):
    model, _ = _warmed(window, hidden, seed=4)
    factory, ref_factory, made, ref_made = _factories(model)
    live = _cqi(24, 9)
    seeds = [21, 22, 23]
    results = run_online_attacks(factory, live, MODES, period_s=PERIOD_S, dt=DT, seeds=seeds)
    assert len(made) == 1 + len(MODES)  # the no-spoof twin is its own replica
    for j, (mode, seed) in enumerate(zip(MODES, seeds)):
        want = reference_online_attack(ref_factory, live, mode, period_s=PERIOD_S,
                                       dt=DT, seed=seed)
        assert_same_result(results[j], want)
        assert_same_state(made[0], ref_made[-2])
        assert_same_state(made[1 + j], ref_made[-1])
    assert np.all(results[0].differential == 0.0)


def test_save_load_mid_stream_matches_reference(tmp_path):
    model, _ = _warmed(5, 6)
    factory, ref_factory, _, _ = _factories(model)
    stream, ref = factory(), ref_factory()
    feed = _cqi(16, 2)
    for v in feed[:7]:
        assert stream.predict_next() == ref.predict_next()
        assert stream.step(v) == ref.step(v)
    stream.predict_next()  # the saved model leaves its cached pass behind
    path = str(tmp_path / "online.npz")
    save_model(stream, path)
    again, ref_again = load_model(path), copy.deepcopy(ref)
    for v in feed[7:]:
        want = ref.step(v)
        assert stream.step(v) == want
        assert again.predict_next() == ref_again.predict_next()
        assert again.step(v) == ref_again.step(v) == want
    for m in (stream, again):
        assert_same_state(m, ref)


def test_repeated_predict_next_and_batch_predict_leave_the_stream_alone():
    model, _ = _warmed(16, 6)
    factory, ref_factory, _, _ = _factories(model)
    stream, ref = factory(), ref_factory()
    batch = np.lib.stride_tricks.sliding_window_view(_cqi(40, 5), 16)
    for v in _cqi(6, 8):
        first = stream.predict_next()
        assert stream.predict_next() == stream.predict_next() == first == ref.predict_next()
        assert _bits(stream.predict(batch)) == _bits(ref.predict(batch))
        assert stream.step(v) == ref.step(v)
    assert_same_state(stream, ref)


def _seeded(window, hidden, seed, warmup):
    spec = ModelSpec("recurrent", "regress",
                     {"window": window, "hidden_size": hidden, "epochs": 6, "lr": 0.03},
                     seed=seed)
    return init_online(spec, warmup)


@pytest.mark.parametrize("streams", [1, 2, 4])
@pytest.mark.parametrize("window,hidden", SHAPES)
def test_stack_steps_every_stream_like_the_reference(window, hidden, streams):
    """Streams with their own params, each fed its own reports, step on one
    stacked axis with the bits of stepping each alone."""
    warmup = _cqi(window + 20, 0)
    states = [_seeded(window, hidden, seed, warmup).to_state() for seed in range(streams)]
    models = [OnlineRecurrentModel.from_state(*state) for state in states]
    refs = [ReferenceOnlineModel.from_state(*state) for state in states]
    stack = OnlineRecurrentModel._stack(models)
    feeds = np.stack([_cqi(12, 30 + j) for j in range(streams)], axis=1)
    for reports in feeds:
        got = stack.predict_next()
        assert got.shape == (streams,)
        assert _bits(got) == _bits([ref.predict_next() for ref in refs])
        want = [ref.step(v) for ref, v in zip(refs, reports)]
        assert _bits(stack.step(reports)) == _bits(want)
    stack._unstack(models)
    for model, ref in zip(models, refs):
        assert_same_state(model, ref)


def test_factory_models_keep_stepping_alone_after_a_lockstep_run():
    model, _ = _warmed(5, 6, seed=2)
    factory, ref_factory, made, ref_made = _factories(model)
    live = _cqi(24, 9)
    seeds = [21, 22, 23]
    run_online_attacks(factory, live, MODES, period_s=PERIOD_S, dt=DT, seeds=seeds)
    for mode, seed in zip(MODES, seeds):
        reference_online_attack(ref_factory, live, mode, period_s=PERIOD_S, dt=DT, seed=seed)
    # each reference run makes a clean twin, then an attacked one
    pairs = list(zip(made, [ref_made[0], *ref_made[1::2]]))
    for v in _cqi(8, 5):
        for stream, ref in pairs:  # interleaved, so state shared between streams shows
            assert stream.predict_next() == ref.predict_next()
            assert stream.step(v) == ref.step(v)
    for stream, ref in pairs:
        assert_same_state(stream, ref)


def _refused_fields(states):
    made = []

    def alternating():
        made.append(OnlineRecurrentModel.from_state(*states[len(made) % len(states)]))
        return made[-1]

    with pytest.raises(ValueError, match="stacked streams must agree on: ") as err:
        run_online_attacks(alternating, _cqi(24, 7), MODES, period_s=PERIOD_S, dt=DT,
                           seeds=[1, 2, 3])
    listed = str(err.value).split(": ", 1)[1].split("; ")
    return [item.split(" [")[0] for item in listed]


def test_replicas_that_disagree_are_refused_with_every_field_listed():
    model, _ = _warmed(5, 6)
    other = init_online(ModelSpec("recurrent", "regress",
                                  {"window": 16, "hidden_size": 1, "epochs": 4,
                                   "lr": 0.01}, seed=1), _cqi(30, 1))
    assert _refused_fields([model.to_state(), other.to_state()]) == [
        "window", "hidden size", "mu", "sd", "lr", "adam t", "history length"]
    stepped = OnlineRecurrentModel.from_state(*model.to_state())
    stepped.step(3.0)  # params, moments and history may differ; the step count may not
    assert _refused_fields([model.to_state(), stepped.to_state()]) == ["adam t"]


def test_step_takes_one_report_per_stream():
    model, _ = _warmed(5, 6)
    with pytest.raises(ValueError, match="one observation per stream"):
        model.step([1.0, 2.0])
    stack = OnlineRecurrentModel._stack([copy.deepcopy(model), copy.deepcopy(model)])
    for reports in (1.0, [1.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match="one observation per stream"):
            stack.step(reports)


_PRODUCTS = {  # every matmul shape of the forward and backward pass at batch 1
    "h@U": lambda o: o["h"] @ o["U"],
    "x@W": lambda o: o["x"] @ o["W"],
    "d@U^T": lambda o: o["d"] @ o["U"].swapaxes(-1, -2),
    "h^T@d": lambda o: o["h"].swapaxes(-1, -2) @ o["d"],
    "x^T@d": lambda o: o["x"].swapaxes(-1, -2) @ o["d"],
    "h@Wy": lambda o: o["h"] @ o["Wy"],
    "dy@Wy^T": lambda o: o["dy"] @ o["Wy"].swapaxes(-1, -2),
}


@pytest.mark.parametrize("streams", [1, 2, 3, 4, 7])
def test_stacked_matmul_matches_each_streams_own_product(streams):
    """Lockstep exactness rests on numpy and BLAS running each stacked core
    product with the kernel of the one-stream call, so this checks it on
    the operand layouts the model makes."""
    rng = np.random.default_rng(streams)
    for H in range(1, 16):
        for scale in (1e-3, 1.0, 1e3):
            def draw(*shape):
                return rng.standard_normal((streams,) + shape) * scale
            reports = rng.standard_normal((4, streams)) * scale  # a window, one column per stream
            stacked = {"h": draw(1, H), "d": draw(1, H), "U": draw(H, H), "W": draw(1, H),
                       "Wy": draw(H, 1), "dy": draw(1, 1),
                       "x": (reports.T[..., None, :] * 1.0)[..., 2:3]}
            for s in range(streams):
                one = {k: v[s].copy() for k, v in stacked.items() if k != "x"}
                one["x"] = (reports[:, s].reshape(1, -1) * 1.0)[:, 2:3]
                for name, product in _PRODUCTS.items():
                    assert _bits(product(stacked)[s]) == _bits(product(one)), (name, H, scale)
