"""Tests for the 2-layer LSTM forecaster: forward oracles and exact BPTT."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gripforecast import model as m
from gripforecast.dataset import (NormStats, align_handover, apply_norm, extract_samples,
                                  fit_norm_stats, split_by_pair)
from gripforecast.errors import ContractViolation
from gripforecast.numerics import Rng, derive_seed
from gripforecast.optim import _all_roots
from gripforecast.synthgen import generate_dataset
from lstm_reference import (
    cell_forward,
    packed_forward_batch,
    reference_backward_batch,
    scalar_loop_forward,
    sigmoid,
    unhoisted_layer_backward,
)


def small_params(seed=0, hidden=5):
    return m.init_params(seed, hidden=hidden)


def random_case(seed, T=9, hidden=5, scale=0.5):
    params = small_params(seed, hidden)
    rng = Rng(derive_seed(seed, 7))
    x = rng.normals(T * 6, 0.0, scale).reshape(T, 6)
    y = rng.normals(70, 0.0, scale)
    return params, x, y


# ---------------------------------------------------------------------------
# initialization


def test_init_shapes_paper_architecture():
    p = m.init_params(0)  # hidden 40
    assert p.layer1.w_ih.shape == (160, 6)
    assert p.layer1.w_hh.shape == (160, 40)
    assert p.layer1.b.shape == (160,)
    assert p.layer2.w_ih.shape == (160, 40)
    assert p.head_w.shape == (70, 40)
    assert p.head_b.shape == (70,)
    assert m.HORIZON == 70 and p.hidden == 40
    assert p.flat.shape == (23350,)


def test_layout_views_tile_the_vector_once():
    # The views cover the flat vector exactly once, back to back, in
    # named_arrays order; a write through a view shows up in the vector.
    p = m.init_params(5, hidden=7)
    offset = 0
    for (name, view), (lname, shape, loffset) in zip(m.named_arrays(p), m.layout(7)):
        assert name == lname and view.shape == shape and loffset == offset
        assert np.shares_memory(view, p.flat) and view.flags.c_contiguous
        assert view.__array_interface__["data"][0] == (
            p.flat.__array_interface__["data"][0] + 8 * offset)
        offset += view.size
    assert offset == p.flat.size == m.n_weights(7)
    assert [name for name, _ in m.named_arrays(p)] == [
        "layer1.w_ih", "layer1.w_hh", "layer1.b", "layer2.w_ih", "layer2.w_hh",
        "layer2.b", "head_w", "head_b"]
    p.layer2.w_hh[3, 2] = 123.5
    p.head_b[-1] = -7.25
    views = dict(m.named_arrays(p))
    assert p.flat[m.layout(7)[4][2] + 3 * 7 + 2] == 123.5
    assert p.flat[-1] == -7.25 and views["head_b"][-1] == -7.25
    p.flat[0] = 9.0
    assert p.layer1.w_ih[0, 0] == 9.0


def test_model_params_rejects_wrong_length():
    with pytest.raises(ContractViolation, match="23350"):
        m.ModelParams(np.zeros(23349), 40)


def test_init_weight_range_and_biases():
    p = m.init_params(3, hidden=40)
    bound = 1.0 / np.sqrt(40)
    for name, arr in m.named_arrays(p):
        if name.endswith(".b"):
            h = arr.size // 4
            assert np.all(arr[h : 2 * h] == 1.0)  # forget gate bias +1
            assert np.all(arr[:h] == 0.0) and np.all(arr[2 * h :] == 0.0)
        elif name == "head_b":
            assert np.all(arr == 0.0)
        else:
            assert np.max(np.abs(arr)) <= bound
            assert np.std(arr) > 0.3 * bound  # actually randomized


def test_init_deterministic_and_seed_sensitive():
    a = m.init_params(11, hidden=8)
    b = m.init_params(11, hidden=8)
    c = m.init_params(12, hidden=8)
    for (_, arr_a), (_, arr_b), (_, arr_c) in zip(
        m.named_arrays(a), m.named_arrays(b), m.named_arrays(c)
    ):
        assert np.array_equal(arr_a, arr_b)
    assert not np.array_equal(a.layer1.w_ih, c.layer1.w_ih)


# ---------------------------------------------------------------------------
# cell-level closed forms


def test_cell_zero_everything_closed_form():
    # Zero weights and inputs: i = f = o = sigma(0) = 0.5, g = tanh(0) = 0,
    # so c = 0 and h = 0.
    h = 4
    p = m.LstmLayerParams(w_ih=np.zeros((4 * h, 6)), w_hh=np.zeros((4 * h, h)), b=np.zeros(4 * h))
    h_t, c_t, _ = cell_forward(np.zeros(6), np.zeros(h), np.zeros(h), p)
    assert np.allclose(c_t, 0.0) and np.allclose(h_t, 0.0)


def test_cell_unit_cell_state_closed_form():
    # Zero weights, c_prev = 1: c = f*c_prev = 0.5, h = o*tanh(c) = 0.5*tanh(0.5).
    h = 3
    p = m.LstmLayerParams(w_ih=np.zeros((4 * h, 6)), w_hh=np.zeros((4 * h, h)), b=np.zeros(4 * h))
    h_t, c_t, _ = cell_forward(np.zeros(6), np.zeros(h), np.ones(h), p)
    assert np.allclose(c_t, 0.5)
    assert np.allclose(h_t, 0.5 * np.tanh(0.5))


def test_sigmoid_matches_reference():
    z = np.linspace(-10, 10, 41)
    assert np.allclose(sigmoid(z), 1.0 / (1.0 + np.exp(-z)), atol=1e-15)


# ---------------------------------------------------------------------------
# forward oracles


def test_forward_matches_scalar_loop_oracle():
    # T=151 is the 1250 ms stream window, the longest recurrence served.
    for seed, T, hidden in [(s, 11, 5) for s in range(5)] + [(8, 151, 40)]:
        params, x, _ = random_case(seed, T=T, hidden=hidden)
        got = m.forward_batch(x[:, None, :], params)
        want = scalar_loop_forward(x, params)
        assert np.max(np.abs(got[0] - want)) < 1e-12


def test_forward_batch_matches_per_sample_forward():
    params, _, _ = random_case(0, T=7)
    rng = Rng(99)
    xs = rng.normals(7 * 4 * 6, 0.0, 0.5).reshape(7, 4, 6)
    y_batch = m.forward_batch(xs, params)
    for b in range(4):
        y_one = m.forward_batch(xs[:, b : b + 1, :], params)
        assert np.max(np.abs(y_batch[b] - y_one[0])) < 1e-12


def test_head_bias_linearity():
    # Shifting head_b shifts the output by exactly that amount.
    params, x, _ = random_case(2, T=6)
    y0 = m.forward_batch(x[:, None, :], params)
    shifted = replace(params, flat=params.flat.copy())
    shifted.head_b += 1.25
    y1 = m.forward_batch(x[:, None, :], shifted)
    assert np.allclose(y1 - y0, 1.25, atol=1e-12)


def test_forward_rejects_bad_input():
    params = small_params()
    with pytest.raises(ContractViolation):
        m.forward_batch(np.zeros((0, 1, 6)), params)
    with pytest.raises(ContractViolation):
        m.forward_batch(np.zeros((5, 1, 4)), params)


def packed_case(pad):
    # Three columns of 9, 6 and 2 steps, longest first, padded to T=11 with
    # `pad`; seven windows, two on the same (end step, column) and none
    # ending on the last two steps.
    params, _, _ = random_case(5, hidden=4)
    lengths = [9, 6, 2]
    xs = np.full((11, 3, 6), pad)
    for c, n in enumerate(lengths):
        xs[:n, c] = Rng(derive_seed(40, c)).normals(n * 6, 0.0, 0.5).reshape(n, 6)
    ends = ([8, 3, 0, 5, 1, 1, 5], [0, 0, 0, 1, 2, 2, 1])
    return params, xs, ends


def test_packed_forward_matches_each_window_alone():
    params, xs, ends = packed_case(0.0)
    got = m.forward_batch(xs, params, ends)
    assert got.shape == (7, 70)
    for n, (step, col) in enumerate(zip(*ends)):
        want = m.forward_batch(xs[: step + 1, col : col + 1], params)[0]
        assert np.max(np.abs(got[n] - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.filterwarnings("error")
def test_packed_forward_never_reads_padding():
    params, xs, ends = packed_case(0.0)
    want = m.forward_batch(xs, params, ends)
    for pad in (np.nan, 1e308, np.inf):
        _, padded, _ = packed_case(pad)
        with np.errstate(all="raise"):
            assert np.array_equal(m.forward_batch(padded, params, ends), want)


def test_packed_forward_rejects_bad_windows():
    params, xs, (steps, cols) = packed_case(0.0)
    with pytest.raises(ContractViolation, match="longest first"):
        m.forward_batch(xs[:, ::-1], params, (steps, [2 - c for c in cols]))
    with pytest.raises(ContractViolation):
        m.forward_batch(xs, params, ([11], [0]))
    with pytest.raises(ContractViolation):
        m.forward_batch(xs, params, ([-1], [0]))
    with pytest.raises(ContractViolation):
        m.forward_batch(xs, params, ([0], [3]))


@pytest.fixture(scope="module")
def reference_roots():
    # The 600 held-out windows of the reference split (seed 7, pairs 12 and
    # 13), z-scored, as the packed (151, 100) batch of roots evaluate runs.
    records = [align_handover(r) for r in generate_dataset(13, 10, 7)]
    train_recs, test_recs = split_by_pair(records, {"12", "13"})
    norm = fit_norm_stats([s for r in train_recs for s in extract_samples(r)])
    return _all_roots([apply_norm(s, norm) for r in test_recs for s in extract_samples(r)])


def narrow_packed_case(seed):
    # Twelve columns of 1 to 60 steps, so runs go down to width 1, with two
    # windows on each column.
    rng = Rng(derive_seed(seed, 3))
    lengths = sorted((int(k) + 1 for k in rng.permutation(60)[:12]), reverse=True)
    xs = rng.normals(lengths[0] * 12 * 6, 0.0, 1.0).reshape(lengths[0], 12, 6)
    steps = [e for n in lengths for e in (n - 1, n // 3)]
    return xs, (steps, [c for c in range(12) for _ in range(2)])


def test_forward_batch_matches_whole_layer_pass_bit_for_bit(reference_roots):
    params = m.init_params(3, hidden=40)
    xs, ends = reference_roots
    assert xs.shape == (151, 100, 6) and len(ends[0]) == 600
    rng = Rng(31)
    cases = [(xs, ends), narrow_packed_case(0)] + [
        (rng.normals(t * b * 6, 0.0, 1.0).reshape(t, b, 6), None)
        for t, b in ((151, 1), (32, 1), (200, 30))]
    for x, e in cases:
        got = m.forward_batch(x, params, e)
        assert got.tobytes() == packed_forward_batch(x, params, e).tobytes()


def test_forward_batch_short_blocks_change_no_bit(monkeypatch, reference_roots):
    # Blocks of 1 to 3 steps at the widest run: block edges fall inside
    # runs and next to run ends, and each block carries both layers' state
    # over. No block projects fewer than 8 rows unless its whole run does,
    # since OpenBLAS rounds a product of 1 to 7 rows differently.
    params = m.init_params(3, hidden=40)
    cases = [reference_roots, narrow_packed_case(1)]
    want = [packed_forward_batch(xs, params, ends) for xs, ends in cases]
    blocks = []
    real_project = m._Cell.project

    def project(cell, inputs, out=None):
        blocks.append(inputs.shape[:2])
        return real_project(cell, inputs, out)

    monkeypatch.setattr(m._Cell, "project", project)
    for steps in (1, 2, 3, None):
        # at width 100 a block of `steps` steps, or 1 step at every width
        monkeypatch.setattr(m, "FORWARD_BLOCK_BYTES", steps * 100 * 4 * 40 * 8 if steps else 1)
        for (xs, ends), ref in zip(cases, want):
            blocks.clear()
            assert m.forward_batch(xs, params, ends).tobytes() == ref.tobytes()
            runs = {}  # width -> its run's blocks, in steps; widths differ run to run
            for n, w in blocks[::2]:  # layer 1's projections
                runs.setdefault(w, []).append(n)
            assert all(len(run) == 1 or min(run) * w >= 8 for w, run in runs.items())
            if xs.shape[1] == 100:
                assert max(runs[100]) == (steps or 1) and len(runs[100]) > 1


def test_forward_batch_memory_is_bounded_by_the_block(reference_roots):
    # Whole-layer passes held (T, B, H) states and whole-run gate blocks:
    # 19 MB at the reference (151, 100). The blocked pass peaks at about
    # 3.6 MB: 1.5 MB of block buffers, the rest inputs, states read out and
    # forecasts.
    params = m.init_params(3, hidden=40)
    xs, ends = reference_roots
    tracemalloc.start()
    try:
        m.forward_batch(xs, params, ends)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


# ---------------------------------------------------------------------------
# backward: exactness


def fd_gradient(params, x, y, name, index, eps=1e-6):
    arrays = dict(m.named_arrays(params))
    flat = arrays[name].reshape(-1)
    orig = flat[index]
    flat[index] = orig + eps
    yp = m.forward_batch(x[:, None, :], params)
    lp = float(np.mean((yp - y) ** 2))
    flat[index] = orig - eps
    ym = m.forward_batch(x[:, None, :], params)
    lm = float(np.mean((ym - y) ** 2))
    flat[index] = orig
    return (lp - lm) / (2 * eps)


def test_backward_loss_value():
    params, x, y = random_case(1)
    loss, _ = m.backward_batch(x[:, None, :], y[None, :], params)
    y_hat = m.forward_batch(x[:, None, :], params)
    assert loss == pytest.approx(float(np.mean((y_hat - y) ** 2)), abs=1e-15)


def test_backward_spot_fd_check():
    # Small spot check on a handful of coordinates from every array; the
    # exhaustive 20-draw sweep lives in the acceptance suite.
    params, x, y = random_case(4, T=8)
    _, grads = m.backward_batch(x[:, None, :], y[None, :], params)
    garrs = dict(m.named_arrays(grads))
    rng = Rng(123)
    for name, arr in m.named_arrays(params):
        gflat = garrs[name].reshape(-1)
        for _ in range(6):
            idx = int(rng.uniform() * arr.size)
            fd = fd_gradient(params, x, y, name, idx)
            rel = abs(fd - gflat[idx]) / max(abs(fd), abs(gflat[idx]), 1e-8)
            assert rel < 1e-4, f"{name}[{idx}]: analytic {gflat[idx]}, fd {fd}"


def test_backward_batch_is_mean_of_sample_gradients():
    params, _, _ = random_case(0, T=6)
    rng = Rng(55)
    B = 3
    xs = rng.normals(6 * B * 6, 0.0, 0.5).reshape(6, B, 6)
    ys = rng.normals(B * 70, 0.0, 0.5).reshape(B, 70)
    loss_b, grads_b = m.backward_batch(xs, ys, params)

    per = [m.backward_batch(xs[:, b : b + 1, :], ys[b : b + 1], params) for b in range(B)]
    assert loss_b == pytest.approx(np.mean([p[0] for p in per]), abs=1e-14)
    for name, _ in m.named_arrays(params):
        mean_grad = np.mean(
            [dict(m.named_arrays(p[1]))[name] for p in per], axis=0
        )
        got = dict(m.named_arrays(grads_b))[name]
        assert np.max(np.abs(got - mean_grad)) < 1e-12


def max_rel_diff(got: np.ndarray, want: np.ndarray) -> float:
    """Largest absolute difference relative to the largest reference entry."""
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


@pytest.mark.parametrize("T,B", [(32, 1), (151, 1), (80, 30)])
def test_backward_batch_matches_per_step_reference(T, B):
    # The shapes that occur: 260 ms and 1250 ms stream windows at B=1, and a
    # training batch. Only summation order differs from the reference.
    params = m.init_params(T + B, hidden=40)
    rng = Rng(derive_seed(T, B))
    xs = rng.normals(T * B * 6, 0.0, 1.0).reshape(T, B, 6)
    ys = rng.normals(B * 70, 0.0, 1.0).reshape(B, 70)
    loss, grads = m.backward_batch(xs, ys, params)
    ref_loss, ref_grads = reference_backward_batch(xs, ys, params)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    for (name, got), (_, want) in zip(m.named_arrays(grads), m.named_arrays(ref_grads)):
        assert max_rel_diff(got, want) < 1e-12, name


@pytest.mark.parametrize("steps,cols", [
    ([11, 4, 0, 11, 7], [0, 0, 1, 2, 2]),
    ([5, 5, 11], [1, 1, 0]),
], ids=["scattered", "repeated"])
def test_backward_batch_ends_match_per_window_reference(steps, cols):
    # A window that ends at (step, column) is the first step + 1 steps of
    # that column. Several windows may read one column, a column may go
    # unread, and a repeated window counts twice; the top layer then gets
    # dL/dh at exactly those (step, column) pairs.
    p = m.init_params(4, hidden=8)
    rng = Rng(derive_seed(4, len(steps)))
    xs = rng.normals(12 * 3 * 6, 0.0, 1.0).reshape(12, 3, 6)
    ys = rng.normals(len(steps) * 70, 0.0, 1.0).reshape(len(steps), 70)
    loss, grads = m.backward_batch(xs, ys, p, (steps, cols))
    per = [reference_backward_batch(xs[: t + 1, c : c + 1], ys[n : n + 1], p)
           for n, (t, c) in enumerate(zip(steps, cols))]
    assert loss == pytest.approx(np.mean([ref_loss for ref_loss, _ in per]), rel=1e-12)
    for k, (name, got) in enumerate(m.named_arrays(grads)):
        want = np.mean([m.named_arrays(g)[k][1] for _, g in per], axis=0)
        assert max_rel_diff(got, want) < 1e-12, name


@pytest.mark.parametrize("T,B", [(1, 5), (31, 5), (32, 5), (33, 5), (92, 5), (151, 5),
                                 (151, 1)])
def test_layer_backward_matches_unhoisted_loop_bit_for_bit(T, B):
    # Both layers, at shapes on and around the 32-step block edges, at the
    # training (B=5) and stream (B=1) widths. Bytes, not values, are
    # compared, so step 0's f slot must hold the +0.0 the unhoisted loop
    # writes there, not the -0.0 that dL/dc * 0.0 gives.
    p = m.init_params(T + B, hidden=40)
    rng = Rng(derive_seed(T, B, 11))
    xs = rng.normals(T * B * 6, 0.0, 1.0).reshape(T, B, 6)
    dhs = rng.normals(T * B * 40, 0.0, 1.0).reshape(T, B, 40)

    def run(backward):
        grads = m.ModelParams(np.zeros_like(p.flat), 40)
        hs1, cache1 = m._layer_forward(xs, p.layer1)
        _, cache2 = m._layer_forward(hs1, p.layer2)
        dz2 = backward(dhs, cache2, p.layer2, grads.layer2)
        dz1 = backward(dhs, cache1, p.layer1, grads.layer1)
        return dz1, dz2, grads

    *got, grads = run(m._layer_backward)
    *want, ref_grads = run(unhoisted_layer_backward)
    for dz, ref in zip(got, want):
        assert dz.tobytes() == ref.tobytes()
        assert not np.any(np.signbit(dz[:B, 40:80]))
    for layer, ref in ((grads.layer1, ref_grads.layer1), (grads.layer2, ref_grads.layer2)):
        for name in ("w_ih", "w_hh", "b"):
            assert getattr(layer, name).tobytes() == getattr(ref, name).tobytes(), name


def test_layer_backward_buffers_stay_block_sized():
    # The stream workloads' peak RSS is set while they train their
    # checkpoint during set-up, so BPTT hoists its operands per 32-step
    # block: about 0.46 MB at (151, 5), H=40, where whole-T arrays would
    # take about 2.2 MB.
    p = m.init_params(2, hidden=40)
    rng = Rng(12)
    xs = rng.normals(151 * 5 * 40, 0.0, 1.0).reshape(151, 5, 40)
    dhs = rng.normals(151 * 5 * 40, 0.0, 1.0).reshape(151, 5, 40)
    _, cache = m._layer_forward(xs, p.layer2)
    grads = m.ModelParams(np.zeros_like(p.flat), 40)
    tracemalloc.start()
    try:
        m._layer_backward(dhs, cache, p.layer2, grads.layer2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 600_000


def test_loss_invariant_under_batch_permutation():
    params, _, _ = random_case(0, T=6)
    rng = Rng(56)
    xs = rng.normals(6 * 4 * 6, 0.0, 0.5).reshape(6, 4, 6)
    ys = rng.normals(4 * 70, 0.0, 0.5).reshape(4, 70)
    loss_a, grads_a = m.backward_batch(xs, ys, params)
    perm = [2, 0, 3, 1]
    loss_b, grads_b = m.backward_batch(xs[:, perm, :], ys[perm], params)
    assert loss_a == pytest.approx(loss_b, abs=1e-14)
    for (_, ga), (_, gb) in zip(m.named_arrays(grads_a), m.named_arrays(grads_b)):
        assert np.max(np.abs(ga - gb)) < 1e-13


def test_gradients_zero_where_output_cannot_depend():
    # With targets equal to predictions, residual is 0 -> all gradients 0.
    params, x, _ = random_case(3)
    y_hat = m.forward_batch(x[:, None, :], params)
    loss, grads = m.backward_batch(x[:, None, :], y_hat, params)
    assert loss == 0.0
    for _, g in m.named_arrays(grads):
        assert np.all(g == 0.0)


# ---------------------------------------------------------------------------
# prediction with normalization


def make_norm():
    return NormStats(
        wrench_mean=np.arange(6, dtype=float),
        wrench_std=np.linspace(1.0, 2.0, 6),
        grip_mean=7.0,
        grip_std=3.0,
    )


def test_predict_grip_round_trips_normalization():
    params = replace(small_params(), norm=make_norm())
    rng = Rng(77)
    x_raw = rng.normals(32 * 6, 0.0, 1.0).reshape(32, 6) + np.arange(6)
    got = m.predict_grip(x_raw, params)
    x_norm = (x_raw - params.norm.wrench_mean) / params.norm.wrench_std
    y_norm = m.forward_batch(x_norm[:, None, :], params)
    want = y_norm[0] * 3.0 + 7.0
    assert np.max(np.abs(got - want)) < 1e-9


def test_predict_grip_requires_norm():
    params = small_params()
    with pytest.raises(ContractViolation, match="norm"):
        m.predict_grip(np.zeros((32, 6)), params)


def test_predict_grip_rejects_non_finite():
    params = replace(small_params(), norm=make_norm())
    x = np.zeros((32, 6))
    x[3, 2] = np.nan
    with pytest.raises(ContractViolation):
        m.predict_grip(x, params)


def test_copy_params_is_deep():
    p = small_params()
    q = replace(p, flat=p.flat.copy())
    q.layer1.w_ih[0, 0] += 1.0
    assert p.layer1.w_ih[0, 0] != q.layer1.w_ih[0, 0]
