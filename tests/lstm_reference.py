"""Reference arithmetic that the tests hold the model and optimizer against.

These are the plain per-step formulations: one cell step on vectors, and
BPTT with every product (weight gradients included) taken inside the time
loop. They are slow on purpose; the model hoists the non-recurrent GEMMs
out of the loop and must agree with these up to summation order. One more
BPTT, unhoisted_layer_backward, is the model's earlier time loop kept as
it was, and packed_forward_batch is the model's earlier inference pass,
each layer run over every step before the next: the model must match both
bit for bit. Adam and
global-norm clipping are here array by array, keyed by parameter name; the
optimizer runs them over the one flat vector.
"""

import numpy as np

from gripforecast import model as m
from gripforecast.dataset import HORIZON


def sigmoid(z: np.ndarray) -> np.ndarray:
    # tanh form avoids exp overflow for large negative inputs.
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def cell_forward(
    x_t: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    p: m.LstmLayerParams,
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """One LSTM step on vectors; cache feeds the matching backward step."""
    h = p.hidden
    z = p.w_ih @ x_t + p.w_hh @ h_prev + p.b
    i = sigmoid(z[:h])
    f = sigmoid(z[h : 2 * h])
    g = np.tanh(z[2 * h : 3 * h])
    o = sigmoid(z[3 * h :])
    c_t = f * c_prev + i * g
    h_t = o * np.tanh(c_t)
    cache = (x_t, h_prev, c_prev, i, f, g, o, c_t)
    return h_t, c_t, cache


def scalar_loop_forward(x: np.ndarray, p: m.ModelParams) -> np.ndarray:
    """Per-step cell_forward loop over a (T, 6) window, no batching."""
    H = p.hidden
    h1 = np.zeros(H)
    c1 = np.zeros(H)
    h2 = np.zeros(H)
    c2 = np.zeros(H)
    for t in range(len(x)):
        h1, c1, _ = cell_forward(x[t], h1, c1, p.layer1)
        h2, c2, _ = cell_forward(h1, h2, c2, p.layer2)
    return p.head_w @ h2 + p.head_b


def reference_layer_forward(xs: np.ndarray, p: m.LstmLayerParams):
    """Batched per-step forward with four slice activations; returns hs and
    the cache in the model's layout."""
    t_steps, batch, _ = xs.shape
    h = p.hidden
    gates = np.empty((t_steps, batch, 4 * h))
    cs = np.empty((t_steps, batch, h))
    hs = np.empty((t_steps, batch, h))
    h_t = np.zeros((batch, h))
    c_t = np.zeros((batch, h))
    for t in range(t_steps):
        z = xs[t] @ p.w_ih.T + h_t @ p.w_hh.T + p.b
        i = sigmoid(z[:, :h])
        f = sigmoid(z[:, h : 2 * h])
        g = np.tanh(z[:, 2 * h : 3 * h])
        o = sigmoid(z[:, 3 * h :])
        c_t = f * c_t + i * g
        h_t = o * np.tanh(c_t)
        gates[t] = np.concatenate([i, f, g, o], axis=1)
        cs[t] = c_t
        hs[t] = h_t
    return hs, m._LayerCache(xs, gates, cs, hs)


def reference_layer_backward(
    dhs: np.ndarray, cache: m._LayerCache, p: m.LstmLayerParams
) -> tuple[np.ndarray, m.LstmLayerParams]:
    """BPTT through one layer given per-step dL/dh; every GEMM inside the loop.

    Returns dL/dx per step and the layer's gradients. The cache is only read.
    """
    xs, gates, cs, hs = cache.xs, cache.gates, cache.cs, cache.hs
    t_steps, batch, h = dhs.shape
    dxs = np.empty_like(xs)
    dw_ih = np.zeros_like(p.w_ih)
    dw_hh = np.zeros_like(p.w_hh)
    db = np.zeros_like(p.b)
    dh_rec = np.zeros((batch, h))
    dc_rec = np.zeros((batch, h))
    dz = np.empty((batch, 4 * h))
    for t in range(t_steps - 1, -1, -1):
        i = gates[t, :, :h]
        f = gates[t, :, h : 2 * h]
        g = gates[t, :, 2 * h : 3 * h]
        o = gates[t, :, 3 * h :]
        c_prev = cs[t - 1] if t > 0 else np.zeros((batch, h))
        h_prev = hs[t - 1] if t > 0 else np.zeros((batch, h))
        tanh_c = np.tanh(cs[t])

        dh = dhs[t] + dh_rec
        do = dh * tanh_c
        dc = dc_rec + dh * o * (1.0 - tanh_c * tanh_c)
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dc_rec = dc * f

        dz[:, :h] = di * i * (1.0 - i)
        dz[:, h : 2 * h] = df * f * (1.0 - f)
        dz[:, 2 * h : 3 * h] = dg * (1.0 - g * g)
        dz[:, 3 * h :] = do * o * (1.0 - o)

        dw_ih += dz.T @ xs[t]
        dw_hh += dz.T @ h_prev
        db += dz.sum(axis=0)
        dxs[t] = dz @ p.w_ih
        dh_rec = dz @ p.w_hh
    return dxs, m.LstmLayerParams(w_ih=dw_ih, w_hh=dw_hh, b=db)


def unhoisted_layer_backward(
    dhs: np.ndarray, cache: m._LayerCache, p: m.LstmLayerParams, grads: m.LstmLayerParams
) -> np.ndarray:
    """m._layer_backward before its block hoisting: about 17 numpy calls per step.

    Same signature and contract; it also writes tanh(c_t) over cache.cs[t].
    Every element's operations run in the same order as in the model, so
    the returned dL/dz and the gradients must agree bit for bit.
    """
    gates, cs, hs, xs = cache.gates, cache.cs, cache.hs, cache.xs
    t_steps, batch, h = hs.shape
    # d(activation)/dz = y * (alpha - y) + gamma: y(1 - y) on the sigmoid
    # gates, 1 - y^2 on g.
    alpha, gamma = m._per_gate(h, 1.0, 0.0), m._per_gate(h, 0.0, 1.0)
    dh = np.zeros((batch, h))  # dL/dh_t: dz_{t+1} @ W_hh, plus dhs where given
    dc = np.zeros((batch, h))  # dL/dc_t, then carried to step t - 1
    tmp = np.empty((batch, h))
    dact = np.empty((batch, 4 * h))
    up = np.empty((batch, 4 * h))  # dL/d(activation) over the i|f|g|o block
    up_i, up_f, up_g, up_o = (up[:, k * h : (k + 1) * h] for k in range(4))
    rev = gates[::-1]
    per_gate = (rev[:, :, k * h : (k + 1) * h] for k in range(4))
    c_prevs = [*cs[-2::-1], None]
    for y, i, f, g, o, c_t, c_prev, dh_t in zip(rev, *per_gate, cs[::-1], c_prevs,
                                                dhs[::-1]):
        tanh_c = np.tanh(c_t, out=c_t)  # c_t was last read as c_prev one step ago
        dh += dh_t
        np.multiply(dh, tanh_c, out=up_o)
        np.multiply(tanh_c, tanh_c, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        tmp *= o
        tmp *= dh
        dc += tmp
        np.multiply(dc, g, out=up_i)
        if c_prev is None:
            up_f.fill(0.0)
        else:
            np.multiply(dc, c_prev, out=up_f)
        np.multiply(dc, i, out=up_g)
        dc *= f
        np.subtract(alpha, y, out=dact)
        dact *= y
        dact += gamma
        np.multiply(up, dact, out=y)  # y now holds dL/dz_t
        np.matmul(y, p.w_hh, out=dh)

    dz = gates.reshape(t_steps * batch, 4 * h)
    np.matmul(dz.T, xs.reshape(t_steps * batch, -1), out=grads.w_ih)
    np.matmul(dz[batch:].T, hs[:-1].reshape((t_steps - 1) * batch, h), out=grads.w_hh)
    np.sum(dz, axis=0, out=grads.b)
    return dz


def reference_backward_batch(
    xs: np.ndarray, y_true: np.ndarray, p: m.ModelParams
) -> tuple[float, m.ModelParams]:
    """Mean-over-batch MSE loss and its gradients, from the reference layers."""
    hs1, cache1 = reference_layer_forward(xs, p.layer1)
    hs2, cache2 = reference_layer_forward(hs1, p.layer2)
    y_hat = hs2[-1] @ p.head_w.T + p.head_b
    batch = y_hat.shape[0]
    residual = y_hat - y_true
    loss = float(np.mean(residual * residual))
    dy = (2.0 / (HORIZON * batch)) * residual
    dhs2 = np.zeros_like(hs2)
    dhs2[-1] = dy @ p.head_w
    dxs2, l2_grads = reference_layer_backward(dhs2, cache2, p.layer2)
    _, l1_grads = reference_layer_backward(dxs2, cache1, p.layer1)
    grads = m.ModelParams(np.zeros_like(p.flat), p.hidden)
    for got, want in ((grads.layer1, l1_grads), (grads.layer2, l2_grads)):
        got.w_ih[:], got.w_hh[:], got.b[:] = want.w_ih, want.w_hh, want.b
    grads.head_w[:] = dy.T @ hs2[-1]
    grads.head_b[:] = dy.sum(axis=0)
    return loss, grads


def packed_layer(xs: np.ndarray, p: m.LstmLayerParams,
                 runs: list[tuple[int, int, int]]) -> np.ndarray:
    """Run one layer over a packed (T, B, D) batch; returns hs (T, B, H).

    Each run (t0, t1, w) advances the first w columns through steps t0 to
    t1 - 1, with one input projection for the whole run; widths only
    shrink from one run to the next. Entries of hs outside the runs are
    left unwritten, and xs is not read there.
    """
    t_steps, batch, _ = xs.shape
    cell = m._Cell(p, batch)
    cs = np.empty((t_steps, batch, p.hidden))
    hs = np.empty((t_steps, batch, p.hidden))
    for t0, t1, w in runs:
        cell.narrow(w)
        prev = (hs[t0 - 1, :w], cs[t0 - 1, :w]) if t0 else (None, None)
        cell.run(cell.project(xs[t0:t1, :w]), *prev, cs[t0:t1, :w], hs[t0:t1, :w])
    return hs


def packed_forward_batch(xs: np.ndarray, p: m.ModelParams,
                         ends: m.Ends | None = None) -> np.ndarray:
    """m.forward_batch as a whole-layer pass: layer 1 over every run, then
    layer 2, each keeping (T, B, H) states."""
    xs, steps, cols = m._windows(xs, ends, "forward_batch")
    lengths = np.zeros(xs.shape[1], dtype=np.intp)
    np.maximum.at(lengths, cols, steps + 1)
    ends_of_runs = sorted(set(lengths.tolist()) - {0})
    runs = [(t0, t1, int(np.count_nonzero(lengths >= t1)))
            for t0, t1 in zip([0, *ends_of_runs], ends_of_runs)]
    hs1 = packed_layer(xs, p.layer1, runs)
    hs2 = packed_layer(hs1, p.layer2, runs)
    return m.head(hs2[steps, cols], p)


def bucketed_forecasts(xs: list[np.ndarray], p: m.ModelParams) -> np.ndarray:
    """Normalized forecasts of (T_i, 6) windows, (N, 70) in input order.

    Every window runs its own full pass through the reference layers,
    batched only with windows of exactly its length; no pass is shared.
    """
    buckets: dict[int, list[int]] = {}
    for i, x in enumerate(xs):
        buckets.setdefault(len(x), []).append(i)
    out = np.empty((len(xs), HORIZON))
    for idxs in buckets.values():
        hs1, _ = reference_layer_forward(np.stack([xs[i] for i in idxs], axis=1), p.layer1)
        hs2, _ = reference_layer_forward(hs1, p.layer2)
        out[idxs] = hs2[-1] @ p.head_w.T + p.head_b
    return out


def reference_adam_step(
    arrays: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    m_state: dict[str, np.ndarray],
    v_state: dict[str, np.ndarray],
    t: int,
    cfg,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], dict[str, np.ndarray]]:
    """One bias-corrected Adam step, name by name; returns new (arrays, m, v).

    t is the step number after incrementing (1 on the first step).
    """
    new_arrays, new_m, new_v = {}, {}, {}
    bc1 = 1.0 - cfg.adam_beta1**t
    bc2 = 1.0 - cfg.adam_beta2**t
    for name, theta in arrays.items():
        g = grads[name]
        mom = cfg.adam_beta1 * m_state[name] + (1.0 - cfg.adam_beta1) * g
        vel = cfg.adam_beta2 * v_state[name] + (1.0 - cfg.adam_beta2) * (g * g)
        new_m[name] = mom
        new_v[name] = vel
        m_hat = mom / bc1
        v_hat = vel / bc2
        new_arrays[name] = theta.copy()
        new_arrays[name] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
    return new_arrays, new_m, new_v


def reference_clip(grads: dict[str, np.ndarray], threshold: float) -> dict[str, np.ndarray]:
    """Global-norm clipping with the norm summed array by array."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm <= threshold:
        return grads
    return {name: g * (threshold / norm) for name, g in grads.items()}
