"""Two-layer LSTM encoder with a direct 70-step grip-force head.

The network reads a (time, 6) interaction-wrench window, runs two stacked
LSTM layers (gate order i, f, g, o; single bias vector per layer), and maps
the final hidden state of the top layer through one affine head to the full
70-step grip horizon. backward_batch() returns exact analytic gradients via
backpropagation through time; there is no autograd underneath.

The batch is the only interface: forward_batch and backward_batch take
(T, B, 6) columns, and a single window is the batch B=1, as in predict_grip.
Both read several windows off one column, since any prefix of a column is
itself a window. forward_batch is the inference pass: its columns come
longest first and may be zero-padded, and at each step only the columns
still running advance, so padding is never computed. It runs both layers
over one block of steps at a time and keeps no (T, B, H) array, so its
memory is bounded by the block (FORWARD_BLOCK_BYTES of gates), not by T.
backward_batch runs every column for all T steps and keeps the
activations BPTT needs. Both advance a layer through one cell loop
(_Cell.run). Only the recurrent product h_{t-1} @ W_hh^T (and, in BPTT,
dz_t @ W_hh) and the element-wise work that needs it stay inside the time
loop: the input projection, the weight gradients and dL/dx run as single
GEMMs over many rows, and BPTT computes its other element-wise operands
per block of steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import HORIZON, NormStats, denormalize_grip, normalize_wrench
from .errors import ContractViolation, DataError
from .numerics import Rng

GATE_ORDER = "ifgo"
INPUT_DIM = 6


@dataclass
class LstmLayerParams:
    """One layer's weights; rows of w_ih/w_hh are the stacked i,f,g,o gates."""

    w_ih: np.ndarray  # (4H, D_in)
    w_hh: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)

    @property
    def hidden(self) -> int:
        return self.w_hh.shape[1]


def layout(hidden: int) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, offset) of every weight array in the flat vector.

    The order is fixed: it is the order of named_arrays(), of the checkpoint's
    weight keys, and of init_params' draws (the 2-d arrays).
    """
    g = 4 * hidden
    table, offset = [], 0
    for name, shape in (
        ("layer1.w_ih", (g, INPUT_DIM)),
        ("layer1.w_hh", (g, hidden)),
        ("layer1.b", (g,)),
        ("layer2.w_ih", (g, hidden)),
        ("layer2.w_hh", (g, hidden)),
        ("layer2.b", (g,)),
        ("head_w", (HORIZON, hidden)),
        ("head_b", (HORIZON,)),
    ):
        table.append((name, shape, offset))
        offset += math.prod(shape)
    return table


def n_weights(hidden: int) -> int:
    """Length of the flat vector: 23,350 at hidden 40."""
    _, shape, offset = layout(hidden)[-1]
    return offset + math.prod(shape)


def named_arrays(p: ModelParams) -> list[tuple[str, np.ndarray]]:
    """(name, view) pairs over p.flat in layout order; views, never copies."""
    return [(name, p.flat[offset : offset + math.prod(shape)].reshape(shape))
            for name, shape, offset in layout(p.hidden)]


@dataclass
class ModelParams:
    """Every weight in one float64 vector, laid out by layout(hidden).

    layer1 (D_in = 6), layer2 (D_in = hidden), head_w (70, H) and head_b (70,)
    are views into `flat`, so a write through a view shows in the vector and
    the reverse. Gradients are the same type over their own vector.
    """

    flat: np.ndarray
    hidden: int
    norm: NormStats | None = None
    layer1: LstmLayerParams = field(init=False, repr=False, compare=False)
    layer2: LstmLayerParams = field(init=False, repr=False, compare=False)
    head_w: np.ndarray = field(init=False, repr=False, compare=False)
    head_b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = n_weights(self.hidden)
        if self.flat.dtype != np.float64 or self.flat.shape != (n,):
            raise ContractViolation(
                f"hidden {self.hidden} needs a float64 vector of {n} weights, "
                f"got {self.flat.dtype} of shape {self.flat.shape}"
            )
        v = dict(named_arrays(self))
        self.layer1 = LstmLayerParams(v["layer1.w_ih"], v["layer1.w_hh"], v["layer1.b"])
        self.layer2 = LstmLayerParams(v["layer2.w_ih"], v["layer2.w_hh"], v["layer2.b"])
        self.head_w, self.head_b = v["head_w"], v["head_b"]


def init_params(seed: int, hidden: int = 40) -> ModelParams:
    """Seeded initialization: weights ~ U(-1/sqrt(H), 1/sqrt(H)).

    Biases start at zero except the forget gate slice, which starts at +1 so
    early training does not erase cell state. Draw order is fixed
    (layer1.w_ih, layer1.w_hh, layer2.w_ih, layer2.w_hh, head_w), so one seed
    always yields byte-identical parameters. A hidden whose weight vector
    cannot be allocated is a DataError, since it comes from the train config.
    """
    if hidden < 1:
        raise ContractViolation(f"hidden must be >= 1, got {hidden}")
    rng = Rng(seed)
    bound = 1.0 / np.sqrt(hidden)
    try:
        flat = np.zeros(n_weights(hidden))
    except (ValueError, MemoryError):  # more elements than any array, or this machine, holds
        raise DataError(
            f"hidden {hidden} needs {n_weights(hidden):,} weights, more than can be allocated"
        ) from None
    p = ModelParams(flat, hidden)
    for _, arr in named_arrays(p):
        if arr.ndim == 2:
            arr[:] = rng.uniform_matrix(*arr.shape, -bound, bound)
    p.layer1.b[hidden : 2 * hidden] = 1.0
    p.layer2.b[hidden : 2 * hidden] = 1.0
    return p


class _LayerCache:
    """Per-layer forward activations retained for BPTT (which consumes them)."""

    __slots__ = ("xs", "gates", "cs", "hs")

    def __init__(self, xs: np.ndarray, gates: np.ndarray, cs: np.ndarray,
                 hs: np.ndarray):
        self.xs = xs  # (T, B, D)
        self.gates = gates  # (T, B, 4H) post-activation, i|f|g|o blocks
        self.cs = cs  # (T, B, H)
        self.hs = hs  # (T, B, H)


def _per_gate(h: int, on_sigmoid: float, on_g: float) -> np.ndarray:
    """A (4H,) vector over the i|f|g|o block: on_sigmoid on i, f, o; on_g on g."""
    v = np.full(4 * h, on_sigmoid)
    v[2 * h : 3 * h] = on_g
    return v


class _Cell:
    """One layer's LSTM arithmetic for up to `width` columns.

    The input projection X @ W_ih^T + b does not depend on h_{t-1}, so
    project() runs it as one GEMM over every row of a block of steps
    (Appleyard et al., arXiv:1604.01946); only h_{t-1} @ W_hh^T stays in
    run()'s time loop. The i, f, o rows of W_ih, W_hh and b are halved
    first, which is exact in binary floating point, so one tanh pass over
    the whole 4H block, then `*= [1/2, 1/2, 1, 1/2]` and `+= [1/2, 1/2, 0,
    1/2]`, activates all four gates: sigmoid(z) = 0.5 * tanh(z / 2) + 0.5 on
    i, f, o and tanh on g.
    """

    def __init__(self, p: LstmLayerParams, width: int):
        h = self.hidden = p.hidden
        scale, shift = _per_gate(h, 0.5, 1.0), _per_gate(h, 0.5, 0.0)
        self.w_ih_t = (p.w_ih * scale[:, None]).T
        self.w_hh_t = (p.w_hh * scale[:, None]).T.copy()  # C order: h @ W runs as NN GEMM
        self.b = p.b * scale
        # Full-shape copies: a same-shape ufunc runs about twice as fast as
        # a broadcasting one, with the same bits.
        self.scale = np.tile(scale, (width, 1))
        self.shift = np.tile(shift, (width, 1))
        self.rec = np.empty((width, 4 * h))
        self.fc = np.empty((width, h))

    def narrow(self, width: int) -> None:
        """Serve only the first `width` columns from now on."""
        self.scale, self.shift, self.rec, self.fc = (
            a[:width] for a in (self.scale, self.shift, self.rec, self.fc))

    def project(self, xs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Gate pre-activations of (L, w, D) inputs as an (L, w, 4H) block:
        written into `out` (contiguous) if given, else a new array."""
        t_steps, width, d_in = xs.shape
        rows, g = t_steps * width, 4 * self.hidden
        z = np.matmul(xs.reshape(rows, d_in), self.w_ih_t,
                      out=None if out is None else out.reshape(rows, g))
        z += self.b
        return z.reshape(t_steps, width, g)

    def run(self, gates: np.ndarray, h_prev: np.ndarray | None, c_prev: np.ndarray | None,
            cs: np.ndarray, hs: np.ndarray) -> None:
        """Advance the columns through the steps of a projected (L, w, 4H) block
        from state (h_prev, c_prev), zero if None.

        gates is overwritten by the activated i|f|g|o gates, and cs and hs,
        both (L, w, H), receive the cell and hidden state of every step.
        """
        h = self.hidden
        w_hh_t, scale, shift, rec, fc = self.w_hh_t, self.scale, self.shift, self.rec, self.fc
        per_gate = (gates[:, :, k * h : (k + 1) * h] for k in range(4))
        for z, i, f, g, o, c_t, h_t in zip(gates, *per_gate, cs, hs):
            if h_prev is not None:
                z += np.dot(h_prev, w_hh_t, out=rec)
            np.tanh(z, out=z)
            z *= scale
            z += shift
            np.multiply(i, g, out=c_t)
            if c_prev is not None:
                c_t += np.multiply(f, c_prev, out=fc)
            np.tanh(c_t, out=h_t)
            h_t *= o
            h_prev, c_prev = h_t, c_t


def _layer_forward(xs: np.ndarray, p: LstmLayerParams) -> tuple[np.ndarray, _LayerCache]:
    """Run one layer over all T steps of (T, B, D) inputs; returns hs (T, B, H)
    and the cache BPTT needs: the activated gates, cs and hs of every step.
    """
    t_steps, batch, _ = xs.shape
    cell = _Cell(p, batch)
    gates = cell.project(xs)
    cs = np.empty((t_steps, batch, p.hidden))
    hs = np.empty((t_steps, batch, p.hidden))
    cell.run(gates, None, None, cs, hs)
    return hs, _LayerCache(xs, gates, cs, hs)


BPTT_BLOCK = 32  # steps per hoisted block of _layer_backward


def _layer_backward(
    dhs: np.ndarray, cache: _LayerCache, p: LstmLayerParams, grads: LstmLayerParams
) -> np.ndarray:
    """BPTT through one layer given dL/dh (T, B, H) from above; returns dL/dz.

    dhs[t] is the gradient that reaches h_t from outside the layer: from the
    layer above, or from the head at the steps it reads. Every step also gets
    dL/dh through the recurrence.

    The steps run newest first in blocks of BPTT_BLOCK (the oldest block may
    be shorter). Before each block, the operands that do not depend on the
    incoming gradient are computed for all of its steps at once: tanh(c_t),
    k_t = (1 - tanh^2 c_t) * o_t, the activation derivative (y(1 - y) on
    the sigmoid gates, 1 - y^2 on g) and the partners [g_t, c_{t-1}, i_t]
    that dL/dc_t multiplies into the i, f and g slots. The time loop then
    keeps 8 numpy calls per step, dz_t @ W_hh among them, and every element
    sees the same operations in the same order as a plain per-step loop
    (up to the order of a product's two factors, which IEEE multiplication
    ignores). Blocks rather than whole-T arrays keep the buffers at
    (BPTT_BLOCK, B) size, about 0.46 MB at B=5, H=40, whatever T is;
    training with whole-T buffers raised the peak RSS of the stream
    workloads' set-up. The hoist gives no ufunc a broadcast or strided
    operand, on which numpy would allocate an iterator buffer of up to
    64 kB: strided gate slices are copied into contiguous memory first.

    Consumes the cache: dL/dz for step t is written over cache.gates[t]. dW_ih,
    dW_hh and db are then single GEMMs or a reduction over the (T*B, 4H)
    block of dL/dz, written into `grads`. That block is returned, so a caller
    that needs dL/dx takes it with one more GEMM, dz @ W_ih.
    """
    gates, cs, hs, xs = cache.gates, cache.cs, cache.hs, cache.xs
    t_steps, batch, h = hs.shape
    n = min(BPTT_BLOCK, t_steps)
    tanh_cs = np.empty((n, batch, h))
    ks = np.empty((n, batch, h))
    dacts = np.empty((n, batch, 4 * h))
    partners = np.empty((n, batch, 3, h))  # [g_t, c_{t-1}, i_t]
    dh = np.zeros((batch, h))  # dL/dh_t: dz_{t+1} @ W_hh, plus dhs where given
    dc = np.zeros((batch, h))  # dL/dc_t, then carried to step t - 1
    dc_b = dc[:, None, :]
    tmp = np.empty((batch, h))
    up = np.empty((batch, 4, h))  # dL/d(activation) over the i|f|g|o block
    up_ifg, up_o, up_all = up[:, :3], up[:, 3], up.reshape(batch, 4 * h)
    w_hh = p.w_hh
    for t1 in range(t_steps, 0, -BPTT_BLOCK):
        t0 = max(t1 - BPTT_BLOCK, 0)
        y = gates[t0:t1]
        tanh_c, k, dact, partner = (a[: t1 - t0] for a in (tanh_cs, ks, dacts, partners))
        spare = partner.reshape(-1)[: k.size].reshape(k.shape)  # until partner is filled
        np.tanh(cs[t0:t1], out=tanh_c)
        np.multiply(tanh_c, tanh_c, out=spare)
        np.subtract(1.0, spare, out=spare)
        k[...] = y[:, :, 3 * h :]
        k *= spare
        np.subtract(1.0, y, out=dact)
        dact *= y
        spare[...] = y[:, :, 2 * h : 3 * h]
        spare *= spare
        np.subtract(1.0, spare, out=spare)
        dact[:, :, 2 * h : 3 * h] = spare
        partner[:, :, 0] = y[:, :, 2 * h : 3 * h]
        partner[1:, :, 1] = cs[t0 : t1 - 1]
        partner[0, :, 1] = cs[t0 - 1] if t0 else 0.0
        partner[:, :, 2] = y[:, :, :h]
        for z, f, tanh_t, k_t, dact_t, partner_t, dh_t in zip(
                y[::-1], y[::-1, :, h : 2 * h], tanh_c[::-1], k[::-1], dact[::-1],
                partner[::-1], dhs[t0:t1][::-1]):
            dh += dh_t
            np.multiply(dh, tanh_t, out=up_o)
            np.multiply(k_t, dh, out=tmp)
            dc += tmp
            np.multiply(dc_b, partner_t, out=up_ifg)
            dc *= f
            np.multiply(up_all, dact_t, out=z)  # z now holds dL/dz_t
            np.dot(z, w_hh, out=dh)
    # c_{-1} is zero, so step 0's f slot is +0.0; dc * 0.0 may have left -0.0.
    gates[0, :, h : 2 * h] = 0.0

    dz = gates.reshape(t_steps * batch, 4 * h)
    np.matmul(dz.T, xs.reshape(t_steps * batch, -1), out=grads.w_ih)
    np.matmul(dz[batch:].T, hs[:-1].reshape((t_steps - 1) * batch, h), out=grads.w_hh)
    np.sum(dz, axis=0, out=grads.b)
    return dz


def head(h: np.ndarray, p: ModelParams) -> np.ndarray:
    """The affine head: (B, H) top-layer hidden states to (B, 70) forecasts."""
    return h @ p.head_w.T + p.head_b


Ends = tuple[list[int], list[int]]


def _windows(xs: np.ndarray, ends: Ends | None,
             caller: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """xs as float64, and each window's end step and column as index arrays.

    Window n is the first ends[0][n] + 1 steps of column ends[1][n] of the
    (T, B, 6) batch xs; without `ends`, window n is all of column n.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3 or xs.shape[0] < 1 or xs.shape[2] != INPUT_DIM:
        raise ContractViolation(
            f"{caller} expects a non-empty (T, B, {INPUT_DIM}) input, got shape {xs.shape}"
        )
    t_steps, batch, _ = xs.shape
    if ends is None:
        return xs, np.full(batch, t_steps - 1), np.arange(batch)
    steps, cols = (np.asarray(e, dtype=np.intp) for e in ends)
    if (steps.ndim != 1 or steps.shape != cols.shape or np.any(steps < 0)
            or np.any(steps >= t_steps) or np.any(cols < 0) or np.any(cols >= batch)):
        raise ContractViolation(
            f"{caller}: every window needs an end step in [0, {t_steps}) and a "
            f"column in [0, {batch})"
        )
    return xs, steps, cols


FORWARD_BLOCK_BYTES = 1 << 20  # gate buffer of one forward_batch block


def forward_batch(xs: np.ndarray, p: ModelParams, ends: Ends | None = None) -> np.ndarray:
    """The inference pass: (N, 70) forecasts of the windows of a (T, B, 6) batch.

    Windows are given by `ends` as in backward_batch, and row n of the result
    is window n's forecast. Column c runs for 1 + its largest end step, and
    the columns must come longest first, so at step t the columns still
    running are the first width[t]. Only those advance: steps past a
    column's end (padding) are never computed or read. No BPTT cache is kept.

    Each run of steps of one width w is cut into blocks of
    FORWARD_BLOCK_BYTES // (w * 4H * 8) steps. Both layers advance over a
    block before the next one starts, each with one input projection into
    a gate buffer shared by every block and both layers, and the (h, c) of
    both layers carry over from block to block. The top layer's h is copied
    out only at the windows' end steps, so memory per call is bounded by
    the block, not by T; at B=1 a window of up to 819 steps (H=40) is one
    block. OpenBLAS rounds a product of 1 to 7 rows differently from a
    taller one, so a block projects at least 8 rows unless its whole run
    has fewer: it takes at least ceil(8 / w) steps, and a shorter last
    block joins the one before it. The forecasts are then those of whole-
    layer passes, bit for bit.
    """
    xs, steps, cols = _windows(xs, ends, "forward_batch")
    lengths = np.zeros(xs.shape[1], dtype=np.intp)
    np.maximum.at(lengths, cols, steps + 1)
    if np.any(lengths[1:] > lengths[:-1]):
        raise ContractViolation("forward_batch needs its columns longest first")
    ends_of_runs = sorted(set(lengths.tolist()) - {0})
    h = p.hidden
    blocks = []  # (first step, end step, width)
    for t0, t1 in zip([0, *ends_of_runs], ends_of_runs):
        w = int(np.count_nonzero(lengths >= t1))
        n = max(-(-8 // w), FORWARD_BLOCK_BYTES // (w * 4 * h * 8))
        cuts = list(range(t0, t1, n))
        if len(cuts) > 1 and (t1 - cuts[-1]) * w < 8:
            cuts.pop()  # the short tail joins the block before it
        blocks += [(b0, b1, w) for b0, b1 in zip(cuts, [*cuts[1:], t1])]
    size = max((b1 - b0) * w for b0, b1, w in blocks)
    gate_buf, c_buf, h_buf = np.empty(size * 4 * h), np.empty(size * h), np.empty(size * h)
    cells = _Cell(p.layer1, lengths.size), _Cell(p.layer2, lengths.size)
    carry = np.empty((2, 2, lengths.size, h))  # (h, c) after the last block, per layer
    order = np.argsort(steps, kind="stable")  # windows by end step
    by_step, by_col = steps[order], cols[order]
    his = np.searchsorted(by_step, [b1 for _, b1, _ in blocks]).tolist()
    h_top = np.empty((len(steps), h))
    lo = 0
    for (b0, b1, w), hi in zip(blocks, his):
        gates, cs, hs = (buf[: (b1 - b0) * w * k].reshape(b1 - b0, w, k)
                         for buf, k in ((gate_buf, 4 * h), (c_buf, h), (h_buf, h)))
        inputs = xs[b0:b1, :w]
        for cell, state in zip(cells, carry):
            cell.narrow(w)
            h_prev, c_prev = state[:, :w] if b0 else (None, None)
            cell.run(cell.project(inputs, gates), h_prev, c_prev, cs, hs)
            if b1 < ends_of_runs[-1]:  # a next block starts from this state
                state[0, :w], state[1, :w] = hs[-1], cs[-1]
            inputs = hs  # read into the gates before the next layer overwrites it
        h_top[order[lo:hi]] = hs[by_step[lo:hi] - b0, by_col[lo:hi]]
        lo = hi
    return head(h_top, p)


def backward_batch(
    xs: np.ndarray, y_true: np.ndarray, p: ModelParams, ends: Ends | None = None
) -> tuple[float, ModelParams]:
    """Mean-over-windows MSE loss and its exact gradients.

    Window n is the first ends[0][n] + 1 steps of column ends[1][n] of xs,
    and y_true[n] is its target; without `ends`, window n is all of column n.
    The LSTM starts from zero state, so a window's forecast is the head at
    its last step of the column's pass, and windows that are prefixes of one
    column share that pass. Every column runs for all T steps. The loss
    averages over horizon steps and windows, so the returned gradients equal
    the mean of the per-window gradients. Each gradient GEMM and sum writes
    straight into its view of one new vector.
    """
    xs, steps, cols = _windows(xs, ends, "backward_batch")
    y_true = np.asarray(y_true, dtype=np.float64)
    hs1, cache1 = _layer_forward(xs, p.layer1)
    _, cache2 = _layer_forward(hs1, p.layer2)
    t_steps, batch, h = cache2.hs.shape
    h_read = cache2.hs[steps, cols]  # (N, H): the top-layer states the head reads
    y_hat = head(h_read, p)
    if y_true.shape != y_hat.shape:
        raise ContractViolation(
            f"target shape {y_true.shape} does not match prediction "
            f"shape {y_hat.shape}"
        )
    residual = y_hat - y_true
    loss = float(np.mean(residual * residual))

    dy = (2.0 / (HORIZON * len(y_hat))) * residual  # (N, 70)
    grads = ModelParams(np.empty_like(p.flat), p.hidden)
    np.matmul(dy.T, h_read, out=grads.head_w)
    np.sum(dy, axis=0, out=grads.head_b)
    dhs2 = np.zeros((t_steps, batch, h))
    np.add.at(dhs2, (steps, cols), dy @ p.head_w)  # a repeated window adds twice

    dz2 = _layer_backward(dhs2, cache2, p.layer2, grads.layer2)
    dxs2 = (dz2 @ p.layer2.w_ih).reshape(t_steps, batch, h)
    _layer_backward(dxs2, cache1, p.layer1, grads.layer1)
    return loss, grads


def predict_grip(x_raw: np.ndarray, p: ModelParams) -> np.ndarray:
    """Forecast 70 giver grip forces in newtons from a raw wrench window.

    x_raw is (T, 6) in N / N*m. Normalizes with the embedded stats, runs the
    encoder as a batch of one, and de-normalizes the grip channel. This is
    the call a robotic giver makes on its wrist-sensor window. A window or
    weights large enough to overflow float64 give a non-finite forecast;
    the caller decides what to do with it.
    """
    if p.norm is None:
        raise ContractViolation("model has no normalization stats attached")
    x_raw = np.asarray(x_raw, dtype=np.float64)
    if x_raw.ndim != 2 or x_raw.shape[0] < 1:
        raise ContractViolation(
            f"predict_grip expects a non-empty (T, 6) window, got shape {x_raw.shape}"
        )
    if not np.all(np.isfinite(x_raw)):
        raise ContractViolation("predict_grip input contains non-finite values")
    y_norm = forward_batch(normalize_wrench(x_raw, p.norm)[:, None, :], p)
    return denormalize_grip(y_norm[0], p.norm)
