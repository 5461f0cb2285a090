"""Two-layer LSTM encoder with a direct 70-step grip-force head.

The network reads a (time, 6) interaction-wrench window, runs two stacked
LSTM layers (gate order i, f, g, o; single bias vector per layer), and maps
the final hidden state of the top layer through one affine head to the full
70-step grip horizon. backward_batch() returns exact analytic gradients via
backpropagation through time; there is no autograd underneath.

The batch is the only interface: forward_batch and backward_batch take
(T, B, 6) columns, and a single window is the batch B=1. Both read several
windows off one column, since any prefix of a column is itself a window.
forward_batch is the inference pass: its columns come longest first and may
be zero-padded, and _Encoder runs both layers over one block of steps at a
time, never over padding, so memory is bounded by the block, not by T.
WindowStream.forecast turns one window into newtons through a prepared
_Encoder, for a stream of ticks (push) and a raw window (predict_grip).
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

from .dataset import HORIZON, WRENCH_COLUMNS, NormStats, denormalize_grip, normalize_wrench
from .errors import ContractViolation, DataError
from .numerics import Rng

GATE_ORDER = "ifgo"
INPUT_DIM = len(WRENCH_COLUMNS)


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

    project() makes only even-row GEMMs, running an odd last row with a zero
    row under it: OpenBLAS rounds odd-row products unlike taller ones, and
    even-row ones alike at the one thread that importing gripforecast sets
    (numerics.one_blas_thread), so no cut of the steps moves a bit.
    """

    def __init__(self, p: LstmLayerParams, width: int):
        h = self.hidden = p.hidden
        scale, shift = _per_gate(h, 0.5, 1.0), _per_gate(h, 0.5, 0.0)
        self.w_ih_t = (p.w_ih * scale[:, None]).T.copy()  # C order, as w_hh_t
        self.w_hh_t = (p.w_hh * scale[:, None]).T.copy()  # C order: h @ W runs as NN GEMM
        self.pair_in, self.pair_out = np.zeros((2, p.w_ih.shape[1])), np.empty((2, 4 * h))
        self.b = p.b * scale
        # Full-shape copies: a same-shape ufunc runs about twice as fast as
        # a broadcasting one, with the same bits.
        self.scale = np.tile(scale, (width, 1))
        self.shift = np.tile(shift, (width, 1))
        self.rec = np.empty((width, 4 * h))
        self.fc = np.empty((width, h))

    def project(self, xs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Gate pre-activations of (L, w, D) inputs as an (L, w, 4H) block:
        written into `out` (contiguous) if given, else a new array."""
        t_steps, width, d_in = xs.shape
        rows, g = t_steps * width, 4 * self.hidden
        x, even = xs.reshape(rows, d_in), rows - rows % 2
        z = np.empty((rows, g)) if out is None else out.reshape(rows, g)
        np.matmul(x[:even], self.w_ih_t, out=z[:even])
        if even < rows:  # the last row, with the zero row of pair_in under it
            self.pair_in[0] = x[-1]
            z[-1] = np.matmul(self.pair_in, self.w_ih_t, out=self.pair_out)[0]
        z += self.b
        return z.reshape(t_steps, width, g)

    def run(self, gates: np.ndarray, h_prev: np.ndarray | None, c_prev: np.ndarray | None,
            cs: np.ndarray, hs: np.ndarray) -> None:
        """Advance the first w columns through the steps of a projected
        (L, w, 4H) block from state (h_prev, c_prev), zero if None.

        gates is overwritten by the activated i|f|g|o gates, and cs and hs,
        both (L, w, H), receive the cell and hidden state of every step.
        """
        h, w = self.hidden, gates.shape[1]
        w_hh_t = self.w_hh_t
        scale, shift, rec, fc = (a[:w] for a in (self.scale, self.shift, self.rec, self.fc))
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


def _layer_forward(xs: np.ndarray, p: LstmLayerParams) -> tuple[np.ndarray, tuple]:
    """Run one layer over all T steps of (T, B, D) inputs; returns hs (T, B, H)
    and the cache BPTT needs, (xs, gates, cs, hs): the inputs, and the
    activated gates, cs and hs of every step."""
    t_steps, batch, _ = xs.shape
    cell = _Cell(p, batch)
    gates = cell.project(xs)
    cs = np.empty((t_steps, batch, p.hidden))
    hs = np.empty((t_steps, batch, p.hidden))
    cell.run(gates, None, None, cs, hs)
    return hs, (xs, gates, cs, hs)


BPTT_BLOCK = 32  # steps per hoisted block of _layer_backward


def _layer_backward(
    dhs: np.ndarray, cache: tuple, p: LstmLayerParams, grads: LstmLayerParams
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

    Consumes the cache: dL/dz for step t is written over its gates[t]. dW_ih,
    dW_hh and db are then single GEMMs or a reduction over the (T*B, 4H)
    block of dL/dz, written into `grads`. That block is returned, so a caller
    that needs dL/dx takes it with one more GEMM, dz @ W_ih.
    """
    xs, gates, cs, hs = cache
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


FORWARD_BLOCK_BYTES = 1 << 20  # gate buffer of one _Encoder block


def forward_batch(xs: np.ndarray, p: ModelParams, ends: Ends | None = None) -> np.ndarray:
    """The inference pass: (N, 70) forecasts of the windows of a (T, B, 6) batch.

    Windows are given by `ends` as in backward_batch, and row n of the result
    is window n's forecast. Column c runs for 1 + its largest end step, and
    the columns must come longest first; steps past a column's end (padding)
    are never computed or read. No BPTT cache is kept, and memory per call
    is bounded by one _Encoder block, not by T.
    """
    xs, steps, cols = _windows(xs, ends, "forward_batch")
    return head(_Encoder(p, steps, cols, xs.shape[1]).run(xs), p)


class _Encoder:
    """Both layers prepared for a fixed set of windows of a batch of `batch`
    columns: window n ends at step steps[n] of column cols[n]. None of it
    depends on the inputs' values, so a caller that runs many batches of one
    shape prepares it once.

    Column c runs for 1 + its largest end step, and the columns must come
    longest first, so at step t the columns still running are the first
    width[t]; only those advance. Each run of steps of one width w is cut
    into blocks of max(1, FORWARD_BLOCK_BYTES // (w * 4H * 8)) steps. Both
    layers advance over a block before the next one starts, each with one
    input projection into a gate buffer shared by every block and both
    layers, and the (h, c) of both layers carry over from block to block.
    The top layer's h is copied out only for the windows that end in the
    block; at B=1 a window of up to 819 steps (H=40) is one block. By
    _Cell's row rule, the states are those of whole-layer passes, bit for bit.
    """

    def __init__(self, p: ModelParams, steps: np.ndarray | list[int],
                 cols: np.ndarray | list[int], batch: int):
        h = self.hidden = p.hidden
        steps, cols = np.asarray(steps), np.asarray(cols)
        lengths = np.zeros(batch, dtype=np.intp)
        np.maximum.at(lengths, cols, steps + 1)
        if np.any(lengths[1:] > lengths[:-1]):
            raise ContractViolation("forward_batch needs its columns longest first")
        ends_of_runs = sorted(set(lengths.tolist()) - {0})
        self.steps, self.windows = ends_of_runs[-1], len(steps)
        self.blocks = []  # (first step, end step, width, windows ending here, their rows, columns)
        for t0, t1 in zip([0, *ends_of_runs], ends_of_runs):
            w = int(np.count_nonzero(lengths >= t1))
            n = max(1, FORWARD_BLOCK_BYTES // (w * 4 * h * 8))
            for b0, b1 in zip(range(t0, t1, n), [*range(t0 + n, t1, n), t1]):
                mine = np.flatnonzero((steps >= b0) & (steps < b1))
                self.blocks.append((b0, b1, w, mine, steps[mine] - b0, cols[mine]))
        size = max((b1 - b0) * w for b0, b1, w, *_ in self.blocks)
        self.buffers = np.empty(size * 4 * h), np.empty(size * h), np.empty(size * h)
        self.cells = _Cell(p.layer1, batch), _Cell(p.layer2, batch)
        self.carry = np.empty((2, 2, batch, h))  # (h, c) after the last block, per layer

    def run(self, xs: np.ndarray) -> np.ndarray:
        """The (N, H) top-layer states at the windows' ends, in window order,
        of both layers run over the (T, B, 6) inputs from zero state."""
        h = self.hidden
        gate_buf, c_buf, h_buf = self.buffers
        h_top = np.empty((self.windows, h))
        for b0, b1, w, mine, rows, cols in self.blocks:
            gates, cs, hs = (buf[: (b1 - b0) * w * k].reshape(b1 - b0, w, k)
                             for buf, k in ((gate_buf, 4 * h), (c_buf, h), (h_buf, h)))
            inputs = xs[b0:b1, :w]
            for cell, state in zip(self.cells, self.carry):
                h_prev, c_prev = state[:, :w] if b0 else (None, None)
                cell.run(cell.project(inputs, gates), h_prev, c_prev, cs, hs)
                if b1 < self.steps:  # a next block starts from this state
                    state[0, :w], state[1, :w] = hs[-1], cs[-1]
                inputs = hs  # read into the gates before the next layer overwrites it
            h_top[mine] = hs[rows, cols]
        return h_top


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
    hs2, cache2 = _layer_forward(hs1, p.layer2)
    t_steps, batch, h = hs2.shape
    h_read = hs2[steps, cols]  # (N, H): the top-layer states the head reads
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

    x_raw is (T, 6) in N / N*m. Normalizes it with the embedded stats and
    returns the forecast of a T-tick WindowStream on it. This is the call a
    robotic giver makes on its wrist-sensor window. A window or weights
    large enough to overflow float64 give a non-finite forecast; the caller
    decides what to do with it.
    """
    x_raw = np.asarray(x_raw, dtype=np.float64)
    if x_raw.ndim != 2 or x_raw.shape[0] < 1 or x_raw.shape[1] != INPUT_DIM:
        raise ContractViolation(
            f"predict_grip expects a non-empty (T, {INPUT_DIM}) window, got shape {x_raw.shape}"
        )
    if not np.all(np.isfinite(x_raw)):
        raise ContractViolation("predict_grip input contains non-finite values")
    return WindowStream(p, len(x_raw)).forecast(normalize_wrench(x_raw, p.norm)[:, None, :])


class WindowStream:
    """Forecasts over a sliding window of the last `n` ticks, fed one tick
    at a time.

    What does not depend on the ticks is prepared once: the _Encoder of one
    n-step column and a ring of 2n normalized rows. A tick is normalized on
    arrival and written at rows k and k + n, so the window is always the
    contiguous slice ring[k + 1 : k + 1 + n]. forecast() is the one route
    from a normalized window to newtons: push() ends in it, and predict_grip
    is forecast() on its whole window, so the two agree bit for bit.
    """

    def __init__(self, p: ModelParams, n: int):
        if p.norm is None:
            raise ContractViolation("model has no normalization stats attached")
        self.p, self.n = p, n
        self.encoder = _Encoder(p, [n - 1], [0], 1)
        self.ring = np.empty((2 * n, 1, INPUT_DIM))
        self.filled = 0  # ticks since the window (re)started

    def restart(self) -> None:
        """Empty the window, as at a gap: the next n ticks fill it again."""
        self.filled = 0

    def push(self, wrench: list[float]) -> np.ndarray | None:
        """Add one raw wrench tick; returns the forecast in newtons of the
        window it ends, or None while the window is not yet full."""
        k = self.filled % self.n
        self.ring[k, 0] = self.ring[k + self.n, 0] = normalize_wrench(wrench, self.p.norm)
        self.filled += 1
        if self.filled < self.n:
            return None
        return self.forecast(self.ring[k + 1 : k + 1 + self.n])

    def forecast(self, window: np.ndarray) -> np.ndarray:
        """The 70-step forecast in newtons of a normalized (n, 1, 6) window."""
        return denormalize_grip(head(self.encoder.run(window), self.p)[0], self.p.norm)
