"""Grip-force forecasting for human-robot handovers.

Pipeline: load or synthesize 120 Hz handover recordings (interaction wrench
plus giver/taker grip forces), cut wrench windows with fixed-horizon grip
targets around each handover's grip crossing, train a 2-layer LSTM
forecaster with exact BPTT gradients, and serve 70-step (583.33 ms) grip
forecasts from recorded or streaming wrench input.
"""

from .numerics import one_blas_thread

one_blas_thread()  # on import, before any product: the thread count changes no bit
