"""Reproducible Brownian increments from counter-based Philox streams.

Each (component, path) pair gets its own stream: component seeds are spawned
from the master seed with SeedSequence, and path index i uses the stream
jumped i times (Salmon et al. 2011).  Draws therefore depend only on (seed,
component, path_index, step), never on how paths are batched across chunks
or threads, and the three Brownian components can be re-seeded independently
(the filter measurability checks rely on this).

`Philox(key=k).jumped(i)` is the fresh generator with its 256-bit counter
advanced by i * 2**128 and an empty output buffer.  Building it per path
costs far more than the draws, so one generator per component is reset to
that state for each path instead: counter words [0, 0, i mod 2**64,
i >> 64], buffer_pos 4, has_uint32 0, uinteger 0.  The rows are bit for bit
those of `jumped(i)`, so every seed-pinned result keeps its value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_WORD = 2**64 - 1


def component_seeds(seed: int) -> tuple:
    """Three independent child seeds, one per Brownian component."""
    children = np.random.SeedSequence(seed).spawn(3)
    return tuple(int(c.generate_state(1, np.uint64)[0]) for c in children)


def _component_normals(comp_seed: int, path_indices, n_steps: int) -> np.ndarray:
    out = np.empty((len(path_indices), n_steps))
    bitgen = np.random.Philox(key=comp_seed)
    gen = np.random.Generator(bitgen)
    state = bitgen.state            # counter 0, empty buffer: jumped(0)
    counter = state["state"]["counter"]
    for row, idx in enumerate(path_indices):
        idx = int(idx)
        counter[2:] = (idx & _WORD, idx >> 64)
        bitgen.state = state
        out[row] = gen.standard_normal(n_steps)
    return out


@dataclass(frozen=True)
class NoisePlan:
    """Recipe for the increment array of a batch of paths.

    seeds: per-component Philox keys; dts: step sizes on the solver grid.
    """

    seeds: tuple
    dts: np.ndarray

    @staticmethod
    def from_seed(seed: int, dts) -> "NoisePlan":
        return NoisePlan(component_seeds(seed), np.asarray(dts, dtype=float))

    def increments(self, path_indices) -> np.ndarray:
        """Gaussian N(0, h_k) increments, shape (paths, steps, 3)."""
        idx = np.asarray(path_indices, dtype=int)
        if idx.size and idx.min() < 0:
            raise ValueError("path indices must be non-negative")
        k = self.dts.shape[0]
        out = np.empty((idx.shape[0], k, 3))
        scale = np.sqrt(self.dts)
        for comp in range(3):
            out[:, :, comp] = _component_normals(self.seeds[comp], idx, k) * scale
        return out

    def with_component_seed(self, comp: int, new_seed: int) -> "NoisePlan":
        """Same plan with one Brownian component re-seeded."""
        seeds = list(self.seeds)
        seeds[comp] = component_seeds(new_seed)[comp]
        return NoisePlan(tuple(seeds), self.dts)
