"""Reproducible Brownian increments from counter-based Philox streams.

Each (component, path) pair gets its own stream: component seeds are spawned
from the master seed with SeedSequence, and path index i uses the stream
jumped i times (Salmon et al. 2011).  Draws therefore depend only on (seed,
component, path_index, step), never on how paths are batched across chunks
or threads.  A plan built for a spec, `NoisePlan.for_spec(spec, seed)`,
draws only the components it loads; a dead one (C_i and sigma_i zero on
every piece) is exact zeros, and the live components' rows do not change.
`NoisePlan(component_seeds(seed), dts)` draws all three on the steps dts.

`Philox(key=k).jumped(i)` is the fresh generator with its 256-bit counter
advanced by i * 2**128 and an empty output buffer.  Building it per path
costs far more than the draws, so one generator per component is reset to
that state for each path instead: counter words [0, 0, i mod 2**64,
i >> 64], buffer_pos 4, has_uint32 0, uinteger 0.  The rows are bit for bit
those of `jumped(i)`, so every seed-pinned result keeps its value.  Paths
lie on the last, contiguous axis, (steps, 3, paths), as the simulation's
per-node products read them: a tile of TILE rows is drawn into one small
scratch block and scaled into place at once, no (steps, paths) temporary
made, in the buffer that `reusing` gives a plan if it has one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .model import solver_times

_WORD = 2**64 - 1
TILE = 16       # paths drawn into the scratch block per scaled copy


def component_seeds(seed: int) -> tuple:
    """Three independent child seeds, one per Brownian component."""
    children = np.random.SeedSequence(seed).spawn(3)
    return tuple(int(c.generate_state(1, np.uint64)[0]) for c in children)


@dataclass(frozen=True)
class NoisePlan:
    """Recipe for the increment array of a batch of paths.

    seeds: per-component Philox keys; dts: step sizes on the solver grid;
    live: per component, whether it is drawn (a dead one is exact zeros);
    buffer: None, or the (steps, 3, rows) array `reusing` draws batches into.
    """

    seeds: tuple
    dts: np.ndarray
    live: tuple = (True, True, True)
    buffer: np.ndarray | None = field(default=None, repr=False, compare=False)

    @staticmethod
    def for_spec(spec, seed: int) -> "NoisePlan":
        """The plan on the spec's solver grid, drawing the components it loads."""
        return NoisePlan(component_seeds(seed), np.diff(solver_times(spec)),
                         tuple(bool(np.any(spec.coeffs[f"C{i}"].values)
                                    or np.any(spec.coeffs[f"sigma{i}"].values))
                               for i in (1, 2, 3)))

    def reusing(self, rows: int) -> "NoisePlan":
        """The same plan drawing each batch of up to `rows` paths into one
        buffer: every result is a view that the next batch overwrites."""
        return replace(self, buffer=np.empty((self.dts.shape[0], 3, rows)))

    def increments(self, path_indices) -> np.ndarray:
        """N(0, h_k) increments, exact zeros on dead components, shape (steps,
        3, paths), in the plan's buffer if it has one, else in a new array."""
        idx = np.asarray(path_indices, dtype=int)
        if idx.size and idx.min() < 0:
            raise ValueError("path indices must be non-negative")
        N, K = idx.shape[0], self.dts.shape[0]
        out = np.empty((K, 3, N)) if self.buffer is None else self.buffer[..., :N]
        if out.shape[-1] < N:
            raise ValueError(f"{N} paths overflow a {out.shape[-1]}-path buffer")
        scale, scratch = np.sqrt(self.dts)[:, None], np.empty((TILE, K))
        out[:, np.logical_not(self.live)] = 0.0
        for comp in np.flatnonzero(self.live):
            bitgen = np.random.Philox(key=self.seeds[comp])
            gen = np.random.Generator(bitgen)
            state = bitgen.state        # counter 0, empty buffer: jumped(0)
            counter = state["state"]["counter"]
            for at in range(0, N, TILE):
                tile = idx[at:at + TILE].tolist()
                for row, i in enumerate(tile):
                    counter[2:] = (i & _WORD, i >> 64)
                    bitgen.state = state
                    gen.standard_normal(out=scratch[row])
                np.multiply(scratch[:len(tile)].T, scale,
                            out=out[:, comp, at:at + len(tile)])
        return out
