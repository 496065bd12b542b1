"""sor-sim: the paper's Red/Black SOR on its largest configuration.

The 122 x 842 grid of Figure 2 on 8 nodes x 4 CPUs, 30 iterations.  The
seed draws the boundary temperatures and the node of the convergence
master; the program itself is ``repro.apps.sor.run_amber_sor``
unchanged.  Every rep's grid must be bitwise equal to the sequential
solver's on the same problem.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Optional

from repro.apps.sor import PAPER_COLS, PAPER_ROWS, SorProblem
from repro.apps.sor import amber_sor
from repro.apps.sor import run_amber_sor, run_sequential_sor
from repro.placement.policies import PlacementPolicy

NODES = 8
CPUS_PER_NODE = 4
ITERATIONS = 30


class _MasterOn(PlacementPolicy):
    """Puts the convergence master on a given node; every other
    placement stays the program's own."""

    def __init__(self, node: int) -> None:
        self.node = node

    def node_for(self, cls: str, index: int, default: Optional[int],
                 count: Optional[int] = None) -> Optional[int]:
        return self.node if cls == "SorMaster" else default


def _digest(grid: Any) -> str:
    return hashlib.sha256(grid.tobytes()).hexdigest()


class SorSim:
    #: The user-code layer: the numerics as bound in the program's
    #: module (``color_mask`` runs inside ``sweep_color``).
    user = ((amber_sor, "sweep_color"), (amber_sor, "count_color_points"))
    user_resumes = False

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        boundary = tuple(round(rng.uniform(0.0, 100.0), 3)
                         for _ in range(4))
        self.problem = SorProblem(PAPER_ROWS, PAPER_COLS,
                                  iterations=ITERATIONS, boundary=boundary)
        self.placement = _MasterOn(rng.randrange(NODES))
        #: One op is one grid-point update.
        self.ops = self.problem.points * ITERATIONS
        self._reference: Optional[str] = None

    def run(self) -> Any:
        return run_amber_sor(self.problem, nodes=NODES,
                             cpus_per_node=CPUS_PER_NODE,
                             collect_grid=True, placement=self.placement)

    def wrong(self, result: Any) -> int:
        """A rep whose grid differs from the sequential solver's fails
        all of its point updates."""
        if self._reference is None:
            self._reference = _digest(run_sequential_sor(self.problem).grid)
        return 0 if _digest(result.grid) == self._reference else self.ops
