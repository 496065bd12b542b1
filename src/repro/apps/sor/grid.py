"""Numerical kernels shared by every SOR implementation.

The grid is a ``(rows+2, cols+2)`` float32 array: the outer ring holds the
fixed boundary temperatures, the inner ``rows x cols`` block is the
computed interior ("the steady-state temperature over the interior of a
square plate given the temperatures around the plate's boundary").  Points
are checkerboard-colored by the parity of their *global* interior
coordinates, so any partitioning of the grid updates exactly the same
points in each phase.

float32 mirrors the 4-byte VAX F-floating values of the original, and sets
the edge-exchange payload sizes used by the simulated runs.

Because same-color points never read each other, a color sweep gives
bitwise-identical results no matter how it is partitioned — the tests pin
the parallel implementations to the sequential one exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: The specific problem measured in Figure 2: "a grid size of 122 by 842".
PAPER_ROWS = 122
PAPER_COLS = 842

BLACK = 0
RED = 1

#: Default over-relaxation factor (typical for SOR on Laplace problems).
DEFAULT_OMEGA = 1.5

#: Bytes per grid value (VAX F-floating / numpy float32).
VALUE_BYTES = 4


@dataclass(frozen=True)
class SorProblem:
    """A problem instance: dimensions, boundary condition, SOR parameters.

    ``iterations`` fixes the sweep count (the paper measures fixed-size
    runs); set ``tolerance`` > 0 to let convergence stop the run early.
    """

    rows: int = PAPER_ROWS
    cols: int = PAPER_COLS
    omega: float = DEFAULT_OMEGA
    iterations: int = 30
    tolerance: float = 0.0
    #: Boundary temperatures: (top, bottom, left, right).
    boundary: Tuple[float, float, float, float] = (100.0, 0.0, 0.0, 0.0)

    @property
    def points(self) -> int:
        """Interior points — the paper's problem-size axis (Figure 3)."""
        return self.rows * self.cols

    def scaled(self, rows: int, cols: int) -> "SorProblem":
        """The same problem at a different grid size (Figure 3 sweeps)."""
        return SorProblem(rows, cols, self.omega, self.iterations,
                          self.tolerance, self.boundary)


def make_grid(problem: SorProblem) -> np.ndarray:
    """Build the initial ``(rows+2, cols+2)`` grid with boundary set."""
    grid = np.zeros((problem.rows + 2, problem.cols + 2), dtype=np.float32)
    top, bottom, left, right = problem.boundary
    grid[0, :] = top
    grid[-1, :] = bottom
    grid[:, 0] = left
    grid[:, -1] = right
    # Corners belong to both edges; top/bottom take precedence (arbitrary
    # but fixed, and identical across implementations).
    grid[0, 0] = grid[0, -1] = top
    grid[-1, 0] = grid[-1, -1] = bottom
    return grid


def count_color_points(rows: int, cols: int, color: int,
                       row0: int = 0, col0: int = 0) -> int:
    """Number of points of ``color`` in the block — the per-phase compute
    cost driver, computed without materializing a mask."""
    total = rows * cols
    # Points where (r + c) % 2 == 0 in the block.
    evens = 0
    for r in range(2):
        rows_r = (rows - r + 1) // 2          # rows with parity r (local)
        parity = (row0 + r + col0) % 2        # parity of first col there
        cols_even = (cols + 1) // 2 if parity == 0 else cols // 2
        evens += rows_r * cols_even
    return evens if color == BLACK else total - evens


def sweep_color(grid: np.ndarray, omega: float, color: int,
                row0: int = 1, row1: int = None,
                col0: int = 1, col1: int = None,
                global_row0: int = 0, global_col0: int = 0) -> float:
    """Update the points of ``color`` in ``grid[row0:row1, col0:col1]``
    in place; return the maximum absolute change.

    ``row0``/``col0`` etc. are *array* indices (1 = first interior line).
    ``global_row0``/``global_col0`` are the global interior coordinates of
    array position (1, 1), so parities line up across partitions.

    The points of one color form two strided sub-lattices: the block's
    even rows (``row0, row0+2, ...``) and its odd rows (``row0+1, ...``).
    Within each, the first column of the color follows from the global
    parity of that row and ``col0``, and every second column after it
    has the same color.  Each sub-lattice is updated through
    ``grid[r:row1:2, c:col1:2]`` and its four strided neighbor views, so
    only the color's own points are computed; each one gets the same
    float32 operation sequence on the same inputs as a full-block update.
    """
    if row1 is None:
        row1 = grid.shape[0] - 1
    if col1 is None:
        col1 = grid.shape[1] - 1
    w = np.float32(omega)
    quarter = np.float32(0.25)
    delta = 0.0
    parity = global_row0 + global_col0 + col0 - 2 + color
    for r in (row0, row0 + 1):
        c = col0 + (parity + r) % 2
        if r >= row1 or c >= col1:
            continue
        block = grid[r:row1:2, c:col1:2]
        neighbors = (grid[r - 1:row1 - 1:2, c:col1:2]
                     + grid[r + 1:row1 + 1:2, c:col1:2]
                     + grid[r:row1:2, c - 1:col1 - 1:2]
                     + grid[r:row1:2, c + 1:col1 + 1:2])
        updated = block + w * (quarter * neighbors - block)
        change = float(np.abs(updated - block, dtype=np.float32).max())
        # A NaN change propagates, as it does through ndarray.max.
        if change > delta or change != change:
            delta = change
        block[...] = updated
    return delta


def sor_iterate(grid: np.ndarray, omega: float) -> float:
    """One full Red/Black iteration over the whole grid (black phase then
    red phase); returns the maximum change across both phases."""
    delta_black = sweep_color(grid, omega, BLACK)
    delta_red = sweep_color(grid, omega, RED)
    return max(delta_black, delta_red)


def residual(grid: np.ndarray) -> float:
    """Max |Laplace residual| over the interior — an implementation-
    independent quality measure used by tests."""
    interior = grid[1:-1, 1:-1]
    neighbors = (grid[:-2, 1:-1] + grid[2:, 1:-1]
                 + grid[1:-1, :-2] + grid[1:-1, 2:])
    return float(np.abs(0.25 * neighbors - interior).max())
