"""Tests for the SOR application (paper section 6).

The key correctness property: the Amber program computes *bitwise
identical* grids to the sequential baseline for any partitioning, because
same-color points never read each other within a phase.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.apps.sor import (
    SorProblem,
    make_grid,
    run_amber_sor,
    run_sequential_sor,
    sweep_color,
)
from repro.apps.sor.amber_sor import default_sections
from repro.apps.sor.grid import (
    BLACK,
    RED,
    count_color_points,
    residual,
    sor_iterate,
)
from repro.apps.sor.sequential import sequential_time_us

SMALL = SorProblem(rows=10, cols=36, iterations=6)


def color_mask(rows: int, cols: int, color: int,
               row0: int = 0, col0: int = 0) -> np.ndarray:
    """Boolean mask of the points of ``color`` within a ``rows x cols``
    block whose top-left interior point has global coordinates
    ``(row0, col0)``."""
    r = np.arange(rows).reshape(-1, 1) + row0
    c = np.arange(cols).reshape(1, -1) + col0
    return ((r + c) % 2) == color


def _mask_sweep_reference(grid: np.ndarray, omega: float, color: int,
                          row0: int = 1, row1: int = None,
                          col0: int = 1, col1: int = None,
                          global_row0: int = 0,
                          global_col0: int = 0) -> float:
    """The mask-based sweep: stencil over the whole block, one color
    written back through a boolean mask.  The oracle for the strided
    ``sweep_color``."""
    if row1 is None:
        row1 = grid.shape[0] - 1
    if col1 is None:
        col1 = grid.shape[1] - 1
    if row1 <= row0 or col1 <= col0:
        return 0.0
    block = grid[row0:row1, col0:col1]
    mask = color_mask(row1 - row0, col1 - col0, color,
                      global_row0 + row0 - 1, global_col0 + col0 - 1)
    neighbors = (grid[row0 - 1:row1 - 1, col0:col1]
                 + grid[row0 + 1:row1 + 1, col0:col1]
                 + grid[row0:row1, col0 - 1:col1 - 1]
                 + grid[row0:row1, col0 + 1:col1 + 1])
    updated = block + np.float32(omega) * (
        np.float32(0.25) * neighbors - block)
    delta = np.abs(updated - block, dtype=np.float32)
    block[mask] = updated[mask]
    masked = delta[mask]
    return float(masked.max()) if masked.size else 0.0


@st.composite
def _sweep_cases(draw):
    """A random float32 grid plus an in-bounds (possibly empty, one-row
    or one-column) block, global offsets and a color."""
    shape = (draw(st.integers(3, 12)), draw(st.integers(3, 16)))
    grid = draw(hnp.arrays(np.float32, shape, elements=st.floats(
        -1e4, 1e4, width=32)))
    row0 = draw(st.integers(1, shape[0] - 1))
    col0 = draw(st.integers(1, shape[1] - 1))
    row1 = draw(st.none() | st.integers(1, shape[0] - 1))
    col1 = draw(st.none() | st.integers(1, shape[1] - 1))
    kwargs = dict(row0=row0, row1=row1, col0=col0, col1=col1,
                  global_row0=draw(st.integers(0, 5)),
                  global_col0=draw(st.integers(0, 5)))
    omega = draw(st.floats(0.1, 1.99))
    return grid, omega, draw(st.sampled_from([BLACK, RED])), kwargs


@settings(max_examples=300, deadline=None)
@given(case=_sweep_cases())
def test_strided_sweep_matches_mask_reference(case):
    grid, omega, color, kwargs = case
    expected_grid = grid.copy()
    expected = _mask_sweep_reference(expected_grid, omega, color, **kwargs)
    got = sweep_color(grid, omega, color, **kwargs)
    assert got == expected
    assert np.array_equal(grid.view(np.uint32),
                          expected_grid.view(np.uint32))


def test_strided_sweep_propagates_nan_like_reference():
    grid = make_grid(SMALL)
    grid[3, 5] = np.nan   # global (2, 4): a black point
    expected_grid = grid.copy()
    expected = _mask_sweep_reference(expected_grid, SMALL.omega, BLACK)
    got = sweep_color(grid, SMALL.omega, BLACK)
    assert np.isnan(expected) and np.isnan(got)
    assert np.array_equal(grid.view(np.uint32),
                          expected_grid.view(np.uint32))


def _digest(grid: np.ndarray) -> str:
    return hashlib.sha256(grid.tobytes()).hexdigest()


#: SHA-256 of final grids computed by the mask-based sweep.  Every SOR
#: path shares ``sweep_color``, so comparing implementations against each
#: other cannot catch a wrong sweep; these fixed values can.
PINNED_PROBLEMS = [
    (SorProblem(rows=10, cols=36, iterations=6),
     "075578837c0894220b40908552b2d5208a1655fb3db9fe5addcd9c380154e783"),
    (SorProblem(rows=24, cols=48, iterations=5,
                boundary=(100.0, 25.0, 50.0, 75.0)),
     "4a3b0e8e43e583c300bc4610d3cf519437452e79ce601594c4ea61db6d6be82e"),
    (SorProblem(rows=31, cols=103, iterations=4, omega=1.25,
                boundary=(12.5, 87.25, 3.0, 61.0)),
     "20168c2597452e4c96a6c1c45cfc670bbeeb7351ee5077dca04c25e6902c4f82"),
]


class TestPinnedGrids:
    @pytest.mark.parametrize("problem,digest", PINNED_PROBLEMS,
                             ids=["10x36", "24x48", "31x103"])
    def test_sequential_grid_digest(self, problem, digest):
        assert _digest(run_sequential_sor(problem).grid) == digest

    def test_amber_grid_digest(self):
        problem, digest = PINNED_PROBLEMS[-1]
        result = run_amber_sor(problem, nodes=3, cpus_per_node=2,
                               collect_grid=True)
        assert _digest(result.grid) == digest


class TestGridKernels:
    def test_boundary_preserved(self):
        grid = make_grid(SMALL)
        top, bottom, left, right = SMALL.boundary
        sor_iterate(grid, SMALL.omega)
        assert np.all(grid[0, :] == np.float32(top))
        assert np.all(grid[-1, :] == np.float32(bottom))
        assert np.all(grid[1:-1, 0] == np.float32(left))
        assert np.all(grid[1:-1, -1] == np.float32(right))

    def test_black_phase_only_touches_black_points(self):
        grid = make_grid(SMALL)
        before = grid.copy()
        sweep_color(grid, SMALL.omega, BLACK)
        changed = grid[1:-1, 1:-1] != before[1:-1, 1:-1]
        mask = color_mask(SMALL.rows, SMALL.cols, BLACK)
        assert not np.any(changed & ~mask)

    def test_iterations_reduce_residual(self):
        grid = make_grid(SMALL)
        initial = residual(grid)
        for _ in range(200):
            sor_iterate(grid, SMALL.omega)
        assert residual(grid) < initial / 100

    def test_convergence_to_laplace_solution(self):
        # float32 against a 100.0 boundary bottoms out around 1e-5, so the
        # tolerance sits above that floor.
        problem = SorProblem(rows=16, cols=16, iterations=2000,
                             omega=1.7, tolerance=1e-4)
        result = run_sequential_sor(problem)
        assert result.iterations_run < 2000   # tolerance triggered
        assert residual(result.grid) < 1e-3

    def test_count_color_points_matches_mask(self):
        for rows, cols in [(1, 1), (3, 5), (10, 36), (7, 8)]:
            for color in (BLACK, RED):
                for row0, col0 in [(0, 0), (1, 0), (3, 7)]:
                    expected = int(color_mask(rows, cols, color,
                                              row0, col0).sum())
                    got = count_color_points(rows, cols, color, row0, col0)
                    assert got == expected

    def test_colors_partition_the_grid(self):
        black = count_color_points(10, 36, BLACK)
        red = count_color_points(10, 36, RED)
        assert black + red == 360


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(2, 12), cols=st.integers(2, 16),
       color=st.sampled_from([BLACK, RED]),
       row0=st.integers(0, 5), col0=st.integers(0, 5))
def test_count_color_points_property(rows, cols, color, row0, col0):
    expected = int(color_mask(rows, cols, color, row0, col0).sum())
    assert count_color_points(rows, cols, color, row0, col0) == expected


class TestAmberSorCorrectness:
    @pytest.mark.parametrize("nodes,cpus,sections", [
        (1, 1, 1),
        (1, 1, 3),
        (1, 4, 8),
        (2, 2, 4),
        (3, 2, 6),
        (4, 4, 8),
    ])
    def test_bitwise_identical_to_sequential(self, nodes, cpus, sections):
        seq = run_sequential_sor(SMALL)
        amber = run_amber_sor(SMALL, nodes=nodes, cpus_per_node=cpus,
                              sections=sections, collect_grid=True)
        assert np.array_equal(seq.grid, amber.grid)
        assert amber.final_delta == pytest.approx(seq.final_delta)

    def test_no_overlap_same_numerics(self):
        seq = run_sequential_sor(SMALL)
        amber = run_amber_sor(SMALL, nodes=2, cpus_per_node=2, sections=4,
                              overlap=False, collect_grid=True)
        assert np.array_equal(seq.grid, amber.grid)

    def test_uneven_partition(self):
        problem = SorProblem(rows=9, cols=31, iterations=5)
        seq = run_sequential_sor(problem)
        amber = run_amber_sor(problem, nodes=2, cpus_per_node=2, sections=5,
                              collect_grid=True)
        assert np.array_equal(seq.grid, amber.grid)

    def test_tolerance_stops_early_and_consistently(self):
        problem = SorProblem(rows=12, cols=12, iterations=500,
                             tolerance=1e-3)
        seq = run_sequential_sor(problem)
        amber = run_amber_sor(problem, nodes=2, cpus_per_node=2, sections=4,
                              collect_grid=True)
        assert amber.iterations_run == seq.iterations_run
        assert amber.iterations_run < 500
        assert np.array_equal(seq.grid, amber.grid)

    def test_deterministic(self):
        a = run_amber_sor(SMALL, nodes=2, cpus_per_node=2, sections=4)
        b = run_amber_sor(SMALL, nodes=2, cpus_per_node=2, sections=4)
        assert a.elapsed_us == b.elapsed_us
        assert a.stats.as_dict() == b.stats.as_dict()


class TestAmberSorStructure:
    def test_paper_sectioning_rule(self):
        assert default_sections(1) == 8
        assert default_sections(2) == 8
        assert default_sections(3) == 6
        assert default_sections(4) == 8
        assert default_sections(6) == 6
        assert default_sections(8) == 8

    def test_static_placement_no_object_moves(self):
        """The SOR program uses static placement: sections are created on
        their nodes and never move."""
        amber = run_amber_sor(SMALL, nodes=2, cpus_per_node=2, sections=4)
        assert amber.stats.object_moves == 0

    def test_edges_cross_nodes_as_remote_invocations(self):
        amber = run_amber_sor(SMALL, nodes=2, cpus_per_node=2, sections=2)
        # One internal boundary between nodes: 2 edges x 2 colors x
        # 6 iterations = 24 remote put_edge calls, plus convergence
        # reports from the far section.
        assert amber.stats.total_remote_invocations >= 24

    def test_single_node_uses_no_network(self):
        amber = run_amber_sor(SMALL, nodes=1, cpus_per_node=4, sections=4)
        cluster = amber.stats
        assert cluster.thread_migrations == 0

    def test_speedup_accounting(self):
        amber = run_amber_sor(SMALL, nodes=1, cpus_per_node=1, sections=1)
        assert amber.sequential_us == sequential_time_us(
            SMALL, amber.iterations_run, amber.per_point_us)
        assert amber.speedup == pytest.approx(
            amber.sequential_us / amber.elapsed_us)


class TestSorPerformanceShape:
    """Coarse performance-shape assertions; the full curves live in the
    benchmark harness."""

    def test_parallelism_helps_at_scale(self):
        problem = SorProblem(rows=61, cols=421, iterations=4)
        one = run_amber_sor(problem, nodes=1, cpus_per_node=1, sections=2)
        four = run_amber_sor(problem, nodes=2, cpus_per_node=2, sections=4)
        assert four.elapsed_us < one.elapsed_us / 2

    def test_overlap_beats_no_overlap(self):
        problem = SorProblem(rows=61, cols=421, iterations=6)
        with_overlap = run_amber_sor(problem, nodes=4, cpus_per_node=2,
                                     sections=8)
        without = run_amber_sor(problem, nodes=4, cpus_per_node=2,
                                sections=8, overlap=False)
        assert with_overlap.elapsed_us < without.elapsed_us

    def test_larger_grids_scale_better(self):
        small = run_amber_sor(SorProblem(rows=20, cols=60, iterations=4),
                              nodes=4, cpus_per_node=2)
        large = run_amber_sor(SorProblem(rows=80, cols=560, iterations=4),
                              nodes=4, cpus_per_node=2)
        assert large.speedup > small.speedup
