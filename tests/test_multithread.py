"""Multi-threading passes: structured forall forming and fork-join lowering."""

import numpy as np
import pytest

from tilelab.interp import interpret_functional
from tilelab.ir import (
    AsyncExecute,
    AwaitAll,
    DistPolicy,
    Forall,
    ForTiles,
    ViewRef,
    walk_module,
)
from tilelab.kernels import build_vec_add_2d, make_inputs, reference_output, vec_add_2d
from tilelab.passes import (
    MtPolicy,
    MtProfitability,
    PassError,
    form_async_threads,
    form_virtual_threads,
    partition_tiles,
    vectorize,
)

POLICY4 = MtPolicy(threads=4)


def _build(rows, tile_rows=1):
    return build_vec_add_2d(vec_add_2d(rows=rows, tile_rows=tile_rows))


# -- form_virtual_threads ---------------------------------------------------- #


def test_even_tiles_pick_block():
    m = form_virtual_threads(_build(8), POLICY4)
    forall = m.body[0]
    assert isinstance(forall, Forall)
    assert forall.policy is DistPolicy.BLOCK
    assert forall.threads == 4


def test_uneven_tiles_pick_block_cyclic():
    m = form_virtual_threads(_build(10), POLICY4)
    assert m.body[0].policy is DistPolicy.BLOCK_CYCLIC


def test_below_min_tiles_unchanged():
    base = _build(8, tile_rows=8)  # single tile
    assert form_virtual_threads(base, POLICY4) is base


def test_below_min_elements_unchanged():
    base = _build(4)  # 4 tiles x 16384 elements each, but floor on tiles holds
    small = build_vec_add_2d(vec_add_2d(rows=4, cols=8, tile_rows=1))  # 32 elements
    assert form_virtual_threads(small, POLICY4) is small
    assert isinstance(form_virtual_threads(base, POLICY4).body[0], Forall)


def test_overlapping_outputs_rejected():
    from dataclasses import replace

    base = _build(8)
    loop = base.body[0]
    body = list(loop.body)
    # Make the write-back land on the same rows every iteration.
    copy_out = body[-4]
    body[-4] = replace(copy_out, dst=ViewRef("C", 0, 0, 1, 16384))
    clash = replace(base, body=(replace(loop, body=tuple(body)),))
    with pytest.raises(PassError, match="cross-thread dependence"):
        form_virtual_threads(clash, MtPolicy(threads=4), MtProfitability(min_total_elements=1))


# -- partitions --------------------------------------------------------------- #


def test_block_partition_of_eight():
    assert partition_tiles(8, 4, DistPolicy.BLOCK) == ((0, 1), (2, 3), (4, 5), (6, 7))


def test_block_cyclic_partition_of_ten():
    assert partition_tiles(10, 4, DistPolicy.BLOCK_CYCLIC) == (
        (0, 4, 8),
        (1, 5, 9),
        (2, 6),
        (3, 7),
    )


def test_partition_properties_exhaustive():
    for tile_count in range(1, 65):
        for threads in range(1, 9):
            for kind in (DistPolicy.BLOCK, DistPolicy.BLOCK_CYCLIC):
                sets = partition_tiles(tile_count, threads, kind)
                flat = [t for s in sets for t in s]
                assert sorted(flat) == list(range(tile_count)), (tile_count, threads, kind)
                assert len(flat) == len(set(flat))
                if kind is DistPolicy.BLOCK_CYCLIC:
                    sizes = [len(s) for s in sets]
                    assert max(sizes) - min(sizes) <= 1


# -- form_async_threads ------------------------------------------------------- #


def _thread_tile_sets(m):
    """Recover per-region tile indices from the lowered write-back views."""
    sets = []
    for _, op in walk_module(m):
        if isinstance(op, AsyncExecute):
            loop = op.body[0]
            assert isinstance(loop, ForTiles)
            copy_out = next(
                o
                for o in loop.body
                if hasattr(o, "dst") and getattr(o.dst, "base", None) == "C"
            )
            view = copy_out.dst
            # Tile index = row offset / tile rows for each local iteration.
            tiles = tuple(
                view.row_offset_at(j) // view.row_count for j in range(loop.tile_count)
            )
            sets.append(tiles)
    return sets


def test_block_lowering_tile_sets():
    m = form_async_threads(form_virtual_threads(_build(8), POLICY4))
    assert _thread_tile_sets(m) == [(0, 1), (2, 3), (4, 5), (6, 7)]
    assert sum(1 for _, op in walk_module(m) if isinstance(op, AwaitAll)) == 1


def test_block_cyclic_lowering_tile_sets():
    m = form_async_threads(form_virtual_threads(_build(10), POLICY4))
    assert _thread_tile_sets(m) == [(0, 4, 8), (1, 5, 9), (2, 6), (3, 7)]


def test_single_thread_degenerate_fork_join():
    m = form_async_threads(form_virtual_threads(_build(8), MtPolicy(threads=1)))
    regions = [op for _, op in walk_module(m) if isinstance(op, AsyncExecute)]
    assert len(regions) == 1
    assert _thread_tile_sets(m) == [tuple(range(8))]


def test_more_threads_than_tiles_skips_empty_regions():
    m = form_async_threads(form_virtual_threads(_build(2), POLICY4))
    assert _thread_tile_sets(m) == [(0,), (1,)]


def test_no_forall_rejected():
    with pytest.raises(PassError, match="no forall"):
        form_async_threads(_build(8))


def test_lowered_module_preserves_semantics():
    for rows in (8, 10):
        spec = vec_add_2d(rows=rows, tile_rows=1)
        m = form_async_threads(
            form_virtual_threads(vectorize(build_vec_add_2d(spec), 32), POLICY4)
        )
        inputs = make_inputs(spec)
        out = interpret_functional(m, inputs)
        assert np.array_equal(out["C"], reference_output(spec, inputs)["C"])
