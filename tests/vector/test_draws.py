"""The premises of the vector engine's look-ahead draw blocks.

The engine draws each generator's values K at a time and takes them one
per iteration. That is bit-identical to the object path's scalar draws
only while numpy keeps two promises:

* ``Generator.normal(0.0, s)`` is ``0.0 + s * standard_normal()``, and a
  block of K standard normals is the next K scalar ones;
* a block of K ``random()`` doubles is the next K scalar ones.

Both must also leave the generator in the same state. A numpy release
that breaks either fails here, by name, instead of silently drifting a
parity digest.
"""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vector.engine import _DRAW_BLOCK, _DrawBlocks

seeds = st.integers(min_value=0, max_value=2**63 - 1)
sigmas = st.floats(min_value=1e-6, max_value=10.0)
splits = st.lists(st.integers(min_value=0, max_value=200), max_size=6)


def _bits(values):
    return [struct.pack("<d", float(v)) for v in values]


def _chunks(total, cuts):
    """Sizes of ``range(total)`` cut at the (sorted, clipped) points."""
    edges = [0] + sorted(min(c, total) for c in cuts) + [total]
    return [b - a for a, b in zip(edges, edges[1:])]


@settings(max_examples=60, deadline=None)
@given(seed=seeds, sigma=sigmas, total=st.integers(0, 200), cuts=splits)
def test_normal_blocks_equal_scalar_draws(seed, sigma, total, cuts):
    scalar = np.random.default_rng(seed)
    block = np.random.default_rng(seed)
    want = [scalar.normal(0.0, sigma) for _ in range(total)]
    got: list = []
    for size in _chunks(total, cuts):
        got.extend(0.0 + sigma * block.standard_normal(size))
    assert _bits(got) == _bits(want)
    assert block.bit_generator.state == scalar.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(seed=seeds, total=st.integers(0, 200), cuts=splits)
def test_uniform_blocks_equal_scalar_draws(seed, total, cuts):
    scalar = np.random.default_rng(seed)
    block = np.random.default_rng(seed)
    want = [scalar.random() for _ in range(total)]
    got: list = []
    for size in _chunks(total, cuts):
        got.extend(block.random(size))
    assert _bits(got) == _bits(want)
    assert block.bit_generator.state == scalar.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(seed=seeds, takes=st.integers(0, 3 * _DRAW_BLOCK),
       flush_at=st.integers(0, 3 * _DRAW_BLOCK), uniform=st.booleans())
def test_flush_leaves_generators_where_scalar_draws_would(
        seed, takes, flush_at, uniform):
    """Taking values through a block, flushing at any point, then
    taking more: the values and the final generator states match plain
    scalar draws from twin generators."""
    gens = [np.random.default_rng([seed, j]) for j in range(3)]
    twins = [np.random.default_rng([seed, j]) for j in range(3)]
    blocks = _DrawBlocks(1, 3, uniform=uniform)
    rows = np.asarray([0])
    got, want = [], []
    for i in range(takes):
        if i == flush_at:
            blocks.flush(0, gens)
        got.extend(blocks.take(rows, lambda slot: gens)[0])
        want.extend(twin.random() if uniform else twin.standard_normal()
                    for twin in twins)
    blocks.flush(0, gens)
    assert _bits(got) == _bits(want)
    assert [g.bit_generator.state for g in gens] == \
        [t.bit_generator.state for t in twins]
