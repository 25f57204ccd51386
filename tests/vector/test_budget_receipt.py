"""Budget receipt on both engines: a non-finite budget is refused where
it arrives, before any part of the node has moved, and a checkpoint
carrying one is refused on restore."""

import copy
import math

import pytest

from repro.cluster.node_instance import NodeInstance
from repro.exceptions import CheckpointError, ConfigurationError
from repro.vector import VectorEngine
from tests.vector.conftest import bits, make_spec, surface


def _node(engine: str, node_id: int):
    spec = make_spec("lammps", node_id=node_id, seed=7 + node_id)
    if engine == "object":
        return NodeInstance.from_spec(node_id, spec)
    host = VectorEngine()
    host.build([(node_id, spec)])
    assert host.vector_node_ids == [node_id]
    return host.node(node_id)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("engine", ["object", "vector"])
def test_non_finite_budget_is_refused_at_receipt(engine, bad):
    node, twin = _node(engine, 0), _node(engine, 0)
    for n in (node, twin):
        n.receive_budget(70.0)
        n.advance(1.5)
    before = bits(node.snapshot())

    with pytest.raises(ConfigurationError, match="finite"):
        node.receive_budget(bad)

    assert node.now == 1.5
    assert bits(node.snapshot()) == before
    # The refused budget leaves no trace: the node goes on exactly like
    # a twin that never received it.
    for n in (node, twin):
        n.advance(3.0)
    assert bits(surface(node)) == bits(surface(twin))


def _restore(engine: str, state: dict):
    if engine == "object":
        return NodeInstance.from_checkpoint(state)
    # The importer refuses it, and so does the host's object fallback,
    # which restores through the same policy check.
    return VectorEngine().build([(0, state)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("engine", ["object", "vector"])
def test_non_finite_budget_is_refused_on_restore(engine, bad):
    node = _node(engine, 0)
    node.receive_budget(70.0)
    node.advance(1.5)
    state = copy.deepcopy(node.snapshot())
    state["stack"].state["controller"]["budget"] = bad

    with pytest.raises(CheckpointError, match="finite"):
        _restore(engine, state)
