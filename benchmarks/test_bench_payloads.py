"""Measure the sharded lockstep's per-epoch pickle traffic.

Runs a small rebalancing cluster over two shards with
:class:`~repro.cluster.sharding.ShardedLockstep`'s payload measurement
(``measure_payloads=True``) and writes the ``step2`` wire's per-epoch
byte counts to ``benchmarks/out/pickle_payload.txt``. Measuring does
not change the series — asserted here. The historical comparison with
the removed per-node ``step`` framing is in ``docs/SHARDING.md``.
"""

from repro.cluster.policies import ProgressAwareRebalancer
from repro.cluster.simulation import ClusterSimulation

N_NODES = 4
DURATION = 6.0
EPOCH = 1.0
APP_KW = {"n_steps": 10_000_000, "n_workers": 4}


def _run(shards, measure):
    sim = ClusterSimulation(
        N_NODES, "lammps",
        ProgressAwareRebalancer(4 * 95.0, min_node=60.0, max_node=130.0),
        app_kwargs=APP_KW, variability=(0.05, 0.08), seed=7, shards=shards)
    sim._lockstep.measure_payloads = measure
    try:
        sim.run(DURATION, epoch=EPOCH)
        series = (list(sim.total_progress.values),
                  list(sim.critical_path.values), sim.total_energy)
        return series, sim._lockstep.payload_stats
    finally:
        sim.close()


def test_bench_pickle_payloads(benchmark, save_artifact):
    series, stats = benchmark.pedantic(
        lambda: _run(shards=2, measure=True), rounds=1, iterations=1)
    unmeasured_series, _ = _run(shards=2, measure=False)
    # measuring does not change the numbers
    assert series == unmeasured_series

    n_epochs = int(DURATION / EPOCH)
    assert stats.epochs == n_epochs
    down, up = stats.mean_epoch_bytes()
    assert down > 0 and up > 0

    lines = [
        "Sharded lockstep pickle payload "
        f"({N_NODES} nodes, lammps, {DURATION:.0f} s / {EPOCH:.0f} s "
        "epochs, 2 shards)",
        "",
        f"epochs measured:        {stats.epochs}",
        "",
        "step2 wire (grouped targets, delta budgets, bare float tuples):",
        f"  mean per-epoch down:  {down:.0f} B (budgets + step requests)",
        f"  mean per-epoch up:    {up:.0f} B (rates + epoch energy)",
        f"  total down:           {stats.bytes_down} B "
        f"over {stats.dispatches} dispatches",
        f"  total up:             {stats.bytes_up} B",
        "",
        "Measurement starts after cluster construction, so these are "
        "the",
        "steady-state epoch exchanges (budgets down; rates + energy "
        "up).",
        "Measured and unmeasured runs produce identical series — "
        "asserted by",
        "this benchmark.",
    ]
    save_artifact("pickle_payload", "\n".join(lines))
