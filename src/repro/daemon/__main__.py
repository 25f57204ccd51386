"""Daemon entry point: ``python -m repro.daemon``.

Quick start (demo book skips live characterization)::

    python -m repro.daemon --socket /tmp/repro.sock --book demo \\
        --n-slots 4 --power-budget 300

    python -m repro.daemon --tcp 127.0.0.1:0 --book demo --manual

The daemon prints one ``ready`` line once the socket is bound (with
the resolved address — useful with ``--tcp 127.0.0.1:0``) and serves
until a client sends ``shutdown``. ``--checkpoint-dir`` keeps an
epoch-stamped *store* of checkpoints, written every
``--checkpoint-interval`` epochs and on shutdown. ``--resume``
continues from the latest checkpoint in that store instead of starting
an empty cluster, and ``--resume-epoch N`` rewinds to the newest
checkpoint at or before epoch N (time travel). A resumed daemon runs
under its recorded configuration: the cluster, service and
``--checkpoint-interval`` flags are ignored. It saves into the
``--checkpoint-dir`` it resumed from, even if the store was moved
there after it was written.
"""

from __future__ import annotations

import argparse
import sys

from repro.cluster.sharding import _ENGINES
from repro.daemon.profiles import demo_book
from repro.daemon.server import DaemonServer
from repro.daemon.service import Daemon, DaemonConfig
from repro.runtime.pacing import EpochPacer
from repro.scheduler.powerbook import PowerBook
from repro.scheduler.scheduler import SchedulerConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.daemon",
        description="Run the simulated cluster as a long-lived service.")
    endpoint = parser.add_argument_group("endpoint")
    endpoint.add_argument("--socket", help="Unix-domain socket path")
    endpoint.add_argument("--tcp",
                          help="HOST:PORT (port 0 = ephemeral)")

    cluster = parser.add_argument_group("cluster")
    cluster.add_argument("--n-slots", type=int, default=4)
    cluster.add_argument("--power-budget", type=float, default=300.0)
    cluster.add_argument("--policy", default="backfill",
                         choices=("fcfs", "backfill"))
    cluster.add_argument("--epoch", type=float, default=1.0)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--shards", type=int, default=1)
    cluster.add_argument("--engine", default="object",
                         choices=_ENGINES,
                         help="node-hosting engine inside each shard")
    cluster.add_argument("--n-workers", type=int, default=4)
    cluster.add_argument("--min-cap", type=float, default=55.0)
    cluster.add_argument("--cap-step", type=float, default=5.0)

    service = parser.add_argument_group("service")
    service.add_argument("--queue-capacity", type=int, default=64)
    service.add_argument("--book", default="live",
                         choices=("live", "demo"),
                         help="live = characterize apps on first "
                              "submission; demo = preloaded lammps "
                              "profile")

    pacing = parser.add_argument_group("pacing")
    pacing.add_argument("--sim-rate", type=float, default=20.0,
                        help="simulated seconds per wall second")
    pacing.add_argument("--manual", action="store_true",
                        help="advance only on client 'tick' requests")

    persist = parser.add_argument_group("persistence")
    persist.add_argument("--checkpoint-dir", default=None,
                         help="directory for an epoch-stamped "
                              "checkpoint store (keeps every epoch; "
                              "enables --resume-epoch)")
    persist.add_argument("--checkpoint-interval", type=int, default=0,
                         help="epochs between store checkpoints "
                              "(0 = only on shutdown)")
    persist.add_argument("--resume", action="store_true",
                         help="continue from the latest checkpoint "
                              "in --checkpoint-dir instead of "
                              "starting empty")
    persist.add_argument("--resume-epoch", type=int, default=None,
                         help="with --resume: rewind to the newest "
                              "checkpoint at or before this epoch")
    return parser


def daemon_from_args(args) -> Daemon:
    if args.resume:
        if not args.checkpoint_dir:
            raise SystemExit("--resume requires --checkpoint-dir")
        return Daemon.resume(args.checkpoint_dir, epoch=args.resume_epoch)
    if args.resume_epoch is not None:
        raise SystemExit("--resume-epoch requires --resume")
    config = DaemonConfig(
        scheduler=SchedulerConfig(
            n_slots=args.n_slots, power_budget=args.power_budget,
            policy=args.policy, epoch=args.epoch, seed=args.seed,
            shards=args.shards, engine=args.engine,
            n_workers=args.n_workers,
            min_cap=args.min_cap, cap_step=args.cap_step),
        queue_capacity=args.queue_capacity,
        checkpoint_interval=args.checkpoint_interval,
        checkpoint_dir=args.checkpoint_dir,
    )
    if args.book == "demo":
        book = demo_book(n_workers=args.n_workers, seed=args.seed)
    else:
        book = PowerBook(n_workers=args.n_workers, seed=args.seed)
    return Daemon(config, book)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if bool(args.socket) == bool(args.tcp):
        raise SystemExit("exactly one of --socket/--tcp is required")
    daemon = daemon_from_args(args)
    pacer = None
    if not args.manual:
        pacer = EpochPacer(args.sim_rate, daemon.config.scheduler.epoch)
    tcp = None
    if args.tcp:
        host, _, port = args.tcp.rpartition(":")
        tcp = (host or "127.0.0.1", int(port))
    server = DaemonServer(daemon, socket_path=args.socket, tcp=tcp,
                          pacer=pacer)
    address = server.bind()
    mode = "manual" if args.manual else f"paced x{args.sim_rate}"
    print(f"repro-daemon ready on {address} ({mode})", flush=True)
    try:
        server.serve_forever()
    finally:
        daemon.close()
    print("repro-daemon stopped", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
