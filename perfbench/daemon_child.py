"""Run ``repro.daemon`` with the benchmark's layer wrappers installed.

Usage: ``python daemon_child.py TRACE_OUT [daemon arguments...]``

The traced ``daemon_mixed`` run starts the daemon through this entry
point instead of ``python -m repro.daemon``: it wraps the daemon,
protocol, scheduler and node layers, serves exactly as the stock entry
point does, and writes this process's spans and counters to
``TRACE_OUT`` on shutdown.
"""

import sys

import instrument


def main() -> int:
    trace_out = sys.argv[1]
    instrument.install()
    from repro.daemon.__main__ import main as daemon_main

    try:
        return daemon_main(sys.argv[2:])
    finally:
        instrument.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
