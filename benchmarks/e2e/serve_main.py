"""Allocation-server launcher for the end-to-end benchmark.

Runs an :class:`~repro.serve.AllocationServer` over one policy artifact,
optionally feeding ``outcome`` requests into an
:class:`~repro.loop.ExperienceStore`, through the public API only.  It
prints its address as one JSON line on stdout, serves until SIGTERM or
SIGINT, drains, flushes the store and exits 0.

``--trace`` installs the serving-path span wrappers
(:func:`benchmarks.e2e.tracing.install_serve`) and writes the recorded
spans to ``--spans-out`` (JSON lines) after the drain.

    PYTHONPATH=src python -m benchmarks.e2e.serve_main --policy P.policy.npz
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--policy", required=True, help="policy artifact file or directory")
    parser.add_argument("--store", help="experience store directory for outcome requests")
    parser.add_argument("--trace", action="store_true", help="record serving-path spans")
    parser.add_argument("--spans-out", help="where --trace writes its spans (JSON lines)")
    args = parser.parse_args(argv)
    if args.trace and not args.spans_out:
        parser.error("--trace needs --spans-out")

    from repro.resilience import GracefulDrain
    from repro.serve import AllocationServer, PolicyRegistry

    tracer = None
    if args.trace:
        from benchmarks.e2e.tracing import Tracer, install_serve, write_jsonl

        tracer = Tracer()
        install_serve(tracer)
    store = None
    if args.store:
        from repro.loop import ExperienceStore

        store = ExperienceStore(args.store)
    server = AllocationServer(
        PolicyRegistry(args.policy),
        on_serve_outcome=store.record_served if store is not None else None,
    )
    # The drain handler is armed before the address goes out, so a
    # SIGTERM sent as soon as the address is known always drains.
    with GracefulDrain() as drain:
        host, port = server.start()
        print(json.dumps({"host": host, "port": port}), flush=True)
        server.run_until(drain, poll_s=0.02)
    if store is not None:
        store.flush()
    if tracer is not None:
        write_jsonl(tracer.records, args.spans_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
