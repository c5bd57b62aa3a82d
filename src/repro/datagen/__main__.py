"""CLI for the synthetic workload generator: ``python -m repro.datagen``.

Streams the synthetic OTT to CSV (or just counts it) at any population
scale — the ``--objects`` knob goes well past the paper's 10⁴ because the
pipeline is per-object streaming (:mod:`repro.datagen.stream`); memory
does not grow with the population.

Examples::

    # The paper-scale default population, summarised only.
    python -m repro.datagen --objects 1000

    # A large population streamed straight to disk.
    python -m repro.datagen --objects 100000 --out /tmp/ott.csv

    # Scale the default population instead of fixing a count.
    python -m repro.datagen --scale 0.05 --duration 600 --out -

    # Populate a durable SQLite store directly (idempotent: rerunning
    # an interrupted generation skips the already-stored prefix).
    python -m repro.datagen --objects 5000 --store /tmp/ott.sqlite
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import TextIO

from ..storage.base import StoredRow, chunked_rows
from ..storage.sqlite import SQLiteBackend
from .config import SyntheticConfig
from .stream import stream_synthetic_records

__all__ = ["main"]

_CSV_HEADER = "record_id,object_id,device_id,t_s,t_e"


def _write_csv(handle: TextIO, config: SyntheticConfig) -> tuple[int, float]:
    """Stream the records as CSV rows; returns (count, max t_e)."""
    handle.write(_CSV_HEADER + "\n")
    count = 0
    t_max = 0.0
    for record in stream_synthetic_records(config):
        handle.write(
            f"{record.record_id},{record.object_id},{record.device_id},"
            f"{record.t_s:g},{record.t_e:g}\n"
        )
        count += 1
        t_max = max(t_max, record.t_e)
    return count, t_max


def _write_store(path: str, config: SyntheticConfig) -> tuple[int, float]:
    """Stream the records into a SQLite store; returns (count, max t_e).

    Records are written in chunks, one transaction each.  Appends are
    idempotent on ``record_id`` (the stream is deterministic per seed),
    so re-running a killed generation resumes; the store is
    compacted at the end so an engine reopening it bulk-loads everything.
    """
    backend = SQLiteBackend(path)
    count = 0
    t_max = 0.0
    try:
        rows = (StoredRow(record) for record in stream_synthetic_records(config))
        for chunk in chunked_rows(rows):
            # Records land in the store first; engines attach to it
            # afterwards via FlowEngine(storage=...).
            # repro: allow(seam): the generator seam is the writer
            backend.append_rows(chunk)
            count += len(chunk)
            t_max = max(t_max, max(row.record.t_e for row in chunk))
        backend.compact()
    finally:
        backend.close()
    return count, t_max


def main(argv: list[str] | None = None) -> int:
    """Generate (and optionally dump) the synthetic OTT.

    Args:
        argv: Command-line arguments (``sys.argv[1:]`` when omitted).

    Returns:
        Process exit code (0 on success).
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.datagen",
        description="Stream the paper's synthetic tracking workload.",
    )
    parser.add_argument(
        "--objects",
        type=int,
        default=None,
        help="population size |O| (overrides --scale)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="scale the default population instead of fixing a count",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="simulated seconds per object (default: config's 3600)",
    )
    parser.add_argument(
        "--rooms-per-side",
        type=int,
        default=None,
        help="floor-plan size knob (default: config's 20)",
    )
    parser.add_argument("--seed", type=int, default=42, help="RNG seed")
    parser.add_argument(
        "--out",
        default=None,
        help="CSV destination ('-' for stdout); omit to only summarise",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="SQLite store to populate (idempotent; compacted at the end)",
    )
    args = parser.parse_args(argv)

    config = SyntheticConfig(seed=args.seed)
    if args.scale is not None:
        config = config.scaled(args.scale)
    if args.objects is not None:
        if args.objects < 0:
            parser.error("--objects must be non-negative")
        config = replace(config, num_objects=args.objects)
    if args.duration is not None:
        config = replace(config, duration=args.duration)
    if args.rooms_per_side is not None:
        config = replace(config, rooms_per_side=args.rooms_per_side)

    if args.store is not None:
        count, t_max = _write_store(args.store, config)
        if args.out == "-":
            _write_csv(sys.stdout, config)
        elif args.out is not None:
            with open(args.out, "w", encoding="utf-8") as handle:
                _write_csv(handle, config)
    elif args.out is None:
        count = 0
        t_max = 0.0
        for record in stream_synthetic_records(config):
            count += 1
            t_max = max(t_max, record.t_e)
    elif args.out == "-":
        count, t_max = _write_csv(sys.stdout, config)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            count, t_max = _write_csv(handle, config)

    print(
        f"objects={config.num_objects} records={count} "
        f"t_max={t_max:g} seed={config.seed}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
