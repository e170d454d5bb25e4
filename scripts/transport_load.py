#!/usr/bin/env python
"""Drive the service daemon's HTTP transport with many concurrent and
slow clients; report latency, failures and the daemon's threads.

    python scripts/transport_load.py --clients 16 64 100 --idle 0 16

Each combination of ``--clients``, ``--idle`` and ``--trickle`` boots
``repro serve`` from ``--src`` (default: this checkout's ``src``) in a
child process on a free port, then drives it from one asyncio loop for
``--seconds``:

* ``clients`` closed-loop clients, each sending ``GET --path`` on a
  fresh connection and reading the answer to its close;
* ``idle`` connections that connect and send nothing, reconnecting
  whenever the daemon drops one;
* ``trickle`` connections that send the same request one byte every
  ``--trickle-gap`` seconds, reconnecting whenever the daemon drops one.

It prints one JSON line per combination: requests answered, ``503``
answers (a daemon shedding load), other failures by kind (another
status, a reset, a timeout), the latency quantiles of the answered
requests, answers per second of wall time (which outlasts
``--seconds`` while a client waits out a retried connect), and the
daemon's peak thread count and RSS. Pointing ``--src`` at a checkout
of another commit compares two transports under one load.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import os
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict

HOST = "127.0.0.1"
#: the daemon's middleware chain: perfbench's, with a rate limit no
#: load here reaches, so every failure is the transport's.
MIDDLEWARE = [
    {"kind": "request_id"},
    {"kind": "access_log"},
    {"kind": "timing"},
    {"kind": "rate_limit", "capacity": 1e9, "refill_per_s": 1e9},
    {"kind": "quota", "max_in_flight": 4},
]
#: seconds a client waits for a connection or an answer before it
#: counts a failure; above the daemon's 30 s request timeout.
CLIENT_TIMEOUT_S = 35.0


def request_bytes(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: load\r\nConnection: close\r\n\r\n".encode()


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def boot(src: Path, port: int) -> subprocess.Popen:
    """``repro serve`` from ``src`` on ``port``, once it answers."""
    config = {"host": HOST, "port": port, "middleware": MIDDLEWARE}
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as handle:
        json.dump(config, handle)
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--config", handle.name],
        env=dict(os.environ, PYTHONPATH=str(src)),
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            with socket.create_connection((HOST, port), timeout=5) as sock:
                sock.sendall(request_bytes("/v1/health"))
                if sock.recv(12).startswith(b"HTTP/1.1 200"):
                    os.unlink(handle.name)
                    return daemon
        except OSError:
            time.sleep(0.05)
    daemon.kill()
    os.unlink(handle.name)
    raise SystemExit(f"the daemon from {src} never answered on port {port}")


def sample(pid: int):
    """-> (threads, RSS in MB) of a live process, read from /proc."""
    fields = {}
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            key, _, value = line.partition(":")
            fields[key] = value.split()
    return int(fields["Threads"][0]), int(fields["VmRSS"][0]) / 1024


class Tally:
    def __init__(self):
        self.latencies_ms = []
        self.busy = 0
        #: failures by kind: an exception's name, or ``HTTP <status>``.
        self.failed: Dict[str, int] = {}

    def fail(self, kind: str) -> None:
        self.failed[kind] = self.failed.get(kind, 0) + 1


async def closed_loop(port: int, request: bytes, end: float, tally: Tally) -> None:
    loop = asyncio.get_running_loop()
    while loop.time() < end:
        started = time.perf_counter()
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(HOST, port), CLIENT_TIMEOUT_S
            )
            writer.write(request)
            raw = await asyncio.wait_for(reader.read(), CLIENT_TIMEOUT_S)
            writer.close()
        except (OSError, asyncio.TimeoutError) as error:
            tally.fail(type(error).__name__)
            continue
        status = raw[9:12]
        if status == b"200":
            tally.latencies_ms.append((time.perf_counter() - started) * 1e3)
        elif status == b"503":
            tally.busy += 1
        else:
            tally.fail(f"HTTP {status.decode('latin-1')}")


async def slow(port: int, request: bytes, end: float, gap_s) -> None:
    """One connection that sends nothing (``gap_s`` None) or trickles
    ``request`` a byte per ``gap_s``, reconnecting when dropped."""
    loop = asyncio.get_running_loop()
    while loop.time() < end:
        try:
            reader, writer = await asyncio.open_connection(HOST, port)
        except OSError:
            await asyncio.sleep(0.1)
            continue
        try:
            if gap_s is None:
                await asyncio.wait_for(reader.read(), max(end - loop.time(), 0))
            else:
                for byte in request:
                    if loop.time() >= end or reader.at_eof():
                        break
                    writer.write(bytes((byte,)))
                    await writer.drain()
                    await asyncio.sleep(gap_s)
                await asyncio.wait_for(reader.read(), max(end - loop.time(), 0))
        except (OSError, asyncio.TimeoutError):
            pass
        finally:
            writer.close()


async def drive(port, pid, request, clients, idle, trickle, seconds, gap_s) -> dict:
    loop = asyncio.get_running_loop()
    end = loop.time() + seconds
    tally = Tally()
    peak = [0, 0.0]

    async def watch():
        while loop.time() < end:
            threads, rss = sample(pid)
            peak[0], peak[1] = max(peak[0], threads), max(peak[1], rss)
            await asyncio.sleep(0.1)

    tasks = [closed_loop(port, request, end, tally) for _ in range(clients)]
    tasks += [slow(port, request, end, None) for _ in range(idle)]
    tasks += [slow(port, request, end, gap_s) for _ in range(trickle)]
    started = time.perf_counter()
    await asyncio.gather(watch(), *tasks)
    wall = time.perf_counter() - started
    lat = sorted(tally.latencies_ms)
    quantiles = statistics.quantiles(lat, n=100) if len(lat) > 1 else [0.0] * 99
    return {
        "clients": clients,
        "idle": idle,
        "trickle": trickle,
        "answered": len(lat),
        "busy_503": tally.busy,
        "failed": tally.failed,
        "p50_ms": round(quantiles[49], 2),
        "p95_ms": round(quantiles[94], 2),
        "p99_ms": round(quantiles[98], 2),
        "max_ms": round(lat[-1], 2) if lat else 0.0,
        "req_per_s": round(len(lat) / wall, 1),
        "peak_threads": peak[0],
        "peak_rss_mb": round(peak[1], 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    here = Path(__file__).resolve().parent.parent / "src"
    parser.add_argument("--src", type=Path, default=here, help="source tree to serve")
    parser.add_argument("--clients", type=int, nargs="+", default=[16, 64, 100])
    parser.add_argument("--idle", type=int, nargs="+", default=[0])
    parser.add_argument("--trickle", type=int, nargs="+", default=[0])
    parser.add_argument("--trickle-gap", type=float, default=0.5)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--path", default="/v1/health")
    args = parser.parse_args(argv)
    request = request_bytes(args.path)
    for clients, idle, trickle in itertools.product(
        args.clients, args.idle, args.trickle
    ):
        port = free_port()
        daemon = boot(args.src, port)
        try:
            row = asyncio.run(
                drive(
                    port,
                    daemon.pid,
                    request,
                    clients,
                    idle,
                    trickle,
                    args.seconds,
                    args.trickle_gap,
                )
            )
        finally:
            daemon.terminate()
            daemon.wait(timeout=30)
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
