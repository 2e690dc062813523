"""The shard worker process: one event loop, one ring-range of peers.

Spawned by the :class:`~repro.runtime.cluster.coordinator.
ClusterCoordinator`, a worker

1. builds the full overlay from the scenario spec (deterministic — every
   shard builds the same one) and instantiates live peers for its own
   ring range (a :class:`~repro.runtime.swarm.LiveSwarm` placed at its
   ``shard_index``);
2. listens on an ephemeral localhost TCP port, reports it, receives the
   cluster's port map and establishes one handshaken
   :class:`~repro.runtime.cluster.links.SocketLink` per peer shard
   (higher shard index dials lower, so each pair shares one stream);
3. waits for the coordinator's agreed start instant, runs the swarm, and
   exchanges per-boundary lateness reports with the coordinator so the
   overload dilation stays coherent across every shard;
4. ships its :class:`~repro.runtime.swarm.ShardResult` partial back over
   the control pipe and holds
   its links open until the coordinator's ``close`` barrier — a shard
   that finished early must not tear down streams its slower peers are
   still delivering on.

The control pipe is a ``multiprocessing`` connection; a tiny mailbox
pumps it into per-tag asyncio queues so the worker's event loop never
blocks on it.
"""

from __future__ import annotations

import asyncio
import traceback
from typing import Any, Dict, Optional, Tuple

from repro.runtime import wire
from repro.runtime.cluster.links import (
    LinkConfig,
    SocketLink,
    dial_shard,
    read_handshake,
    validate_hello,
)
from repro.runtime.swarm import LiveSwarm, RunOptions
from repro.scenarios.spec import ScenarioSpec

#: Budget for each setup step (listen → ports → links → start).
SETUP_TIMEOUT_S = 60.0

#: How long a finished worker waits for the coordinator's close barrier
#: before tearing its links down anyway.
CLOSE_TIMEOUT_S = 30.0


class _Mailbox:
    """Pumps the control pipe into per-tag asyncio queues."""

    def __init__(self, conn) -> None:
        self.conn = conn
        self.queues: Dict[str, asyncio.Queue] = {}
        self.closed = asyncio.Event()
        self._task: Optional[asyncio.Task] = None

    def queue(self, tag: str) -> asyncio.Queue:
        queue = self.queues.get(tag)
        if queue is None:
            queue = self.queues[tag] = asyncio.Queue()
        return queue

    def start(self) -> None:
        self._task = asyncio.create_task(self._pump(), name="cluster-mailbox")

    async def _pump(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                msg = await loop.run_in_executor(None, self.conn.recv)
            except (EOFError, OSError):
                self.closed.set()
                return
            self.queue(msg[0]).put_nowait(msg)
            if msg[0] == "close":
                # Last message by protocol: stop pumping so no executor
                # thread is left blocked in conn.recv at process exit.
                self.closed.set()
                return

    async def expect(self, tag: str, timeout: Optional[float] = None) -> Tuple:
        """The next message of ``tag`` (raises on timeout / dead pipe)."""
        queue = self.queue(tag)
        getter = asyncio.ensure_future(queue.get())
        closer = asyncio.ensure_future(self.closed.wait())
        try:
            done, _ = await asyncio.wait(
                {getter, closer}, timeout=timeout, return_when=asyncio.FIRST_COMPLETED
            )
            if getter in done:
                return getter.result()
            if closer in done:
                if not queue.empty():
                    return queue.get_nowait()
                raise ConnectionError("coordinator connection closed")
            raise TimeoutError(f"timed out waiting for {tag!r} from the coordinator")
        finally:
            getter.cancel()
            closer.cancel()

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None


class ShardWorker:
    """Drives one shard's lifecycle inside its worker process."""

    def __init__(self, conn, payload: Dict[str, Any]) -> None:
        self.conn = conn
        self.spec = ScenarioSpec.from_dict(payload["spec"])
        self.options: RunOptions = payload["options"]
        self.shard_index: int = payload["shard_index"]
        self.num_shards: int = self.options.shards
        self.token: int = payload["token"]
        self.link_config: LinkConfig = self.options.link or LinkConfig()
        self.mail = _Mailbox(conn)
        self.swarm: Optional[LiveSwarm] = None
        self.hello: Optional[wire.ShardHello] = None

    def _send(self, msg: Tuple) -> None:
        try:
            self.conn.send(msg)
        except (BrokenPipeError, OSError):  # coordinator died; keep running
            pass

    # --------------------------------------------------------------- connections
    def _dials(self, other: int) -> bool:
        """Each shard pair shares one stream: the higher index dials."""
        return self.shard_index > other

    def _create_links(self) -> None:
        """Create every link object before the listening port is public.

        The acceptor must be able to attach an inbound stream the moment
        it arrives — a faster sibling can dial before this worker has
        even processed the coordinator's port map.
        """
        assert self.swarm is not None and self.hello is not None
        for other in range(self.num_shards):
            if other != self.shard_index:
                self.swarm.links[other] = SocketLink(
                    self.swarm, other, config=self.link_config, hello=self.hello
                )

    async def _on_connection(self, reader: asyncio.StreamReader, writer) -> None:
        assert self.hello is not None and self.swarm is not None
        try:
            msg, decoder, extras = await read_handshake(
                reader, self.link_config.handshake_timeout_s
            )
            hello = validate_hello(msg, self.hello)
            if self._dials(hello.shard_index):
                raise wire.WireError(
                    f"shard {hello.shard_index} dialed the wrong direction"
                )
            writer.write(wire.encode(self.hello))
            await writer.drain()
        except (wire.WireError, ConnectionError, OSError, asyncio.TimeoutError):
            writer.close()
            return
        self.swarm.links[hello.shard_index].attach(reader, writer, decoder, tuple(extras))

    async def _connect_links(self, ports: Dict[int, int]) -> None:
        assert self.swarm is not None and self.hello is not None
        for other, link in self.swarm.links.items():
            if self._dials(other):
                link.dial_address = ("127.0.0.1", ports[other])
        for other, link in self.swarm.links.items():
            if link.dial_address is None:
                continue
            last_error: Optional[Exception] = None
            for _ in range(3):
                try:
                    reader, writer, decoder, backlog = await dial_shard(
                        link.dial_address,
                        self.hello,
                        expect_shard=other,
                        timeout=self.link_config.handshake_timeout_s,
                    )
                    link.attach(reader, writer, decoder, tuple(backlog))
                    break
                except (ConnectionError, OSError, wire.WireError, asyncio.TimeoutError) as exc:
                    last_error = exc
                    await asyncio.sleep(0.1)
            else:
                raise RuntimeError(
                    f"shard {self.shard_index} could not reach shard {other}: {last_error}"
                )
        loop = asyncio.get_running_loop()
        deadline = loop.time() + SETUP_TIMEOUT_S
        while any(not link.is_up for link in self.swarm.links.values()):
            if loop.time() > deadline:
                down = [s for s, link in self.swarm.links.items() if not link.is_up]
                raise RuntimeError(f"links to shards {down} failed to establish")
            await asyncio.sleep(0.02)

    # ------------------------------------------------------------- cluster control
    async def exchange_lateness(self, round_index: int, worst: float) -> float:
        """The :class:`~repro.runtime.swarm.ClusterControl` hook.

        Falls back to the shard's own lateness whenever the coordinator
        is unreachable or slow — a missing relay degrades coherence, it
        must never stall the swarm.
        """
        assert self.swarm is not None
        self._send(("lateness", self.shard_index, round_index, worst))
        scaled = self.swarm.config.scheduling_period * self.swarm.time_scale
        timeout = min(60.0, max(10.0, 8.0 * scaled * self.swarm.MAX_STRETCH))
        while True:
            try:
                _, rnd, value = await self.mail.expect("dilate", timeout=timeout)
            except (TimeoutError, ConnectionError):
                return worst
            if rnd >= round_index:
                return float(value)
            # A stale broadcast from an earlier boundary: keep draining.

    # -------------------------------------------------------------- telemetry
    def _ship_telemetry(self, body: Dict[str, Any]) -> None:
        """Push one telemetry frame to the coordinator over the control seam.

        The body is wire-encoded as an (uncharged)
        :class:`~repro.runtime.wire.TelemetryFrame` so the stream speaks
        the cluster's codec — a future multi-host control channel carries
        the same bytes — and decoded coordinator-side into the
        :class:`~repro.obs.health.HealthEngine`.  Best-effort like every
        control send: a dead coordinator must not stall the swarm.
        """
        frame = wire.TelemetryFrame.from_body(
            shard=self.shard_index, period=int(body.get("period", 0)), body=body
        )
        self._send(("telemetry", self.shard_index, wire.encode(frame)))

    # ------------------------------------------------------------------------ run
    async def main(self) -> None:
        swarm = self.swarm = LiveSwarm(self.spec, self.options, shard_index=self.shard_index)
        swarm.build()
        self.hello = wire.ShardHello(
            shard_index=self.shard_index,
            num_shards=self.num_shards,
            token=self.token,
            ring_size=swarm.id_space,
        )
        self._create_links()
        server = await asyncio.start_server(self._on_connection, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        self.mail.start()
        self._send(
            (
                "listening",
                self.shard_index,
                {
                    "port": port,
                    "hosted_peers": len(swarm.peers),
                    "hosts_source": swarm.hosts(swarm.manager.source_id),
                },
            )
        )
        _, ports = await self.mail.expect("peers", timeout=SETUP_TIMEOUT_S)
        await self._connect_links(ports)
        self._send(("ready", self.shard_index))
        _, start_at = await self.mail.expect("start", timeout=SETUP_TIMEOUT_S)
        swarm.start_at = float(start_at)
        swarm.control = self
        swarm.telemetry_sink = self._ship_telemetry
        self._send(("result", self.shard_index, await swarm.run_async()))
        # Hold the links until every shard has finished (close barrier):
        # peers elsewhere may still be draining frames this shard relays.
        try:
            await self.mail.expect("close", timeout=CLOSE_TIMEOUT_S)
        except (TimeoutError, ConnectionError):
            pass
        self.mail.stop()
        swarm.close_links()
        server.close()
        await server.wait_closed()


def run_shard_worker(conn, payload: Dict[str, Any]) -> None:
    """Process entry point (top-level so ``multiprocessing`` can spawn it)."""
    try:
        asyncio.run(ShardWorker(conn, payload).main())
    except Exception:
        try:
            conn.send(("error", payload.get("shard_index", -1), traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
        raise SystemExit(1)
