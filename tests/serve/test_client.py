"""Pipelined requests on one :class:`~repro.serve.client.ServeClient`.

A fresh client has not seen the server's ``hello`` yet; every request
issued before it arrives waits on the same greeting.  These tests run
against an in-process :class:`ViolationServer` with a bounded timeout,
so a request left waiting on a greeting another one consumed fails
instead of hanging the suite.
"""

import asyncio

from repro.serve import ServeClient, ViolationServer
from repro.workloads import churn_stream

TIMEOUT = 10.0


def stream_fixture():
    return churn_stream(n_nodes=30, batches=6, batch_size=6, rng=25)


class TestPipelining:
    def test_concurrent_updates_on_a_fresh_client_all_acked(self):
        stream = stream_fixture()
        graph = stream.base.copy()

        async def scenario():
            async with ViolationServer(graph, stream.sigma) as server:
                client = await ServeClient.connect("127.0.0.1", server.port)
                acks = await asyncio.wait_for(
                    asyncio.gather(
                        *(client.send_update(update) for update in stream.updates[:4])
                    ),
                    TIMEOUT,
                )
                assert [ack["type"] for ack in acks] == ["ack"] * 4
                # Acks resolve in send order: the server applies serially.
                assert [ack["seq"] for ack in acks] == [1, 2, 3, 4]
                assert client.hello is not None and client.hello["type"] == "hello"
                assert server.seq == 4
                await client.close()

        asyncio.run(scenario())

    def test_pipelined_publisher_that_subscribes_gets_its_pushes(self):
        stream = stream_fixture()
        graph = stream.base.copy()

        async def scenario():
            async with ViolationServer(graph, stream.sigma) as server:
                client = await ServeClient.connect("127.0.0.1", server.port)
                bootstrap, *acks = await asyncio.wait_for(
                    asyncio.gather(
                        client.subscribe(),
                        *(client.send_update(update) for update in stream.updates[:4]),
                    ),
                    TIMEOUT,
                )
                assert bootstrap["type"] == "bootstrap" and bootstrap["seq"] == 0
                assert [ack["seq"] for ack in acks] == [1, 2, 3, 4]
                deltas = [await client.next_event(timeout=TIMEOUT) for _ in acks]
                assert [delta["type"] for delta in deltas] == ["delta"] * 4
                assert [delta["seq"] for delta in deltas] == [1, 2, 3, 4]
                await client.close()

        asyncio.run(scenario())

    def test_connection_closed_before_hello_raises(self):
        async def scenario():
            async def silent(reader, writer):
                writer.close()

            listener = await asyncio.start_server(silent, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            try:
                client = await ServeClient.connect("127.0.0.1", port)
                results = await asyncio.wait_for(
                    asyncio.gather(
                        client.send_update({"nodes": []}),
                        client.next_event(),
                        return_exceptions=True,
                    ),
                    TIMEOUT,
                )
                assert all(isinstance(result, Exception) for result in results)
                await client.close()
            finally:
                listener.close()
                await listener.wait_closed()

        asyncio.run(scenario())
