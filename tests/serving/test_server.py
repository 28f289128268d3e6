"""Tests of the JSON-lines protocol over stdio and TCP."""

import asyncio
import io
import json

import pytest

from repro.serving import (
    BatchingEvaluator,
    EvalRequest,
    respond_lines,
    run_stdio,
    sequential_response,
    serve_tcp,
)
from repro.serving.server import STREAM_LIMIT


def line(**payload) -> str:
    return json.dumps(payload)


def canon(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestRespondLines:
    def test_responses_in_request_order_with_id_echo(self, serving_sim):
        lines = [
            line(config="base", vdd=0.70, id="first"),
            line(config="config1", vdd=0.65, msb_in_8t=3, id="second"),
            line(config="base", vdd=0.70, id="third"),  # repeat of "first"
        ]

        async def run():
            evaluator = BatchingEvaluator(serving_sim, cache=None,
                                          batch_window=0.01)
            out = await respond_lines(evaluator, lines)
            await evaluator.close()
            return evaluator, out

        evaluator, out = asyncio.run(run())
        decoded = [json.loads(o) for o in out]
        assert [d["id"] for d in decoded] == ["first", "second", "third"]
        assert all(d["ok"] for d in decoded)
        # The repeat shares the leader's evaluation but gets its own line.
        assert decoded[0]["result"] == decoded[2]["result"]
        assert evaluator.stats.evaluations == 2

        reference = sequential_response(
            serving_sim, EvalRequest(config="base", vdd=0.70)
        )
        assert canon(decoded[0]["result"]) == canon(reference)

    def test_blank_lines_skipped_and_errors_inline(self, serving_sim):
        lines = [
            "",
            "   ",
            "{broken",
            line(config="base", vdd=99.0, id="hot"),
            line(config="nope", vdd=0.7, id="bad-config"),
            line(config="base", vdd=0.70, id="ok"),
        ]

        async def run():
            evaluator = BatchingEvaluator(serving_sim, cache=None,
                                          batch_window=0.0)
            out = await respond_lines(evaluator, lines)
            await evaluator.close()
            return out

        decoded = [json.loads(o) for o in asyncio.run(run())]
        assert len(decoded) == 4  # blanks dropped
        assert decoded[0]["ok"] is False and decoded[0]["id"] is None
        assert "not valid JSON" in decoded[0]["error"]
        assert decoded[1]["ok"] is False and decoded[1]["id"] == "hot"
        assert "outside characterized range" in decoded[1]["error"]
        assert decoded[2]["ok"] is False and decoded[2]["id"] == "bad-config"
        assert decoded[3]["ok"] is True and decoded[3]["id"] == "ok"

    def test_bad_seed_fails_alone_without_killing_the_batch(self, serving_sim):
        lines = [
            line(config="base", vdd=0.70, seed=-5, id="negative"),
            line(config="base", vdd=0.70, id="fine"),
        ]

        async def run():
            evaluator = BatchingEvaluator(serving_sim, cache=None,
                                          batch_window=0.0)
            out = await respond_lines(evaluator, lines)
            await evaluator.close()
            return out

        decoded = [json.loads(o) for o in asyncio.run(run())]
        assert decoded[0]["ok"] is False and decoded[0]["id"] == "negative"
        assert "non-negative" in decoded[0]["error"]
        assert decoded[1]["ok"] is True and decoded[1]["id"] == "fine"

    def test_unexpected_failure_is_answered_not_propagated(self, serving_sim):
        """A programming error behind one request must come back as an
        inline internal-error response, not kill the server loop."""

        async def run():
            evaluator = BatchingEvaluator(serving_sim, cache=None,
                                          batch_window=0.0)

            async def exploding_submit(request):
                raise RuntimeError("wires crossed")

            evaluator.submit = exploding_submit
            out = await respond_lines(
                evaluator, [line(config="base", vdd=0.70, id="boom")]
            )
            await evaluator.close()
            return out

        (response,) = [json.loads(o) for o in asyncio.run(run())]
        assert response["ok"] is False and response["id"] == "boom"
        assert response["error"] == "internal error (RuntimeError)"


class TestStdio:
    def test_stdin_stdout_exchange(self, serving_sim):
        stdin = io.StringIO(
            line(config="base", vdd=0.70, id="a") + "\n"
            + line(config="base", vdd=0.70, id="b") + "\n"
        )
        stdout = io.StringIO()
        evaluator = BatchingEvaluator(serving_sim, cache=None, batch_window=0.0)
        code = run_stdio(evaluator, stdin=stdin, stdout=stdout)
        assert code == 0
        decoded = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert [d["id"] for d in decoded] == ["a", "b"]
        assert decoded[0]["result"] == decoded[1]["result"]
        assert evaluator.stats.evaluations == 1  # the pair coalesced


class TestStatsRequest:
    def test_stats_control_line(self, serving_sim):
        """A ``{"type": "stats"}`` line returns the live counters and is
        not itself counted as a request."""
        lines = [
            line(config="base", vdd=0.70, id="warm"),
            line(type="stats", id="probe"),
        ]

        async def run():
            evaluator = BatchingEvaluator(serving_sim, cache=None,
                                          batch_window=0.0)
            # Sequential submission so the probe observes the request.
            first = await respond_lines(evaluator, lines[:1])
            probe = await respond_lines(evaluator, lines[1:])
            await evaluator.close()
            return first + probe

        decoded = [json.loads(o) for o in asyncio.run(run())]
        assert decoded[0]["ok"] is True
        stats = decoded[1]
        assert stats["ok"] is True and stats["id"] == "probe"
        assert stats["type"] == "stats"
        assert stats["stats"]["requests"] == 1
        assert stats["stats"]["evaluations"] == 1
        assert "store" not in stats["stats"]  # no response store

    def test_stats_on_a_plain_result_cache_carry_a_store_block(
        self, serving_sim, tmp_path
    ):
        """A plain directory cache reports its tier counters too."""
        from repro.runtime import ResultCache

        lines = [
            line(config="base", vdd=0.70, id="warm"),
            line(type="stats", id="probe"),
        ]

        async def run():
            evaluator = BatchingEvaluator(
                serving_sim, cache=ResultCache(str(tmp_path)), batch_window=0.0
            )
            await respond_lines(evaluator, lines[:1])
            probe = await respond_lines(evaluator, lines[1:])
            await evaluator.close()
            return probe

        store = json.loads(asyncio.run(run())[0])["stats"]["store"]
        assert store["store"] == f"directory:{tmp_path}"
        assert store["misses"] == 1 and store["puts"] == 1
        assert store["errors"] == 0

    def test_probe_and_metrics_report_the_same_counters(
        self, serving_sim, tmp_path
    ):
        """Evaluated, coalesced and cache-hit requests land in the probe
        and in the ``repro_serve_*`` series alike."""
        from repro.runtime import ResultCache

        cache = ResultCache(str(tmp_path))
        repeat = [line(config="base", vdd=0.70, id=str(i)) for i in range(2)]

        async def run():
            evaluator = BatchingEvaluator(serving_sim, cache=cache,
                                          batch_window=0.0)
            await respond_lines(evaluator, repeat)  # evaluated + coalesced
            await respond_lines(evaluator, repeat[:1])  # cache hit
            probe = await respond_lines(
                evaluator, [line(type="stats", id="probe")]
            )
            await evaluator.close()
            return evaluator, json.loads(probe[0])["stats"]

        evaluator, stats = asyncio.run(run())
        assert (stats["requests"], stats["evaluations"], stats["coalesced"],
                stats["cache_hits"]) == (3, 1, 1, 1)
        published = {
            row["name"]: row["value"]
            for row in evaluator.metrics.snapshot()["series"]
        }
        assert published == {
            f"repro_serve_{name}_total": stats[name]
            for name in ("requests", "cache_hits", "coalesced", "batches",
                         "evaluations", "errors")
        }

    def test_unknown_control_type_rejected(self, serving_sim):
        async def run():
            evaluator = BatchingEvaluator(serving_sim, cache=None,
                                          batch_window=0.0)
            out = await respond_lines(
                evaluator, [line(type="reboot", id="nope")]
            )
            await evaluator.close()
            return out

        (response,) = [json.loads(o) for o in asyncio.run(run())]
        assert response["ok"] is False and response["id"] == "nope"
        assert response["code"] == "bad_request"
        assert "unknown control type" in response["error"]

    def test_error_responses_carry_codes(self, serving_sim):
        async def run():
            evaluator = BatchingEvaluator(serving_sim, cache=None,
                                          batch_window=0.0)
            out = await respond_lines(
                evaluator, ["{broken", line(config="nope", vdd=0.7)]
            )
            await evaluator.close()
            return out

        decoded = [json.loads(o) for o in asyncio.run(run())]
        assert [d["code"] for d in decoded] == ["bad_request", "bad_request"]

    def test_probe_helper_against_tcp_server(self, serving_sim):
        from repro.serving.server import request_stats

        async def run():
            evaluator = BatchingEvaluator(serving_sim, cache=None,
                                          batch_window=0.0)
            server = await serve_tcp(evaluator, host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            # The blocking socket client must not share this loop.
            stats = await asyncio.get_running_loop().run_in_executor(
                None, request_stats, "127.0.0.1", port
            )
            server.close()
            await server.wait_closed()
            await evaluator.close()
            return stats

        stats = asyncio.run(run())
        assert stats["requests"] == 0
        assert set(stats) >= {"requests", "cache_hits", "coalesced",
                              "batches", "evaluations", "errors"}


class _GatedEvaluator:
    """Stub evaluator whose submissions block until the test releases
    them — deterministic in-flight pressure for backpressure tests."""

    def __init__(self):
        from repro.serving import ServingStats

        self.stats = ServingStats()
        self.gate = asyncio.Event()

    async def submit(self, request):
        self.stats.requests += 1
        await self.gate.wait()
        self.stats.evaluations += 1
        return {"vdd": request.vdd}

    async def close(self):
        pass


class TestBackpressure:
    def test_overloaded_response_when_inflight_bound_hit(self):
        """With max_inflight=1, a pipelined burst gets one answer and
        structured 'overloaded' refusals for the rest — and the
        connection keeps working afterwards."""

        async def run():
            evaluator = _GatedEvaluator()
            server = await serve_tcp(
                evaluator, host="127.0.0.1", port=0, max_inflight=1
            )
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            burst = [line(config="base", vdd=0.70, id=f"r{i}") for i in range(3)]
            writer.write(("\n".join(burst) + "\n").encode())
            await writer.drain()
            # Two refusals arrive while r0 is gated.
            refused = [
                json.loads(await asyncio.wait_for(reader.readline(), 30))
                for _ in range(2)
            ]
            evaluator.gate.set()
            answered = json.loads(
                await asyncio.wait_for(reader.readline(), 30)
            )
            # The connection survived: a post-burst request succeeds.
            writer.write((line(config="base", vdd=0.75, id="later") + "\n").encode())
            await writer.drain()
            later = json.loads(await asyncio.wait_for(reader.readline(), 30))
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            return refused, answered, later

        refused, answered, later = asyncio.run(run())
        assert [r["ok"] for r in refused] == [False, False]
        assert {r["code"] for r in refused} == {"overloaded"}
        assert {r["id"] for r in refused} == {"r1", "r2"}
        assert all("overloaded" in r["error"] for r in refused)
        assert answered["ok"] is True and answered["id"] == "r0"
        assert later["ok"] is True and later["id"] == "later"

    def test_max_inflight_validation(self):
        async def run():
            with pytest.raises(ValueError, match="max_inflight"):
                await serve_tcp(_GatedEvaluator(), max_inflight=0)

        asyncio.run(run())


class TestTcp:
    def test_multiplexed_connection(self, serving_sim):
        async def run():
            evaluator = BatchingEvaluator(serving_sim, cache=None,
                                          batch_window=0.01)
            server = await serve_tcp(evaluator, host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            requests = [
                line(config="base", vdd=0.70, id=f"r{i}") for i in range(6)
            ] + ["", line(config="config1", vdd=0.65, msb_in_8t=3, id="r6")]
            writer.write(("\n".join(requests) + "\n").encode())
            await writer.drain()
            writer.write_eof()
            received = []
            while len(received) < 7:
                raw = await asyncio.wait_for(reader.readline(), timeout=30)
                assert raw, "server closed before answering everything"
                received.append(json.loads(raw))
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await evaluator.close()
            return evaluator, received

        evaluator, received = asyncio.run(run())
        assert {d["id"] for d in received} == {f"r{i}" for i in range(7)}
        assert all(d["ok"] for d in received)
        # 7 requests over the wire, only 2 distinct evaluations.
        assert evaluator.stats.evaluations == 2
        assert evaluator.stats.coalesced == 5

    def test_oversized_line_answered_inline_then_closed(self, serving_sim):
        """A line the stream buffer cannot hold is a protocol violation:
        the client gets an inline error, not a silent hangup."""

        async def run():
            evaluator = BatchingEvaluator(serving_sim, cache=None,
                                          batch_window=0.0)
            server = await serve_tcp(evaluator, host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"x" * (STREAM_LIMIT + 4096) + b"\n")
            response = json.loads(
                await asyncio.wait_for(reader.readline(), timeout=30)
            )
            eof = await asyncio.wait_for(reader.readline(), timeout=30)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # server already tore the stream down
            server.close()
            await server.wait_closed()
            await evaluator.close()
            return response, eof

        response, eof = asyncio.run(run())
        assert response["ok"] is False
        assert "exceeds" in response["error"]
        assert eof == b""  # the connection was closed after the error
