"""Which of the dispatcher's two job timeouts fires, per pool mode."""

import signal

import pytest

from repro.serve.dispatch import Dispatcher

from tests.serve import harness


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize("mode, message, pool_side", [
    # A pool process runs the job on its main thread: the worker's own
    # alarm lands first and the pool-side deadline never fires.
    ("process", "exceeded 1s wall-clock timeout", 0),
    # A pool thread cannot take a signal: only the pool side is left.
    ("thread", "exceeded 1s wall-clock timeout (pool-side)", 1),
])
def test_which_timeout_fires(mode, message, pool_side):
    async def scenario():
        dispatcher = Dispatcher(workers=1, timeout_s=1, mode=mode)
        try:
            result = await dispatcher.execute(
                {"kind": "call", "module": "tests.serve.harness",
                 "func": "spin", "kwargs": {"seconds": 2.5}})
        finally:
            dispatcher.shutdown(wait=True)
        return result, dispatcher

    result, dispatcher = harness.run(scenario())
    assert (result["status"], result["kind"]) == ("failed", "timeout")
    assert result["message"] == message
    assert dispatcher.timeouts == pool_side
    assert dispatcher.completed == 1 and dispatcher.busy == 0
