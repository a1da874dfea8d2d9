"""Observe ReceiveLSA() batches through a switch's public surface.

``ReceiveLSA()`` opens one ``receive_lsa`` span per invocation and drains
its whole inbox inside it, so what :meth:`DgmcSwitch.queued_lsas` holds as
the span opens *is* the batch.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.tracer import Tracer, use_tracer


class _BatchRecorder(Tracer):
    def __init__(self, switch) -> None:
        super().__init__(enabled=True)
        self.switch = switch
        self.batches: list = []

    def span(self, name, cat="", tid=0, sim_time=None, pid=None, **args):
        if name == "receive_lsa" and tid == self.switch.switch_id:
            queued = self.switch.queued_lsas(args["connection"])
            self.batches.append((sim_time, queued))
        return super().span(name, cat=cat, tid=tid, sim_time=sim_time, pid=pid, **args)


@contextmanager
def recorded_batches(switch):
    """Yield a list gaining ``(sim time, [LSAs])`` per ReceiveLSA() at ``switch``."""
    recorder = _BatchRecorder(switch)
    with use_tracer(recorder):
        yield recorder.batches
