"""Span and count wrappers installed around voipsim's public entry points.

The simulator carries no tracing code of its own; a traced benchmark child
calls install() before run_scenario and the wrappers record, per label, the
number of calls and the self time (span duration minus the spans nested in
it).  Scheduled handlers are timed per event kind by wrapping every callable
passed to Simulator.schedule.  A wrapper whose target no longer exists is
skipped and its label is listed in Trace.absent, so the metrics built on it
are reported as absent rather than failing the run.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Trace:
    """Call counts and self times per label, plus the event queue's high mark."""

    def __init__(self):
        self.n: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.queue_max = 0
        self.absent: list[str] = []
        # one accumulator per open span: time covered by its direct children
        self._stack = [0.0]

    def span(self, label: str, fn):
        stack = self._stack
        n = self.n
        self_s = self.self_s
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stack[-1] += dt
                self_s[label] += dt - inner
                n[label] += 1

        return wrapped

    def patch(self, owner, name: str, label: str, make) -> None:
        """Replace owner.name by make(original); record label as absent if
        the attribute is gone."""
        orig = getattr(owner, name, None)
        if orig is None:
            self.absent.append(label)
            return
        setattr(owner, name, make(orig))

    def as_dict(self) -> dict:
        return {"n": dict(self.n), "self_s": dict(self.self_s),
                "queue_max": self.queue_max, "absent": self.absent}


def install(trace: Trace) -> None:
    """Wrap simcore, netmodels, signaling, metrics and runner entry points."""
    from voipsim import netmodels, runner, signaling, simcore

    event_runners: dict[str, object] = {}

    def event_runner(kind: str):
        fire = event_runners.get(kind)
        if fire is None:
            fire = event_runners[kind] = trace.span(
                f"event:{kind}", lambda packed: packed[0](packed[1]))
        return fire

    def make_schedule(orig):
        def schedule(sim, fire_at, fn, arg=None, target="", kind=""):
            trace.n["simcore.schedules"] += 1
            seq = orig(sim, fire_at, event_runner(kind), (fn, arg), target, kind)
            queued = sim.pending_count()
            if queued > trace.queue_max:
                trace.queue_max = queued
            return seq
        return schedule

    def make_cancel(orig):
        def cancel(sim, event_id):
            done = orig(sim, event_id)
            if done:
                trace.n["simcore.cancels"] += 1
            return done
        return cancel

    def make_segments(label):
        def make(orig):
            def segments(cell, ws):
                return [(name, trace.span(label, fn), node)
                        for name, fn, node in orig(cell, ws)]
            return segments
        return make

    def make_send(orig):
        sent = trace.span("fabric.send", orig)

        def send(fabric, item, size_bytes, src, dst, on_end, on_fail):
            # media callbacks belong to the fabric; any other owner is the
            # SIP layer handing over its on_end/on_fail
            if getattr(on_end, "__self__", None) is not fabric:
                on_end = trace.span("signaling.callback", on_end)
                on_fail = trace.span("signaling.callback", on_fail)
            return sent(fabric, item, size_bytes, src, dst, on_end, on_fail)
        return send

    def make_records(orig):
        def records(stream):
            out = orig(stream)
            trace.n["metrics.records_n"] += len(out)
            return out
        return trace.span("metrics.records", records)

    def spanned(label):
        return lambda orig: trace.span(label, orig)

    Sim = simcore.Simulator
    trace.patch(Sim, "schedule", "simcore.schedule", make_schedule)
    trace.patch(Sim, "cancel", "simcore.cancel", make_cancel)
    trace.patch(Sim, "run_until", "simcore.loop", spanned("simcore.loop"))
    for cls, label in ((netmodels.WifiCell, "wifi.enqueue"),
                       (netmodels.UmtsCell, "umts.enqueue")):
        trace.patch(cls, "up_segments", label, make_segments(label))
        trace.patch(cls, "down_segments", label, make_segments(label))
    trace.patch(netmodels.IpCloud, "forward", "cloud.forward", spanned("cloud.forward"))
    trace.patch(netmodels.Fabric, "send", "fabric.send", make_send)
    trace.patch(netmodels.Fabric, "segment_done", "fabric.hop", spanned("fabric.hop"))
    trace.patch(netmodels.Fabric, "segment_drop", "fabric.drop", spanned("fabric.drop"))
    for name in ("initiate", "teardown"):
        trace.patch(signaling.SessionLayer, name, "signaling.api", spanned("signaling.api"))
    # run_scenario looks these up as module globals of voipsim.runner
    trace.patch(runner, "records_from_stream", "metrics.records", make_records)
    trace.patch(runner, "bucketize", "metrics.bucketize", spanned("metrics.bucketize"))
    for name in ("write_metrics_csv", "_write_manifest", "_atomic_write_text"):
        trace.patch(runner, name, "runner.write", spanned("runner.write"))
