"""Fixed reference work: a host-speed probe that imports nothing from voipsim.

The benchmark runs this in a fresh child after each untraced simulation and
divides host times by the median of its wall times within one invocation.
It is a miniature of the simulator's hot paths, so that host-speed drift
moves it the way it moves a real run: a heap-ordered event loop with lazy
cancellation, two slot-contention cells, a delay segment, per-stream
receive logs retained until the end, and a windowed fold over them.
Changing it changes every calibrated figure, so it is frozen; REF_NOMINAL_S
in run.py is its wall time on the host the bounds were set on.
"""

import heapq
import random
from collections import deque

PENDING = -2


class Env:
    __slots__ = ("stream", "seq", "path", "hop")

    def __init__(self, stream, seq, path):
        self.stream = stream
        self.seq = seq
        self.path = path
        self.hop = 0


class Contender:
    __slots__ = ("queue", "backoff")

    def __init__(self):
        self.queue = deque()
        self.backoff = None


class Stream:
    __slots__ = ("t0", "recv", "up", "down")

    def __init__(self, t0, up, down):
        self.t0 = t0
        self.recv = []
        self.up = up
        self.down = down


class Loop:
    def __init__(self, seed):
        self.now = 0
        self.heap = []
        self.pending = {}
        self.seq = 0
        self.rng = random.Random(seed)

    def schedule(self, fire_at, fn, arg=None, kind=""):
        entry = [fire_at, self.seq, fn, arg, "", kind]
        self.seq += 1
        heapq.heappush(self.heap, entry)
        self.pending[entry[1]] = entry
        return entry[1]

    def cancel(self, seq):
        entry = self.pending.pop(seq, None)
        if entry is not None:
            entry[2] = None

    def run(self, t_end):
        heap = self.heap
        while heap and heap[0][0] <= t_end:
            entry = heapq.heappop(heap)
            if entry[2] is None:
                continue
            self.now = entry[0]
            del self.pending[entry[1]]
            entry[2](entry[3])


class Cell:
    def __init__(self, loop, n):
        self.loop = loop
        self.order = [Contender() for _ in range(n)]
        self.round = None
        self.busy_until = 0

    def enqueue(self, env, node):
        c = self.order[node]
        c.queue.append(env)
        if c.backoff is None:
            c.backoff = self.loop.rng.randint(0, 31)
            if self.round is not None:
                self.loop.cancel(self.round)
            self.arm()

    def active(self):
        return [c for c in self.order if c.backoff is not None]

    def arm(self):
        active = self.active()
        if not active:
            self.round = None
            return
        t0 = max(self.loop.now, self.busy_until) + 50
        self.round = self.loop.schedule(t0 + 20 * min(c.backoff for c in active),
                                        self.fire, kind="round")

    def fire(self, _arg):
        active = self.active()
        low = min(c.backoff for c in active)
        winners = [c for c in active if c.backoff == low]
        for c in active:
            c.backoff -= low
        for w in winners[:1]:
            env = w.queue.popleft()
            self.busy_until = self.loop.now + 300
            self.loop.schedule(self.busy_until, self.fabric_done, env, kind="deliver")
            w.backoff = self.loop.rng.randint(0, 31) if w.queue else None
        for c in winners[1:]:
            c.backoff = self.loop.rng.randint(0, 63)
        self.arm()

    def fabric_done(self, env):
        advance(self.loop, env)


def make_cloud(loop):
    def cloud(env, _node):
        loop.schedule(loop.now + 30_000 + loop.rng.randint(-50, 50),
                      lambda e: advance(loop, e), env, kind="cloud")
    return cloud


def advance(loop, env):
    env.hop += 1
    if env.hop == len(env.path):
        env.stream.recv[env.seq] = loop.now
    else:
        fn, node = env.path[env.hop]
        fn(env, node)


def reference_work(seed=20171, t_end=60_000_000):
    loop = Loop(seed)
    a, b = Cell(loop, 5), Cell(loop, 5)
    streams = []
    cloud = make_cloud(loop)

    def emit(arg):
        stream, seq = arg
        stream.recv.append(PENDING)
        if seq < 1200:
            loop.schedule(loop.now + 20_000, emit, (stream, seq + 1), kind="emit")
        path = ((stream.up.enqueue, seq % 4), (cloud, None), (stream.down.enqueue, 4))
        env = Env(stream, seq, path)
        path[0][0](env, path[0][1])

    for i in range(8):
        s = Stream(i * 1_500_000, a if i % 2 else b, b if i % 2 else a)
        streams.append(s)
        loop.schedule(s.t0, emit, (s, 0), kind="emit")
    loop.run(t_end)
    windows = {}
    for s in streams:
        prev = None
        for seq, t in enumerate(s.recv):
            if t == PENDING:
                continue
            sent = s.t0 + seq * 20_000
            w = sent // 1_000_000
            n, total, jmax = windows.get(w, (0, 0, None))
            if prev is not None:
                delta = (t - prev[1]) - (sent - prev[0])
                jmax = delta if jmax is None or delta > jmax else jmax
            windows[w] = (n + 1, total + t - sent, jmax)
            prev = (sent, t)
    return len(windows)


if __name__ == "__main__":
    reference_work()
