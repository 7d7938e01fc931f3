"""The frozen references that `pass_norm` and `setup_s` divide by.

`ref_loop` is fixed pure-Python work of the kind finhaar's hot paths do
(list-of-list table lookups, set membership, big-int bit scatter and
popcount).  It imports nothing from finhaar, so a change to finhaar
cannot move it.

`Sampler` runs one `ref_loop` from a SIGALRM handler every 40 ms of
wall-clock time, so the samples cover the whole pass, also the inside
of a single long library call.  On a vCPU whose speed wanders within a
second, loops timed only before and after a pass do not track the
speed the pass ran at; samples spread through it do (see README).

`REF_IMPORTS` is a fixed set of standard-library modules that neither
finhaar nor the benchmark imports.  A set-up is mostly `import`
(unmarshalling, module bodies, loading extension modules), which
`ref_loop` tracks badly, so each set-up probe is timed next to a fresh
interpreter that imports these, and `setup_s` is the ratio of the two
times `NOMINAL_IMPORT_S`.

Do not change this file without treating it as a benchmark change:
every `pass_norm` figure is a ratio against `ref_loop`, and every
`setup_s` a ratio against the import of `REF_IMPORTS`.
"""

from __future__ import annotations

import signal
import time

_N = 97
_TABLE = [[(i * 31 + j * 17) % _N for j in range(_N)] for i in range(_N)]
_ROUNDS = 6
PASS_INTERVAL_S = 0.04
REF_IMPORTS = (
    "asyncio", "sqlite3", "email.message", "http.client", "unittest", "pydoc", "ssl",
    "xml.etree.ElementTree",
)
# seconds the import of REF_IMPORTS takes at the reference speed; set-up
# times are reported as multiples of that import times this constant
NOMINAL_IMPORT_S = 0.08


def ref_loop():
    """One fixed unit of work (about 3 ms; see README for the machine)."""
    table = _TABLE
    acc = 0
    for r in range(_ROUNDS):
        seen = set()
        bits = 0
        for i in range(_N):
            row = table[i]
            for j in range(0, _N, 3):
                z = row[table[j][r % _N]]
                if z not in seen:
                    seen.add(z)
                bits |= 1 << z
        acc += bits.bit_count() + len(seen)
    return acc


class Sampler:
    """Times `ref_loop` on a wall-clock interval timer between start()
    and stop(); ``samples`` holds the durations in seconds and ``total``
    their sum, so that callers can leave the sampling time out."""

    def __init__(self, interval_s=PASS_INTERVAL_S):
        self.interval_s = interval_s
        self.samples = []
        self.starts = []
        self.total = 0.0
        self._busy = False

    def _tick(self, _signum, _frame):
        if self._busy:  # a tick that lands inside a sample is dropped
            return
        self._busy = True
        started = time.perf_counter()
        ref_loop()
        took = time.perf_counter() - started
        self.samples.append(took)
        self.starts.append(started)
        self.total += took
        self._busy = False

    def start(self):
        self.samples = []
        self.starts = []
        self.total = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.samples
