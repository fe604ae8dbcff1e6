"""Machine-speed sampling, to report times at a fixed reference speed.

On a shared virtual machine the same code runs up to 1.8x slower from one
second to the next, depending on what the neighbours do.  ``Sampler`` times a
small fixed chunk of interpreter work from a SIGALRM handler every
``PERIOD`` seconds while the measured code runs, so the samples cover exactly
the measured interval.  The chunk uses no ``inblock`` code, so a change to the
library cannot move it.  ``at_reference_speed`` removes the handlers' own time
from a measurement and rescales the rest to a machine whose chunk takes
``CHUNK_REF`` seconds.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time

PERIOD = 0.02
# The reference machine runs one chunk in this many seconds.  It sets the
# scale only: a 2-vCPU virtual machine with Python 3.11 takes 0.7 to 1.1 ms
# per chunk inside the handler, depending on its neighbours.
CHUNK_REF = 0.001


def chunk() -> None:
    """Tuple and dict traffic over an enumeration, in the library's style."""
    law = {}
    for tables in itertools.product((0, 1), repeat=9):
        y = ()
        for i in range(4):
            y = y + (tables[((1 << i) - 1 + len(y)) % 9],)
        law[y] = law.get(y, 0.0) + 0.5


class Sampler:
    """Context manager: while active, time ``chunk`` every PERIOD seconds.

    ``samples`` keeps every chunk time, across activations; ``on_sample``, if
    given, is called with each one.
    """

    def __init__(self, on_sample=None):
        self.samples: list[float] = []
        self.on_sample = on_sample

    def _handler(self, _signum, _frame):
        start = time.perf_counter()
        chunk()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        if self.on_sample is not None:
            self.on_sample(seconds)

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def to_reference(samples: list[float]) -> float:
    """Factor that takes seconds measured while ``samples`` were taken to
    seconds on the reference machine."""
    return CHUNK_REF / statistics.fmean(samples) if samples else 1.0


def at_reference_speed(seconds: float, samples: list[float]) -> float:
    """``seconds`` measured while ``samples`` were taken, without the
    samples' own time and rescaled to the reference machine."""
    return (seconds - sum(samples)) * to_reference(samples)
