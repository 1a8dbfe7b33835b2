"""The host's speed, timed beside the work it rescales.

The development host is a shared machine whose speed drifts with other
tenants' load: the same CPU work takes up to 1.5x longer from one minute
to the next.  Identical runs a few minutes apart then spread by more than
any bound that could catch a regression.

:class:`HostSpeed` times a fixed reference burst, with no code from
``repro`` in it, between the workload's operations and on the same CPU.
A burst's time over its nominal time is the host's slowdown at that
moment; dividing each operation's time by the slowdown around it reports
the operation at the speed the development host has when the burst takes
its nominal time.  A change to the program moves the rescaled times as it
moves the raw ones; a slower host moves both the times and the bursts.

The burst must slow down with the work it rescales, so there are two:

- :func:`interp_burst`, interpreter-bound Python (pickling, hashing, an
  integer loop, compiling a small module), for the compile passes and the
  compile server.  Over 4 minutes of warm ``serve-warm`` requests it
  cut the coefficient of variation of 7-second medians from 0.17 to 0.06.
- :func:`array_burst`, streaming float arithmetic over arrays that fit in
  L2, for the generated C kernels.  Over 200 s of kernel runs it cut the
  coefficient of variation of 10-round medians from 0.075 to 0.041; the
  interpreter burst made it worse (0.12).
"""

from __future__ import annotations

import ast
import hashlib
import pickle
import statistics
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

#: What the burst pickles: small dicts, lists, strings and floats, the
#: kind of object graph the compile server reads from its cache.
_GRAPH = {f"k{i}": [list(range(20)), "s" * 50, {"a": i, "b": (1.5, 2.5)}]
          for i in range(100)}

#: What the burst parses and compiles: the interpreter's own large C code
#: paths, as a compiler's deep call chains exercise them.
_SOURCE = "\n".join(
    f"def f{i}(a, b=2, *c, **d):\n"
    f"    x = [a * j + b for j in range(a) if j % 3]\n"
    f"    y = {{k: v for k, v in d.items()}}\n"
    f"    return sorted(x, key=lambda t: -t)[:{i}] + list(c)\n"
    f"class C{i}:\n"
    f"    z = {i}\n"
    f"    def m(self, q):\n"
    f"        return self.z + q\n"
    for i in range(3)
)


def interp_burst() -> None:
    """A pickle round trip, a hash, an integer loop and compiling a small
    module: about 1.5 ms on the development host."""
    blob = pickle.dumps(_GRAPH)
    pickle.loads(blob)
    hashlib.sha256(blob).digest()
    acc = 0
    for i in range(7000):
        acc += i * i % 7
    compile(ast.parse(_SOURCE), "<burst>", "exec")


_A, _B, _C = (np.linspace(0.5, 1.5, 1 << 16) for _ in range(3))


def array_burst() -> None:
    """Streaming multiply-adds over three 512 KiB arrays: about 0.6 ms on
    the development host."""
    for _ in range(8):
        np.multiply(_A, _B, out=_C)
        np.add(_C, _A, out=_C)


#: Each burst's time on the development host in a quiet minute, in
#: seconds.  Rescaled times read as if the burst had taken this long.
NOMINAL_S: Dict[Callable[[], None], float] = {
    interp_burst: 1.5e-3,
    array_burst: 0.6e-3,
}


class HostSpeed:
    """Reference bursts of one kind timed during one run."""

    def __init__(self, burst: Callable[[], None]) -> None:
        self.burst = burst
        self.nominal = NOMINAL_S[burst]
        self.samples: List[float] = []
        #: Wall time spent in bursts, to leave out of a run's throughput.
        self.spent = 0.0

    def sample(self, bursts: int = 1) -> None:
        t0 = perf_counter()
        for _ in range(bursts):
            t1 = perf_counter()
            self.burst()
            self.samples.append(perf_counter() - t1)
        self.spent += perf_counter() - t0

    def slowdown(self) -> float:
        """The median burst over its nominal time: above 1 the host ran
        slower than nominal during this run."""
        if not self.samples:
            raise RuntimeError("no reference burst was timed")
        return statistics.median(self.samples) / self.nominal

    def local_slowdowns(self, window: int) -> List[float]:
        """For each burst, the median of the ``window`` bursts centred on
        it over the nominal time: the slowdown during the seconds around
        that burst, where the run-wide median would miss a slow spell."""
        if not self.samples:
            raise RuntimeError("no reference burst was timed")
        half = window // 2
        n = len(self.samples)
        return [
            statistics.median(self.samples[max(0, i - half):min(n, i + half + 1)]) / self.nominal
            for i in range(n)
        ]
