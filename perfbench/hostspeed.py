"""Host speed, timed alongside the program, to turn seconds into reference seconds.

The benchmark's host shares its cores and caches with other tenants, and
its speed drifts by 25-40% over tens of seconds.  Process CPU time drifts
with it, so neither wall nor CPU time of the same code repeats from one
minute to the next.  `loop` is a fixed piece of pure-Python work: random
lookups in a table much larger than the L2 cache, which is what the other
tenants slow down most.  Timing it next to the program gives the host's
speed at that moment, and the benchmark's times are given in reference
seconds: the seconds the same work would take while `loop` takes
REF_LOOP_S.  A change to the program moves reference seconds as it moves
wall seconds; a change of host speed moves both the program and `loop`,
and cancels.  README.md (Noise) gives the measurements behind this choice.
"""
import gc
import resource
from time import perf_counter

REF_LOOP_S = 0.0006  # about loop()'s time on a 2-core Xeon VM at its fastest
INTERVAL_S = 0.05  # wall time between samples while a pass runs
TABLE_ROWS = 300_000

_KEYS: list = []
_ROWS: dict = {}


def build_table() -> float:
    """Build the table `loop` reads; return the MB of RSS it added.

    Its tuples hold only ints and strs, so one collection untracks them,
    and the cyclic GC does not walk them while the program runs.
    """
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _KEYS[:] = [str(i) for i in range(TABLE_ROWS)]
    _ROWS.update((k, (i, i * 7 % 1009, k)) for i, k in enumerate(_KEYS))
    gc.collect()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024


def loop() -> int:
    """Fixed work: 3000 lookups at pseudo-random rows of the table."""
    acc = 0
    j = 12345
    for _ in range(3000):
        j = (j * 1103515245 + 12345) % TABLE_ROWS
        acc += _ROWS[_KEYS[j]][1]
    return acc


def time_loop() -> float:
    """Time one `loop`, with the cyclic GC held off so that no collection of
    the program's objects lands inside it."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    loop()
    elapsed = perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def reference_s(seconds: float, loop_times: list[float]) -> float:
    """`seconds` measured while `loop` took `loop_times`, in reference seconds."""
    return seconds * REF_LOOP_S * len(loop_times) / sum(loop_times)


class Sampler:
    """Time `loop` at the start, every INTERVAL_S (on SIGALRM) and at the end.

    The mean loop time stands for the host speed over the whole pass.  The
    signal waits for a running C call (a numpy kernel) to return, so the
    samples are only roughly evenly spaced.  The time spent in `loop`
    itself is left out of the measured time.
    """

    def __enter__(self) -> "Sampler":
        import signal
        self._signal = signal
        self.loop_times: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        self._t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self._signal.setitimer(self._signal.ITIMER_REAL, 0)
        self._elapsed = perf_counter() - self._t0
        self._signal.signal(self._signal.SIGALRM, self._previous)
        self._sample()

    def _sample(self, *_) -> None:
        self.loop_times.append(time_loop())

    def result(self) -> tuple[float, float]:
        """(measured seconds, reference seconds) of the pass, without the loops."""
        measured = self._elapsed - sum(self.loop_times[1:-1])
        return measured, reference_s(measured, self.loop_times)
