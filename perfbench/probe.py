"""A fixed slice of interpreter work, timed next to each measurement.

On a virtual machine that shares its host with other work, the speed of
the interpreter drifts by a quarter or more over tens of seconds, for every
process alike.  Each timed unit is therefore bracketed by probes, and the
end-to-end times are reported at the reference speed: the measured time
multiplied by ``REFERENCE_S`` over the mean of the probes around (and, for
long units, during) it.  The probe uses only integers and one dict, with
the garbage collector paused, so the state of the program's heap does not
change its cost.
"""

from __future__ import annotations

import gc
import time

#: Probe time when the baseline was recorded (2-vCPU virtual machine, Python 3.11.7).
REFERENCE_S = 0.010

_ROUNDS = 40_000


def probe() -> float:
    """CPU seconds taken by the fixed slice of work.

    CPU time, so that a probe sharing the CPU with a timed child process
    measures the CPU's speed and not its share of it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        table: dict[int, int] = {}
        for i in range(_ROUNDS):
            key = i & 511
            table[key] = table.get(key, 0) + (i * i) // 7
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


def scale(probes: list[float]) -> float:
    """Factor taking a time measured between (and during) probes to the reference speed."""
    return REFERENCE_S * len(probes) / sum(probes)
