"""Fixed glibc malloc thresholds for the process.

The solvers' per-call temporaries are arrays of 0.1-2 MB at Fock cutoff 1
(a batch's generator values and index arrays, Krylov bases, trajectory
stacks).  glibc serves a block that large by ``mmap`` or from the heap
according to a threshold that it raises whenever a mapped block is freed,
and returns the top of the heap to the system past a trim threshold that
follows it.  Where the two sit therefore depends on the allocation history
of the process: on the bench ``map`` workload (2 vCPUs) one process
re-faulted about 3,300 fresh zeroed pages per 60-point sweep call (4-8 ms
of kernel time in a 60-70 ms call), another one none.  Fixed
at the ceiling the dynamic rule can reach (a 32 MiB ``mmap`` threshold,
trim at twice that), every call reuses the heap pages of the one before.
"""

from __future__ import annotations

import ctypes

# mallopt parameter numbers of glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# glibc's DEFAULT_MMAP_THRESHOLD_MAX on 64-bit systems
MMAP_THRESHOLD = 32 << 20


def fix_malloc_thresholds() -> bool:
    """Set glibc's ``mmap`` threshold to ``MMAP_THRESHOLD`` and its trim
    threshold to twice that, which also stops their dynamic adjustment.
    Returns whether both were set; False where the C library has no
    ``mallopt`` or refuses the values (musl, macOS, Windows)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD) == 1)
