"""User-mode instructions retired by this process, from the CPU's counters.

On a shared host, wall time of the same call moves with the load other
tenants put on the caches and memory: the instructions a call retires stay
the same while the cycles it needs change.  The benchmark therefore gates on
instruction counts and reports wall time beside them.

The counter is opened with ``perf_event_open(2)`` for this process only and
counts user mode only, which an unprivileged process may do under the
kernel's default ``perf_event_paranoid`` setting of 2.
"""
from __future__ import annotations

import ctypes
import os
import platform
import struct

# perf_event_open syscall numbers; other architectures are not supported
SYSCALLS = {"x86_64": 298, "aarch64": 241}
PERF_TYPE_HARDWARE = 0
PERF_COUNT_HW_INSTRUCTIONS = 1
EXCLUDE_KERNEL = 1 << 5
EXCLUDE_HV = 1 << 6
# each read gives the count, the time enabled and the time running
READ_FORMAT = 1 | 2  # PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING
ATTR_SIZE = 128


class CounterUnavailable(RuntimeError):
    pass


class InstructionCounter:
    """A running count of the user-mode instructions this process retires."""

    def __init__(self) -> None:
        number = SYSCALLS.get(platform.machine())
        if number is None:
            raise CounterUnavailable(f"perf_event_open is not wired up for {platform.machine()}")
        attr = bytearray(ATTR_SIZE)
        struct.pack_into("IIQQQQQ", attr, 0, PERF_TYPE_HARDWARE, ATTR_SIZE,
                         PERF_COUNT_HW_INSTRUCTIONS, 0, 0, READ_FORMAT, EXCLUDE_KERNEL | EXCLUDE_HV)
        syscall = ctypes.CDLL(None, use_errno=True).syscall
        syscall.restype = ctypes.c_long
        # syscall(2) is variadic, so every argument is passed as a long
        pid, cpu, group_fd, flags = 0, -1, -1, 0  # this process, any CPU, no group
        fd = syscall(ctypes.c_long(number), (ctypes.c_char * ATTR_SIZE).from_buffer(attr),
                     ctypes.c_long(pid), ctypes.c_long(cpu), ctypes.c_long(group_fd),
                     ctypes.c_long(flags))
        if fd < 0:
            err = ctypes.get_errno()
            raise CounterUnavailable(f"perf_event_open for instructions failed: {os.strerror(err)}")
        self.fd = fd

    def read(self) -> int:
        return self._read()[0]

    def check_exclusive(self) -> None:
        """Raise if the kernel ever took the counter away (multiplexing): the
        count would then miss instructions."""
        _value, enabled, running = self._read()
        if running != enabled:
            raise CounterUnavailable(f"instruction counter ran {running} of {enabled} ns")

    def close(self) -> None:
        os.close(self.fd)

    def _read(self) -> tuple[int, int, int]:
        return struct.unpack("QQQ", os.read(self.fd, 24))
