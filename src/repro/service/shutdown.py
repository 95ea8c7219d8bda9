"""Graceful shutdown of the ATPG daemon.

The contract: a SIGTERM or SIGINT must never cost finished work.  The
:class:`ShutdownController` turns the first signal into a *graceful* stop —
the HTTP listener closes, the queue runner stops pulling jobs, and the
in-flight campaign's ``should_stop`` hook fires so the campaign raises
:class:`~repro.core.flow.CampaignInterrupted` at the next record (or, in a
serial run, fault) boundary.  Every record received up to that point is
already flushed to the job's JSONL journal (see
:mod:`repro.orchestrate.journal`), the job is marked ``interrupted`` in the
persisted table, and the next daemon start re-queues it with ``--resume``
semantics: already-recorded faults are not re-targeted and the merged result
is fingerprint-identical to an uninterrupted run.  A time-limited job keeps
no journal, so it starts over.

A second signal while the graceful stop is draining escalates to an
immediate ``os._exit`` — the journal's torn-tail tolerance makes even that
safe, it merely loses the faults that were in flight.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
from typing import Iterable, Optional


class ShutdownController:
    """Signal-to-shutdown bridge shared by the daemon's tasks.

    ``triggered`` is an :class:`asyncio.Event` the serve loop awaits;
    ``stopping`` is the flag the campaign executor thread polls through the
    campaign's ``should_stop`` hook (a plain attribute read — safe from
    any thread).
    """

    def __init__(self, hard_exit_on_repeat: bool = False) -> None:
        self.stopping = False
        self.reason: Optional[str] = None
        self.triggered = asyncio.Event()
        #: When True (the ``repro serve`` daemon), a second signal while the
        #: graceful stop drains escalates to ``os._exit``.  Embedded services
        #: (tests) keep the default False: repeat requests are no-ops.
        self.hard_exit_on_repeat = hard_exit_on_repeat
        self._installed: list = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def request(self, reason: str = "requested") -> None:
        """Begin a graceful shutdown (idempotent; thread-safe after install)."""
        if self.stopping:
            if self.hard_exit_on_repeat:
                sys.stderr.write("repro serve: second shutdown signal, exiting hard\n")
                sys.stderr.flush()
                os._exit(1)
            return
        self.stopping = True
        self.reason = reason
        if self._loop is not None and self._loop is not _running_loop():
            self._loop.call_soon_threadsafe(self.triggered.set)
        else:
            self.triggered.set()

    def install(
        self, loop: asyncio.AbstractEventLoop, signals: Iterable[int] = (signal.SIGTERM, signal.SIGINT)
    ) -> None:
        """Route the given signals into :meth:`request`.

        Only callable from the main thread (an asyncio restriction); the
        in-process test harness skips installation and calls
        :meth:`request` directly instead.
        """
        self._loop = loop
        for signum in signals:
            name = signal.Signals(signum).name
            loop.add_signal_handler(signum, self.request, name)
            self._installed.append(signum)

    def uninstall(self) -> None:
        """Remove the installed signal handlers."""
        if self._loop is None:
            return
        for signum in self._installed:
            self._loop.remove_signal_handler(signum)
        self._installed.clear()

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        """Remember the serve loop so cross-thread requests marshal correctly."""
        self._loop = loop


def _running_loop() -> Optional[asyncio.AbstractEventLoop]:
    try:
        return asyncio.get_running_loop()
    except RuntimeError:
        return None
