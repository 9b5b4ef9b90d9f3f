"""The oracle side of a run, in a process of its own.

The oracles need scipy, which the package never imports.  Running them in a
child process keeps scipy's import time and memory (about 27 MB) out of the
measured process, whose ``setup_s`` and ``peak_rss_mb`` are reported.  The
measured process hands over each round's items and outputs and waits for
the verdicts, so the two processes never compute at the same time.

The child is forked once per run, after the package is imported, and runs
the oracle-side methods of a workload (``inputs``, ``check``) on its own
copy of the workload, started afresh by ``reset``.
"""

import multiprocessing


def _serve(conn, parent_end, workload_cls, seed, workdir):
    # the fork copied the parent's end of the pipe; closing it here lets
    # recv() end with EOFError if the measured process dies
    parent_end.close()
    import oracles
    workload = None
    while True:
        request, *payload = conn.recv()
        if request == "stop":
            return
        if request == "reset":
            workload = workload_cls(seed, workdir)
            conn.send(None)
        elif request == "inputs":
            conn.send(workload.inputs())
        elif request == "check":
            verdicts = []
            for item, output in zip(*payload):
                try:
                    workload.check(item, output)
                    verdicts.append(None)
                except oracles.CheckFailed as exc:
                    verdicts.append((str(exc), isinstance(exc, oracles.MissingWitness)))
            conn.send(verdicts)


class OracleProcess:
    """Client of the oracle process of one workload run."""

    def __init__(self, workload_cls, seed, workdir):
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_serve,
                                 args=(child, self._conn, workload_cls, seed, workdir))
        self._proc.start()
        child.close()

    def _ask(self, *request):
        self._conn.send(request)
        return self._conn.recv()

    def reset(self):
        """Start the oracle side's workload afresh, as a set-up pass does."""
        self._ask("reset")

    def inputs(self):
        """The next round's ``(kind, ensemble, index)`` triples."""
        return self._ask("inputs")

    def check(self, items, outputs):
        """Per item, None or ``(reason, missing_witness)``."""
        return self._ask("check", items, outputs)

    def close(self):
        if self._proc.is_alive():
            try:
                self._conn.send(("stop",))
            except OSError:
                pass
        self._proc.join(timeout=10)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._conn.close()
