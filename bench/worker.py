"""Benchmark worker: one fresh process per pass.

Run as ``python3 worker.py <trace 0|1>`` with ``src`` on PYTHONPATH.  It
imports curvetorsion, installs the tracer when asked, prints a ready line,
starts timing the speed kernel (see ``calibrate.py``), then serves CLI
requests one at a time: each stdin line is
``{"id": i, "argv": [...]}`` and is answered by one stdout line with the exit
code and the captured output of ``curvetorsion.cli.main``.  An ``{"end": true}``
line ends the pass; the answer carries CPU time, peak RSS, the spans and
the kernel samples.
"""

import contextlib
import io
import json
import resource
import sys


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    proto = sys.stdout
    import curvetorsion  # the import is what set-up measures
    from curvetorsion import cli

    tracer = None
    if sys.argv[1] == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def send(msg):
        proto.write(json.dumps(msg) + "\n")
        proto.flush()

    send({"ready": True, "rss_mb": _maxrss_mb(), "module": curvetorsion.__file__})
    import calibrate  # after the ready line: not part of set-up

    samples = []
    calibrate.start(samples)
    cpu0 = _cpu_s()
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("end"):
            break
        if tracer is not None:
            tracer.request = msg["id"]
        out, err = io.StringIO(), io.StringIO()
        exc = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(msg["argv"])
        # Anything escaping main is a failed request; the worker keeps serving.
        except (Exception, SystemExit) as e:
            code, exc = None, f"{type(e).__name__}: {e}"
        send({"id": msg["id"], "code": code, "out": out.getvalue(), "err": err.getvalue()[-2000:], "exc": exc})
    calibrate.stop()
    send(
        {
            "end": True,
            "samples": samples,
            "cpu_s": _cpu_s() - cpu0,
            "rss_mb": _maxrss_mb(),
            "spans": tracer.spans if tracer is not None else [],
        }
    )


if __name__ == "__main__":
    main()
