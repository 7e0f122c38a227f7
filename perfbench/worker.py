"""One benchmark pass in a fresh interpreter, as a cold braidcert CLI call sees it.

The job is the one argument, JSON: ``{"items": [[name, argv], ...], "spans": path or
null}``; a non-null ``spans`` turns tracing on and names the file the spans go to.
The worker imports ``braidcert.cli``, reads the job, prints ``ready`` and then runs each
item through ``braidcert.cli.main(argv)`` with stdout and stderr captured.  Its last
stdout line is a JSON object with the timings, exit codes and captured outputs.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import braidcert.cli as cli


def run_item(argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the item fails; the pass goes on
            traceback.print_exc()
            code = "exception"
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    job = json.loads(sys.argv[1])
    tracer = None
    if job["spans"] is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)

    items = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for name, argv in job["items"]:
        start = time.perf_counter()
        code, out, err = run_item(argv)
        items.append({"name": name, "seconds": time.perf_counter() - start,
                      "code": code, "stdout": out, "stderr": err})
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss_mb, "items": items}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(job["spans"])
        result["layers"] = tracer.summary()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
