"""Run `docqa` commands for the benchmark, one forked process per command.

    python3 stage.py probe   print the monotonic time at which a fresh
                             interpreter finished importing docqa.cli, then
                             the time the calibration job took in it
    python3 stage.py serve   import docqa.cli once, then for each JSON command
                             read from stdin fork a child that runs
                             `docqa.cli.main(argv)`; reply with one JSON line

A command is {"argv", "trace", "result", "log", "pad"}. The child first
allocates "pad" small objects, then sends its output to "log" and writes to
"result" its clock readings (on the system-wide monotonic clock), CPU time,
peak RSS, exit code and the times the calibration job took right before and
right after the command; with "trace" set it first wraps the library's public
functions (tracer.py) and adds the spans and counters. Forking from an interpreter that already imported docqa keeps
interpreter start-up out of each stage's time; the probe measures it on its
own. The server starts no threads, so forking it is safe.

The calibration job is fixed pure-Python work that shares nothing with docqa.
On a shared host the CPU speed a process gets drifts by up to a factor of two,
over milliseconds as well as minutes; the job's time, taken next to each command, tells run.py the
speed that command ran at.

docqa is always imported from the `src/` directory next to this one.
"""

import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _import_cli():
    sys.path.insert(0, SRC)
    import docqa.cli

    if not os.path.abspath(docqa.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"docqa was imported from {docqa.cli.__file__}, not {SRC}")
    return docqa.cli


# The calibration job mixes the two kinds of work docqa's stages do most:
# building and sorting dicts of strings, and parsing JSON.
_CALIBRATION_JSON = json.dumps(
    [{"text": f"w{i}", "box": [i * 1.5, i * 0.5, i * 1.5 + 6, i * 0.5 + 10]} for i in range(300)]
)


def _calibrate() -> float:
    """Seconds the fixed calibration job takes in this process now."""
    start = time.perf_counter()
    table = {}
    for i in range(30000):
        table[str(i)] = i * i % 7
    sorted(table, key=table.get)
    for _ in range(20):
        json.loads(_CALIBRATION_JSON)
    return time.perf_counter() - start


def _child(cli, command) -> None:
    """Run one command in the forked child; never returns."""
    status = 1
    try:
        fd = os.open(command["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(fd, 1)
        os.dup2(fd, 2)
        os.close(fd)
        import resource

        # A different number of small objects before each command moves
        # where the command's own objects land in memory (run.py); they stay
        # alive until the child exits.
        _padding = [(i,) * (1 + i % 8) for i in range(command["pad"])]
        recorder = None
        missing = []
        if command["trace"]:
            import tracer

            recorder = tracer.Recorder()
            missing = tracer.install(recorder)
        argv = command["argv"]
        cal_before = _calibrate()
        cpu_start = time.process_time()
        start = time.monotonic()
        token = recorder.begin(f"cli.{argv[0]}") if recorder else None
        code = cli.main(argv)
        if recorder:
            recorder.end(token)
        end = time.monotonic()
        cal_after = _calibrate()
        result = {
            "cal_s": [cal_before, cal_after],
            "start": start,
            "end": end,
            "cpu_s": time.process_time() - cpu_start,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "code": code,
        }
        if recorder:
            result.update(spans=recorder.spans, counters=recorder.counters, missing=missing)
        with open(command["result"], "w", encoding="utf-8") as handle:
            json.dump(result, handle)
        status = 0
    except BaseException:
        import traceback

        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(status)


def serve() -> int:
    cli = _import_cli()
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        command = json.loads(line)
        pid = os.fork()
        if pid == 0:
            _child(cli, command)
        _, status = os.waitpid(pid, 0)
        print(json.dumps({"status": os.waitstatus_to_exitcode(status)}), flush=True)
    return 0


def probe() -> int:
    _import_cli()
    imported = time.monotonic()
    print(imported, _calibrate(), flush=True)
    return 0


if __name__ == "__main__":
    modes = {"serve": serve, "probe": probe}
    if len(sys.argv) != 2 or sys.argv[1] not in modes:
        raise SystemExit("usage: stage.py probe|serve")
    sys.exit(modes[sys.argv[1]]())
