"""Run CLI children on request and report wall time and peak RSS.

Linux starts a child's peak-RSS counter at its parent's peak, so a CLI
child spawned from the benchmark process (hundreds of MB after the
gate) would report the benchmark's memory, not its own.  This small
process is started before the benchmark loads anything; it spawns each
child, waits for it with ``os.wait4`` and answers with the child's own
figures.  Stdlib only.

Protocol: one JSON request per stdin line,
``{"argv": [...], "env": {...}, "output": PATH}``; one JSON reply per
stdout line, ``{"elapsed_s": ..., "code": ..., "peak_rss_kib": ...}``.
The child's stdout and stderr both go to ``output``.  The process exits
when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


class Launcher:
    """Client side: runs this file as a child process and sends it requests."""

    def __init__(self, cwd: str) -> None:
        self._process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)], cwd=cwd,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list, env: dict, output: str) -> dict:
        """Run ``argv`` to completion; returns the reply described above."""
        assert self._process.stdin is not None and self._process.stdout is not None
        request = {"argv": argv, "env": env, "output": output}
        self._process.stdin.write(json.dumps(request) + "\n")
        self._process.stdin.flush()
        reply = self._process.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        return json.loads(reply)

    def close(self) -> None:
        """End the launcher and wait for it."""
        for stream in (self._process.stdin, self._process.stdout):
            if stream is not None:
                stream.close()
        self._process.wait(timeout=60)


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["output"], "wb") as output:
            actions = [
                (os.POSIX_SPAWN_DUP2, output.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, output.fileno(), 2),
            ]
            start = time.perf_counter()
            pid = os.posix_spawn(request["argv"][0], request["argv"],
                                 request["env"], file_actions=actions)
            _, status, usage = os.wait4(pid, 0)
            elapsed = time.perf_counter() - start
        reply = {"elapsed_s": elapsed, "code": os.waitstatus_to_exitcode(status),
                 "peak_rss_kib": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
