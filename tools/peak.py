"""Run one ``codebounds`` command in a child process and print its wall time
and peak resident memory: the measurement behind every limit that README
and the ``MAX_*`` comments state.

Usage, from the repository root::

    python tools/peak.py [--src DIR] ARGS...
    python tools/peak.py [--src DIR] -c CODE

ARGS are the command's arguments, as they follow ``codebounds``.  The child
runs ``python -m codebounds.cli ARGS``, or ``python -c CODE`` for a library
call that no command makes, with DIR (by default this checkout's ``src``)
first on its PYTHONPATH, so one copy of this tool measures any tree.  The
child's stdout is thrown away and its stderr passed through.
Prints one line: the wall seconds from the child's start to its exit, and
its peak resident set, ``ru_maxrss`` of ``resource.getrusage(RUSAGE_CHILDREN)``
(kB on Linux), in MB of 2^20 bytes.  Exits with the child's exit code.
"""

import os
import resource
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv) -> int:
    src = SRC
    if argv[:1] == ["--src"]:
        src, argv = os.path.abspath(argv[1]), argv[2:]
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    start = time.perf_counter()
    command = argv if argv[0] == "-c" else ["-m", "codebounds.cli", *argv]
    code = subprocess.call([sys.executable, *command], env=env, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"wall {wall:.2f} s  peak {peak:.0f} MB  exit {code}  {' '.join(argv)}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
