"""hsplab benchmark: one workload per run, end to end or traced.

    python3 bench/run.py --workload order-dense --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; hsplab is imported from its `src/`
directory.  The workload's operations are generated from --seed and run in a
single-process closed loop: one operation at a time, the next only after the
previous returns.  The loop repeats whole passes over the operation list
until --seconds have elapsed and the workload's minimum sample count is
reached, so every run times the same mix.  Every answer is checked against
its brute-force reference, computed before the loop, and against the answer
and query count of the operation's first run; a wrong answer exits 3
without a result.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
passes with passes in which every public hsplab function is wrapped in a
span (see spans.py), each side for half of --seconds, checks that answers
and query counts agree, and prints the per-layer metrics and the tracing
overhead.  The last line of standard
output is the JSON result; a fuller record, with the machine fingerprint and
the seed, goes to bench/out/.
"""

import os

# Pin native thread pools before numpy loads, and run at the default
# dimension cap whatever the caller's environment says.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HSPLAB_CAP", None)

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    try:
        import hsplab
    except ImportError as exc:
        print(f"cannot import hsplab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(hsplab.__file__).resolve().parent != (SRC / "hsplab").resolve():
        print(f"hsplab imported from {hsplab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import harness

    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
