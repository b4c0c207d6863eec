"""One benchmark repetition in a fresh process.

    python3 perfbench/worker.py [--setup-only] [--spans FILE] -- ARGV...

``ARGV`` is a ``finemo train-eval`` command line. The worker imports
``finemo`` from this checkout's ``src/`` only and times that import plus
``load_lexicons`` on ARGV's ``--lexicons`` directory as the set-up. Unless
``--setup-only`` is given it then times one call of ``finemo.cli.main(ARGV)``.
With ``--spans`` the call is traced and the spans are written to FILE when
the run ends, together with the counters of the trace and the dimensions of
the vocabulary the run writes to ARGV's ``--out`` directory. Prints one JSON
object as its last line of standard output; the ``*_t0``/``*_t1`` fields are
``time.perf_counter()`` readings, which the host-speed probe shares.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _vocabulary_dims(path: str) -> dict:
    """Total feature dimension and retained columns, read with the program's
    own vocabulary model."""
    features = importlib.import_module("finemo.features")
    with open(path, encoding="utf-8") as fh:
        vm = features.VocabularyModel.from_json(fh.read())
    mask = vm.selection_mask
    return {"total_dim": vm.total_dim, "retained": vm.total_dim if mask is None else len(mask)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    sys.path.insert(0, SRC)

    setup_t0 = time.perf_counter()
    cli = importlib.import_module("finemo.cli")
    lexicons = importlib.import_module("finemo.lexicons")
    lexicons.load_lexicons(_option(argv, "--lexicons"))
    setup_t1 = time.perf_counter()
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"finemo imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = {"setup_t0": setup_t0, "setup_t1": setup_t1}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    recorder = None
    if args.spans:
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        call_t0 = time.perf_counter()
        rc = cli.main(argv)
        call_t1 = time.perf_counter()

    result.update(
        rc=rc,
        call_t0=call_t0,
        call_t1=call_t1,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if recorder is not None:
        recorder.restore()
        recorder.write(args.spans)
        result["counters"] = dict(recorder.counters)
        result["nnz"] = recorder.nnz()
        result["drift_resets"] = recorder.drift_resets()
        result.update(_vocabulary_dims(os.path.join(_option(argv, "--out"), "vocabulary.json")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
