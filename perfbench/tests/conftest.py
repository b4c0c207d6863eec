import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the benchmark's modules, and the program from this checkout's src/
for path in (BENCH, os.path.join(os.path.dirname(BENCH), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
