import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the benchmark's modules and the package source of this checkout
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
