import sys
from pathlib import Path

# The benchmark's modules live flat in perfbench/, next to run.py.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
