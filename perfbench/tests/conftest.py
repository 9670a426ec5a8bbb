import sys
from pathlib import Path

# the benchmark's modules sit beside run.py; the program is in the checkout
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))
