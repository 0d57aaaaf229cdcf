"""Lets the benchmark's self-tests import randset from the source tree:
python -m pytest perfbench"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
