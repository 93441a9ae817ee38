import sys
from pathlib import Path

# the harness modules live one level up and import each other by bare name
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
