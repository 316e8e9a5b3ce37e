import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import views  # noqa: E402,F401  (puts the per-item view names where the oracles import them)
