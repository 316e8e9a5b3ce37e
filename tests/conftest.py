import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# `pytest --hypothesis-profile=deep` runs each property that scales its examples by the
# profile's max_examples (100 by default) ten times as long
settings.register_profile("deep", max_examples=1000)
