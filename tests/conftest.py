import os
import sys

HERE = os.path.dirname(__file__)
sys.path.insert(0, HERE)
# the source tree is a fallback, appended after site-packages: a single test
# file runs without PYTHONPATH, and an installed mnseries still wins
sys.path.append(os.path.join(os.path.dirname(HERE), "src"))
