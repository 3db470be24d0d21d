"""Fixture consumer: reaches part of ``fixpkg``."""

import sys

from fixpkg.mod import Config, Widget, reached

Config(used=2)
widget = Widget()
assert widget.doubled == 4
assert Widget.helper() == 3
assert reached() == 5
sys.exit(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
