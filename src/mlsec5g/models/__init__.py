"""Self-contained learners: forest, feedforward network, online recurrent.

Import each name from its module: `base`, `forest`, `network` or
`recurrent`. The two bound here are the ones `tests/test_acceptance.py`, the
fixed acceptance gate, imports through the package.
"""

from .base import ModelSpec
from .recurrent import init_online
