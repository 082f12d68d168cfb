"""Event-camera theremin playground: spiking-flavored hand tracking,
graded-spike transport, and a fully simulated robot show.

Callers import from the module that defines a name; the package root
exposes only the show's two entry points."""

from .harness import load_config, run_show

__version__ = "0.1.0"
