"""Two-source Mandel-dip simulator and analysis toolkit."""

__version__ = "0.1.0"

from . import analysis, detect, fock, optics, pdc, runner  # noqa: F401
