"""Known-bad fixture: environment reads that default to the parameter (SL103).

Unset, each read returns its default in every run, so rerunning the flows
under other hash seeds cannot tell them apart from clean code; only the
rule sees them.
"""

import os
from os import environ


def fanout(default):
    return int(os.environ.get("REPRO_SHELL_FANOUT", default))  # SL103


def wave_size(default):
    return int(environ.get("REPRO_WAVE_SIZE", default))  # SL103: bare import


def campus():
    return environ["REPRO_CAMPUS"]  # SL103: bare import, subscript
