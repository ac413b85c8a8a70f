"""The benchmark tracer must find every library name it wraps.

``perfbench/tracer.py`` wraps functions at the names their callers look up
(``cli.normal_frame``, ``rank.flow_arrays``, ...).  A renamed or dropped
import breaks only traced benchmark runs, so installing and removing the
tracer here turns it into a failure of this suite.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402
from sphererank import cli  # noqa: E402


def test_tracer_installs_and_uninstalls_on_the_current_names():
    main = cli.main
    t = tracer.Tracer()
    try:
        t.install()
        assert cli.main is not main
    finally:
        t.uninstall()
    assert cli.main is main
