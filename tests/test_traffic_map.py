"""``scripts/traffic_map.py --check`` (``make unreached``): the pure diff
between the committed ``docs/unreached.txt`` and a run's unreached
functions.  A newly unreached function, a stale line and an unknown
reason each fail; an equal set passes, whatever the line numbers say."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "traffic_map.py"
_spec = importlib.util.spec_from_file_location("traffic_map", SCRIPT)
traffic_map = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traffic_map)

LISTING = """\
# a header line
src/repro/a.py:10: Comm.alltoall  api
src/repro/a.py:30: Comm.__repr__  debug
src/repro/b.py:5: helper  test-probe
"""
UNREACHED = [("src/repro/a.py", "Comm.alltoall"),
             ("src/repro/a.py", "Comm.__repr__"),
             ("src/repro/b.py", "helper")]


def check(listing, unreached):
    return traffic_map.ratchet(traffic_map.read_listing(listing), unreached)


def test_an_equal_set_passes_and_line_numbers_are_not_identity():
    assert check(LISTING, UNREACHED) == []
    moved = LISTING.replace("a.py:10:", "a.py:12:")
    assert check(moved, UNREACHED) == []


def test_a_newly_unreached_function_fails():
    run = UNREACHED + [("src/repro/b.py", "Engine.step")]
    assert check(LISTING, run) == [
        "newly unreached: src/repro/b.py: Engine.step"]


def test_a_stale_line_fails():
    run = UNREACHED[:2]                  # helper is reached now, or gone
    assert check(LISTING, run) == [
        "stale (reached or gone): src/repro/b.py: helper"]


def test_an_unknown_reason_fails():
    listing = LISTING.replace("helper  test-probe", "helper  misc")
    assert check(listing, UNREACHED) == [
        "unknown reason 'misc': src/repro/b.py: helper"]
    # what --write gives a new line until a word replaces it
    listing = LISTING.replace("helper  test-probe", "helper  ?")
    assert check(listing, UNREACHED) == [
        "unknown reason '?': src/repro/b.py: helper"]


def test_write_keeps_reasons_and_the_listing_reads_back():
    rows = [("src/repro/a.py", 11, "Comm.alltoall"),
            ("src/repro/c.py", 3, "fresh")]
    text = traffic_map.render_listing(
        rows, {("src/repro/a.py", "Comm.alltoall"): "api"})
    assert traffic_map.read_listing(text) == [
        ("src/repro/a.py", "Comm.alltoall", "api"),
        ("src/repro/c.py", "fresh", "?")]
    for word in traffic_map.REASONS:
        assert f"#   {word}" in text
