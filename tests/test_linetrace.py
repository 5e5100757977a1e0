"""The list of lines that tests/linetrace.py expects never to run in
process stays true to the source.  Reads the list without running the
tracer."""

from linetrace import UNRUN, stale_entries


def test_every_unrun_entry_names_an_executable_line_of_its_function():
    assert UNRUN and all(reason for *_, reason in UNRUN)
    assert stale_entries() == []
