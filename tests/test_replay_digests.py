"""The golden store is whole, and the tool that checks it fails loudly.

``tests/golden/replay.txt`` holds one line per ``tools/replay_digests.py``
invocation, in the tool's order, and ``replay/`` each one's stdout;
``pins/<module>.txt`` holds what the ``golden`` fixture compares against.
EXPERIMENTS.md embeds stdouts of the store, verbatim, and README.md links
into its headings.  Nothing here runs a simulation.
"""

import hashlib
import importlib.util
import re
from pathlib import Path

import pytest

from repro.sim.kernel import Environment
from tests.conftest import PINS, read_pins

pytestmark = pytest.mark.hashseed

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "replay_digests", ROOT / "tools" / "replay_digests.py")
replay_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay_digests)


# -- the replay store -------------------------------------------------------

def test_replay_lines_are_the_tools_invocations_in_order():
    assert list(replay_digests.read_store()) == replay_digests.INVOCATIONS


def test_each_stdout_hashes_to_its_line():
    store = replay_digests.read_store()
    for invocation, (index, line, text) in store.items():
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert f" stdout={digest} " in line, invocation
    stored = sorted(path.name
                    for path in Path(replay_digests.STDOUTS).iterdir())
    assert stored == sorted(replay_digests.stdout_name(index, invocation)
                            for invocation, (index, *_) in store.items())


# -- EXPERIMENTS.md is rendered from the store -----------------------------

EXPERIMENTS = Path(replay_digests.EXPERIMENTS)
#: The invocations whose stdouts are the paper-facing tables.
FULL_SCALE = ["table1", "fig1", "fig2", "fig3", "ablation"]


def test_every_block_is_its_stored_stdout_byte_for_byte():
    document = EXPERIMENTS.read_text(encoding="utf-8")
    assert replay_digests.BLOCK.search(document)
    assert replay_digests.render(document) == document


def test_a_marker_naming_no_stored_stdout_fails():
    with pytest.raises(replay_digests.ReplayError,
                       match="no tests/golden/replay/99-fig9.stdout.txt"):
        replay_digests.render(
            "<!-- golden 99-fig9 -->\n```text\n```\n<!-- /golden -->\n")


@pytest.mark.parametrize("document", [
    "<!-- golden 00-fig1 -->\n```text\n",
    "<!-- golden 00-fig1 -->\n```text\n\n"
    "<!-- golden 01-fig2 -->\n```text\n```\n<!-- /golden -->\n",
], ids=["unclosed", "swallows-the-next-block"])
def test_a_marker_without_its_block_fails(document):
    with pytest.raises(replay_digests.ReplayError, match="opens no"):
        replay_digests.render(document)


def test_each_full_scale_stdout_is_embedded():
    embedded = {match[2] for match in replay_digests.BLOCK.finditer(
        EXPERIMENTS.read_text(encoding="utf-8"))}
    store = replay_digests.read_store()
    for invocation in FULL_SCALE:
        name = replay_digests.stdout_name(store[invocation][0], invocation)
        assert name.removesuffix(".stdout.txt") in embedded, invocation


def _anchors(markdown: str) -> set:
    """The heading anchors GitHub gives ``markdown``: lower case, every
    character but letters, digits, ``_``, ``-`` and spaces dropped,
    spaces to hyphens, and ``-1``, ``-2`` ... on repeats."""
    anchors, fenced = set(), False
    for line in markdown.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and re.match(r"#{1,6} ", line):
            slug = re.sub(r"[^\w\- ]", "", line.lstrip("#").strip().lower())
            slug = base = slug.replace(" ", "-")
            repeat = 0
            while slug in anchors:
                repeat += 1
                slug = f"{base}-{repeat}"
            anchors.add(slug)
    return anchors


def test_every_readme_link_into_experiments_resolves():
    links = re.findall(r"\(EXPERIMENTS\.md#([^)\s]+)\)",
                       (ROOT / "README.md").read_text(encoding="utf-8"))
    assert links
    anchors = _anchors(EXPERIMENTS.read_text(encoding="utf-8"))
    assert [link for link in links if link not in anchors] == []


# -- the pins ---------------------------------------------------------------

def _golden_tests(session, module: str) -> set:
    """The ids, as the ``golden`` fixture names them, of the tests in
    ``tests/<module>.py`` that take it."""
    ids, pending = set(), [pytest.Module.from_parent(
        session, path=ROOT / "tests" / f"{module}.py")]
    while pending:
        node = pending.pop()
        if isinstance(node, pytest.Item):
            if "golden" in node.fixturenames:
                ids.add(node.nodeid.partition("::")[2])
        else:
            pending.extend(node.collect())
    return ids


def test_every_pinned_module_has_a_pins_file():
    assert sorted(f"tests/{path.stem}.py" for path in PINS.glob("*.txt")) \
        == replay_digests.pinned_test_modules()


@pytest.mark.parametrize("module", sorted(path.stem
                                          for path in PINS.glob("*.txt")))
def test_every_entry_is_read_and_every_reader_has_one(module, request):
    tests = _golden_tests(request.session, module)
    entries = read_pins(PINS / f"{module}.txt")

    def owns(test, name):
        return name == test or name.startswith(f"{test}/")

    assert [name for name in entries
            if not any(owns(test, name) for test in tests)] == []
    assert [test for test in tests
            if not any(owns(test, name) for name in entries)] == []


# -- the tool fails loudly --------------------------------------------------

def test_an_unknown_campaign_names_the_legal_ones(tmp_path):
    with pytest.raises(replay_digests.ReplayError,
                       match=r"'fig9 --quick': no campaign 'fig9'; the "
                             r"campaigns are ablation, adaptive, .*, tail$"):
        replay_digests.replay("fig9 --quick", str(tmp_path), 0)


def test_a_usage_error_aborts_with_its_message(tmp_path):
    plain_init = Environment.__init__
    with pytest.raises(replay_digests.ReplayError,
                       match="unrecognized arguments: --quik"):
        replay_digests.replay("fig1 --quik", str(tmp_path), 0)
    assert Environment.__init__ is plain_init


def test_a_campaigns_own_exit_code_is_a_result(tmp_path, monkeypatch):
    """An oracle gate's non-zero exit is what the campaign did: recorded
    in the line, not an abort."""
    from repro.core import cli

    def gate_fails(argv):
        print("violations: 1")
        return 1

    monkeypatch.setattr(cli, "main", gate_fails)
    line, text = replay_digests.replay("fig1 --quick", str(tmp_path), 0)
    assert line.startswith("fig1 --quick | exit=1 envs=0 events=0 ")
    assert text == "violations: 1\n"


@pytest.mark.parametrize("seed", [None, "1"])
@pytest.mark.parametrize("argv", [[], ["--update"]])
def test_check_and_update_need_hash_seed_zero(argv, seed, monkeypatch,
                                              capsys):
    if seed is None:
        monkeypatch.delenv("PYTHONHASHSEED", raising=False)
    else:
        monkeypatch.setenv("PYTHONHASHSEED", seed)
    assert replay_digests.main(argv) == 2
    assert "PYTHONHASHSEED=0" in capsys.readouterr().err


def test_update_re_records_every_invocation_or_none():
    with pytest.raises(SystemExit):
        replay_digests.main(["--update", "fig1 --quick"])


def test_a_bad_invocation_stops_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PYTHONHASHSEED", "0")
    monkeypatch.setenv("REPRO_CELL_CACHE", str(tmp_path))
    assert replay_digests.main(["fig1 --quik", "fig1 --quick"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --quik" in captured.err


def test_a_moved_stdout_is_shown_as_a_diff():
    invocation = replay_digests.INVOCATIONS[0]
    index, line, text = replay_digests.read_store()[invocation]
    moved = text.replace("\n", " \n", 1)
    moved_line = line.replace(
        hashlib.sha256(text.encode()).hexdigest(),
        hashlib.sha256(moved.encode()).hexdigest())
    assert replay_digests._differences(line, text, (index, line, text)) == ""
    diff = replay_digests._differences(moved_line, moved, (index, line, text))
    assert diff.startswith(f"- {line}\n+ {moved_line}\n")
    assert "--- tests/golden/replay/00-fig1.stdout.txt\n+++ this run\n" in diff
    assert f"-{text.splitlines()[0]}\n+{text.splitlines()[0]} \n" in diff
    # A stored stdout edited by hand differs from the run that matches
    # its line.
    assert replay_digests._differences(line, text, (index, line, moved)) \
        .startswith("--- tests/golden/replay/00-fig1.stdout.txt\n")
