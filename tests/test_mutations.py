"""Mutated fixtures through every subcommand: a run on malformed input
exits 0, or exits 2 naming the file and line or the data at fault; it never
ends in a traceback."""
from __future__ import annotations

import io
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from corefkit.cli import main
from support import DATA

GOLD = DATA / "score" / "gold" / "en_pairset-corefud-dev.conllu"
# Each fixture under the name its mutated copy is written as, and the gold
# file it is scored against. basic.conllu's copy names a language that the
# word-order table has.
FIXTURES = {
    "es_basic.conllu": (DATA / "basic.conllu", DATA / "basic.conllu"),
    "en_pairset.conllu": (DATA / "score" / "pred" / "en_pairset.conllu",
                          GOLD),
}
LINES = {name: source.read_text(encoding="utf-8").splitlines()
         for name, (source, _) in FIXTURES.items()}

HUGE = "1" * 5000  # more digits than int() reads by default
# Cells a mutation may write besides the fixture's own: ids, heads, DEPS
# and Entity values that are malformed or name what is not there.
CELLS = ("", "_", "0", "1", "2", "9", "-1", "01", "x", "1-2", "2-1", "1.1",
         "1.2", "0:root", "9:nsubj", "Entity=", "Entity=(e1-x-1-",
         "Entity=e1)", "Entity=(e1-x-9-)", "Entity=(e1[1/2]-x-1-)",
         "Entity=e1[2/2])", "Entity=(e1-x-1-)|Entity=(e2-x-1-)", HUGE,
         f"1-{HUGE}", f"1.{HUGE}", f"Entity=(e1[1/{HUGE}]-x-1-)")
LINE_POOL = ("", "# newdoc id = other", "# global.Entity = eid-etype",
             "# sent_id = again", "1\tonly\tfour\tcells")


@st.composite
def mutants(draw) -> tuple[str, str]:
    """(name, text) of a fixture whose 1 to 3 lines or cells were
    replaced, deleted or duplicated."""
    name = draw(st.sampled_from(sorted(FIXTURES)))
    lines = list(LINES[name])
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(("replace", "delete", "duplicate")))
        cells = lines[i].split("\t")
        if len(cells) > 1 and draw(st.booleans()):
            j = draw(st.integers(0, len(cells) - 1))
            if action == "replace":
                cells[j] = draw(st.sampled_from(CELLS) | st.sampled_from(
                    [cell for line in lines for cell in line.split("\t")]))
            elif action == "delete":
                del cells[j]
            else:
                cells.insert(j, cells[j])
            lines[i] = "\t".join(cells)
        elif action == "replace":
            lines[i] = draw(st.sampled_from(LINE_POOL + tuple(lines)))
        elif action == "delete":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return name, "\n".join(lines) + "\n"


def _cell_replaced(name: str, *edits: tuple[int, int, str]
                   ) -> tuple[str, str]:
    """The fixture with the cell of each (1-based line, column, value)
    edit replaced by value."""
    lines = list(LINES[name])
    for line, column, value in edits:
        cells = lines[line - 1].split("\t")
        cells[column] = value
        lines[line - 1] = "\t".join(cells)
    return name, "\n".join(lines) + "\n"


# file:line, or an error that names the dataset or document at fault
_NAMED = re.compile(
    r"corefkit: error: (?:\S+:[1-9][0-9]*: "
    r"|[\w.]+: (?:duplicate doc ids|system output (?:misses|has unknown) "
    r"document)|document ids differ|sentence segmentation differs"
    r"|token counts per sentence differ|no word order configured)")


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(mutants())
# HEAD, range end, empty-node index, part count, DEPS head of an empty node
# and annotated head, each 5,000 digits long
@example(_cell_replaced("en_pairset.conllu", (5, 6, HUGE)))
@example(_cell_replaced("en_pairset.conllu", (5, 0, f"1-{HUGE}")))
@example(_cell_replaced("es_basic.conllu", (30, 0, f"1.{HUGE}")))
@example(_cell_replaced("en_pairset.conllu",
                        (5, 9, f"Entity=(s1[1/{HUGE}]-person-1-)")))
@example(_cell_replaced("es_basic.conllu", (30, 8, f"{HUGE}:nsubj")))
@example(_cell_replaced("es_basic.conllu",
                        (5, 9, f"Entity=(e1-thing-{HUGE}-")))
# a two-part mention whose second part is in the next sentence
@example(_cell_replaced("en_pairset.conllu",
                        (5, 9, "Entity=(s1[1/2]-person-1-)"),
                        (13, 9, "Entity=(s1[2/2])")))
def test_a_mutated_file_exits_0_or_names_its_fault(mutant):
    name, text = mutant
    source, gold = FIXTURES[name]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "gold").mkdir()
        (root / "gold" / name).write_bytes(gold.read_bytes())
        path = root / "pred" / name
        path.parent.mkdir()
        path.write_text(text, encoding="utf-8")
        pair = ["--gold", str(root / "gold"), "--pred", str(root / "pred")]
        export = ["export-features", str(path), "--out", str(root / "out"),
                  "--word-order", str(DATA / "word_order.tsv")]
        for argv in (["validate", str(path)], ["analyze", str(path)],
                     export, [*export, "--target", "spans"],
                     ["score", *pair], ["score", *pair, "--match", "head"],
                     ["errors", *pair, "--detail"]):
            code, err = _run(argv)
            assert code in (0, 2), (argv, err)
            assert code == 0 or _NAMED.match(err), (argv, err)
