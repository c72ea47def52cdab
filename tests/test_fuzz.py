"""Robustness of the CLI on token-mutated sample files: cell complexes,
triangulations and point files.

Every input ends with exit 0, or with exit 1 or 2 and exactly one
``E_<CODE>:`` line on stderr; never with a traceback.
"""

import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from surfclass.cli import run

SAMPLES = {
    kind: sorted((Path(__file__).parent.parent / "samples").glob(f"*.{kind}"))
    for kind in ("cc", "tri")
}
VERBS = ["classify", "validate", "normalize", "homology", "refine"]
# tokens of both file kinds, plus near misses of the syntax
EXTRA = [
    "face", "triangle", "surface", ":", "a", "a'", "b", "b'", "x", "x''",
    "'", "#", "9x", "_g1", "A", "a:b", "c", "d", "e", "\n",
]
# near misses of the 'x,y' syntax
POINT_EXTRA = [",", "nan", "1e999", "#", "\r", " ", "  ", "0.5", "-1", "1,1", "2,"]
POINTS = Path(__file__).parent.parent / "samples" / "square.pts"
CODED = re.compile(r"E_[A-Z_]+: ")


def mutate(text, edits):
    lines = [line.split(" ") for line in text.splitlines()]
    for op, i, j, extra in edits:
        line = lines[i % len(lines)]
        k = j % len(line)
        if op == "delete":
            del line[k]
        elif op == "duplicate":
            line.insert(k, line[k])
        elif op == "replace":
            line[k] = extra
        elif op == "insert":
            line.insert(k, extra)
        elif op == "clone":  # a copy of the line, one token replaced
            lines.append(line[:k] + [extra] + line[k + 1:])
        else:  # move a whole line
            lines.insert(j % len(lines), lines.pop(i % len(lines)))
        if not line:
            line.append("")
    return "\n".join(" ".join(line) for line in lines) + "\n"


def edits(extra):
    return st.lists(
        st.tuples(
            st.sampled_from(["delete", "duplicate", "replace", "insert", "clone", "move"]),
            st.integers(0, 20),
            st.integers(0, 20),
            st.sampled_from(extra),
        ),
        min_size=1,
        max_size=4,
    )


def assert_exits_cleanly(argv, capsys, text):
    code = run(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv[0], text)
    assert "Traceback" not in err
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and CODED.match(lines[0]), (argv[0], text, err)


SETTINGS = settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.mark.parametrize("kind", sorted(SAMPLES))
@pytest.mark.parametrize("verb", VERBS)
@SETTINGS
@given(data=st.data(), edits=edits(EXTRA))
def test_mutated_samples_exit_cleanly(tmp_path, capsys, verb, kind, data, edits):
    sample = data.draw(st.sampled_from(SAMPLES[kind]))
    path = tmp_path / sample.name
    path.write_text(mutate(sample.read_text(encoding="utf-8"), edits), encoding="utf-8")
    assert_exits_cleanly([verb, str(path)], capsys, path.read_text())


@pytest.mark.parametrize("verb", ["hausdorff", "winding"])
@SETTINGS
@given(edits=edits(POINT_EXTRA))
def test_mutated_point_files_exit_cleanly(tmp_path, capsys, verb, edits):
    path = tmp_path / POINTS.name
    path.write_text(mutate(POINTS.read_text(encoding="utf-8"), edits), encoding="utf-8")
    rest = [str(POINTS)] if verb == "hausdorff" else ["--point", "0.5,0.25"]
    assert_exits_cleanly([verb, str(path), *rest], capsys, path.read_text())
