"""A grammar fuzzer over the CLI: random specs built from every kind in
`cli._KINDS`, nested up to four combinators deep, through every subcommand
that takes a spec and every output format.

Every run must end in exit 0, 1 or 2 with at most one `error: ` line on
stderr, a repeat must print the same bytes, and a spec's canonical form
must parse back to the same spec.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomid.cli import _KINDS, main, parse_seqspec

SMALL_INT = st.integers(-3, 3)
SMALL_UINT = st.integers(0, 4)
NONZERO = st.integers(-9, -1) | st.integers(1, 9)
SEP = st.sampled_from(["", " "])

FILES = {
    "plain.txt": "1 2 3 4 6 12\n",
    "bfile.txt": "# A000027\n1 1\n2 2\n3 3\n4 4\n5 5\n",
    "zero.txt": "1 0 2\n",
    "gap.txt": "1 1\n3 3\n",
}


@pytest.fixture(scope="module")
def argvs(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs")
    for name, text in FILES.items():
        (path / name).write_text(text)
    paths = [str(path / name) for name in [*FILES, "missing.txt"]]
    return commands(spec_texts(paths))


def _arg(kind, paths, child=None):
    if kind == "spec":
        return child
    if kind == "path":
        return st.sampled_from(paths)
    if kind == "ints":
        return st.lists(NONZERO, min_size=1, max_size=7).map(
            lambda values: ",".join(map(str, values)))
    return (SMALL_UINT if kind == "uint" else SMALL_INT).map(str)


def _joined(parts, sep):
    return st.tuples(*parts, sep).map(lambda t: ("," + t[-1]).join(t[:-1]))


def spec_texts(paths):
    leaves, combinators = [], []
    for kind, (arg_kinds, _) in _KINDS.items():
        if "spec" in arg_kinds:
            combinators.append((kind, arg_kinds))
        elif not arg_kinds:
            leaves.append(st.just(kind))
        else:
            args = _joined([_arg(k, paths) for k in arg_kinds], SEP)
            leaves.append(args.map(lambda a, kind=kind: f"{kind}:{a}"))

    def extend(child):
        return st.one_of([
            st.tuples(_joined([_arg(k, paths, child) for k in arg_kinds], SEP), SEP)
            .map(lambda t, kind=kind: f"{kind}({t[1]}{t[0]}{t[1]})")
            for kind, arg_kinds in combinators])

    # at most 8 leaves: st.recursive nests `extend` at most 4 times
    return st.recursive(st.one_of(leaves), extend, max_leaves=8)


def commands(spec):
    def sized(name, flag, lo, hi, formats):
        return st.tuples(spec, st.integers(lo, hi),
                         st.sampled_from(formats)).map(
            lambda t: [name, t[0], flag, str(t[1]), "--format", t[2]])

    classify = st.tuples(
        spec, st.integers(1, 10), st.sampled_from(["text", "json"]),
        st.none() | st.integers(0, 3), st.none() | st.integers(2, 7), st.booleans(),
    ).map(lambda t: ["classify", t[0], "--bound", str(t[1]), "--format", t[2]]
          + ([] if t[3] is None else ["--levels", str(t[3])])
          + ([] if t[4] is None else ["--per-prime", str(t[4])])
          + (["--profile"] if t[5] else []))
    return st.one_of(
        sized("triangle", "--rows", 0, 6, ["text", "csv", "json"]),
        sized("pyramid", "--depth", 0, 4, ["text", "csv", "json"]),
        sized("invert", "--terms", 1, 10, ["text", "json"]),
        classify,
        st.tuples(st.sampled_from(["symmetry", "slice-identity"]), spec).map(
            lambda t: ["verify", t[0], t[1]]),
    )


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_random_commands_end_cleanly_and_repeat(argvs, data):
    argv = data.draw(argvs, label="argv")
    code, out, err = run(argv)
    assert code in (0, 1, 2)
    if err:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert run(argv) == (code, out, err)
    text = argv[2] if argv[0] == "verify" else argv[1]
    assert parse_seqspec(parse_seqspec(text).canonical()) == parse_seqspec(text)
