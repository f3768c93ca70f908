"""Spec and argv mutation fuzzer for the CLI.

Each example takes a spec text of the zoo or `perfbench/specs/s2xs2.spec`, or a zoo fixture
by name, mutates it (a line deleted or duplicated, or a key given a hostile value) and its
argv (`--h`, `--q` and `--tol-d1` overrides with hostile values too), and runs
`metallicgeo.cli.main` in-process with every warning an error. It checks that:

* no exception or warning escapes `main` (argparse's own exit 2 counts as an exit code);
* the exit code is 0-3;
* exit 1, "an asserted identity failed", comes only from rows whose gate admits the bundle:
  a bundle outside a row's hypothesis class skips the row, never fails it.

An exit 1 on a bundle the gates admit is not a fault of the gate rule; such a run is a
finding about the row or the settings (a step too small, say), not a reason to loosen it.
Examples are derandomized; the test takes ~2 s on a 2-core machine.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from metallicgeo import cli, connections, identities, zoo
from metallicgeo.metallic import Identity

S2XS2 = Path(__file__).resolve().parents[1] / "perfbench" / "specs" / "s2xs2.spec"
SPECS = {name: zoo.get(name).spec_text for name in zoo.names() if zoo.get(name).spec_text}
SPECS["s2xs2"] = S2XS2.read_text(encoding="utf-8")
# the last two: nesting past the parser's limit, and a chain of 1500 + whose value is 1
HOSTILE = ("nan", "inf", "-inf", "1e400", "1/0", "ln(0)", "sqrt(-1)", "exp(1000)", "1e5",
           "1e-320", "-1", "0", "(", "x9", "1e-14", "(" * 3000 + "1" + ")" * 3000,
           "+".join(["0*x0"] * 1500 + ["1"]))
FLAGS = ("--h", "--q", "--tol-d1")

# The gate of every row an asserted result can come from: the rows of the `identities`
# tables, and those that checks and the connections suite build themselves or leave
# ungated in their tables.
_TABLE_GATES = {row.id: row.gate for table in vars(identities).values()
                if isinstance(table, tuple) and table
                and all(isinstance(row, Identity) for row in table) for row in table}


GATES = {
    **_TABLE_GATES,
    "divergence-ricci-chain": identities.not_nearly,
    "scalar-star-relation": identities.not_nearly,
    "ricci-omega-trace-zero": identities.not_nearly,
    **{row.id: identities.not_hermitian for row in connections.FIRST_TYPE_IDENTITIES},
    **{row.id: connections.no_second_type for row in connections.SECOND_TYPE_SKEW
       + connections.SECOND_TYPE_LEVI + connections.SECOND_TYPE_NEARLY},
    "second-type-deformation-ratio": connections.no_second_type,
}


@st.composite
def mutated_spec(draw) -> str:
    lines = SPECS[draw(st.sampled_from(sorted(SPECS)))].splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(("delete", "duplicate", "hostile")))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif "=" in lines[i]:
        lines[i] = lines[i].split("=", 1)[0] + "= " + draw(st.sampled_from(HOSTILE))
    return "\n".join(lines) + "\n"


@st.composite
def run_argv(draw) -> tuple:
    """(spec text or None for a zoo fixture, argv with SPEC for the spec file's path)."""
    text = draw(st.one_of(st.none(), mutated_spec()))
    source = ["SPEC"] if text is not None else ["--zoo", draw(st.sampled_from(zoo.names()))]
    command = draw(st.sampled_from((["classify"], ["verify", "--suite", "all"])))
    flags = draw(st.lists(st.sampled_from(FLAGS), unique=True, max_size=2))
    overrides = [tok for flag in flags for tok in (flag, draw(st.sampled_from(HOSTILE)))]
    return text, [*command, *source, *overrides, "--format", "json"]


def run_main(argv: list) -> tuple:
    """(exit code, stdout) of main, with every warning an error; argparse's rejection of an
    argv is its exit code 2."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def check_run(text, argv: list) -> int:
    """Run one case and check the rules of the module docstring; returns its exit code."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work, "mutated.spec")
        if text is not None:
            path.write_text(text, encoding="utf-8")
        argv = [str(path) if tok == "SPEC" else tok for tok in argv]
        zoo.get.cache_clear()  # each run builds its bundle as a fresh process does
        cli._parsed_spec.cache_clear()
        code, out = run_main(argv)
        assert code in (0, 1, 2, 3), (argv, text)
        if code == 1:
            failed = [row["id"] for row in json.loads(out)["identities"]
                      if row["asserted"] and not (row["passed"] or row["skipped"])]
            assert failed, (argv, text)
            bundle, _ = cli._bundle_from_args(cli.make_parser().parse_args(argv))
            # an ungated row admits no bundle: its exit 1 is never allowed
            outside = [id_ for id_ in failed if GATES[id_] is None or GATES[id_](bundle)]
            assert not outside, (argv, text, outside)
    return code


def test_gate_map_covers_every_row_of_the_benchmark_ladder():
    """GATES names the gate of every row a zoo verdict reports, apart from the placeholder
    that stands for a connection kind the bundle does not have."""
    expected = json.loads((S2XS2.parents[1] / "expected_identities.json")
                          .read_text(encoding="utf-8"))
    ids = {id_ for rows in expected.values() for id_, _ in rows}
    assert ids - set(GATES) == {"second-type-connection"}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(run_argv())
def test_mutated_specs_and_argv_exit_by_the_gate_rule(case):
    check_run(*case)


def test_found_exit_1_on_an_admitted_bundle_is_allowed():
    """A step far below roundoff fails rows inside their hypothesis: the rule allows that
    exit 1 (it is a finding about the step), and the checker must not call it a gate fault."""
    assert check_run(None, ["verify", "--zoo", "negative", "--h", "1e-14", "--suite", "all",
                            "--format", "json"]) == 1
