import contextlib
import io
import os
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import BAD_TABLES, elementary_abelian, s4_group
from grpalg import groups, idempotents
from grpalg.cli import main
from grpalg.groups import format_cayley, metacyclic_group


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decompose_d8(capsys):
    code, out, _ = run(capsys, "decompose", "--metacyclic", "4", "2", "0", "3",
                       "--p", "3")
    assert code == 0
    assert "wedderburn.components = [(1, 1, 4), (2, 1, 1)]" in out
    assert "wedderburn.algebra = F_3^(4) + M_2(F_3)" in out


def test_verify_d2(capsys):
    code, out, _ = run(capsys, "verify", "--d2", "2", "--p", "3")
    assert code == 0
    assert "wedderburn.components = [(1, 1, 4), (1, 2, 2), (2, 2, 1)]" in out
    assert "oracle.match = yes" in out
    assert "oracle.q_class_count = 7" in out


def test_not_semisimple_exit_3(capsys):
    code, _, err = run(capsys, "decompose", "--d1", "2", "--p", "2")
    assert code == 3
    assert "not semisimple" in err


def test_not_metabelian_exit_4(capsys, tmp_path):
    path = tmp_path / "s4.cayley"
    path.write_text(format_cayley(s4_group()))
    code, _, err = run(capsys, "decompose", "--cayley", str(path), "--p", "5")
    assert code == 4
    assert "not metabelian" in err


def test_parse_error_exit_2(capsys, tmp_path):
    code, _, _ = run(capsys, "decompose", "--metacyclic", "4", "--p", "3")
    assert code == 2
    bad = tmp_path / "bad.cayley"
    bad.write_text("order 2\n0 1\n")
    code2, _, err = run(capsys, "decompose", "--cayley", str(bad), "--p", "3")
    assert code2 == 2
    code3, _, err3 = run(capsys, "decompose", "--cayley",
                         str(tmp_path / "missing"), "--p", "3")
    assert code3 == 2


@pytest.mark.parametrize("name", BAD_TABLES)
def test_bad_cayley_table_exit_2(capsys, tmp_path, name):
    table, _ = BAD_TABLES[name]
    path = tmp_path / f"{name}.cayley"
    path.write_text(f"order {len(table)}\n"
                    + "".join(" ".join(map(str, row)) + "\n" for row in table))
    code, out, err = run(capsys, "decompose", "--cayley", str(path), "--p", "7")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_bad_presentation_exit_2(capsys):
    code, _, err = run(capsys, "decompose", "--metacyclic", "5", "2", "0", "3",
                       "--p", "7")
    assert code == 2


def test_metacyclic_n1_is_cyclic(capsys):
    # <a, b | a = 1, b^5 = 1> is Z_5; F_2[Z_5] = F_2 + F_16
    code, out, _ = run(capsys, "decompose", "--metacyclic", "1", "5", "0", "0",
                       "--p", "2")
    assert code == 0
    assert "wedderburn.algebra = F_2 + F_2^4" in out
    code, out, _ = run(capsys, "verify", "--metacyclic", "1", "5", "0", "0",
                       "--p", "2")
    assert code == 0
    assert "oracle.match = yes" in out


def test_compare_metacyclic(capsys):
    code, out, _ = run(capsys, "compare", "--metacyclic", "9", "3", "0", "4",
                       "--p", "7")
    assert code == 0
    assert "metacyclic.match = yes" in out


def test_compare_closed_form(capsys):
    code, out, _ = run(capsys, "compare", "--d1", "3", "--p", "5")
    assert code == 0
    assert "closed_form.match = yes" in out
    code2, out2, _ = run(capsys, "compare", "--d2", "2", "--p", "7")
    assert code2 == 0
    assert "metacyclic.match = yes" in out2
    assert "closed_form.match = yes" in out2


def test_families_sweep(capsys):
    code, out, _ = run(capsys, "families", "--family", "d2", "--m", "2",
                       "--q", "3", "5")
    assert code == 0
    assert "d2.2.3.engine_match = yes" in out
    assert "d2.2.5.engine_match = yes" in out


def test_idempotents_emitted(capsys):
    code, out, _ = run(capsys, "idempotents", "--metacyclic", "3", "2", "0", "2",
                       "--p", "5")
    assert code == 0
    assert "wedderburn.idempotent.0.coeffs" in out
    assert "wedderburn.idempotent.2.d" in out


def test_report_reproducible_and_out_file(capsys, tmp_path):
    out_path = tmp_path / "report.txt"
    code, out1, _ = run(capsys, "verify", "--metacyclic", "5", "4", "0", "2",
                        "--p", "3", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text == out1
    code2, out2, _ = run(capsys, "verify", "--metacyclic", "5", "4", "0", "2",
                         "--p", "3", "--out", str(out_path))
    assert out2 == out1
    assert out_path.read_text() == text


def test_cayley_group_decomposes(capsys, tmp_path):
    path = tmp_path / "s3.cayley"
    path.write_text(format_cayley(metacyclic_group(3, 2, 0, 2)))
    code, out, _ = run(capsys, "verify", "--cayley", str(path), "--p", "5")
    assert code == 0
    assert "oracle.match = yes" in out


def test_extension_field_flag(capsys):
    code, out, _ = run(capsys, "decompose", "--metacyclic", "5", "4", "0", "2",
                       "--p", "3", "--a", "2")
    assert code == 0
    assert "wedderburn.q = 9" in out


@pytest.mark.parametrize("flag", ["--seed", "--cap"])
def test_removed_flags_exit_2(capsys, flag):
    code, _, err = run(capsys, "decompose", "--d1", "2", "--p", "5", flag, "3")
    assert code == 2
    assert "unrecognized arguments" in err


def test_normal_subgroup_cap_exit_2(capsys, tmp_path):
    # Z_3^5 has 2664 normal subgroups, past the cap of 512
    path = tmp_path / "z3_5.cayley"
    path.write_text(format_cayley(elementary_abelian(3, 5)))
    code, out, err = run(capsys, "decompose", "--cayley", str(path), "--p", "2")
    assert code == 2
    assert out == ""
    assert err == "error: more than 512 normal subgroups in group of order 243\n"


def test_base_field_limit_exit_2(capsys):
    code, out, err = run(capsys, "decompose", "--d1", "2", "--p", "3", "--a", "8")
    assert code == 2
    assert out == ""
    assert err == "error: base field order 6561 exceeds cap 4096\n"


def test_families_prime_power_q(capsys):
    code, out, _ = run(capsys, "families", "--q", "9", "25")
    assert code == 0
    matches = [ln for ln in out.splitlines() if ".engine_match = " in ln]
    assert len(matches) == 12      # two families, m = 2, 3, 4, two q
    assert all(ln.endswith(" = yes") for ln in matches)
    assert "d1.2.9.components = " in out and "d2.4.25.aut = " in out


def test_families_q_not_prime_power_exit_2(capsys):
    code, out, err = run(capsys, "families", "--q", "15")
    assert code == 2
    assert out == ""
    assert err == "error: 15 is not a prime power\n"


def test_families_checks_q_before_building_the_group(capsys):
    """An out-of-range q exits 2 before d1_group(10), of order 4096, is
    built or looked up."""
    before = groups.d1_group.cache_info()
    code, out, err = run(capsys, "families", "--family", "d1", "--m", "10",
                         "--q", "4097")
    assert (code, out, err) == (2, "", "error: base field order 4097 exceeds cap 4096\n")
    after = groups.d1_group.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


@pytest.mark.parametrize("argv, message", [
    (["families", "--family", "d2", "--m", "2", "--q", "1000000000000000003"],
     "error: base field order 1000000000000000003 exceeds cap 4096\n"),
    (["decompose", "--metacyclic", "3", "2", "0", "2", "--p", "5", "--a", "100000000"],
     "error: base field order 5^100000000 exceeds cap 4096\n"),
    (["families", "--family", "d1", "--m", "100000000", "--q", "3"],
     "error: group order 2^100000002 exceeds the limit MAX_GROUP_ORDER = 4096\n"),
], ids=["families-q", "decompose-a", "families-m"])
def test_limits_checked_before_work(argv, message):
    """Each input is rejected before work that grows with it (factoring q,
    building p^a, a closed form looping to m); a subprocess with a timeout
    and 1 GiB of address space keeps a regression from stalling the suite
    or filling the memory."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "grpalg.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=30,
                          preexec_fn=lambda: resource.setrlimit(
                              resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


def test_group_order_limit(capsys, monkeypatch, tmp_path):
    # the real limit is 4096; a lowered one keeps every table here small
    ok, big = tmp_path / "z8.cayley", tmp_path / "z9.cayley"
    ok.write_text(format_cayley(metacyclic_group(8, 1, 0, 1)))
    big.write_text(format_cayley(metacyclic_group(9, 1, 0, 1)))
    monkeypatch.setattr(groups, "MAX_GROUP_ORDER", 8)
    assert groups.parse_cayley(ok.read_text()).order == 8
    for build in (lambda: groups.parse_cayley(big.read_text()),
                  lambda: groups.metacyclic_group(11, 1, 0, 1),
                  lambda: groups.d1_group(9),
                  lambda: groups.d2_group(7),
                  lambda: groups.d2_group(10 ** 6)):  # no 2^(10^6)-bit order
        with pytest.raises(ValueError, match="exceeds the limit MAX_GROUP_ORDER = 8"):
            build()
    for flags in (["--cayley", str(big)], ["--metacyclic", "13", "1", "0", "1"],
                  ["--d1", "8"], ["--d2", "6"]):
        code, out, err = run(capsys, "decompose", *flags, "--p", "2")
        assert code == 2, flags
        assert out == ""
        assert err.startswith("error: group order ") and "Traceback" not in err
        assert err.endswith("exceeds the limit MAX_GROUP_ORDER = 8\n")


def test_invariant_violation_exit_5(capsys, monkeypatch):
    real = idempotents.ec_idempotent
    calls = []

    def corrupt_first(*args):
        e = real(*args)
        calls.append(e)
        return e.scale(2) if len(calls) == 1 else e

    monkeypatch.setattr(idempotents, "ec_idempotent", corrupt_first)
    code, out, err = run(capsys, "decompose", "--metacyclic", "3", "2", "0", "2",
                         "--p", "5")
    assert code == 5
    assert out == ""
    assert err == "error: invariant 'idempotent' violated: {'component': 0}\n"


def test_readme_library_example():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(code, {})
    assert buf.getvalue().splitlines()[0] == "F_3^(2) + F_3^2 + M_4(F_3)"


# ---------------------------------------------------------------------------
# Malformed inputs drawn at random: each exits 2 with a one-line error
# ---------------------------------------------------------------------------

def run_quiet(*argv):
    """main(argv) with stdout and stderr captured, for tests that take no
    function-scoped fixtures (Hypothesis runs one test body many times)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(map(str, argv)))
    return code, out.getvalue(), err.getvalue()


def assert_rejected(code, out, err):
    assert (code, out) == (2, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1, err


S3_ROWS = metacyclic_group(3, 2, 0, 2).m.tolist()
NON_INTEGER = st.text(alphabet="abxyz.+-_", min_size=1)


@st.composite
def malformed_cayley(draw):
    """S3's table text with one fault that no group table can have."""
    n = len(S3_ROWS)
    rows = [list(map(str, row)) for row in S3_ROWS]
    tail = ["label 1 b"]
    fault = draw(st.sampled_from(["entry", "swap", "order", "drop", "trailing",
                                  "no_order"]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    order = str(n)
    if fault == "entry":
        rows[i][j] = str(draw(st.one_of(st.integers(max_value=-1),
                                        st.integers(min_value=n), NON_INTEGER)))
    elif fault == "swap":  # a row stays a permutation, two columns do not
        k = draw(st.integers(0, n - 1).filter(lambda k: k != j))
        rows[i][j], rows[i][k] = rows[i][k], rows[i][j]
    elif fault == "order":
        order = str(draw(st.one_of(st.integers().filter(lambda m: m != n),
                                   NON_INTEGER, st.just(""))))
    elif fault == "drop":
        del rows[i]
    elif fault == "trailing":
        tail.append(draw(st.one_of(
            st.builds("label {} x".format, st.one_of(st.integers(max_value=-1),
                                                    st.integers(min_value=n))),
            st.just("label 2"), NON_INTEGER)))
    else:
        return draw(st.text(alphabet=st.characters(blacklist_characters="o")))
    return "\n".join([f"order {order}", *map(" ".join, rows), *tail]) + "\n"


@settings(max_examples=60, deadline=None)
@given(malformed_cayley(), st.sampled_from(["decompose", "verify"]))
def test_malformed_cayley_text_exit_2(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.cayley"
        path.write_text(text, encoding="utf-8")
        assert_rejected(*run_quiet(command, "--cayley", path, "--p", "5"))


def composite(n):
    return n > 3 and any(n % d == 0 for d in range(2, int(n ** 0.5) + 1))


BAD_P = st.one_of(st.integers(max_value=1), st.integers(min_value=4097),
                  st.integers(4, 4096).filter(composite))
BAD_M = st.one_of(st.integers(max_value=0), st.integers(11, 10 ** 12))
BAD_ODD_Q = st.one_of(st.integers(max_value=1), st.integers(min_value=4097)) \
    .map(lambda q: 2 * (q // 2) + 1)
BAD_FLAGS = st.one_of(
    st.tuples(st.just("--p"), BAD_P).map(lambda f: ["--metacyclic", 3, 2, 0, 2, *f]),
    st.tuples(st.just("--a"), st.one_of(st.integers(max_value=0),
                                        st.integers(min_value=8)))
    .map(lambda f: ["--d2", 2, "--p", 3, *f]),
    st.tuples(st.sampled_from(["--d1", "--d2"]), BAD_M).map(lambda f: [*f, "--p", 3]),
    st.tuples(st.integers(max_value=0), st.integers(1, 9))
    .map(lambda nt: ["--metacyclic", *nt, 0, 1, "--p", 5]),
    st.tuples(st.integers(1, 9), st.integers(max_value=0))
    .map(lambda nt: ["--metacyclic", *nt, 0, 1, "--p", 5]),
    st.tuples(st.integers(65, 10 ** 6), st.integers(65, 10 ** 6))
    .map(lambda nt: ["--metacyclic", *nt, 0, 1, "--p", 5]),  # |G| > 4096
    # r^t != 1 or k(r - 1) != 0 mod n
    st.tuples(st.integers(2, 30), st.integers(1, 6), st.integers(0, 60),
              st.integers(0, 60))
    .filter(lambda p: pow(p[3], p[1], p[0]) != 1 or p[2] * (p[3] - 1) % p[0])
    .map(lambda p: ["--metacyclic", *p, "--p", 5]),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["decompose", "idempotents", "verify", "compare"]), BAD_FLAGS)
def test_out_of_range_flags_exit_2(command, flags):
    assert_rejected(*run_quiet(command, *flags))


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.tuples(st.just("--m"), BAD_M), st.tuples(st.just("--q"), BAD_ODD_Q)))
def test_families_out_of_range_exit_2(flag):
    assert_rejected(*run_quiet("families", "--family", "d2", *flag, *(
        ["--m", 2] if flag[0] == "--q" else [])))
