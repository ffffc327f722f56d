import contextlib
import io
import os
import re
import resource
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import BAD_TABLES, elementary_abelian, format_cayley, s4_group
from grpalg import cli, groups, idempotents
from grpalg.cli import main
from grpalg.groups import metacyclic_group


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
    table = BAD_TABLES[name][0]
    path = tmp_path / f"{name}.cayley"
    path.write_text(f"order {len(table)}\n"
                    + "".join(" ".join(map(str, row)) + "\n" for row in table))
    code, out, err = run(capsys, "decompose", "--cayley", str(path), "--p", "7")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ("order -1\n", "malformed order line"),
    ("order 0\n", "malformed order line"),
    ("orderly 2\n0 1\n1 0\n", "malformed order line"),
    ("order 2 junk\n0 1\n1 0\n", "malformed order line"),
    ("order\n0 1\n1 0\n", "malformed order line"),
    ("order 2\n0 x\n1 0\n", "bad table row: '0 x'"),
    ("order 2\n0 1\n1 0\nlabel x b\n", "bad label index: 'label x b'"),
    ("order 2\n0 1\n1 0\njunk\n", "bad trailing line: 'junk'"),
    ("order 2\n0 1\n1 0\nlabel 5 z\n", "label index out of range: 'label 5 z'"),
    ("order 2\n0 1\n", "expected 2 table rows, found 1"),
], ids=["order_negative", "order_zero", "order_word_longer", "order_extra_token",
        "order_missing", "row_not_integer", "label_not_integer", "trailing_line",
        "label_out_of_range", "missing_row"])
def test_malformed_cayley_message_names_the_line(capsys, tmp_path, text, message):
    path = tmp_path / "g.cayley"
    path.write_text(text)
    assert run(capsys, "decompose", "--cayley", str(path), "--p", "5") == \
        (2, "", f"error: {message}\n")


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


def _wrong(summary):
    """summary with one more (1, 1) block."""
    components = dict(summary.components)
    components[1, 1] += 1
    return replace(summary, components=components)


@pytest.mark.parametrize("argv, mismatch", [
    (("compare", "--d2", "3", "--p", "5"), "metacyclic.match = no"),
    (("compare", "--d1", "2", "--p", "5"), "closed_form.match = no"),
    (("families", "--m", "2", "--q", "5"), "d1.2.5.engine_match = no"),
])
def test_discrepancy_exit_6_with_full_report(capsys, monkeypatch, argv, mismatch):
    """With the fast path's summary and the d1 closed form each one block
    off, a path that disagrees with the engine exits 6 and still prints
    every line of the report, only the disagreeing path's lines changed."""
    code, good, _ = run(capsys, *argv)
    assert code == 0
    fast_path = cli.metacyclic_decompose

    def altered(*args):
        summary, descriptors = fast_path(*args)
        return _wrong(summary), descriptors

    monkeypatch.setattr(cli, "metacyclic_decompose", altered)
    group_of, closed_form = cli.FAMILIES["d1"]
    monkeypatch.setitem(cli.FAMILIES, "d1",
                        (group_of, lambda m, q: _wrong(closed_form(m, q))))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (6, "")
    assert mismatch in out.splitlines()
    keys = [ln.split(" = ")[0] for ln in good.splitlines()]
    assert [ln.split(" = ")[0] for ln in out.splitlines()] == keys
    prefix = mismatch.split(".")[0] + "."
    assert [ln for ln in out.splitlines() if not ln.startswith(prefix)] == \
        [ln for ln in good.splitlines() if not ln.startswith(prefix)]


def test_verify_emit_idempotents(capsys):
    """verify --emit-idempotents passes the oracle and emits the same
    idempotent lines as the idempotents command."""
    flags = ["--metacyclic", "3", "2", "0", "2", "--p", "5"]
    code, out, _ = run(capsys, "verify", *flags, "--emit-idempotents")
    assert code == 0
    assert "oracle.match = yes" in out.splitlines()
    code2, out2, _ = run(capsys, "idempotents", *flags)
    assert code2 == 0

    def idempotent_lines(text):
        return [ln for ln in text.splitlines() if ln.startswith("wedderburn.idempotent.")]

    assert idempotent_lines(out) and idempotent_lines(out) == idempotent_lines(out2)


@pytest.mark.parametrize("argv, old, new", [
    (("--metacyclic", "3", "2", "0", "2", "--p", "5"), (2, 1), (1, 4)),  # S_3
    (("--d2", "1", "--p", "3"), (2, 1), (1, 4)),                         # Q_8
    (("--metacyclic", "7", "3", "0", "2", "--p", "2"), (3, 1), (1, 9)),
])
def test_verify_catches_wrong_d_and_l(capsys, monkeypatch, argv, old, new):
    """A descriptor whose (d, l) is replaced by another pair of the same
    d²·l passes _validate and keeps the oracle's idempotent set, but the
    multiset of l no longer equals the q-class orbit sizes: verify reports
    oracle.match = no and exits 6."""
    assert run(capsys, "verify", *argv)[0] == 0
    engine = cli.decompose

    def corrupted(G, F):
        descriptors = list(engine(G, F)[1])
        i = [(dsc.d, dsc.l) for dsc in descriptors].index(old)
        descriptors[i] = replace(descriptors[i], d=new[0], l=new[1])
        return idempotents.summarize(G, F, descriptors)

    monkeypatch.setattr(cli, "decompose", corrupted)
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err) == (6, "")
    assert "oracle.match = no" in out.splitlines()
    assert f"({new[0]}, {new[1]}, 1)" in out


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


def test_verify_z81_over_f4(capsys):
    # over F_4 the Frobenius of F_2 swaps two factors of Phi_27 and of
    # Phi_81, so few splitting candidates separate them
    code, out, _ = run(capsys, "verify", "--metacyclic", "1", "81", "0", "0",
                       "--p", "2", "--a", "2")
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


def test_many_normal_subgroups_decompose(capsys, tmp_path):
    # Z_2^6 has 2825 subgroups, all normal; no count of them limits the input
    path = tmp_path / "z2_6.cayley"
    path.write_text(format_cayley(elementary_abelian(2, 6)))
    code, out, err = run(capsys, "decompose", "--cayley", str(path), "--p", "3")
    assert (code, err) == (0, "")
    assert "wedderburn.components = [(1, 1, 64)]" in out


def test_base_field_limit_exit_2(capsys):
    code, out, err = run(capsys, "decompose", "--d1", "2", "--p", "3", "--a", "8")
    assert code == 2
    assert out == ""
    assert err == "error: base field order 6561 exceeds cap 4096\n"


@pytest.mark.parametrize("p, a, message", [
    (1, 64, "1 is not prime"),
    (0, 100, "0 is not prime"),
    (-1, 64, "-1 is not prime"),
    (2, 64, "base field order 2^64 exceeds cap 4096"),
    (-5, 65, "-5 is not prime"),
    (-2, 64, "base field order -2^64 exceeds cap 4096"),
])
def test_base_field_large_a_names_the_failing_limit(capsys, p, a, message):
    """For a >= 64, a p with |p| <= 1 has |p^a| <= 1 and is refused as not
    prime, and so is a negative p with an odd a, whose p^a is negative; any
    other p is past the cap."""
    assert run(capsys, "decompose", "--d1", "2", "--p", str(p), "--a", str(a)) == \
        (2, "", f"error: {message}\n")


def test_families_prime_power_q(capsys):
    code, out, _ = run(capsys, "families", "--q", "9", "25")
    assert code == 0
    matches = [ln for ln in out.splitlines() if ".engine_match = " in ln]
    assert len(matches) == 12      # two families, m = 2, 3, 4, two q
    assert all(ln.endswith(" = yes") for ln in matches)
    assert "d1.2.9.components = " in out and "d2.4.25.aut = " in out


def test_families_even_q_reports_error_and_exits_6(capsys):
    """An even q gives <family>.<m>.<q>.error = EvenQ for each family, the
    odd q's cells are still reported, and the exit code is 6."""
    code, out, _ = run(capsys, "families", "--m", "2", "--q", "8", "3")
    assert code == 6
    lines = out.splitlines()
    assert "d1.2.8.error = EvenQ" in lines and "d2.2.8.error = EvenQ" in lines
    assert not [ln for ln in lines if ".2.8." in ln and ".error = " not in ln]
    assert "d1.2.3.engine_match = yes" in lines and "d2.2.3.engine_match = yes" in lines


def test_families_q_not_prime_power_exit_2(capsys):
    code, out, err = run(capsys, "families", "--q", "15")
    assert code == 2
    assert out == ""
    assert err == "error: 15 is not a prime power\n"


@pytest.mark.parametrize("q, message", [
    (1, "1 is not a prime power"),
    (0, "0 is not a prime power"),
    (6, "6 is not a prime power"),
    (12, "12 is not a prime power"),
    (8192, "base field order 8192 exceeds cap 4096"),
])
def test_families_q_that_names_no_field_exit_2(capsys, q, message):
    """A q that is not a prime power, or is above 4096, exits 2 before any
    cell, even or odd; only an even prime power gives an EvenQ cell."""
    assert run(capsys, "families", "--m", "2", "--q", "3", str(q)) == \
        (2, "", f"error: {message}\n")


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
    # a group an earlier test left in a builder's cache would skip the check
    for builder in (groups.metacyclic_group, groups.d1_group, groups.d2_group):
        builder.cache_clear()
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
        if len(calls) > 1:
            return e
        return args[1].mul_np[2, e]  # args are (G, F, K, H, j, E)

    monkeypatch.setattr(idempotents, "ec_idempotent", corrupt_first)
    code, out, err = run(capsys, "decompose", "--metacyclic", "3", "2", "0", "2",
                         "--p", "5")
    assert code == 5
    assert out == ""
    assert err == "error: invariant 'idempotent' violated: {'component': 0}\n"


def test_readme_decompose_report(capsys):
    """The README's decompose example is the whole report, byte for byte."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    argv, report = re.search(r"```sh\ngrpalg (decompose --d1 2 --p 5)\n((?:# .*\n)+)",
                             readme).groups()
    expected = "".join(line[2:] + "\n" for line in report.splitlines())
    assert run(capsys, *argv.split()) == (0, expected, "")


def test_readme_cli_examples_exit_0(capsys, tmp_path, monkeypatch):
    """Every `grpalg ...` line of the README's CLI block exits 0; the Cayley
    line runs in a directory that holds an S3 table as group.tbl."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```sh\n(grpalg decompose --d1 2 --p 5\n.*?)```", readme,
                      re.S).group(1)
    lines = [ln.split("#")[0].split() for ln in block.splitlines()
             if ln.startswith("grpalg ")]
    assert len(lines) == 6
    (tmp_path / "group.tbl").write_text(format_cayley(metacyclic_group(3, 2, 0, 2)))
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        code, out, err = run(capsys, *argv[1:])
        assert (code, err) == (0, ""), argv
        assert out.startswith("group = " if argv[1] != "families" else "command = ")
    assert (tmp_path / "report.txt").read_text() == out  # the last line's --out


@pytest.mark.parametrize("argv, code, expected", [
    ("families --m 2 --q 3 8", 6, """\
command = families
d1.2.3.lambda = 2
d1.2.3.components = [(1, 1, 8), (2, 2, 1)]
d1.2.3.aut = S_8 + (SL_2(F_3^2) . Z_2)
d1.2.3.engine_match = yes
d1.2.8.error = EvenQ
d2.2.3.lambda = 2
d2.2.3.components = [(1, 1, 4), (1, 2, 2), (2, 2, 1)]
d2.2.3.aut = S_4 + ((Z_2)^(2) . S_2) + (SL_2(F_3^2) . Z_2)
d2.2.3.engine_match = yes
d2.2.8.error = EvenQ
"""),
    ("compare --d2 2 --p 7", 0, """\
group = D2(2)
command = compare
generic.order = 16
generic.q = 7
generic.components = [(1, 1, 4), (1, 2, 2), (2, 2, 1)]
generic.algebra = F_7^(4) + F_7^2^(2) + M_2(F_7^2)
generic.aut = S_4 + ((Z_2)^(2) . S_2) + (SL_2(F_7^2) . Z_2)
metacyclic.order = 16
metacyclic.q = 7
metacyclic.components = [(1, 1, 4), (1, 2, 2), (2, 2, 1)]
metacyclic.algebra = F_7^(4) + F_7^2^(2) + M_2(F_7^2)
metacyclic.aut = S_4 + ((Z_2)^(2) . S_2) + (SL_2(F_7^2) . Z_2)
metacyclic.match = yes
closed_form.components = [(1, 1, 4), (1, 2, 2), (2, 2, 1)]
closed_form.match = yes
"""),
    ("families --m 1 --q 5 3", 6, """\
command = families
d1.1.5.lambda = 2
d1.1.5.components = [(1, 1, 4), (2, 1, 1)]
d1.1.5.aut = S_4 + SL_2(F_5)
d1.1.5.engine_match = yes
d1.1.3.error = NoClosedForm
d2.1.5.lambda = 2
d2.1.5.components = [(1, 1, 4), (2, 1, 1)]
d2.1.5.aut = S_4 + SL_2(F_5)
d2.1.5.engine_match = yes
d2.1.3.error = NoClosedForm
"""),
    ("compare --d1 1 --p 5", 0, """\
group = D1(1)
command = compare
generic.order = 8
generic.q = 5
generic.components = [(1, 1, 4), (2, 1, 1)]
generic.algebra = F_5^(4) + M_2(F_5)
generic.aut = S_4 + SL_2(F_5)
closed_form.components = [(1, 1, 4), (2, 1, 1)]
closed_form.match = yes
"""),
    ("compare --d2 1 --p 3", 0, """\
group = D2(1)
command = compare
generic.order = 8
generic.q = 3
generic.components = [(1, 1, 4), (2, 1, 1)]
generic.algebra = F_3^(4) + M_2(F_3)
generic.aut = S_4 + SL_2(F_3)
metacyclic.order = 8
metacyclic.q = 3
metacyclic.components = [(1, 1, 4), (2, 1, 1)]
metacyclic.algebra = F_3^(4) + M_2(F_3)
metacyclic.aut = S_4 + SL_2(F_3)
metacyclic.match = yes
"""),
], ids=["families-even-q", "compare-d2", "families-no-closed-form",
        "compare-d1-m1", "compare-no-closed-form"])
def test_golden_report(capsys, argv, code, expected):
    """Whole reports, pinned byte for byte with their exit codes."""
    assert run(capsys, *argv.split()) == (code, expected, "")


def test_compare_cayley_golden_report(capsys, tmp_path):
    """A Cayley-table group has no family and no presentation: compare
    prints the generic summary alone and exits 0."""
    path = tmp_path / "s3.cayley"
    path.write_text(format_cayley(metacyclic_group(3, 2, 0, 2)))
    assert run(capsys, "compare", "--cayley", str(path), "--p", "5") == (0, """\
group = cayley6
command = compare
generic.order = 6
generic.q = 5
generic.components = [(1, 1, 2), (2, 1, 1)]
generic.algebra = F_5^(2) + M_2(F_5)
generic.aut = S_2 + SL_2(F_5)
""", "")


@pytest.mark.parametrize("argv", ["families --m 0 --q 3", "families --m 0 2 --q 5",
                                  "families --m -1 --q 7"])
def test_families_m_below_1_exit_2(capsys, argv):
    """m < 1 is a bad presentation for every q, as for decompose --d1 0: no
    cell is reported, not even NoClosedForm for q = 3 (mod 4)."""
    assert run(capsys, *argv.split()) == (2, "", "error: m must be >= 1\n")


@pytest.mark.parametrize("argv", ["compare --d1 2 --p 5", "families --m 2 --q 5"])
def test_emit_idempotents_rejected_where_none_are_printed(capsys, argv):
    code, out, err = run(capsys, *argv.split(), "--emit-idempotents")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --emit-idempotents" in err


def test_readme_library_example():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    buf, namespace = io.StringIO(), {}
    with contextlib.redirect_stdout(buf):
        exec(code, namespace)
    algebra, aut, *lines = buf.getvalue().splitlines()
    assert algebra == "F_3^(2) + F_3^2 + M_4(F_3)"
    assert aut == "S_2 + Z_2 + SL_4(F_3)"
    components = namespace["components"]
    assert len(lines) == len(components) == 4
    for line, comp in zip(lines, components):
        d, l, element = line.split(" ", 2)
        assert (int(d), int(l)) == (comp.d, comp.l) and element


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
        # codec: the text is written as UTF-8, which has no lone surrogates
        return draw(st.text(alphabet=st.characters(blacklist_characters="o",
                                                   codec="utf-8")))
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


def prime_power(n):
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


BAD_P = st.one_of(st.integers(max_value=1), st.integers(min_value=4097),
                  st.integers(4, 4096).filter(composite))
BAD_M = st.one_of(st.integers(max_value=0), st.integers(11, 10 ** 12))
# q <= 1, q > 4096, and the q up to 4096 that are not prime powers, odd or even
BAD_Q = st.one_of(st.integers(max_value=1), st.integers(min_value=4097),
                  st.integers(6, 4096).filter(lambda q: not prime_power(q)))
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
@given(st.one_of(st.tuples(st.just("--m"), BAD_M), st.tuples(st.just("--q"), BAD_Q)))
def test_families_out_of_range_exit_2(flag):
    assert_rejected(*run_quiet("families", "--family", "d2", *flag, *(
        ["--m", 2] if flag[0] == "--q" else [])))
