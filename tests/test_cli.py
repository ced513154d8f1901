import contextlib
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import pytest

from cfmonoid import cli
from cfmonoid.cli import main
from cfmonoid.coloring import Coloring, build_coloring, format_coloring
from cfmonoid.presentation import (
    EMPTY_WORD,
    RULE_FAMILIES,
    _token,
    alphabet,
    format_word,
    presentation_from_json,
)
from cfmonoid.semigroup import BUILTIN_NAMES, CayleyTable, format_cayley
from test_rewrite import _normal_form_reference


@pytest.fixture
def trivial_pres(tmp_path):
    out = tmp_path / "trivial.json"
    assert main(["build", "--builtin", "trivial", "--out", str(out)]) == 0
    return out


@pytest.fixture
def z2_pres(tmp_path):
    out = tmp_path / "z2.json"
    assert main(["build", "--builtin", "z2", "--out", str(out)]) == 0
    return out


def _write(path, data):
    # a tampered file in build's layout, which json.dumps(indent=1) writes,
    # so that the loader meets the tampering and not a change of layout
    path.write_text(json.dumps(data, indent=1) + "\n")


def test_build_trivial(tmp_path, capsys):
    out = tmp_path / "p.json"
    rc = main(["build", "--builtin", "trivial", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "20 rules" in captured.out
    assert "A=1 B=4 C=4 Z_left=5 Z_right=6" in captured.out
    pres = presentation_from_json(out.read_text())
    assert pres.n == 1 and len(pres.rules) == 20


def test_build_z2_counts(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert main(["build", "--builtin", "z2", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "A=4 B=18 C=9" in captured.out


def test_build_from_cayley_file(tmp_path, capsys):
    cayley = tmp_path / "lz.txt"
    cayley.write_text("# left zero\n2\n1 1\n2 2\n")
    out = tmp_path / "p.json"
    assert main(["build", "--cayley", str(cayley), "--out", str(out)]) == 0
    assert presentation_from_json(out.read_text()).table.rows == ((1, 1), (2, 2))


def test_build_non_associative_exits_3(tmp_path, capsys):
    cayley = tmp_path / "bad.txt"
    cayley.write_text("2\n2 1\n1 1\n")
    out = tmp_path / "p.json"
    rc = main(["build", "--cayley", str(cayley), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 3
    assert "(1, 1, 2)" in captured.err
    assert not out.exists()


def test_build_parse_error_exits_2(tmp_path, capsys):
    cayley = tmp_path / "bad.txt"
    cayley.write_text("2\n1 3\n2 2\n")
    rc = main(["build", "--cayley", str(cayley), "--out", str(tmp_path / "p.json")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "out of range" in captured.err


def test_build_missing_file_exits_2(tmp_path, capsys):
    rc = main(["build", "--cayley", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "p.json")])
    assert rc == 2


def test_nf_zero(trivial_pres, capsys):
    assert main(["nf", "--pres", str(trivial_pres), "x1 y1"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_nf_identity(trivial_pres, capsys):
    assert main(["nf", "--pres", str(trivial_pres), "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_nf_coloring_driven(z2_pres, capsys):
    assert main(["nf", "--pres", str(z2_pres), "x1 s2 y1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_nf_syntax_error_exits_2(z2_pres, capsys):
    assert main(["nf", "--pres", str(z2_pres), "s9"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_check_complete_ok(trivial_pres, capsys):
    rc = main(["check-complete", "--pres", str(trivial_pres)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "critical pairs: 60" in captured.out
    assert "A-A: 1" in captured.out
    assert "joinable" in captured.out


def test_check_complete_tampered_exits_1(z2_pres, tmp_path, capsys):
    data = json.loads(z2_pres.read_text())
    rule = data["rules"][0]
    assert rule["family"] == "A" and rule["lhs"] == ["s1", "s1"]
    rule["rhs"] = ["s2"]
    tampered = tmp_path / "tampered.json"
    _write(tampered, data)
    capsys.readouterr()
    rc = main(["check-complete", "--pres", str(tampered)])
    captured = capsys.readouterr()
    assert rc == 1
    # the census by family pair, then the first failing pair in the order
    # the pairs are made
    assert captured.out == (
        "critical pairs: 159\n"
        "  A-A: 8\n"
        "  A-Z_right: 4\n"
        "  B-Z_right: 18\n"
        "  C-Z_right: 9\n"
        "  Z_left-A: 4\n"
        "  Z_left-B: 18\n"
        "  Z_left-C: 9\n"
        "  Z_left-Z_right: 8\n"
        "  Z_right-Z_left: 72\n"
        "  Z_right-Z_right: 9\n"
        "NOT CONFLUENT at overlap s1 s1 s2\n"
        "  left reduct  s2 s2 -> s1\n"
        "  right reduct s1 s2 -> s2\n"
    )


def test_check_f_built(tmp_path, capsys):
    path = tmp_path / "f.txt"
    path.write_text(format_coloring(build_coloring(2)))
    rc = main(["check-f", str(path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.count(": pass") == 6


def test_check_f_all_ones_exits_4(tmp_path, capsys):
    ones = Coloring(2, tuple(tuple((1, 1, 1) for _ in range(2)) for _ in range(3)))
    path = tmp_path / "ones.txt"
    path.write_text(format_coloring(ones))
    rc = main(["check-f", str(path)])
    captured = capsys.readouterr()
    assert rc == 4
    assert "C3: FAIL" in captured.out
    assert "C1: pass" in captured.out


def test_check_f_syntax_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    path.write_text("slice 1\n1 2\n0 1\n")
    assert main(["check-f", str(path)]) == 2


def test_check_embed(z2_pres, capsys):
    rc = main(["check-embed", "--pres", str(z2_pres)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "2 distinct generators" in captured.out
    assert "4 products" in captured.out


def test_check_embed_tampered_exits_1(z2_pres, tmp_path, capsys):
    data = json.loads(z2_pres.read_text())
    data["rules"][0]["rhs"] = ["s2"]  # s1 s1 should give s1 in the group z2
    tampered = tmp_path / "t.json"
    _write(tampered, data)
    rc = main(["check-embed", "--pres", str(tampered)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "s1 s1" in captured.out


def test_check_embed_finds_a_tampered_product_below_the_diagonal(tmp_path, capsys):
    # t2 is not commutative, so the product s3 s1 (i > j) is not s1 s3; the
    # tampered file keeps build's layout
    out = tmp_path / "t2.json"
    assert main(["build", "--builtin", "t2", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    (rule,) = [r for r in data["rules"] if r["lhs"] == ["s3", "s1"]]
    assert rule["rhs"] == ["s3"]
    rule["rhs"] = ["s4"]
    _write(out, data)
    capsys.readouterr()
    assert main(["check-embed", "--pres", str(out)]) == 1
    assert capsys.readouterr().out == "s3 s1 reduces to s4, table says s3\n"


@pytest.mark.parametrize("tamper", [False, True], ids=["clean", "tampered-A"])
def test_check_embed_leaves_the_rule_index_unbuilt(tmp_path, capsys, monkeypatch, tamper):
    # check-embed reduces only the words s_i s_j, which normal_form answers
    # from the rule map, so the loaded value never builds its index; the
    # verdict is the reference reducer's, on build's file and on one whose A
    # rules s3 s1 and s2 s2 were given other right sides
    out = tmp_path / "t2.json"
    assert main(["build", "--builtin", "t2", "--out", str(out)]) == 0
    if tamper:
        data = json.loads(out.read_text())
        for rule in data["rules"]:
            if rule["lhs"] == ["s3", "s1"]:
                rule["rhs"] = ["s4"]
            elif rule["lhs"] == ["s2", "s2"]:
                rule["rhs"] = []
        _write(out, data)
    loaded = []

    def load(text):
        loaded.append(presentation_from_json(text))
        return loaded[-1]

    monkeypatch.setattr(cli, "presentation_from_json", load)
    capsys.readouterr()
    rc = main(["check-embed", "--pres", str(out)])
    (pres,) = loaded
    assert "_by_last_two" not in pres.__dict__
    n = pres.n
    bad = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            got = _normal_form_reference((("s", i), ("s", j)), pres)
            want = (("s", pres.table.mul(i, j)),)
            if got != want:
                bad.append(f"s{i} s{j} reduces to {format_word(got)}, table says {format_word(want)}\n")
    assert len(bad) == (2 if tamper else 0)
    expected = "".join(bad) or f"embedding verified: {n} distinct generators, {n * n} products match the table\n"
    assert (rc, capsys.readouterr().out) == (1 if bad else 0, expected)


def _short_row(data):
    data["table"][0] = data["table"][0][:1]


def _n_off_by_one(data):
    data["n"] += 1


def _short_coloring_plane(data):
    data["coloring"][0] = data["coloring"][0][:-1]


def _table_entry_out_of_range(data):
    data["table"][1][1] = data["n"] + 1


@pytest.mark.parametrize(
    "corrupt", [_short_row, _n_off_by_one, _short_coloring_plane, _table_entry_out_of_range]
)
def test_check_embed_malformed_presentation_exits_2(z2_pres, tmp_path, capsys, corrupt):
    data = json.loads(z2_pres.read_text())
    corrupt(data)
    bad = tmp_path / "bad.json"
    _write(bad, data)
    capsys.readouterr()
    rc = main(["check-embed", "--pres", str(bad)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: invalid presentation file")
    assert "Traceback" not in captured.err


def test_collapse_and_verify_roundtrip(z2_pres, tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    rc = main(["collapse", "--pres", str(z2_pres), "s1", "s2", "--out", str(trace)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "final" in captured.out
    rc = main(["verify-trace", "--pres", str(z2_pres), str(trace)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "trace verified" in captured.out


def test_collapse_to_stdout(trivial_pres, capsys):
    rc = main(["collapse", "--pres", str(trivial_pres), "x1", "x2"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("0\tGEN\tx1\tx2")


def test_collapse_identical_exits_2(trivial_pres, capsys):
    assert main(["collapse", "--pres", str(trivial_pres), "s1", "s1"]) == 2
    assert "identical" in capsys.readouterr().err


def test_collapse_reducible_exits_2(trivial_pres, capsys):
    assert main(["collapse", "--pres", str(trivial_pres), "s1 s1", "s1"]) == 2


def test_verify_tampered_trace_exits_1(trivial_pres, tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    assert main(["collapse", "--pres", str(trivial_pres), "x1", "x2", "--out", str(trace)]) == 0
    capsys.readouterr()
    lines = trace.read_text().splitlines()
    lines[-1] = lines[-1].replace("\t1\t0", "\ts1\t0")
    trace.write_text("\n".join(lines) + "\n")
    rc = main(["verify-trace", "--pres", str(trivial_pres), str(trace)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "INVALID TRACE" in captured.out


def test_verify_bad_trace_syntax_exits_2(trivial_pres, tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text("0\tGEN x1 x2\n")
    assert main(["verify-trace", "--pres", str(trivial_pres), str(trace)]) == 2


def test_verify_trace_with_an_argument_to_gen_exits_2(trivial_pres, tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    assert main(["collapse", "--pres", str(trivial_pres), "x1", "x2", "--out", str(trace)]) == 0
    trace.write_text(trace.read_text().replace("\tGEN\t", "\tGEN whatever\t"))
    capsys.readouterr()
    rc = main(["verify-trace", "--pres", str(trivial_pres), str(trace)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: line 1: GEN takes no argument\n"
    assert captured.out == ""


def test_enumerate(trivial_pres, capsys):
    rc = main(["enumerate", "--pres", str(trivial_pres), "--maxlen", "2"])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert rc == 0
    assert len(lines) == 26
    assert lines[0] == "1"
    assert "s1" in lines and "x2 s1" in lines


def _run_into_a_closed_pipe(argv, buffered, lines_read=0):
    # the command as its own process, stdout a pipe whose reader takes
    # lines_read lines and closes it (`| head`); PYTHONUNBUFFERED decides
    # whether a write fails inside the command or only at the last flush
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "cfmonoid.cli", *argv]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        head = [proc.stdout.readline() for _ in range(lines_read)]
        proc.stdout.close()
        err = proc.stderr.read()
        return proc.wait(timeout=60), head, err


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_enumerate_into_a_pipe_closed_early_exits_0(tmp_path, buffered):
    # t2 at maxlen 6 is 1.34 M lines, far more than a pipe holds, so the
    # command is still writing when the pipe closes
    pres = _built(tmp_path, "t2")
    argv = ["enumerate", "--pres", str(pres), "--maxlen", "6"]
    assert _run_into_a_closed_pipe(argv, buffered, lines_read=1) == (0, [b"1\n"], b"")


@pytest.mark.parametrize("buffered, code, err", [(True, 1, b""), (False, 2, b"error: [Errno 32] Broken pipe\n")],
                         ids=["buffered", "unbuffered"])
def test_a_failing_check_into_a_closed_pipe_does_not_exit_0(z2_pres, tmp_path, buffered, code, err):
    # buffered, the whole report is written at the last flush, after the
    # verdict; unbuffered, the first write fails and the command ends with 2
    data = json.loads(z2_pres.read_text())
    data["rules"][0]["rhs"] = ["s2"]
    tampered = tmp_path / "t.json"
    _write(tampered, data)
    assert _run_into_a_closed_pipe(["check-embed", "--pres", str(tampered)], buffered) == (code, [], err)


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_pipe_in_process_leaves_fd_1_and_the_other_commands_alone(z2_pres, tmp_path, capsys, monkeypatch):
    # only enumerate's own stdout writes are let go; main() redirects no file
    # descriptor, and a broken pipe anywhere else is an error (exit 2)
    fd1 = os.fstat(1)
    with contextlib.redirect_stdout(_ClosedPipe()):
        assert main(["enumerate", "--pres", str(z2_pres), "--maxlen", "3"]) == 0
        assert main(["check-embed", "--pres", str(z2_pres)]) == 2
    assert (os.fstat(1).st_dev, os.fstat(1).st_ino) == (fd1.st_dev, fd1.st_ino)

    def closed(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(Path, "write_text", closed)
    assert main(["build", "--builtin", "t2", "--out", str(tmp_path / "fifo.json")]) == 2
    assert capsys.readouterr().err.count("error: [Errno 32] Broken pipe") == 2


def _reference_enumerate(p, maxlen):
    # the former enumerate_normal_forms, kept as the reference: every word of
    # every length is built as a tuple before any is printed
    completes = defaultdict(set)
    for lhs in p.lhs_map:
        completes[lhs[:-1]].add(lhs[-1])
    no_letters = frozenset()
    letters = alphabet(p.n)
    out = [EMPTY_WORD]
    layer = [EMPTY_WORD]
    for _ in range(maxlen):
        nxt = []
        for w in layer:
            banned = completes.get(w[-1:], no_letters) | completes.get(w[-2:], no_letters)
            nxt.extend(w + (a,) for a in letters if a not in banned)
        out.extend(nxt)
        layer = nxt
    return out


def _reference_enumerate_command(pres_path, maxlen):
    # the former cmd_enumerate: one print per word
    for w in _reference_enumerate(presentation_from_json(pres_path.read_text()), maxlen):
        print(format_word(w))


def _built(tmp_path, name):
    out = tmp_path / f"{name}.json"
    if name == "Z_8":
        cayley = tmp_path / "z8.txt"
        rows = tuple(tuple((i + j) % 8 + 1 for j in range(8)) for i in range(8))
        cayley.write_text(format_cayley(CayleyTable(8, rows)))
        assert main(["build", "--cayley", str(cayley), "--out", str(out)]) == 0
    else:
        assert main(["build", "--builtin", name, "--out", str(out)]) == 0
    return out


def _first_difference(got, want):
    # (line number, got line, wanted line) where two outputs part, or None;
    # pytest's own diff of two texts of 10^5 lines would take minutes
    if got == want:
        return None
    got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return at + 1, got[at:at + 1], want[at:at + 1]


@pytest.mark.parametrize(
    "name, maxlens",
    [(name, range(4)) for name in BUILTIN_NAMES + ("Z_8",)] + [("t2", [5])],
    ids=[f"{name}-maxlen0-3" for name in BUILTIN_NAMES + ("Z_8",)] + ["t2-maxlen5"],
)
def test_enumerate_output_matches_the_reference(tmp_path, capsys, name, maxlens):
    pres = _built(tmp_path, name)
    for maxlen in maxlens:
        capsys.readouterr()
        _reference_enumerate_command(pres, maxlen)
        want = capsys.readouterr().out
        assert main(["enumerate", "--pres", str(pres), "--maxlen", str(maxlen)]) == 0
        assert _first_difference(capsys.readouterr().out, want) is None


class _HashingSink:
    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, text):
        self.sha256.update(text.encode())


def test_enumerate_streams(tmp_path):
    # 150 505 lines for t2 at maxlen 5: the former command held every word as
    # a tuple (13.8 MiB traced, 3.1 s); the walk keeps only the words shorter
    # than maxlen, as text (2.1 MiB, 0.3 s)
    pres = _built(tmp_path, "t2")
    sink = _HashingSink()
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            rc = main(["enumerate", "--pres", str(pres), "--maxlen", "5"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - start
    assert rc == 0
    # the former command's output, hashed
    assert sink.sha256.hexdigest() == "a4c33eb58ccee9345d759428b81dbfeaddbef7cba77db1724443555dd9fd7583"
    assert peak < 5 * 2**20
    assert elapsed < 2.0


def test_deterministic_outputs(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["build", "--builtin", "t2", "--out", str(out1)]) == 0
    assert main(["build", "--builtin", "t2", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_usage_error():
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2


@pytest.mark.parametrize("spelling", ["٣", "+2", " 2", "1_0"])
def test_enumerate_maxlen_takes_ascii_digits_only(trivial_pres, capsys, spelling):
    # int() takes each of these; --maxlen 1_0 on t2 would write 54 M lines
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        main(["enumerate", "--pres", str(trivial_pres), "--maxlen", spelling])
    captured = capsys.readouterr()
    assert e.value.code == 2
    assert captured.out == ""
    assert f"argument --maxlen: invalid int value: {spelling!r}" in captured.err


def test_main_dispatches_by_name_at_each_call(z2_pres, capsys, monkeypatch):
    # the parser is built once and reused, but the command function is looked
    # up in the module at each call, so a replaced cmd_* is the one that runs
    argv = ["check-embed", "--pres", str(z2_pres)]
    capsys.readouterr()
    assert main(argv) == 0 and main(argv) == 0
    assert capsys.readouterr().out.count("embedding verified") == 2
    seen = []

    def replacement(args):
        seen.append(args.pres)
        return 7

    monkeypatch.setattr(cli, "cmd_check_embed", replacement)
    assert main(argv) == 7
    assert seen == [presentation_from_json(z2_pres.read_text())]
    assert capsys.readouterr().out == ""


def test_usage_error_leaves_the_next_call_unchanged(z2_pres, capsys):
    def run(argv):
        rc = main(argv)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    argv = ["check-complete", "--pres", str(z2_pres)]
    capsys.readouterr()
    before = run(argv)
    with pytest.raises(SystemExit) as e:
        main(["check-complete"])
    assert e.value.code == 2
    assert "the following arguments are required: --pres" in capsys.readouterr().err
    assert run(argv) == before
    assert before[0] == 0 and "system is complete" in before[1]


def test_collapse_on_coloring_failing_c1_exits_4(z2_pres, tmp_path, capsys):
    # the fiber (1, 1, .) colored 0 everywhere breaks C1; collapse needs a
    # y-index colored 1 over (x1, s1) and reports the conditions instead
    data = json.loads(z2_pres.read_text())
    data["coloring"][0][0] = [0] * len(data["coloring"][0][0])
    for r in data["rules"]:
        if r["family"] == "B" and r["lhs"][:2] == ["x1", "s1"]:
            r["rhs"] = ["0"]
    bad = tmp_path / "bad.json"
    _write(bad, data)
    capsys.readouterr()
    rc = main(["collapse", "--pres", str(bad), "x1 s1", "x1"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.err.startswith("error: coloring fails C1")
    assert "Traceback" not in captured.err


# every command that reads a presentation, as argv with "bad.json" for the
# presentation file and "t.trace" for a trace file
_PRES_COMMANDS = [
    ["nf", "--pres", "bad.json", "s1"],
    ["check-complete", "--pres", "bad.json"],
    ["check-embed", "--pres", "bad.json"],
    ["collapse", "--pres", "bad.json", "x1", "x2"],
    ["verify-trace", "--pres", "bad.json", "t.trace"],
    ["enumerate", "--pres", "bad.json", "--maxlen", "2"],
]


def _run_on(tmp_path, command):
    # main on argv with the file names made paths under tmp_path; the trace
    # file is a valid generator step, so a load fault is the first fault
    (tmp_path / "t.trace").write_text("0\tGEN\tx1\tx2\n")
    return main([str(tmp_path / arg) if arg in ("bad.json", "t.trace") else arg for arg in command])


@pytest.mark.parametrize("command", _PRES_COMMANDS, ids=lambda argv: argv[0])
def test_file_with_a_non_associative_table_exits_3(z2_pres, tmp_path, capsys, command):
    # A rules that match the stored table do not make it associative
    data = json.loads(z2_pres.read_text())
    data["table"] = [[2, 1], [1, 1]]
    for r in data["rules"]:
        if r["family"] == "A":
            i, j = (int(t[1:]) for t in r["lhs"])
            r["rhs"] = [f"s{data['table'][i - 1][j - 1]}"]
    _write(tmp_path / "bad.json", data)
    capsys.readouterr()
    rc = _run_on(tmp_path, command)
    captured = capsys.readouterr()
    assert rc == 3
    assert "not associative at triple (1, 1, 2)" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", _PRES_COMMANDS, ids=lambda argv: argv[0])
def test_file_with_a_coloring_failing_c1_exits_4(z2_pres, tmp_path, capsys, command):
    # B rules that match the stored coloring do not make it pass C1..C6
    data = json.loads(z2_pres.read_text())
    data["coloring"][0][0] = [0] * len(data["coloring"][0][0])
    for r in data["rules"]:
        if r["family"] == "B" and r["lhs"][:2] == ["x1", "s1"]:
            r["rhs"] = ["0"]
    _write(tmp_path / "bad.json", data)
    capsys.readouterr()
    rc = _run_on(tmp_path, command)
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.err.startswith("error: coloring fails C1")
    assert captured.out == ""


def _mutations(data, rng):
    # every deleted rule, every rule given the right side 1, 0 or a random
    # letter other than its own, every rule relabelled to each other family,
    # and 50 random 2- or 3-letter rules, each added on its own
    rules = data["rules"]
    n = data["n"]
    letters = [_token(a) for a in alphabet(n)]
    tokens = letters + ["0"]
    for t, r in enumerate(rules):
        yield f"delete {t}", rules[:t] + rules[t + 1:]
        other = rng.choice([a for a in letters if [a] != r["rhs"]])
        for rhs in ([], ["0"], [other]):
            if rhs != r["rhs"]:
                yield f"{r['family']} rhs {t} {rhs}", rules[:t] + [{**r, "rhs": rhs}] + rules[t + 1:]
        for family in RULE_FAMILIES:
            if family != r["family"]:
                yield f"relabel {t} {family}", rules[:t] + [{**r, "family": family}] + rules[t + 1:]
    for _ in range(50):
        lhs = [rng.choice(tokens) for _ in range(rng.choice((2, 3)))]
        rhs = rng.choice([[], ["0"], [rng.choice(letters)]])
        at = rng.randint(0, len(rules))
        added = {"family": rng.choice(RULE_FAMILIES), "lhs": lhs, "rhs": rhs}
        yield f"add {added}", rules[:at] + [added] + rules[at:]


@pytest.mark.parametrize("name", ["z2", "leftzero2"])
def test_every_mutated_presentation_fails_a_check(tmp_path, capsys, name):
    # a file that passes check-complete and check-embed is the construction
    # for its table: every mutation but a changed A right side exits 2 at
    # load, and no changed A right side passes both checks
    clean = tmp_path / "clean.json"
    assert main(["build", "--builtin", name, "--out", str(clean)]) == 0
    data = json.loads(clean.read_text())
    mutations = list(_mutations(data, random.Random(20130122)))
    # per rule: a deletion, at least two other right sides, four other labels
    assert len(mutations) >= 7 * len(data["rules"]) + 50
    path = tmp_path / "mutated.json"
    a_right_sides, loaded, passed = 0, [], []
    for what, rules in mutations:
        _write(path, {**data, "rules": rules})
        if what.startswith("A rhs"):
            a_right_sides += 1
            if main(["check-embed", "--pres", str(path)]) == 0 and main(["check-complete", "--pres", str(path)]) == 0:
                passed.append(what)
        elif main(["check-embed", "--pres", str(path)]) != 2:
            loaded.append(what)
    capsys.readouterr()
    assert a_right_sides >= 2 * data["n"] ** 2
    assert loaded == []
    assert passed == []


def test_enumerate_negative_maxlen_exits_2(trivial_pres, capsys):
    rc = main(["enumerate", "--pres", str(trivial_pres), "--maxlen", "-3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "maxlen" in captured.err


def _rule_of(data, lhs):
    (rule,) = [r for r in data["rules"] if r["lhs"] == lhs.split()]
    return rule


def _rule_before(data, lhs, record):
    # record inserted just before the rule of the left side lhs
    data["rules"].insert(data["rules"].index(_rule_of(data, lhs)), record)


# edits of z2's file that leave its header and its A right sides as build
# wrote them, so the loader rejects each where the file first differs
_TAMPERED = {
    # the reducer applies left sides of 2 or 3 letters with right sides of at
    # most one; a file with any other rule is not silently half-used
    "1-letter-lhs": lambda data: data["rules"].append({"family": "C", "lhs": ["s1"], "rhs": []}),
    "4-letter-lhs": lambda data: data["rules"].append({"family": "C", "lhs": ["x1"] * 4, "rhs": ["0"]}),
    "2-letter-rhs": lambda data: data["rules"].append({"family": "C", "lhs": ["x1", "s1", "s1"], "rhs": ["s1"] * 2}),
    # with every C rule x_i y_j -> 0 labelled A, the census by family pair
    # would show no C rows and still report a complete system
    "C-rules-labelled-A": lambda data: [r.update(family="A") for r in data["rules"] if r["family"] == "C"],
    # f(1, 1, 1) = 1 and f(2, 1, 3) = 0, so these rules no longer encode the
    # coloring that passes C1..C6
    "B-rule-1-flipped-to-0": lambda data: _rule_of(data, "x1 s1 y1").update(rhs=["0"]),
    "B-rule-0-flipped-to-1": lambda data: _rule_of(data, "x2 s1 y3").update(rhs=[]),
    # a Z_right rule that does not rewrite to 0; collapse's step bound, which
    # such a rule would let a pair hit, is tested on the library function in
    # tests/test_witness.py
    "Z_right-rule-to-x3": lambda data: _rule_of(data, "s1 0").update(rhs=["x3"]),
    # the reducer keeps one rule per left side and no critical pair joins two
    # equal left sides, so a second rule would pass both checks unread
    "two-rules-for-x1-y1": lambda data: _rule_before(
        data, "x1 y1", {"family": "C", "lhs": ["x1", "y1"], "rhs": ["s1"]}
    ),
    # an object reads as its keys and a string as its characters, so both
    # words here spell the rule's own
    "object-lhs": lambda data: _rule_of(data, "x1 y1").update(lhs={"x1": 0, "y1": 0}),
    "string-rhs": lambda data: _rule_of(data, "x1 y1").update(rhs="0"),
    "rules-object": lambda data: data.update(rules={}),
    "list-token": lambda data: data["rules"][0].update(lhs=[["s1"], "s1"]),
    "number-token": lambda data: data["rules"][0].update(lhs=[5, "s1"]),
    "object-token": lambda data: data["rules"][0].update(rhs=[{"a": 1}]),
    "number-rule": lambda data: data["rules"].__setitem__(0, 5),
    "rule-without-lhs": lambda data: data["rules"][2].pop("lhs"),
}


def _line_and_column(text, other):
    # where text first differs from other, from 1: the line and the column of
    # the first character that differs, or of the end of text if it is a
    # prefix of other
    i = len(os.path.commonprefix([text, other]))
    lines = text[:i].split("\n")
    return len(lines), len(lines[-1]) + 1


@pytest.mark.parametrize("command", _PRES_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("edit", _TAMPERED.values(), ids=_TAMPERED)
def test_a_tampered_rule_exits_2_where_the_file_first_differs(z2_pres, tmp_path, capsys, command, edit):
    data = json.loads(z2_pres.read_text())
    edit(data)
    _write(tmp_path / "bad.json", data)
    line, column = _line_and_column((tmp_path / "bad.json").read_text(), z2_pres.read_text())
    capsys.readouterr()
    rc = _run_on(tmp_path, command)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"error: invalid presentation file: line {line}, column {column}: expected ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["check-complete", "check-embed"])
def test_a_crlf_copy_of_builds_file_loads(z2_pres, tmp_path, capsys, command):
    # the CLI reads a file with universal newlines, so CRLF line ends read as
    # build's LF
    crlf = tmp_path / "crlf.json"
    crlf.write_bytes(z2_pres.read_bytes().replace(b"\n", b"\r\n"))
    assert b"\r\n" in crlf.read_bytes()
    capsys.readouterr()
    assert main([command, "--pres", str(z2_pres)]) == 0
    built = capsys.readouterr()
    assert main([command, "--pres", str(crlf)]) == 0
    assert capsys.readouterr() == built


@pytest.mark.parametrize("command", _PRES_COMMANDS, ids=lambda argv: argv[0])
def test_json_nested_too_deeply_to_decode_exits_2(tmp_path, capsys, command):
    (tmp_path / "bad.json").write_text("[" * 100_000 + "]" * 100_000)
    rc = _run_on(tmp_path, command)
    captured = capsys.readouterr()
    assert rc == 2
    assert "invalid presentation JSON" in captured.err
    assert "Traceback" not in captured.err + captured.out
