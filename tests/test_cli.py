import json
import os
import pathlib
import subprocess
import sys

import pytest

from dseq.census import (
    EVEN,
    FULL,
    ODD,
    OTHER,
    ClassKey,
    batch_records,
    census_primes,
    classify,
)
from dseq.cli import main
from dseq.sequence import PRIME_CAP, _full_length_counts, long_division_digits
from dseq.store import CACHE_HEADER, CacheRecord, ResultCache

from conftest import DATA_DIR, golden_rows

SCRIPTS = pathlib.Path(__file__).parents[1] / "scripts"


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    """Keep default cache files inside tmp and the environment clean."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DSEQ_CACHE", raising=False)
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_digits_examples(capsys):
    code, out, _ = run_cli(capsys, "digits", "7", "6")
    assert (code, out) == (0, "142857\n")
    code, out, _ = run_cli(capsys, "digits", "3", "3")
    assert (code, out) == (0, "333\n")
    code, out, _ = run_cli(capsys, "digits", "7", "0")
    assert (code, out) == (0, "")


def test_digits_wraps_at_80(capsys):
    code, out, _ = run_cli(capsys, "digits", "7", "165")
    lines = out.splitlines()
    assert [len(x) for x in lines] == [80, 80, 5]
    assert lines[0] == "142857" * 13 + "14"
    # an exact multiple of 80, and one digit past it
    for n in (160, 161):
        code, out, _ = run_cli(capsys, "digits", "97", str(n))
        digits = "".join(map(str, long_division_digits(97, n)))
        assert code == 0
        assert out == "".join(digits[i:i + 80] + "\n" for i in range(0, n, 80))


def test_digits_rejects_bad_input(capsys):
    code, _, err = run_cli(capsys, "digits", "5", "1")
    assert code == 1
    assert "not invertible mod 5" in err
    code, _, err = run_cli(capsys, "digits", "9", "1")
    assert code == 1
    code, _, err = run_cli(capsys, "digits", "7", "-1")
    assert code == 1


def test_tables_first_rows(capsys):
    code, out, _ = run_cli(capsys, "tables", "1", "--no-cache")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "prime,c0,c1,c2,c3,c4,c5,c6,c7,c8,c9"
    assert lines[1] == "601,35,28,28,31,28,28,31,28,28,35"
    assert len(lines) == 26


def test_tables_usage_errors(capsys):
    assert run_cli(capsys, "tables", "9")[0] == 1
    assert run_cli(capsys, "tables", "0")[0] == 1
    assert run_cli(capsys, "tables")[0] == 1


def test_figure_small_census(capsys):
    code, out, _ = run_cli(capsys, "figure", "10", "csv", "--no-cache")
    assert code == 0
    assert out == (
        "digit,count\n0,0\n1,1\n2,1\n3,1\n4,1\n5,1\n6,0\n7,1\n8,1\n9,0\n")
    code, out, _ = run_cli(capsys, "figure", "2", "csv", "--no-cache")
    assert code == 0
    assert [line.endswith(",0") for line in out.splitlines()[1:]] == [True] * 10


def test_figure_json(capsys):
    code, out, _ = run_cli(capsys, "figure", "10", "json", "--no-cache")
    data = json.loads(out)
    assert data == {
        "limit": 10,
        "include_other": True,
        "counts": [0, 1, 1, 1, 1, 1, 0, 1, 1, 0],
        "total": 7,
    }


def test_figure_svg(capsys):
    code, out, _ = run_cli(capsys, "figure", "10", "svg", "--no-cache")
    assert code == 0
    assert out.startswith("<svg ")
    assert out.endswith("</svg>\n")
    assert out.count("<rect") == 11  # background plus ten bars
    assert "&#8804; 10" in out


def test_figure_rejects_unknown_format(capsys):
    assert run_cli(capsys, "figure", "10", "yaml")[0] == 1


def test_verify_json_clean(capsys):
    code, out, _ = run_cli(capsys, "verify", "1000", "json", "--no-cache")
    assert code == 0
    data = json.loads(out)
    assert data["limit"] == 1000
    assert len(data["rules"]) == 12
    assert all(r["hard_failures"] == 0 for r in data["rules"])
    assert all(r["strong_failures"] == 0 for r in data["rules"])
    assert data["violations"] == []


def test_verify_tiny_limit(capsys):
    code, out, _ = run_cli(capsys, "verify", "2", "json", "--no-cache")
    data = json.loads(out)
    assert all(r["checked"] == 0 for r in data["rules"])


def test_verify_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "verify", "1000", "--no-cache")
    lines = out.splitlines()
    assert lines[0] == (
        "rule,checked,hard_failures,strong_failures,soft_passed,soft_checked")
    assert len(lines) == 13
    assert lines[1].startswith("FL1,12,0,0,")


def test_verify_cache_transparency(capsys, tmp_path):
    cache = tmp_path / "c.csv"
    _, cold, _ = run_cli(capsys, "verify", "1000", "--cache", str(cache))
    _, warm, _ = run_cli(capsys, "verify", "1000", "--cache", str(cache))
    _, none, _ = run_cli(capsys, "verify", "1000", "--no-cache")
    assert cold == warm == none


def test_verify_jobs_transparency(capsys):
    _, one, _ = run_cli(capsys, "verify", "2000", "json", "--no-cache", "--jobs", "1")
    _, four, _ = run_cli(capsys, "verify", "2000", "json", "--no-cache", "--jobs", "4")
    assert one == four


def test_verify_exit_three_on_cache_breaking_an_equal_group(capsys, tmp_path):
    # 601 (HL1E) with f(1) and f(8) down one, f(2) and f(7) up one: the sum and
    # the mirror hold, f(1) = f(2) = f(4) does not, so verify never tallies it
    path = tmp_path / "c.csv"
    path.write_bytes(_cache_bytes([L7, "601,9,300,2,35,27,29,31,28,28,31,29,27,35"]))
    code, out, err = run_cli(capsys, "verify", "1000", "json", "--cache", str(path))
    assert (code, out) == (3, "")
    assert "c.csv:3: record for 601: period 300 = (p-1)/2 is even" in err


def test_verify_1e5_bytes_are_pinned(capsys, session_cache):
    for fmt in ("json", "csv"):
        code, out, _ = run_cli(capsys, "verify", "100000", fmt, "--cache", session_cache.path)
        assert code == 0
        assert out == (DATA_DIR / f"verify-1e5.{fmt}").read_text()


def test_profile_examples(capsys):
    code, out, _ = run_cli(capsys, "profile", "601", "--no-cache")
    assert code == 0
    assert out == ("p,l,period,k,lsd,second_parity,length_class\n"
                   "601,9,300,2,1,even,half\n")
    code, out, _ = run_cli(capsys, "profile", "601", "json", "--no-cache")
    assert json.loads(out) == {
        "p": 601, "l": 9, "period": 300, "cofactor": 2,
        "lsd": 1, "second_parity": "even", "length_class": "half",
    }
    code, _, err = run_cli(capsys, "profile", "4", "--no-cache")
    assert code == 1
    assert "not prime" in err


def test_census_filters_by_key(capsys):
    code, out, _ = run_cli(capsys, "census", "1000", "--lsd", "1",
                           "--parity", "even", "--length", "half", "--no-cache")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "prime,c0,c1,c2,c3,c4,c5,c6,c7,c8,c9"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [401, 601, 761, 881]


def test_census_requires_key_flags(capsys):
    assert run_cli(capsys, "census", "1000", "--lsd", "1")[0] == 1


def test_census_json(capsys):
    code, out, _ = run_cli(capsys, "census", "100", "json", "--lsd", "3",
                           "--parity", "even", "--length", "half", "--no-cache")
    data = json.loads(out)
    assert data["key"] == {"lsd": 3, "second_parity": "even",
                           "length_class": "half"}
    assert [r["prime"] for r in data["rows"]] == [3, 43, 83]


def test_scan_parity_output(capsys):
    code, out, _ = run_cli(capsys, "scan-parity", "1000", "--no-cache")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "lsd,second_digit,parities,count"
    assert "1,0,even,2" in lines
    code, _, err = run_cli(capsys, "scan-parity", "99", "--no-cache")
    assert code == 1


def test_limit_flag_equals_positional(capsys):
    _, a, _ = run_cli(capsys, "verify", "500", "json", "--no-cache")
    _, b, _ = run_cli(capsys, "verify", "--limit", "500", "json", "--no-cache")
    assert a == b
    code, _, err = run_cli(capsys, "verify", "500", "--limit", "600", "--no-cache")
    assert code == 1
    assert "either positionally" in err
    # --limit takes what a positional limit takes: plain decimal digits
    census = ["--lsd", "1", "--parity", "even", "--length", "half"]
    for command, extra in (("verify", []), ("figure", []), ("scan-parity", []),
                           ("census", census)):
        for bad in ("-5", "+5", "5_0", "5.0", "x", "\u00b2"):  # a superscript two
            code, out, err = run_cli(capsys, command, *extra, bad, "--no-cache")
            assert (code, out) == (1, ""), (command, bad)
            assert "unrecognized argument" in err
            code, out, err = run_cli(capsys, command, *extra, "--limit", bad, "--no-cache")
            assert (code, out) == (1, ""), (command, bad)
            assert "--limit: must be an integer >= 0" in err


def test_format_flag_equals_positional(capsys):
    _, a, _ = run_cli(capsys, "profile", "601", "json", "--no-cache")
    _, b, _ = run_cli(capsys, "profile", "601", "--format", "json", "--no-cache")
    assert a == b
    assert run_cli(capsys, "profile", "601", "csv", "--format", "json",
                   "--no-cache")[0] == 1


def test_full_range_conflicts_with_limit(capsys):
    code, _, err = run_cli(capsys, "verify", "100", "--full-range", "--no-cache")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["profile", "601"],
    ["scan-parity", "1000"],
    ["tables", "1"],
    ["figure", "100"],
    ["verify", "100"],
    ["census", "100", "--lsd", "1", "--parity", "even", "--length", "half"],
], ids=lambda argv: argv[0])
def test_jobs_must_be_positive(capsys, argv):
    code, _, err = run_cli(capsys, *argv, "--jobs", "0", "--no-cache")
    assert code == 1
    assert "--jobs" in err


@pytest.mark.parametrize("argv, appended", [
    (["verify", "2000"], lambda spec: spec.cofactor in (1, 2)),
    (["census", "2000", "--lsd", "3", "--parity", "odd", "--length", "other"],
     lambda spec: spec.key == ClassKey(3, ODD, OTHER)),
    (["figure", "2000", "--full-half-only"], lambda spec: True),
    (["scan-parity", "2000"], lambda spec: False),
    (["profile", "601"], lambda spec: False),
], ids=["verify", "census", "figure", "scan-parity", "profile"])
def test_commands_append_only_what_they_count(capsys, tmp_path, argv, appended):
    path = tmp_path / "c.csv"
    assert run_cli(capsys, *argv, "--cache", str(path))[0] == 0
    lines = path.read_text().splitlines()[1:] if path.exists() else []
    expected = [spec.p for spec in map(classify, census_primes(2000)) if appended(spec)]
    assert [int(line.split(",")[0]) for line in lines] == expected


def test_default_cache_file_created(capsys, isolated_cwd):
    run_cli(capsys, "tables", "1")
    text = (isolated_cwd / "dseq-cache.csv").read_text()
    assert text.startswith(CACHE_HEADER + "\n")


def test_env_cache_path(capsys, isolated_cwd, monkeypatch):
    target = isolated_cwd / "env-cache.csv"
    monkeypatch.setenv("DSEQ_CACHE", str(target))
    run_cli(capsys, "tables", "1")
    assert target.exists()
    assert not (isolated_cwd / "dseq-cache.csv").exists()


def test_cache_flag_overrides_env(capsys, isolated_cwd, monkeypatch):
    monkeypatch.setenv("DSEQ_CACHE", str(isolated_cwd / "env-cache.csv"))
    target = isolated_cwd / "flag-cache.csv"
    run_cli(capsys, "tables", "1", "--cache", str(target))
    assert target.exists()
    assert not (isolated_cwd / "env-cache.csv").exists()


def test_table_export_honours_env_cache(isolated_cwd):
    # the cache holds the panel primes of tables 1-7, so the export computes
    # only table 8's and appends them to the file that $DSEQ_CACHE names
    mine = isolated_cwd / "mine.csv"
    held = dict(row for n in range(1, 8) for row in golden_rows(n))
    mine.write_text(CACHE_HEADER + "\n" + "".join(
        CacheRecord(spec.p, spec.l, spec.period, held[spec.p]).to_line() + "\n"
        for spec in map(classify, sorted(held))))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), DSEQ_CACHE=str(mine))
    subprocess.run([sys.executable, str(SCRIPTS / "export_class_tables.py"), "--outdir", "out"],
                   check=True, env=env, stdout=subprocess.DEVNULL)
    assert not (isolated_cwd / "dseq-cache.csv").exists()
    with ResultCache(mine) as cache:
        assert len(cache) == len(held) + len(golden_rows(8))
    for n in range(1, 9):
        assert (isolated_cwd / "out" / f"table{n}.csv").read_text() == \
            (DATA_DIR / f"table{n}.csv").read_text()


def test_corrupt_cache_exit_three(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    for content in (b"wrong-header\n", b"\xff\xfe\n"):  # the second is not UTF-8
        bad.write_bytes(content)
        code, _, err = run_cli(capsys, "profile", "601", "--cache", str(bad))
        assert code == 3
        assert "cache corruption" in err and "bad.csv" in err


def test_cache_record_contradicting_mirror_lemma_exit_three(capsys, tmp_path):
    # 601 has period 300; swapping the counts of digits 0 and 1 keeps every
    # field consistent but breaks f(d) = f(9-d), so the row is never served
    path = tmp_path / "swapped.csv"
    path.write_text(f"{CACHE_HEADER}\n7,7,6,1,0,1,1,0,1,1,0,1,1,0\n"
                    "601,9,300,2,28,35,28,31,28,28,31,28,28,35\n")
    code, out, err = run_cli(capsys, "tables", "1", "--cache", str(path))
    assert (code, out) == (3, "")
    assert "swapped.csv:3: record for 601" in err


# Valid record lines of 7 (full length), 13 (period 6) and 601 (period 300).
L7 = "7,7,6,1,0,1,1,0,1,1,0,1,1,0"
L13 = "13,3,6,2,1,0,1,1,0,0,1,1,0,1"
L601 = "601,9,300,2,35,28,28,31,28,28,31,28,28,35"
# 601 with other counts that obey every record rule: consistent, but not 601's record
OTHER_601 = "601,9,300,2,36,28,28,30,28,28,30,28,28,36"
ABOVE_CAP = 2147483659  # the least prime above PRIME_CAP


def _cache_bytes(lines, newline="\n", tail=""):
    return ("".join(x + newline for x in [CACHE_HEADER, *lines]) + tail).encode()


def _field(line, text):
    """line with its fifth field (the count of digit 0) replaced by text."""
    fields = line.split(",")
    fields[4] = text
    return ",".join(fields)


# Each corrupt cache file and the line its refusal names (None: the whole file).
CORRUPT = {
    "bad_header": (b"wrong-header\n" + L7.encode() + b"\n", None),
    "not_utf8": (b"\xff\xfe\n", None),
    "garbage": (_cache_bytes([L7, "garbage", L13]), 3),
    "blank_line": (_cache_bytes([L7, "   ", L13]), 3),
    "empty_line": (_cache_bytes([L7, "", L13]), 3),
    "13_fields": (_cache_bytes([L7, L601.rsplit(",", 1)[0]]), 3),
    "15_fields": (_cache_bytes([L7, L601 + ",0"]), 3),
    "multiplier": (_cache_bytes([L7, L601.replace("601,9,", "601,3,")]), 3),
    "period_zero": (_cache_bytes([L7, L601.replace(",300,", ",0,")]), 3),
    "period_not_divisor": (_cache_bytes([L7, L601.replace(",300,2,", ",7,2,")]), 3),
    "cofactor": (_cache_bytes([L7, L601.replace(",300,2,", ",300,3,")]), 3),
    "negative_count": (_cache_bytes([L7, L601.replace(",35,28,", ",64,-1,", 1)]), 3),
    "count_sum": (_cache_bytes([L7, _field(L601, "36")]), 3),
    # as many digits as int() reads from text, so the counts sum to one digit more
    "count_4300_digits": (_cache_bytes([L7, _field(L601, "9" * 4300)]), 3),
    "not_prime": (_cache_bytes([L7, "91,9,6,15,1,1,1,1,1,1,0,0,0,0"]), 3),
    "p_0": (_cache_bytes([L7, "0" + L7[1:]]), 3),
    "p_1": (_cache_bytes([L7, "1,9,1,0,1,0,0,0,0,0,0,0,0,0"]), 3),
    "p_2": (_cache_bytes([L7, "2,7,1,1,0,0,0,0,0,0,0,0,0,1"]), 3),
    "above_cap": (_cache_bytes([L7, ",".join(map(str, (
        ABOVE_CAP, 1, ABOVE_CAP - 1, 1, *_full_length_counts(ABOVE_CAP))))]), 3),
    "brackets": (_cache_bytes([L7, f"[{L601}]"]), 3),
    "float": (_cache_bytes([L7, L601.replace("601,", "601.0,", 1)]), 3),
    "torn_tail": (_cache_bytes([L7, "garbage"], tail="13,3,6"), 3),
    "crlf": (_cache_bytes([L7, L13, "garbage"], newline="\r\n"), 4),
    "cr": (_cache_bytes([L7, L13, "garbage"], newline="\r"), 4),
    "identical_duplicate": (_cache_bytes([L7, L7, "garbage"]), 4),
    "conflicting_duplicate": (_cache_bytes([L601, OTHER_601]), 3),
    "space_in_field": (_cache_bytes([L7, _field(L601, "3 5")]), 3),
    "tab_in_field": (_cache_bytes([L7, _field(L601, "3\t5")]), 3),
    "plus_sign": (_cache_bytes([L7, _field(L601, "+35")]), 3),
    "leading_zero": (_cache_bytes([L7, _field(L601, "035")]), 3),
    "underscore": (_cache_bytes([L7, _field(L601, "3_5")]), 3),
    "non_ascii_digits": (_cache_bytes([L7, _field(L601, "٣٥")]), 3),
    "full_length_lemma": (_cache_bytes([L13, "7,7,6,1,1,0,1,0,1,1,0,1,0,1"]), 3),
    "mirror_lemma": (_cache_bytes([L7, "601,9,300,2,28,35,28,31,28,28,31,28,28,35"]), 3),
    "complement_lemma": (_cache_bytes([L7, "31,9,15,2,2,2,2,2,1,2,2,0,1,1"]), 3),
    # even (p-1)/2: f(1) = f(2) = f(4) for 601 (HL1E), and the x2 relation with
    # the non-residues for 157 (HL7O); both mirrored and summing to the period
    "times_two_square": (_cache_bytes([L7, "601,9,300,2,35,27,29,31,28,28,31,29,27,35"]), 3),
    "times_two_non_square": (_cache_bytes([L7, "157,7,78,2,8,8,10,7,6,6,7,10,8,8"]), 3),
    # odd (p-1)/2, complemented: 8f - 4N_p off the class-number shape for 31
    # (p = 7 mod 8) and 67 (p = 3 mod 8); h = -1 for 31; g = 2 for 43 (p = 3 mod 8)
    "shape_7_mod_8": (_cache_bytes([L7, "31,9,15,2,2,1,3,2,1,2,1,0,2,1"]), 3),
    "shape_3_mod_8": (_cache_bytes([L7, "67,7,33,2,3,3,5,5,2,5,1,2,4,3"]), 3),
    "h_below_1": (_cache_bytes([L7, "31,9,15,2,0,2,3,1,1,2,2,0,1,3"]), 3),
    "g_below_4": (_cache_bytes([L7, "43,3,21,2,2,4,0,5,4,0,0,4,0,2"]), 3),
    # the first bad line of a block is the least one that breaks any rule
    "semantic_before_grammar": (_cache_bytes(
        [L7, L601.replace(",300,2,", ",300,3,"), L13, "garbage"]), 3),
    "conflict_before_broken": (_cache_bytes([L601, OTHER_601, L7, "garbage"]), 3),
    # k = (p-1)/T is even exactly when 10 is a square mod p: 601 (half length)
    # as full length with its N_p, and 17 (full length) as half length
    "full_for_half": (_cache_bytes([L7, "601,9,600,1," + ",".join(["60"] * 10)]), 3),
    "half_for_full": (_cache_bytes([L7, "17,7,8,2,1,1,2,0,0,0,0,2,1,1"]), 3),
}


@pytest.fixture(scope="module")
def full_length_lines():
    """Record lines of the full-length primes to 5e4: more than one 64 KiB load block."""
    keys = {ClassKey(lsd, parity, FULL) for lsd in (1, 3, 7, 9) for parity in (EVEN, ODD)}
    return [rec.to_line() for rec in batch_records(census_primes(50_000), keys=keys)]


@pytest.mark.parametrize("name", list(CORRUPT) + ["lemma_in_second_block"])
def test_corrupt_cache_matrix_exit_three(capsys, tmp_path, full_length_lines, name):
    if name == "lemma_in_second_block":
        content = _cache_bytes([*full_length_lines, L601.replace(",35,28,", ",28,35,", 1)])
        line = len(full_length_lines) + 2
        assert 65536 < content.index(b"\n601,") < 2 * 65536  # in the second block
    else:
        content, line = CORRUPT[name]
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "tables", "1", "--cache", str(path))
    assert (code, out) == (3, "")
    assert f"bad.csv:{line}: " in err if line else "bad.csv: " in err


def test_unknown_command_is_usage_error(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 1
    assert run_cli(capsys)[0] == 1


_KEY = ["--lsd", "1", "--parity", "even", "--length", "half"]

# Every command in every format, uncached, and the file under tests/data that
# holds its exact stdout.
GOLDEN = {
    "cli/figure.csv": ["figure", "2000", "csv", "--no-cache"],
    "cli/figure.json": ["figure", "2000", "json", "--no-cache"],
    "cli/figure.svg": ["figure", "2000", "svg", "--no-cache"],
    "cli/figure-full-half-only.csv": ["figure", "2000", "csv", "--full-half-only", "--no-cache"],
    "cli/figure-full-half-only.json": ["figure", "2000", "json", "--full-half-only", "--no-cache"],
    "cli/verify.csv": ["verify", "2000", "csv", "--no-cache"],
    "cli/verify.json": ["verify", "2000", "json", "--no-cache"],
    "cli/profile.csv": ["profile", "601", "--no-cache"],
    "cli/profile.json": ["profile", "601", "json", "--no-cache"],
    "cli/census.csv": ["census", "2000", *_KEY, "--no-cache"],
    "cli/census.json": ["census", "2000", "json", *_KEY, "--no-cache"],
    "cli/scan-parity.csv": ["scan-parity", "2000", "csv", "--no-cache"],
    "cli/scan-parity.json": ["scan-parity", "2000", "json", "--no-cache"],
    "cli/digits-7-200.txt": ["digits", "7", "200"],
    "table3.csv": ["tables", "3", "--no-cache"],
}


@pytest.mark.parametrize("golden", GOLDEN)
def test_every_command_and_format_prints_its_golden_bytes(capsys, golden):
    expected = (DATA_DIR / golden).read_text()
    assert run_cli(capsys, *GOLDEN[golden]) == (0, expected, "")


@pytest.mark.parametrize("argv, message", [
    (["figure", "10", "20"], "dseq: two limits given: 10 and 20"),
    (["figure", "csv", "json"], "dseq: two formats given: csv and json"),
    (["verify", "500", "--limit", "600"],
     "dseq: give the limit either positionally or via --limit"),
    (["verify", "json", "--format", "csv"],
     "dseq: give the format either positionally or via --format"),
    (["profile", "601", "csv", "--format", "json"],
     "dseq: give the format either positionally or via --format"),
    (["verify", "100", "--full-range"], "dseq: --full-range replaces the limit; drop one"),
    (["figure", "--full-range", "--limit", "100"],
     "dseq: --full-range replaces the limit; drop one"),
    (["figure", "yaml"], "dseq: unrecognized argument 'yaml'"),
    (["figure", "10", "--bogus"], "dseq: unrecognized arguments: --bogus"),
    (["verify", "--limit", "x"],
     "dseq verify: argument --limit: must be an integer >= 0, got 'x'"),
    (["scan-parity", "100", "--jobs", "0"],
     "dseq scan-parity: argument --jobs: must be an integer >= 1, got '0'"),
    (["frobnicate"],
     "dseq: argument command: invalid choice: 'frobnicate' (choose from 'digits', "
     "'tables', 'figure', 'verify', 'profile', 'census', 'scan-parity')"),
    (["census", "1000", "--lsd", "1"],
     "dseq census: the following arguments are required: --parity, --length"),
    # more digits than Python converts to an int: one line either way, no digits echoed
    pytest.param(["verify", "--limit", "9" * 5000],
                 f"error: limit of 5000 digits exceeds PRIME_CAP = {PRIME_CAP}",
                 id="verify --limit 5000 nines"),
    pytest.param(["verify", "9" * 5000],
                 f"error: limit of 5000 digits exceeds PRIME_CAP = {PRIME_CAP}",
                 id="verify 5000 nines"),
    (["profile", "x601"], "dseq profile: argument p: invalid int value: 'x601'"),
    pytest.param(["profile", "9" * 5000],
                 f"error: p of 5000 digits exceeds PRIME_CAP = {PRIME_CAP}",
                 id="profile 5000 nines"),
    # refused while its arguments are parsed, before digits' lack of --no-cache
    pytest.param(["digits", "9" * 5000, "5"],
                 f"error: p of 5000 digits exceeds PRIME_CAP = {PRIME_CAP}",
                 id="digits 5000 nines"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else "")
def test_usage_errors_print_one_exact_line(capsys, argv, message):
    assert run_cli(capsys, *argv, "--no-cache") == (1, "", message + "\n")


def test_leading_zeros_do_not_count_toward_a_limit(capsys):
    padded = "0" * 5000 + "2000"  # more characters than Python converts to an int
    expected = run_cli(capsys, "figure", "2000", "--no-cache")
    assert run_cli(capsys, "figure", padded, "--no-cache") == expected
    assert run_cli(capsys, "figure", "--limit", padded, "--no-cache") == expected


@pytest.mark.parametrize("limit", [10**20, PRIME_CAP + 1], ids=["1e20", "cap+1"])
@pytest.mark.parametrize("command", [["figure"], ["verify"], ["scan-parity"], ["census", *_KEY]],
                         ids=lambda command: command[0])
def test_limit_above_prime_cap_is_one_error_line(capsys, monkeypatch, command, limit):
    import dseq.numtheory

    # refused before anything is sieved: such a sieve would not fit in memory
    monkeypatch.setattr(dseq.numtheory, "prime_mask", lambda n: pytest.fail(f"sieved to {n}"))
    assert run_cli(capsys, *command, "--limit", str(limit), "--no-cache") == (
        1, "", f"error: limit {limit} exceeds PRIME_CAP = {PRIME_CAP}\n")


# Runs one cache-served command in a fresh interpreter; prints its exit code
# and stdout, and which of the modules it was given got imported.
_IMPORT_BUDGET = """
import contextlib, io, json, sys
from dseq.cli import main
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({"imported": [m for m in json.loads(sys.argv[2]) if m in sys.modules],
                  "out": [code, buf.getvalue()]}))
"""

# Modules that no warm command needs, except verify's own rule checks.
_HEAVY = ["dataclasses", "inspect", "numpy", "multiprocessing", "dseq.invariants",
          "dseq.counting", "dseq.classnumber"]


def test_cache_served_commands_do_not_import_numpy(capsys, tmp_path):
    cache = str(tmp_path / "c.csv")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-m", "dseq.cli", "figure", "2000", "--cache", cache],
                   check=True, env=env, stdout=subprocess.DEVNULL)
    commands = [(["verify", "2000", "json", "--cache", cache], ["dseq.invariants"]),
                (["figure", "2000", "svg", "--cache", cache], []),
                (["scan-parity", "2000", "--cache", cache], []),
                (["profile", "601", "--cache", cache], [])]
    for argv, allowed in commands:
        child = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET, json.dumps(argv),
                                json.dumps(_HEAVY)],
                               check=True, env=env, capture_output=True, text=True)
        result = json.loads(child.stdout)
        assert result["imported"] == allowed, argv
        assert result["out"] == list(run_cli(capsys, *argv)[:2])


def test_census_that_counts_nothing_imports_no_counting_code(capsys, tmp_path):
    # verify caches the full- and half-length primes, so every miss of a census
    # of half-length primes is an "other" prime, dropped before any is counted
    cache = tmp_path / "c.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-m", "dseq.cli", "verify", "2000", "--cache", str(cache)],
                   check=True, env=env, stdout=subprocess.DEVNULL)
    built = cache.read_bytes()
    argv = ["census", "2000", *_KEY, "--jobs", "1"]
    child = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET,
                            json.dumps([*argv, "--cache", str(cache)]), json.dumps(_HEAVY)],
                           check=True, env=env, capture_output=True, text=True)
    result = json.loads(child.stdout)
    assert result["imported"] == []
    assert result["out"] == list(run_cli(capsys, *argv, "--no-cache")[:2])
    assert cache.read_bytes() == built


def test_interrupted_cold_run_keeps_finished_chunks(capsys, tmp_path, monkeypatch):
    import dseq.counting

    argv = ["figure", "3000", "csv", "--jobs", "1"]
    fresh = tmp_path / "fresh.csv"
    assert run_cli(capsys, *argv, "--cache", str(fresh))[0] == 0
    expected_out = run_cli(capsys, *argv, "--no-cache")[1]

    primes = census_primes(3000)
    chunk = len(primes) // 8  # one worker cuts the misses into eight chunks
    period_counts, calls = dseq.counting.period_counts, []

    def interrupted(specs):
        calls.append(len(specs))
        if len(calls) > 1:  # while the second chunk is counted
            raise KeyboardInterrupt
        return period_counts(specs)

    path = tmp_path / "c.csv"
    monkeypatch.setattr(dseq.counting, "period_counts", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main([*argv, "--cache", str(path)])
    monkeypatch.undo()
    assert calls == [chunk, chunk]
    lines = fresh.read_text().splitlines(keepends=True)
    assert path.read_text() == "".join(lines[:1 + chunk])  # the first chunk, ascending

    assert run_cli(capsys, *argv, "--cache", str(path))[:2] == (0, expected_out)
    assert path.read_bytes() == fresh.read_bytes()


def _dseq(*argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.Popen([sys.executable, "-m", "dseq.cli", *argv], env=env,
                            stdout=subprocess.PIPE, **kwargs)


def test_killed_pool_run_resumes_to_the_same_bytes(tmp_path):
    import signal
    import time

    argv = ["figure", "30000", "csv", "--jobs", "2"]
    fresh, path = tmp_path / "fresh.csv", tmp_path / "c.csv"
    expected_out = _dseq(*argv, "--cache", str(fresh)).communicate()[0]
    child = _dseq(*argv, "--cache", str(path), start_new_session=True)
    # kill the run and its workers as soon as the first chunk is on disk
    while child.poll() is None and (not path.exists()
                                    or path.stat().st_size <= len(CACHE_HEADER) + 1):
        time.sleep(0.001)
    if child.poll() is None:
        os.killpg(child.pid, signal.SIGKILL)
    child.communicate()
    assert 0 < path.stat().st_size < fresh.stat().st_size

    rerun = _dseq(*argv, "--cache", str(path))
    assert rerun.communicate()[0] == expected_out
    assert rerun.returncode == 0
    assert path.read_bytes() == fresh.read_bytes()


def test_two_writers_share_one_cache(tmp_path):
    path = str(tmp_path / "c.csv")
    writers = [_dseq("figure", "20000", "csv", "--jobs", "2", "--cache", path)
               for _ in range(2)]
    outs = [w.communicate()[0] for w in writers]
    assert [w.returncode for w in writers] == [0, 0]
    assert outs[0] == outs[1]
    with ResultCache(path) as cache:  # loads, duplicates and all
        assert len(cache) == len(census_primes(20000))
    verify = ["verify", "20000", "json"]
    shared = _dseq(*verify, "--cache", path, stderr=subprocess.PIPE).communicate()
    fresh = _dseq(*verify, "--cache", str(tmp_path / "fresh.csv"),
                  stderr=subprocess.PIPE).communicate()
    assert shared == fresh


@pytest.mark.parametrize("argv", [["profile", "601", "--cache", "."],
                                  ["figure", "100", "--cache", "missing/c.csv"]],
                         ids=["cache_is_a_directory", "cache_in_a_missing_directory"])
def test_cache_path_io_error_is_one_error_line(tmp_path, argv):
    child = _dseq(*argv, cwd=tmp_path, stderr=subprocess.PIPE)
    out, err = child.communicate()
    assert (child.returncode, out) == (1, b"")
    assert err.startswith(b"error: [Errno ") and err.count(b"\n") == 1
    assert b"Traceback" not in err
