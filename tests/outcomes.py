"""Every pinned outcome of the relalg command, one row per case.

A row is a command line, with paths relative to the repository root, its
exit code, the sha256 of its stdout (that of the empty stdout for exit 2
and 3) and, where the case is about a message, a substring of stderr.
``tests/test_outcomes.py`` runs each row in process through
``relalg.cli.main``; run this file to run each row on the installed
``relalg`` command instead, from any directory:

    python tests/outcomes.py

Inputs that are not under ``data/`` are committed files under
``tests/inputs/`` (and ``tests/dual_numbers_rb.json`` and
``tests/zmod2_noncommutative.json``).  A digest is changed by hand, from the
failing assertion's message, and only on a commit that means to change that
report."""

import hashlib
import shlex
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
EMPTY = hashlib.sha256(b"").hexdigest()
DIGITS = "1" * 5000


class Row(NamedTuple):
    argv: tuple
    status: int
    stdout_sha256: str
    stderr: str = ""


def row(command, status, stdout_sha256, stderr=""):
    return Row(tuple(shlex.split(command)), status, stdout_sha256, stderr)


ROWS = [
    # the README's commands
    row("check-semigroup --semigroup data/zmod2.json", 0,
        "9aae24ed9e91f3044da335f4677c3f64f39a47e56971db30fe19284482db2e09"),
    row("check-dimonoid --dimonoid data/matching2.json", 0,
        "f395014112376c130d2843856f255493fb32e7f82da5e55786fe0ead17ca7229"),
    row("check-cocycle --cocycle data/cocycle_sign.json", 0,
        "b76a17932f2b6cef8080e2bef1e3ccfea2a152dfceedc5564511f212e8310c7d"),
    row("check-algebra --algebra data/cocycle_algebra.json --suite RelAssoc", 0,
        "883a58b79ed22fa3f8de15bcc9d8ecb345f79a4b051fdde43d01ab36df617503"),
    row("check-algebra --algebra data/zinbiel8.json --suite RelZinbiel", 0,
        "15268ff1fb431dd1b45cf479e9b0411d379dbea534e91b94291bb106f98b6c10"),
    row("check-rb --rb data/rb_reciprocal.json --window 20", 0,
        "aeff16fd96183e71bf6944423147e7dcbfc15fed4feae92eecb8e057a7656e82"),
    # the identity family on the cocycle algebra
    row("check-morphism --morphism tests/inputs/identity_morphism.json --suite RelAssoc", 0,
        "2c6d62f1e833eddb16a66e2d6bed0e9c1339e9d467881f6f8b292ae64171ac40",
        "PASS morphism:RelAssoc: 4 instances"),
    # the sign twist of u u = u over the trivial monoid
    row("derive --construction cocycle-twist --algebra tests/inputs/one_dim_base.json"
        " --cocycle data/cocycle_sign.json", 0,
        "de33b2e52d1e9ef1c9fe12e675f2ffdc6d41e28ff945b8bef8fa7c2c6e10f7fc"),
    row("derive --construction dend-from-zinbiel --algebra data/zinbiel8.json", 0,
        "d90888c7274e677c1aaec25cb607067f8d5611cee7cbf255b68a6418de5654fd"),
    row("collapse --algebra data/cocycle_algebra.json --suite RelAssoc", 0,
        "cb137d6e4707b3537e393d3d0d1315c2f04eb04da054f427a3a9587868b615d5"),
    row('free-eval --expr "succ(a, x[], y[])" --dimonoid data/matching2.json', 0,
        "e81ebbed2a0a535b83327139b83dbf64e703244efefebf88ac10f577ed066c39"),
    row("free-check --suite DimonoidDendriform --dimonoid data/matching2.json"
        " --samples 200 --max-vertices 6 --seed 0", 0,
        "9be52345d9ac8a02e49656173e25d0557d1488aba4983e1a540262ec2ac4a7a7",
        "PASS free-check:DimonoidDendriform: 2400 instances"),
    row('free-eval --expr "mul(a,a, x[], y[])" --semigroup data/trivial_a.json', 0,
        "c431e7aba59cc2c295c772d94dffb3c11197ff61af3ad0216030b4c95163b39b"),
    # RelAssoc's 100^3 index tuples, none read by the line's mul, are not
    # listed; the Rota-Baxter scan reaches the indices 1..200, each read once
    row("check-rb --rb data/rb_reciprocal.json --window 100", 0,
        "d56f2cbb6cece1aa0715f1f59698843442c7fb35be366db6620c1721e3fb2749",
        "PASS rota-baxter: 10000 instances"),
    # zinbiel8 with ast keyed by the bare index element, a single-index role:
    # derive and collapse each lift it to a pair-indexed one
    row("derive --construction dend-from-zinbiel --algebra tests/inputs/zinbiel8_family.json", 0,
        "d90888c7274e677c1aaec25cb607067f8d5611cee7cbf255b68a6418de5654fd"),
    row("collapse --algebra tests/inputs/zinbiel8_family.json --suite RelZinbiel", 0,
        "e8f741d334c2e5b464cfdbbdb39650af0f3f873bbf1e582451e41aa20afd2412"),
    # the derived products, each its construction compiled into one graft sum
    row('free-eval --expr "bracket(0,1, x[], circ(1,0, y[], x[]))" --semigroup data/zmod2.json', 0,
        "18e8c4053ce08f3083f3f1a129acd869a765b7bd68f461b7e4c9e9a263d1b187"),
    # a value whose trees share subtrees, with both signs and a non-integer
    # coefficient: each tree is converted, sorted and printed once
    row('free-eval --expr "2/3 * bracket(0,1, mul(0,1, x[], y[]), circ(1,0, y[], x[]))'
        ' + -1/2 * x[]" --semigroup data/zmod2.json', 0,
        "c011e3a1cece0dd462bc0ba1e0d37bcd78fc5965436dd1e18e418f3775fe13f1"),
    row("free-check --suite RelLie --samples 20 --semigroup data/zmod2.json", 0,
        "da68de5ec4286e2cc81e46f53acefd1f1b202d38191cac7b3e492642981dd72c",
        "PASS free-check:RelLie: 240 instances"),
    # the lifted prec reads its second index, succ and circ their first: a
    # sample is taken only at the index tuples holding 0 where no application
    # reads, half of them, and all are counted
    row("free-check --suite RelDendriform --samples 20 --semigroup data/zmod2.json", 0,
        "44a761606303fe3930da3408b261ea3245f000a8d8da59b9454242c4c14dceeb",
        "PASS free-check:RelDendriform: 480 instances"),
    row("free-check --suite RelPreLie --samples 20 --semigroup data/zmod2.json", 0,
        "5b0b45813e469ec9e177b831e6406cdbb9124307f6c0b924582859ed069befdf",
        "PASS free-check:RelPreLie: 160 instances"),
    # each sample tuple taken once, at one index tuple over a power of Z/2:
    # the reports of the scan at every index tuple its sides read
    row("free-check --suite FamDendriform --samples 20 --semigroup data/zmod2.json", 0,
        "a41c7dc19c8578e31ce7cf603e69db8cf9e6400b1dd4ad92e922dee2dc8dfdec",
        "PASS free-check:FamDendriform: 240 instances"),
    row("free-check --suite RelAssoc --samples 20 --semigroup data/zmod2.json", 0,
        "e97d5f092e0db8f45f91931749cca31dc5a06f99a9632f0905a486a73fb9a605",
        "PASS free-check:RelAssoc: 160 instances"),
    row("free-check --suite DimonoidDendriform --samples 20 --semigroup data/zmod2.json", 0,
        "f14fc5fbd9d294ad8468b523bb425b3260fe4e5b09a9303e7aba47423e8f0787",
        "PASS free-check:DimonoidDendriform: 240 instances"),
    # every algebra construction: its output, committed under tests/inputs/,
    # passes the construction's target suite (dend-from-zinbiel on zinbiel8
    # is a README row)
    row("check-algebra --algebra tests/inputs/dend.json --suite RelDendriform", 0,
        "cb37a5fcb90b20056b2a92bb3bc8d41b7ee2463f457dd8e64517898c6b853e79",
        "PASS axioms:RelDendriform: 2187 instances"),
    row("derive --construction assoc-from-dend --algebra tests/inputs/dend.json", 0,
        "d4fd20d74716b260861d30e91b2aeff3bce79270d5ae71e9c4a82344ad5d83c6"),
    row("check-algebra --algebra tests/inputs/assoc.json --suite RelAssoc", 0,
        "b941e6ca9544ac9678780e2726ee34a9593bd5c290d20157291049c234e7a366",
        "PASS axioms:RelAssoc: 729 instances"),
    row("derive --construction prelie-from-dend --algebra tests/inputs/dend.json", 0,
        "76ea04c89fed4ad6ec9c2ac82997b987914a712d2b5f1999ee8fb6a1c0870abf"),
    row("check-algebra --algebra tests/inputs/prelie.json --suite RelPreLie", 0,
        "38e5ada5dff9c797780060651fe7292f2787f4b36bce71ced168ee1915321f81",
        "PASS axioms:RelPreLie: 729 instances"),
    row("derive --construction zinbiel-from-symmetric-dend --algebra tests/inputs/dend.json", 0,
        "f432935b3ac10cfc8cf81e535257f3ad4eac8b5e745935a7a7d4408c8f703024"),
    row("check-algebra --algebra tests/inputs/zinbiel.json --suite RelZinbiel", 0,
        "15268ff1fb431dd1b45cf479e9b0411d379dbea534e91b94291bb106f98b6c10",
        "PASS axioms:RelZinbiel: 729 instances"),
    row("derive --construction lie-from-prelie --algebra tests/inputs/prelie.json", 0,
        "4b5c0baa77fb6ed1daad95e29ac9b268c4f997ba2aa9a63c634baba67794b0b8"),
    row("check-algebra --algebra tests/inputs/lie.json --suite RelLie", 0,
        "a17e8c9ac837c8fcd5b6703a2df289d46e7a549bf4bf668fb3a67cdd14e9f423",
        "PASS axioms:RelLie: 810 instances"),
    row("derive --construction comm-from-zinbiel --algebra data/zinbiel8.json", 0,
        "d353582db84c0098b26be25345286351b258583eb178c01189c6151c3869ff71"),
    row("check-algebra --algebra tests/inputs/comm.json --suite RelComm", 0,
        "915b6261dc938087a124d9656cab671c311cb96e80f8aaf5a460041c88d677f7",
        "PASS axioms:RelComm: 810 instances"),
    # zinbiel8 with a zero circ is pre-Poisson: circ's axioms hold trivially
    row("derive --construction poisson-from-prepoisson --algebra tests/inputs/prepoisson.json", 0,
        "67b768eb858382bc1ead9ba8eb33fae33302c24989497f25b1b73df2723bfab2"),
    row("check-algebra --algebra tests/inputs/poisson.json --suite RelPoisson", 0,
        "553b17ed1d5d3fcfa26cd0055b730b2e241864459ee1a8a2f21ca8f002398740",
        "PASS axioms:RelPoisson: 2349 instances"),
    # the dual numbers with R(1) = t and R(t) = 0 give a dendriform pair
    row("derive --construction dend-from-rb --rb tests/dual_numbers_rb.json", 0,
        "bbde623ed825908586867a572f4e7eb205b15ab02e317098c277f06d6181c460"),
    row("check-algebra --algebra tests/inputs/rb_dend.json --suite RelDendriform", 0,
        "833e9f7eeba4c20f63f8093c0e96a34d5a1e32e00b8d27e664dd7dc8eea35e93",
        "PASS axioms:RelDendriform: 24 instances"),
    # the non-zero outcomes: 1 a failed check, 2 malformed input, 3 a
    # contract violation, each with its message
    row("check-rb --rb data/rb_reciprocal.json --window 0", 2, EMPTY,
        "argument --window: must be at least 1, got 0"),
    row("check-algebra --algebra data/cocycle_algebra.json --suite DimonoidDendriform", 3, EMPTY,
        "error: contract violation: suite DimonoidDendriform needs a dimonoid index structure"),
    row("derive --construction assoc-from-dend --algebra data/zinbiel8.json", 3, EMPTY,
        "error: contract violation: algebra has no operation for role 'prec'"),
    # malformed files, each message naming the entry's JSON path: a row that
    # is not a list, and a row of three entries over two elements
    row("check-semigroup --semigroup tests/inputs/row.json", 2, EMPTY,
        "error: malformed input: semigroup.product[1]: expected a list of length 2, got int"),
    row("check-semigroup --semigroup tests/inputs/long_row.json", 2, EMPTY,
        "error: malformed input: semigroup.product[1]: expected a list of length 2, got 3"),
    # the cocycle algebra with a "( 1 , 1 )" key beside its "(1,1)"
    row("check-algebra --algebra tests/inputs/twice.json --suite RelAssoc", 2, EMPTY,
        "error: malformed input: algebra.ops.mul.( 1 , 1 ): index (1, 1) already given"),
    # the cocycle algebra with its "(1,1)" line written twice verbatim:
    # refused, not last-one-wins
    row("check-algebra --algebra tests/inputs/repeated_key.json --suite RelAssoc", 2, EMPTY,
        "error: malformed input: algebra.ops.mul.(1,1): key given twice"),
    # a Rota-Baxter family over Z/2 with a matrix for one element only
    row("check-rb --rb tests/inputs/rb_one_map.json", 2, EMPTY,
        "error: malformed input: rb: maps: wrong index keys (missing [1], extra [])"),
    # R_0 = 0 and R_1 = 1/2 over Z/2, read as integers over the denominator 2
    # and divided back in the counterexample: R_0(u) R_1(u) = 0, R_1(u u/2) = u/4
    row("check-rb --rb tests/inputs/rb_half.json", 1,
        "6f732b4895c419ac49504536e2882138b037bbf97a7c619bee42b60343f31344",
        "FAIL rota-baxter: 2 instances at rota_baxter ('0', '1')"),
    # scalars outside the "p/q" grammar, refused alike on every interpreter
    # (Python 3.11+ alone would read "1_000" as 1000)
    row("check-algebra --algebra tests/inputs/scalar_1_000.json --suite RelAssoc", 2, EMPTY,
        "error: malformed input: algebra.ops.mul.(0,1)[0][0][0]:"
        " bad scalar '1_000': expected \"p/q\""),
    row("check-algebra --algebra tests/inputs/scalar_1e3.json --suite RelAssoc", 2, EMPTY,
        "error: malformed input: algebra.ops.mul.(0,1)[0][0][0]:"
        " bad scalar '1e3': expected \"p/q\""),
    # an element name that an op key "(a,b)" cannot spell back
    row("check-semigroup --semigroup tests/inputs/comma.json", 2, EMPTY,
        "error: malformed input: semigroup: label 'a,b': tree labels are letters, digits and _"),
    # a decoration the tree text form cannot spell back
    row('free-eval --expr "x[]" --semigroup data/zmod2.json --decorations "x y"', 2, EMPTY,
        "error: malformed input: label 'x y': tree labels are letters, digits and _"),
    # both index options of a free command: refused, neither silently ignored
    row('free-eval --expr "x[]" --dimonoid data/matching2.json --semigroup data/zmod2.json',
        2, EMPTY,
        "not allowed with argument --dimonoid"),
    # mul with one block at all four index pairs of zmod2 reads no index:
    # u x = 0, v u = u, v v = u + v; 7 element tuples pass at all 8 index
    # tuples, and the eighth fails at the first
    row("check-algebra --algebra tests/inputs/shared.json --suite RelAssoc", 1,
        "3d3bcea2fb30312992093a090f92123727ed67512040baa3e2e9de7939dba9b8",
        "FAIL axioms:RelAssoc: 57 instances at assoc ('0', '0', '0')"),
    # e_i e_j = 1/2 e_max(i,j), one block at all four index pairs of zmod2
    # over three basis vectors: RelAssoc passes, each element tuple taken
    # once with z innermost and counted for its 8 index tuples
    row("check-algebra --algebra tests/inputs/emax.json --suite RelAssoc", 0,
        "e9af8667d468549cf977df0e58258f12ba1e77c0f81a43d16439b6a82ec927b2",
        "PASS axioms:RelAssoc: 216 instances"),
    # zmod2 claiming no commutativity: the derived products are refused
    # exactly as their constructions are, and mul needs no commutativity
    row('free-eval --expr "circ(0,1, x[], y[])" --semigroup tests/zmod2_noncommutative.json',
        3, EMPTY,
        "error: contract violation: this construction requires a commutative index semigroup"),
    row('free-eval --expr "mul(0,1, x[], y[])" --semigroup tests/zmod2_noncommutative.json', 0,
        "b5ffcc32abfa693547510802dc7b506e0ddb26fdc768cc99f29c322ae9bd5637"),
    row('free-eval --expr "bracket(0,1, x[], y[])" --semigroup tests/zmod2_noncommutative.json',
        3, EMPTY,
        "error: contract violation: this construction requires a commutative index semigroup"),
    # a role the algebra lacks, named as derive names it
    row("check-algebra --algebra data/cocycle_algebra.json --suite RelDendriform", 3, EMPTY,
        "error: contract violation: algebra has no operation for role 'prec'"),
    row('free-eval --expr "1/0 * x[]" --semigroup data/zmod2.json', 2, EMPTY,
        "error: malformed input: bad scalar '1/0': zero denominator"),
    # JSON nested past the recursion limit, an integer of more digits than
    # int() reads, and bytes that are not UTF-8
    row("check-semigroup --semigroup tests/inputs/deep.json", 2, EMPTY,
        "deep.json: invalid JSON: nested too deep"),
    row("check-semigroup --semigroup tests/inputs/long_int.json", 2, EMPTY,
        "long_int.json: invalid JSON: integer literal too long"),
    row("check-semigroup --semigroup tests/inputs/not_utf8.json", 2, EMPTY,
        "not_utf8.json: not UTF-8: invalid start byte at byte 15"),
    # a 5,000-digit scalar is named by a prefix and its length, not echoed
    row(f'free-eval --expr "{DIGITS} * x[]" --semigroup data/zmod2.json', 2, EMPTY,
        "error: malformed input: bad scalar '11111111111111111111'... (5000 characters)"),
    # zinbiel8 with one structure constant changed fails RelZinbiel: its
    # counterexample names the basis elements t^0, t^0, t^2
    row("check-algebra --algebra tests/inputs/bad_zinbiel.json --suite RelZinbiel", 1,
        "c79ac51b7ed83b4bcd6d2710daaa17e0106e031ab61ae78ab7a428a461957e93",
        "FAIL axioms:RelZinbiel: 3 instances at zinbiel ('e', 'e', 'e')"),
    # a constant the right side's outer products read, whose left factors
    # ast(x, y) and ast(y, x) the scan takes once per (x, y): they do not
    # read z; the counterexample is t^0, t^2, t^1
    row("check-algebra --algebra tests/inputs/bad_zinbiel_yx.json --suite RelZinbiel", 1,
        "80570bc1685aa534c04ae06760b1bdea884fb0e46e7e1f490e43a219704a7e10",
        "FAIL axioms:RelZinbiel: 20 instances at zinbiel ('e', 'e', 'e')"),
    # a product that vanished made nonzero: t^7 * t^1 = t^0 changes the
    # block's pattern, so the scan must evaluate the instances it reaches;
    # the counterexample is t^0, t^6, t^1 with an empty left side
    row("check-algebra --algebra tests/inputs/bad_zinbiel_vanish.json --suite RelZinbiel", 1,
        "c9ab7edcf710222ab8b1e7d7773326685a2793ce5de9252f964d2da1a3773891",
        "FAIL axioms:RelZinbiel: 56 instances at zinbiel ('e', 'e', 'e')"),
]


def resolve(argv):
    """The argv with its repository-relative paths made absolute."""
    return [str(ROOT / a) if a.startswith(("data/", "tests/")) else a for a in argv]


def name(row):
    """A short name for a row: its argv with paths cut to the file name and
    long arguments to their first 20 characters."""
    words = (Path(a).name if a.startswith(("data/", "tests/")) else a for a in row.argv)
    return " ".join(a if len(a) <= 40 else a[:20] + "..." for a in words)


def check(row, run):
    """Run a row through ``run(argv) -> (exit code, stdout bytes, stderr
    text)`` and assert its outcome."""
    status, out, err = run(resolve(row.argv))
    digest = hashlib.sha256(out).hexdigest()
    for failed, message in (
        (status != row.status, f"exit {status}, expected {row.status}"),
        (digest != row.stdout_sha256, f"stdout sha256 {digest}, expected {row.stdout_sha256}"),
        (row.stderr not in err, f"stderr lacks {row.stderr!r}"),
        ("Traceback" in err, "stderr has a traceback"),
    ):
        if failed:  # raised, not asserted, so that python -O checks too
            raise AssertionError(f"{message}; stderr:\n{err}")


def run_installed(argv):
    proc = subprocess.run(["relalg", *argv], capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")


if __name__ == "__main__":
    failed = 0
    for case in ROWS:
        try:
            check(case, run_installed)
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name(case)}: {exc}")
        else:
            print(f"ok   {name(case)}")
    sys.exit(f"{failed} of {len(ROWS)} rows failed" if failed else None)
