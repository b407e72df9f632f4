"""The three benchmark workloads.

Each workload builds its state in `setup()` and lists one round of
operations in `ops`.  An operation is an Op: `run()` does the work that is
timed and `check(result)` compares the outcome against values derived
apart from hopfforge (see algebras.py and README.md).  `check` returns
"ok", or "failed" for an operation the program is known to get wrong;
it raises Mismatch when an output is wrong.  Every round runs the same
operations in the same order, so the share of failed operations is the
same in every run.

Calls into hopfforge go through module attributes (`grading.certify`,
not a name imported from it) so that the per-layer tracer, which swaps
those attributes, sees them.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import algebras as A

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


class Mismatch(Exception):
    """An output of hopfforge disagrees with the independent expectation."""


def expect(condition, message: str) -> None:
    if not condition:
        raise Mismatch(message)


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str]
    hosts: tuple = ()


def _load(text: str):
    from hopfforge import parser
    H, _ = parser.build_algebra(parser.parse(text))
    return H


# -- certify-deep ----------------------------------------------------------------


class CertifyDeep:
    """Fresh full certification at truncations 7-8, plus a negative control.

    Each operation parses a `.hopf` text, builds the algebra and runs
    `grading.certify`; nothing is shared between operations, so memo
    caches start empty every time (the catalog builders would return a
    cached instance).
    """

    name = "certify-deep"

    def __init__(self, seed: int):
        rng = A.seeded(seed, self.name)
        lams = rng.sample(A.LAMBDAS, 3)
        params = rng.choice(A.E_PARAMS)
        self.cases = [
            (A.b_lambda(lams[0]), 8, True),
            (A.b_lambda(lams[1]), 7, True),
            (A.b_lambda(lams[2]), 7, True),
            (A.e_params(1, 1, 0, 0), 7, True),
            (A.e_params(*params), 7, True),
            (A.heisenberg(), 7, True),
            (A.negative_control(), 8, False),
        ]
        rng.shuffle(self.cases)
        self.ops: list[Op] = []

    def setup(self) -> None:
        self.ops = []
        for defn, order, positive in self.cases:
            text = defn.hopf_text()
            _load(text)                       # the input is well formed
            self.ops.append(Op(f"certify {defn.name} T={order}",
                               self._certify(text, order),
                               self._checker(defn, order, positive)))

    @staticmethod
    def _certify(text, order):
        def run():
            from hopfforge import grading
            H = _load(text)
            return H, grading.certify(H, order)
        return run

    @staticmethod
    def _checker(defn, order, positive):
        def check(result):
            from hopfforge import grading
            H, report = result
            if not positive:
                failed = [c.name for c in report.failures()]
                expect(failed == ["filtration"],
                       f"{defn.name}: expected a filtration failure, "
                       f"got failures {failed}")
                expect(H.filtration is None,
                       f"{defn.name}: rejected algebra kept a certificate")
                return "ok"
            expect(report.passed, f"{defn.name}: certification failed: "
                   + "; ".join(c.name for c in report.failures()))
            cert = H.filtration
            expect(cert.truncation == order, f"{defn.name}: order {cert.truncation}")
            dims = A.graded_dims(defn.weights, order)
            expect(list(cert.graded_dims) == dims,
                   f"{defn.name}: graded dims {cert.graded_dims} != {dims}")
            pairs = [list(p) for p in grading.signature(H).pairs]
            expect(pairs == A.signature_pairs(defn.weights),
                   f"{defn.name}: signature {pairs}")
            return "ok"
        return check


# -- identities -----------------------------------------------------------------

# Weight strata: every round holds the same number of elements of each
# weight, so the amount of work barely depends on the seed.
SINGLE_WEIGHTS = (1, 2, 3, 4, 5)
PAIR_WEIGHTS = ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (1, 4))
WORD_LENGTHS = (2, 3, 4, 5, 6)
COEFFS = [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3)]


class Identities:
    """Identities of the structure maps on seed-generated elements.

    Hosts are certified at truncation 6 during set-up, which also runs one
    round untimed so that the memo caches are warm; the timed rounds then
    repeat the same checks.
    """

    name = "identities"

    def __init__(self, seed: int):
        self.seed = seed
        rng = A.seeded(seed, self.name)
        self.lam = rng.choice(A.LAMBDAS)
        self.params = rng.choice(A.E_PARAMS)
        self.hosts: list = []
        self.ops: list[Op] = []

    def setup(self) -> None:
        from hopfforge import grading
        rng = A.seeded(self.seed, self.name + "/elements")
        defs = [("B", A.b_lambda(self.lam)), ("E", A.e_params(*self.params)),
                ("U", A.heisenberg())]
        self.hosts = []
        self.ops = []
        for family, defn in defs:
            H = _load(defn.hopf_text())
            report = grading.certify(H, 6)
            if not report.passed:
                raise Mismatch(f"{defn.name}: host failed certification")
            self.hosts.append(H)
            chi = _character(H, family, self.params, rng)
            self.ops += self._host_ops(H, defn, chi, rng)
        for op in self.ops:                   # warm the memo caches
            op.check(op.run())

    def _host_ops(self, H, defn, chi, rng) -> list[Op]:
        ops = []
        for kind in ("coassociative", "antipode_convolution",
                     "antipode_degree", "antipode_inverse"):
            for w in SINGLE_WEIGHTS:
                a = _element(H, w, rng)
                ops.append(_identity_op(kind, H, defn, w, a))
        for kind in ("coproduct_multiplicative", "degree_submultiplicative",
                     "winding_multiplicative"):
            for wa, wb in PAIR_WEIGHTS:
                a, b = _element(H, wa, rng), _element(H, wb, rng)
                ops.append(_pair_op(kind, H, defn, (wa, wb), a, b, chi))
        for length in WORD_LENGTHS:
            word = tuple(rng.randrange(H.presentation.ngens)
                         for _ in range(length))
            ops.append(_rewrite_op(H, defn, word, rng.randrange(1 << 30)))
        return ops


def _element(H, w: int, rng):
    """A constant plus every monomial of weight exactly w, seeded coefficients."""
    pres = H.presentation
    terms = {m: rng.choice(COEFFS) for m in pres.monomials_of_weight(w)}
    terms[pres.identity_monomial()] = rng.choice([0] + COEFFS)
    return pres.element(terms)


def _character(H, family, params, rng):
    """A character that kills every relation, chosen per algebra family.

    B: only X may be nonzero ([Y,X] = -Y and [Z,X] = -Z + lam*Y).
    E(a,b,l1,l2): X = 0 ([Z,X] = X) and W = a*Z + l2*Y ([W,Z]).
    U(heisenberg): Z = 0 ([Y,X] = -Z).
    """
    from hopfforge import nakayama
    pick = lambda: rng.choice(COEFFS)
    if family == "B":
        values = {"X": pick()}
    elif family == "E":
        a, _, _, l2 = map(Fraction, params)
        y, z = pick(), pick()
        values = {"X": 0, "Y": y, "Z": z, "W": a * z + l2 * y}
    else:
        values = {"X": pick(), "Y": pick(), "Z": 0}
    chi = nakayama.character(H, values)
    if not chi.report.passed:
        raise Mismatch(f"{H.name}: seeded character fails its relations")
    return chi


def _identity_op(kind, H, defn, w, a) -> Op:
    from hopfforge import tensor

    def coassociative():
        t = H.coproduct(a)
        return t.apply_to_leg(1, H.coproduct) == t.apply_to_leg(2, H.coproduct)

    def antipode_convolution():
        t = H.coproduct(a)
        unit = H.scalar(H.counit(a))
        return (tensor.contract(t.apply_to_leg(1, H.antipode)) == unit
                and tensor.contract(t.apply_to_leg(2, H.antipode)) == unit)

    def antipode_degree():
        # certified weights are degrees: a's top weight w is its degree
        d = H.coradical_degree(a)
        r = H.s_squared(a) - a
        return (d == w and H.coradical_degree(H.antipode(a)) == d
                and (not r or H.coradical_degree(r) < d))

    def antipode_inverse():
        return H.antipode_inverse(H.antipode(a)) == a

    run = {"coassociative": coassociative,
           "antipode_convolution": antipode_convolution,
           "antipode_degree": antipode_degree,
           "antipode_inverse": antipode_inverse}[kind]
    return Op(f"{kind} {defn.name} w={w}", run, _holds(kind, defn), (H,))


def _pair_op(kind, H, defn, weights, a, b, chi) -> Op:
    from hopfforge import nakayama, tensor

    def coproduct_multiplicative():
        return H.coproduct(a * b) == tensor.tensor_multiply(H.coproduct(a),
                                                            H.coproduct(b))

    def degree_submultiplicative():
        da, db = H.coradical_degree(a), H.coradical_degree(b)
        return (da, db) == weights and H.coradical_degree(a * b) <= da + db

    def winding_multiplicative():
        return all(nakayama.winding(chi, a * b, side)
                   == nakayama.winding(chi, a, side) * nakayama.winding(chi, b, side)
                   for side in ("left", "right"))

    run = {"coproduct_multiplicative": coproduct_multiplicative,
           "degree_submultiplicative": degree_submultiplicative,
           "winding_multiplicative": winding_multiplicative}[kind]
    return Op(f"{kind} {defn.name} w={weights}", run, _holds(kind, defn), (H,))


def _rewrite_op(H, defn, word, rng_seed) -> Op:
    pres = H.presentation

    def run():
        return (pres.reduce_word(word)
                == pres.reduce_word(word, rng=random.Random(rng_seed)))
    return Op(f"rewrite_order {defn.name} len={len(word)}", run,
              _holds("rewrite_order", defn), (H,))


def _holds(kind, defn):
    def check(result):
        expect(result is True, f"{kind} fails on {defn.name}")
        return "ok"
    return check


# -- cli-cold ---------------------------------------------------------------------

BUILTIN_COMMANDS = ("verify", "signature", "lantern", "antipode-order",
                    "numerology", "report")
SUB_COMMANDS = ("coideal", "antipode-order", "nakayama")
# Checks that come from numerology_report; every other check is a
# certificate.
NUMEROLOGY = re.compile(r"no gaps|witt bound|at least two primitives|"
                        r"generated (from|in) degree 1")


@dataclass
class SubCase:
    """A builtin subalgebra and what it must look like."""
    sub: str
    side: str
    weights: list
    images: dict            # Nakayama images, as parse_poly dicts
    drop: dict | None       # S^2(g) - g for the witness g; None = identity
    report_fails: bool = False


class CliCold:
    """`hopfforge` invocations, one fresh interpreter each, truncation 6."""

    name = "cli-cold"

    def __init__(self, seed: int, traced: bool = False):
        rng = A.seeded(seed, self.name)
        e2 = rng.choice(A.E_PARAMS)
        beta_l, beta_r, alpha = rng.sample(A.LAMBDAS, 3)
        self.traced = traced
        self.builtins = [
            ("B:1", A.b_lambda(Fraction(1))),
            ("B:-2", A.b_lambda(Fraction(-2))),
            ("B:1/2", A.b_lambda(Fraction(1, 2))),
            ("E", A.e_params(1, 1, 0, 0)),
            ("E:" + ",".join(map(str, e2)), A.e_params(*e2)),
            ("U:heisenberg", A.heisenberg()),
            ("U:nonabelian2", A.nonabelian2()),
        ]
        # Nakayama images with chi = counit are S^2 (right coideals) or
        # S^-2 (left coideals) on the generators; README.md derives them.
        self.subs = [
            ("B:1", SubCase("L:inf", "left", [1, 2],
                            {"Y": lin(Y=1), "Z": lin(Z=1, Y=1)}, lin(Y=-1),
                            report_fails=True)),
            ("B:1", SubCase("R:inf", "right", [1, 2], R_INF_IMAGES, lin(Y=-1),
                            report_fails=True)),
            ("B:1", SubCase(f"L:{beta_l}", "left", [1, 2],
                            {"Y": lin(Y=1), "B": lin(B=1, Y=beta_l)},
                            lin(Y=-beta_l))),
            ("B:1", SubCase(f"R:{beta_r}", "right", [1, 2],
                            {"Y": lin(Y=1), "B": lin(B=1, Y=-beta_r)},
                            lin(Y=-beta_r))),
            ("B:1", SubCase(f"g_alpha:{alpha}", "hopf", [1], {"C": lin(C=1)},
                            None)),
            ("B:1", SubCase("g_inf", "hopf", [1], {"Y": lin(Y=1)}, None)),
            ("E", SubCase("T", "right", [1, 1, 3],
                          {"X": lin(X=1), "Y": lin(Y=1), "V": lin(V=1, X=-2)},
                          lin(X=-2), report_fails=True)),
        ]
        data = os.path.join(BENCH_DIR, "data")
        self.files = {name: os.path.join(data, name) for name in
                      ("b_half.hopf", "heisenberg.hopf", "e_solved.hopf",
                       "negative_control.hopf")}
        self.ops = self._round()
        rng.shuffle(self.ops)

    def setup(self) -> None:
        for path in self.files.values():
            with open(path, encoding="utf-8") as fh:
                _load(fh.read())              # the shipped files parse

    def _round(self) -> list[Op]:
        ops = []
        for name, defn in self.builtins:
            for cmd in BUILTIN_COMMANDS:
                ops.append(self._op([cmd, "--builtin", name],
                                    _full_checker(cmd, defn)))
        for host, case in self.subs:
            cmds = list(SUB_COMMANDS)
            # report --sub on the proper coideals is kept (and fails); on
            # L/R at a seeded rational it would fail the same way on
            # seed-dependent input, so it is not run there.
            if case.report_fails or case.side == "hopf":
                cmds.append("report")
            for cmd in cmds:
                ops.append(self._op([cmd, "--builtin", host, "--sub", case.sub],
                                    _sub_checker(cmd, case)))
        b_half = A.b_lambda(Fraction(1, 2))
        r_inf = SubCase("R_inf", "right", [1, 2], R_INF_IMAGES, lin(Y=-1))
        f = self.files
        for cmd in ("verify", "signature", "lantern"):
            ops.append(self._op([cmd, f["b_half.hopf"]],
                                _full_checker(cmd, b_half)))
        ops.append(self._op(["coideal", f["b_half.hopf"]], _file_coideals))
        ops.append(self._op(["antipode-order", f["b_half.hopf"]], _file_orders))
        ops.append(self._op(["nakayama", f["b_half.hopf"], "--sub", "R_inf"],
                            _sub_checker("nakayama", r_inf)))
        ops.append(self._op(["report", f["heisenberg.hopf"]],
                            _full_checker("report", A.heisenberg())))
        for cmd in ("verify", "report"):
            ops.append(self._op([cmd, f["e_solved.hopf"]],
                                _full_checker(cmd, A.e_params(1, 1, 0, 0))))
        ops.append(self._op(["verify", f["negative_control.hopf"]],
                            _rejected))
        return ops

    def _op(self, argv, checker) -> Op:
        argv = argv + ["--format", "json"]
        if self.traced:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "spans.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "hopfforge.cli", *argv]
        shown = " ".join(os.path.basename(a) if a.endswith(".hopf") else a
                         for a in argv)

        def run():
            return subprocess.run(cmd, capture_output=True, text=True,
                                  env=child_env(), cwd=ROOT, timeout=150)

        def check(proc):
            return checker(proc, shown)
        return Op(shown, run, check)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _payload(proc, shown, codes=(0,)):
    expect(proc.returncode in codes,
           f"{shown}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout)


def _certificates_pass(data, shown) -> None:
    bad = [c["name"] for c in data["checks"]
           if c["status"] != "pass" and not NUMEROLOGY.search(c["name"])]
    expect(not bad, f"{shown}: failing certificate checks {bad}")


def _all_pass(data, shown) -> None:
    bad = [c["name"] for c in data["checks"] if c["status"] != "pass"]
    expect(not bad, f"{shown}: failing checks {bad}")


def _full_checker(cmd, defn):
    """Checks for a command on a whole algebra (builtin or file)."""
    def check(proc, shown):
        data = _payload(proc, shown)
        _all_pass(data, shown)
        out = data["data"]
        if cmd in ("signature", "report"):
            expect(out["signature"] == A.signature_pairs(defn.weights),
                   f"{shown}: signature {out['signature']}")
            dims = A.graded_dims(defn.weights, max(4, data["truncation"]))
            expect(out["hilbert"] == dims, f"{shown}: hilbert {out['hilbert']}")
        if cmd in ("lantern", "report"):
            _check_lantern(out["lantern"], defn, shown)
        if cmd in ("antipode-order", "report"):
            (entry,) = out["antipode_order"]
            _check_order(entry, _full_drop(defn), shown)
        if cmd in ("numerology", "report"):
            expect(out["numerology"], f"{shown}: no numerology entry")
        return "ok"
    return check


def _full_drop(defn):
    """S^2(g) - g for the first generator S^2 moves, or None if S^2 = id.

    Enveloping algebras (all generators primitive): S^2 = id.
    B(lam): S(Z) = -Z + X*Y, so S^2(Z) = Z - [X,Y] = Z - Y for every lam.
    E(a,b,l1,l2): S(Z) = -Z and S(W) = -W + [Z,X] = -W + X, so
    S^2(W) = W - 2*X.
    """
    if all(w == 1 for w in defn.weights):
        return None
    if len(defn.gens) == 3:
        return lin(Y=-1)
    return lin(X=-2)


def _check_order(entry, drop, shown) -> None:
    if drop is None:
        expect(entry["kind"] == "identity", f"{shown}: expected S^2 = id")
        return
    expect(entry["kind"] == "infinite", f"{shown}: expected infinite order")
    got = parse_poly(entry["witness"]["drop"])
    expect(got == drop, f"{shown}: S^2 drop {entry['witness']['drop']}")
    square = parse_poly(entry["witness"]["square"])
    gen = parse_poly(entry["witness"]["generator"])
    expect(square == _add(gen, drop), f"{shown}: square != generator + drop")


def _check_lantern(lan, defn, shown) -> None:
    labels = lan["labels"]
    index = {g: i for i, g in enumerate(labels)}
    expect(labels == [g for g, _ in defn.gens], f"{shown}: lantern labels")
    expect(lan["degrees"] == defn.weights, f"{shown}: lantern degrees")
    got: dict = {}
    for a, b, e, c in lan["brackets"]:
        got.setdefault((index[a], index[b]), {})[index[e]] = Fraction(c)
    expect(A.lie_table_ok(labels, lan["degrees"], got),
           f"{shown}: lantern brackets are not a graded Lie algebra")
    want = {(index[a], index[b]): {index[e]: c for e, c in t.items()}
            for (a, b), t in A.lie_brackets(defn).items()}
    expect(got == want, f"{shown}: lantern brackets {lan['brackets']}")


def _sub_checker(cmd, case: SubCase):
    def check(proc, shown):
        if cmd == "report" and case.report_fails:
            data = _payload(proc, shown, codes=(0, 1))
            _certificates_pass(data, shown)
            return "failed" if proc.returncode else "ok"
        data = _payload(proc, shown)
        _all_pass(data, shown)
        out = data["data"]
        if cmd in ("coideal", "report"):
            (sub,) = out["subalgebras"]
            expect(sub["side"] == case.side, f"{shown}: side {sub['side']}")
            expect(sub["signature"] == A.signature_pairs(case.weights),
                   f"{shown}: signature {sub['signature']}")
            expect(sub["gk"] == len(case.weights), f"{shown}: gk {sub['gk']}")
            if case.side == "hopf":
                expect(sub["hopf_subalgebra"], f"{shown}: not a Hopf subalgebra")
        if cmd in ("antipode-order", "report"):
            (entry,) = out["antipode_order"]
            _check_order(entry, case.drop, shown)
        if cmd == "nakayama":
            (entry,) = out["nakayama"]
            got = {g: parse_poly(v) for g, v in entry["images"].items()}
            expect(got == case.images,
                   f"{shown}: Nakayama images {entry['images']}")
            if case.side == "hopf":
                expect(entry.get("fourth_power_identity") is True,
                       f"{shown}: fourth-power identity")
        return "ok"
    return check


def _file_coideals(proc, shown):
    data = _payload(proc, shown)
    _all_pass(data, shown)
    subs = {s["name"]: s for s in data["data"]["subalgebras"]}
    expect(sorted(subs) == ["L_inf", "R_inf"], f"{shown}: subs {sorted(subs)}")
    for name, side in (("L_inf", "left"), ("R_inf", "right")):
        expect(subs[name]["side"] == side, f"{shown}: {name} side")
        expect(subs[name]["signature"] == [[1, 1], [2, 1]],
               f"{shown}: {name} signature")
    return "ok"


def _file_orders(proc, shown):
    """S^2(Z) = Z - Y on L_inf and S^2(W) = W - Y on R_inf."""
    data = _payload(proc, shown)
    _all_pass(data, shown)
    entries = data["data"]["antipode_order"]
    expect([e["target"] for e in entries] == ["L_inf", "R_inf"],
           f"{shown}: targets {[e['target'] for e in entries]}")
    for entry in entries:
        _check_order(entry, lin(Y=-1), shown)
    return "ok"


def _rejected(proc, shown):
    expect(proc.returncode == 3, f"{shown}: exit {proc.returncode}, expected 3")
    expect("filtration" in proc.stderr, f"{shown}: no filtration failure named")
    return "ok"


_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?(.+)$")


def parse_poly(text: str) -> dict:
    """'B + 2/3*Y', 'W - Y', '-2*X' -> {monomial: Fraction}.

    A monomial is a sorted tuple of (generator, exponent); () is 1.
    """
    out: dict = {}
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:].strip()
    for i, piece in enumerate(re.split(r" ([+-]) ", text)):
        if i % 2:
            sign = 1 if piece == "+" else -1
            continue
        if re.fullmatch(r"\d+(/\d+)?", piece):
            coeff, mono = Fraction(piece), ()
        else:
            m = _TERM.match(piece)
            coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
            factors = []
            for f in m.group(2).split("*"):
                g, _, e = f.partition("^")
                factors.append((g, int(e) if e else 1))
            mono = tuple(sorted(factors))
        out[mono] = out.get(mono, 0) + sign * coeff
        sign = 1
    return {k: v for k, v in out.items() if v}


def lin(**coeffs) -> dict:
    """A linear combination of generators in parse_poly's form."""
    return {((g, 1),): Fraction(c) for g, c in coeffs.items() if c}


R_INF_IMAGES = {"Y": lin(Y=1), "W": lin(W=1, Y=-1)}


def _add(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


WORKLOADS = {w.name: w for w in (CertifyDeep, Identities, CliCold)}
