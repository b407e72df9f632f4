"""Command-line interface: certify definition files or builtins and report.

Exit codes: 0 all requested checks pass, 1 a requested check failed or
the output could not be written, 2 parse failure, 3 certificate failure.
Checks with status "info" are informational verdicts and never fail a
run.

Each command imports only what it runs: catalog for --builtin, parser for
a file, coideal where subalgebras are registered and nakayama for nakayama.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .algebra import as_fraction
from .grading import Signature, certify, hilbert_series, signature
from .hopf import HopfAlgebraError, s_squared_analysis
from .lantern import lantern, numerology_report
from .report import Check, Report

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_PARSE = 2
EXIT_CERTIFICATE = 3

SUBCOMMANDS = ("verify", "signature", "lantern", "coideal", "antipode-order",
               "nakayama", "numerology", "report")


class _CliFailure(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _e_params(params: str) -> list[Fraction]:
    """E parameters a,b,l1,l2; omitted trailing ones default to 1,1,0,0."""
    values = [as_fraction(p) for p in params.split(",")] if params else []
    if len(values) > 4:
        raise ValueError(f"E takes at most 4 parameters a,b,l1,l2, "
                         f"got {len(values)}")
    defaults = [Fraction(1), Fraction(1), Fraction(0), Fraction(0)]
    return values + defaults[len(values):]


def _parse_builtin(spec: str, truncation: int):
    """Builtin names: B:<lam>, E[:a,b,l1,l2], U:<preset>."""
    from . import catalog
    head, _, params = spec.partition(":")
    if head == "B":
        lam = as_fraction(params or "0")
        return catalog.build_b_lambda(lam, truncation)
    if head == "E":
        return catalog.build_e(*_e_params(params), truncation=truncation)
    if head == "U":
        return catalog.build_enveloping_preset(params or "abelian1", truncation)
    raise _CliFailure(f"unknown builtin {spec!r} (use B:<lam>, E[:a,b,l1,l2], "
                      f"U:<{'|'.join(catalog.ENVELOPING_PRESETS)}>)", EXIT_PARSE)


def _builtin_sub(name: str, truncation: int, builtin: str):
    from . import catalog
    head, _, params = builtin.partition(":")
    which, colon, param = name.partition(":")
    # the documented names, and whether each takes a parameter
    forms = {"B": {"L": True, "R": True, "g_alpha": True, "g_inf": False},
             "E": {"T": False}}.get(head, {})
    if which not in forms or not bool(colon) == bool(param) == forms[which]:
        raise _CliFailure(f"builtin {builtin!r} has no subalgebra {name!r} (use L:"
                          "<beta|inf>, R:<beta|inf>, g_alpha:<a>, g_inf, T)",
                          EXIT_PARSE)
    if head == "E":
        return catalog.build_e_coideal(*_e_params(params), truncation=truncation)
    return catalog.build_b_coideal(as_fraction(params or "0"), which, param,
                                   truncation)


class _Session:
    """One certified algebra plus its registered subalgebras."""

    def __init__(self, args):
        self.truncation = args.truncation
        self.checks: list[dict] = []
        self.data: dict = {}
        if args.builtin and args.file:
            raise _CliFailure("give either a file or --builtin, not both",
                              EXIT_PARSE)
        if args.builtin:
            try:
                self.H = _parse_builtin(args.builtin, self.truncation)
            except HopfAlgebraError as exc:
                raise _CliFailure(str(exc), EXIT_CERTIFICATE)
            except ValueError as exc:
                raise _CliFailure(f"bad builtin {args.builtin!r}: {exc}",
                                  EXIT_PARSE)
            self.subs: list = []  # of SubalgebraSpec
            if args.sub:
                try:
                    self.subs = [_builtin_sub(args.sub, self.truncation,
                                              args.builtin)]
                except ValueError as exc:
                    raise _CliFailure(f"bad subalgebra {args.sub!r}: {exc}",
                                      EXIT_PARSE)
            self.note(self.H.certification)
        elif args.file:
            from .parser import ParseError, build_algebra, parse, sub_arguments
            try:
                with open(args.file, "rb") as fh:
                    text = fh.read().decode("utf-8").removeprefix("\ufeff")
            except OSError as exc:
                raise _CliFailure(f"cannot read {args.file}: {exc}", EXIT_PARSE)
            except UnicodeDecodeError as exc:
                raise _CliFailure(f"cannot read {args.file}: not valid UTF-8 "
                                  f"(byte 0x{exc.object[exc.start]:02x} at "
                                  f"offset {exc.start})", EXIT_PARSE)
            try:
                df = parse(text)
            except ParseError as exc:
                raise _CliFailure(f"parse error: {exc}", EXIT_PARSE)
            try:
                self.H, blocks = build_algebra(df)
            except (ValueError, HopfAlgebraError) as exc:
                raise _CliFailure(f"bad definition: {exc}", EXIT_PARSE)
            try:
                report = certify(self.H, self.truncation)
            except ValueError as exc:  # truncation below the generator weights
                raise _CliFailure(str(exc), EXIT_PARSE)
            self.note(report)
            if not report.passed:
                raise _CliFailure(
                    "certification failed:\n" + report.summary(),
                    EXIT_CERTIFICATE)
            self.subs = []
            for block in blocks:
                from .coideal import register_subalgebra
                try:
                    self.subs.append(register_subalgebra(
                        **sub_arguments(self.H, block)))
                except (ValueError, HopfAlgebraError) as exc:
                    raise _CliFailure(f"sub {block.name}: {exc}",
                                      EXIT_CERTIFICATE)
            if args.sub:
                wanted = [s for s in self.subs if s.name == args.sub]
                if not wanted:
                    raise _CliFailure(f"no sub named {args.sub!r} in the file",
                                      EXIT_PARSE)
                self.subs = wanted
        else:
            raise _CliFailure("give a definition file or --builtin", EXIT_PARSE)

    def note(self, report: Report, fail_status: str = "fail") -> None:
        """Record the checks; a failing one gets fail_status ("fail" or
        "info", an informational verdict that does not fail the run)."""
        for c in report.checks:
            self.checks.append({"name": c.name,
                                "status": "pass" if c.passed else fail_status,
                                "details": c.details})


def _sig_json(sig: Signature):
    return [[d, m] for d, m in sig.pairs]


def _run_signature(session: _Session, order: int) -> None:
    sig = signature(session.H)
    session.data["signature"] = _sig_json(sig)
    session.data["hilbert"] = list(hilbert_series(sig, order).coeffs)
    session.data["signature_text"] = str(sig)


def _run_lantern(session: _Session) -> None:
    L = lantern(session.H)
    # graded Lie by proof (lantern._extract_lantern): a bracket is read off
    # terms of Delta(g_e) of weight w_e only, so it adds degrees, and it is
    # dual to the leading cobracket, co-Jacobi by coassociativity
    for name in ("grading additivity", "jacobi identity"):
        session.checks.append({"name": name, "status": "pass", "details": ""})
    session.data["lantern"] = {
        "labels": list(L.labels),
        "degrees": list(L.degrees),
        "brackets": [[L.labels[a], L.labels[b], L.labels[e], str(c)]
                     for (a, b), tbl in sorted(L.brackets.items())
                     for e, c in sorted(tbl.items())],
        "text": str(L),
    }


def _run_coideal(session: _Session) -> None:
    from .coideal import is_hopf_subalgebra, primitive_of_coideal
    out = []
    for spec in session.subs:
        session.note(spec.coideal_report)
        out.append({
            "name": spec.name,
            "side": spec.side,
            "signature": _sig_json(spec.signature()),
            "gk": spec.gk_dimension(),
            "hopf_subalgebra": is_hopf_subalgebra(spec),
            "primitive": str(primitive_of_coideal(spec)),
        })
    session.data["subalgebras"] = out


def _run_antipode_order(session: _Session) -> None:
    targets = session.subs if session.subs else [session.H]
    out = []
    for target in targets:
        analysis = s_squared_analysis(target)
        entry = {"target": analysis.target,
                 "kind": "identity" if analysis.identity else "infinite"}
        if not analysis.identity:
            g, r = analysis.witness
            entry["witness"] = {"generator": str(g), "square": str(g + r),
                                "drop": str(r)}
        entry["text"] = analysis.describe()
        out.append(entry)
    session.data["antipode_order"] = out


def _chi_for(session: _Session, target, spec: str):
    from .nakayama import (character, counit_character,
                           enveloping_integral_character, verify_character)
    if spec in (None, "", "eps", "counit"):
        return counit_character(target)
    if spec == "auto":
        return enveloping_integral_character(target)
    values = {}
    for piece in spec.split(","):
        name, _, value = map(str.strip, piece.partition("="))
        if not value:
            raise _CliFailure(
                f"bad --chi entry {piece!r}; use name=value,...", EXIT_PARSE)
        if name in values:
            raise _CliFailure(f"bad --chi {spec!r}: generator {name} is given "
                              "twice", EXIT_PARSE)
        try:
            values[name] = as_fraction(value)
        except ValueError as exc:
            raise _CliFailure(f"bad --chi {piece!r}: {exc}", EXIT_PARSE)
    try:
        chi = character(target, values)
    except ValueError as exc:
        raise _CliFailure(f"bad --chi {spec!r}: {exc}", EXIT_PARSE)
    if chi.report is None:
        raise _CliFailure("character does not kill the relations:\n"
                          + verify_character(chi).summary(), EXIT_CHECK)
    return chi


def _run_nakayama(session: _Session, chi_spec: str) -> None:
    if not session.subs:
        raise _CliFailure("nakayama needs --sub (the subalgebra to analyze)",
                          EXIT_PARSE)
    from .coideal import is_hopf_subalgebra
    from .nakayama import nakayama_automorphism, s4_identity_check
    out = []
    for spec in session.subs:
        chi = _chi_for(session, spec, chi_spec)
        nu = nakayama_automorphism(spec, chi)
        entry = {
            "target": spec.name,
            "chi": {g: str(chi.value(g)) for g in spec.presentation.names},
            "images": {g: str(nu.images[i])
                       for i, g in enumerate(spec.presentation.names)},
            "text": nu.describe(),
        }
        if is_hopf_subalgebra(spec):
            rep = s4_identity_check(spec, chi)
            session.note(rep)
            entry["fourth_power_identity"] = rep.passed
        out.append(entry)
    session.data["nakayama"] = out


def _run_numerology(session: _Session, informational: bool) -> None:
    """Numerology verdicts; with informational, a failing verdict on a
    subalgebra (which a proper coideal may legitimately fail) is recorded
    as "info" rather than "fail"."""
    if session.subs:
        for spec in session.subs:
            sig = spec.signature()
            report = numerology_report(sig)
            if len(session.subs) > 1:  # tell the subs' verdicts apart
                report.checks = [Check(f"{spec.name}: {c.name}", c.passed,
                                       c.details) for c in report.checks]
            session.note(report, "info" if informational else "fail")
            session.data.setdefault("numerology", []).append(
                {"target": spec.name, "signature": _sig_json(sig)})
    else:
        sig = signature(session.H)
        session.note(numerology_report(sig))
        session.note(session.H.filtration.carnot_report)  # certified layers
        session.data["numerology"] = [{"target": session.H.name,
                                       "signature": _sig_json(sig)}]


_MARKS = {"pass": "ok  ", "fail": "FAIL", "info": "info"}


def _emit(session: _Session, args, code_hint: int) -> int:
    failed = any(c["status"] == "fail" for c in session.checks)
    payload = {
        "algebra": session.H.name,
        "truncation": session.truncation,
        "checks": session.checks,
        "data": session.data,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        print(f"algebra {session.H.name} (truncation {session.truncation})")
        for c in session.checks:
            line = f"  {_MARKS[c['status']]} {c['name']}"
            if c["details"]:
                line += f": {c['details']}"
            print(line)
        _print_data(session.data)
        print("result: " + ("FAIL" if failed else "pass"))
    return code_hint if failed else EXIT_OK


def _print_data(data: dict, indent: str = "") -> None:
    for key, value in data.items():
        if key.endswith("_text"):
            continue
        if isinstance(value, dict):
            text = value.get("text")
            if text is not None:
                print(f"{indent}{key}: {text}")
            else:
                print(f"{indent}{key}:")
                _print_data(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{indent}{key}:")
            for item in value:
                text = item.get("text")
                label = item.get("name") or item.get("target") or ""
                if text is not None:
                    print(f"{indent}  {label}: {text}" if label
                          else f"{indent}  {text}")
                else:
                    print(f"{indent}  {json.dumps(item, sort_keys=False)}")
        elif key != "signature":
            print(f"{indent}{key}: {value}")
    if "signature_text" in data:
        print(f"{indent}signature: {data['signature_text']}")


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file):
        # argparse drops a failed write of help or usage; main reports it
        if message:
            file.write(message)


def make_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="hopfforge",
        description="exact computations with presented connected Hopf algebras")
    p.add_argument("command", choices=SUBCOMMANDS)
    p.add_argument("file", nargs="?", help=".hopf definition file")
    p.add_argument("--builtin", help="builtin algebra, e.g. B:1, E, U:heisenberg")
    p.add_argument("--sub", help="subalgebra name (builtin: L:inf, R:0, "
                                 "g_alpha:1, g_inf, T; file: sub block name)")
    p.add_argument("--truncation", type=int, default=6,
                   help="order the graded dimensions are listed to, and the "
                        "largest sub generator weight accepted (default 6)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--chi", default="eps",
                   help="integral character: eps, auto, or name=value,...")
    return p


def run(argv) -> int:
    args = make_parser().parse_args(argv)
    try:
        session = _Session(args)
        cmd = args.command
        if cmd in ("signature", "report"):
            _run_signature(session, max(4, args.truncation))
        if cmd in ("lantern", "report"):
            _run_lantern(session)
        if cmd in ("coideal", "report") and (session.subs or cmd == "coideal"):
            if not session.subs:
                raise _CliFailure("coideal needs sub blocks or --sub",
                                  EXIT_PARSE)
            _run_coideal(session)
        if cmd in ("antipode-order", "report"):
            _run_antipode_order(session)
        if cmd == "nakayama":
            _run_nakayama(session, args.chi)
        if cmd in ("numerology", "report"):
            _run_numerology(session, informational=cmd == "report")
        code_hint = EXIT_CERTIFICATE if cmd in ("verify", "coideal") else EXIT_CHECK
        return _emit(session, args, code_hint)
    except _CliFailure as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except HopfAlgebraError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CERTIFICATE
    except (OverflowError, MemoryError):  # lists sized by the truncation
        print(f"--truncation {args.truncation} is too large", file=sys.stderr)
        return EXIT_PARSE



def main() -> None:
    try:
        try:
            code = run(sys.argv[1:])
        finally:
            sys.stdout.flush()  # a write error surfaces here, not at exit
    except OSError as exc:
        # the interpreter flushes both streams again at exit: a stream that
        # cannot be written is pointed at devnull (the SIGPIPE note of the
        # signal module's documentation); stderr reports unless it failed
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
                if stream is sys.stderr and not isinstance(exc, BrokenPipeError):
                    print(f"cannot write output: {exc.strerror or exc}",
                          file=stream)
            except OSError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        code = EXIT_CHECK
    sys.exit(code)


if __name__ == "__main__":
    main()
