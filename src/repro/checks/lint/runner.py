"""Lint driver: file discovery, noqa handling, reports.

The runner walks the requested paths, parses every ``*.py`` file once,
applies the selected rules from :mod:`repro.checks.lint.rules`, filters
suppressed lines (``# noqa`` / ``# noqa: RAP-LINT003``), and folds the
survivors into a :class:`LintReport` that renders as text, as
schema-stable JSON (``{"version": 2, ...}``) for CI, or as SARIF 2.1.0
for GitHub code scanning. ``--select``/``--ignore`` accept exact codes
and ``*``-suffix prefixes (``RAP-LINT02*``) so CI can stage new rule
families.

Strict mode (``rap lint --strict``) tightens the suppression contract:
a bare ``# noqa`` no longer silences anything and is reported as its
own ``RAP-NOQA`` finding, and per-code suppressions must carry a
reason (``# noqa: RAP-LINT016 - workers never take this lock``) or
they are flagged too. Suppressions are audited from real comment
tokens, so prose in docstrings that merely mentions noqa is ignored.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .registry import RULES
from .rules import LintContext, Rule, Violation

# Version 2: every violation entry carries a "flow_trace" list (empty
# for the syntactic rules, a non-empty witness path for RAP-LINT006+).
JSON_SCHEMA_VERSION = 2

# Accepts flake8-style suppressions, including trailing prose after the
# code list ("# noqa: RAP-LINT003 - display-only hierarchy").
_NOQA_PATTERN = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*))?"
    r"(?P<reason>\s*[-:–—]\s*\S.*)?",
    re.IGNORECASE,
)

#: Code for the strict-mode suppression-audit findings themselves.
NOQA_AUDIT_CODE = "RAP-NOQA"

#: Per-process memo of the rule pass over one file, before noqa
#: filtering, keyed by resolved path, module relpath (it scopes the
#: rules), source text and the selected rule codes. Strictness only
#: changes the filtering and the suppression audit, which rerun on
#: every call, so default and strict lints of one tree share a single
#: analysis. Rules read nothing but their own file, so the key is the
#: whole input.
_RULE_PASSES: Dict[Tuple[str, str, str, Tuple[str, ...]], List[Violation]] = {}


@dataclass
class LintReport:
    """Violations plus enough bookkeeping for CI to gate on."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    rules_run: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts_by_rule(self) -> Dict[str, int]:
        counts = {code: 0 for code in self.rules_run}
        for violation in self.violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return counts

    def render_text(self) -> str:
        lines = [violation.render() for violation in self.violations]
        noun = "violation" if len(self.violations) == 1 else "violations"
        lines.append(
            f"{len(self.violations)} {noun} across {self.files_checked} "
            f"file(s) ({len(self.rules_run)} rules)"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "version": JSON_SCHEMA_VERSION,
            "files_checked": self.files_checked,
            "violation_count": len(self.violations),
            "rules": {
                code: {
                    "name": RULES[code].name if code in RULES else code,
                    "count": count,
                }
                for code, count in sorted(self.counts_by_rule().items())
            },
            "violations": [
                {
                    "rule": violation.rule,
                    "path": violation.path,
                    "line": violation.line,
                    "column": violation.column,
                    "message": violation.message,
                    "flow_trace": [
                        {
                            "line": step.line,
                            "column": step.column,
                            "event": step.event,
                        }
                        for step in violation.flow_trace
                    ],
                }
                for violation in self.violations
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_sarif(self) -> str:
        """The report as a SARIF 2.1.0 log (GitHub code scanning).

        One run, one ``rap-lint`` driver; every registered rule that ran
        gets a descriptor (rationale as full description, fix as help),
        and each violation becomes a result whose ``flow_trace`` witness
        is preserved as a SARIF code flow. Columns are converted from
        our 0-based AST offsets to SARIF's 1-based convention.
        """
        driver_rules = []
        descriptor_index: Dict[str, int] = {}
        described = set(self.rules_run) | {
            violation.rule for violation in self.violations
        }
        for code in sorted(described):
            rule = RULES.get(code)
            descriptor = {
                "id": code,
                "name": rule.name if rule else code.lower(),
                "shortDescription": {
                    "text": rule.catches if rule else code
                },
            }
            if rule:
                descriptor["fullDescription"] = {"text": rule.rationale}
                if rule.fix:
                    descriptor["help"] = {"text": rule.fix}
                descriptor["properties"] = {
                    "kind": rule.kind,
                    "scope": rule.scope,
                }
            descriptor_index[code] = len(driver_rules)
            driver_rules.append(descriptor)
        results = []
        for violation in self.violations:
            uri = Path(violation.path).as_posix()
            result = {
                "ruleId": violation.rule,
                "ruleIndex": descriptor_index[violation.rule],
                "level": "error",
                "message": {"text": violation.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": uri},
                            "region": {
                                "startLine": violation.line,
                                "startColumn": violation.column + 1,
                            },
                        }
                    }
                ],
            }
            if violation.flow_trace:
                result["codeFlows"] = [
                    {
                        "threadFlows": [
                            {
                                "locations": [
                                    {
                                        "location": {
                                            "physicalLocation": {
                                                "artifactLocation": {
                                                    "uri": uri
                                                },
                                                "region": {
                                                    "startLine": step.line,
                                                    "startColumn": (
                                                        step.column + 1
                                                    ),
                                                },
                                            },
                                            "message": {
                                                "text": step.event
                                            },
                                        }
                                    }
                                    for step in violation.flow_trace
                                ]
                            }
                        ]
                    }
                ]
            results.append(result)
        log = {
            "$schema": (
                "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json"
            ),
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "rap-lint",
                            "rules": driver_rules,
                        }
                    },
                    "results": results,
                }
            ],
        }
        return json.dumps(log, indent=2, sort_keys=True)


def _discover(paths: Sequence[str]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if "__pycache__" not in candidate.parts
            )
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"no python file or directory: {raw}")
    return files


def _module_relpath(file: Path, root: Path) -> str:
    """Path of ``file`` relative to the ``repro`` package, if inside one.

    Scoped rules (``core/``-only, ``hardware/``-only, ...) match against
    this. Files outside any ``repro`` directory fall back to their path
    relative to the lint root, so fixture trees laid out like the
    package (``<tmp>/core/foo.py``) scope the same way.
    """
    parts = file.parts
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        inner = parts[index + 1 :]
        if inner:
            return "/".join(inner)
    try:
        return file.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return file.name


def _expand_codes(requested: Iterable[str]) -> List[str]:
    """Expand exact codes and ``*``-suffix prefixes against the registry.

    ``RAP-LINT02*`` selects every registered ``RAP-LINT02x`` rule, which
    is how CI stages a new rule family before it joins the default
    gate. Unknown exact codes and prefixes matching nothing both raise,
    so a typo never silently selects an empty rule set.
    """
    expanded: List[str] = []
    unknown: List[str] = []
    for raw in requested:
        code = raw.strip().upper()
        if not code:
            continue
        if code.endswith("*"):
            prefix = code[:-1]
            matched = [known for known in sorted(RULES) if
                       known.startswith(prefix)]
            if not matched:
                unknown.append(raw)
            expanded.extend(matched)
        elif code in RULES:
            expanded.append(code)
        else:
            unknown.append(raw)
    if unknown:
        raise ValueError(f"unknown rule code(s): {sorted(unknown)}")
    return expanded


def select_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> Dict[str, Rule]:
    """Resolve --select/--ignore code lists (with ``*`` wildcards)
    against the registry."""
    chosen = dict(RULES)
    if select:
        wanted = set(_expand_codes(select))
        chosen = {code: RULES[code] for code in sorted(wanted)}
    if ignore:
        for code in _expand_codes(ignore):
            chosen.pop(code, None)
    return chosen


def _suppressed(
    violation: Violation,
    source_lines: Sequence[str],
    strict: bool = False,
) -> bool:
    if not 1 <= violation.line <= len(source_lines):
        return False
    match = _NOQA_PATTERN.search(source_lines[violation.line - 1])
    if match is None:
        return False
    codes = match.group("codes")
    if codes is None:
        # A bare suppression silences every rule — except under
        # --strict, where blanket suppressions are inert (and flagged
        # by the suppression audit as RAP-NOQA findings).
        return not strict
    listed = {code.strip().upper() for code in codes.split(",")}
    return violation.rule.upper() in listed


def _audit_suppressions(file: Path, source: str) -> List[Violation]:
    """Strict-mode sweep over real noqa comments.

    Flags bare ``# noqa`` (would suppress everything) and per-code
    suppressions with no reason. Works on tokenized comments, not raw
    lines, so docstrings quoting the noqa syntax never trip it.
    """
    findings: List[Violation] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return findings  # the parse error is reported as RAP-SYNTAX
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _NOQA_PATTERN.search(token.string)
        if match is None:
            continue
        line, column = token.start
        codes = match.group("codes")
        if codes is None:
            findings.append(
                Violation(
                    rule=NOQA_AUDIT_CODE,
                    path=str(file),
                    line=line,
                    column=column,
                    message=(
                        "bare '# noqa' would silence every rule; strict "
                        "mode requires '# noqa: <code> - <reason>'"
                    ),
                )
            )
        elif match.group("reason") is None:
            findings.append(
                Violation(
                    rule=NOQA_AUDIT_CODE,
                    path=str(file),
                    line=line,
                    column=column,
                    message=(
                        f"suppression of {codes.strip()} gives no reason; "
                        "strict mode requires "
                        "'# noqa: <code> - <reason>'"
                    ),
                )
            )
    return findings


def _rule_pass(
    file: Path, source: str, relpath: str, rules: Dict[str, Rule]
) -> List[Violation]:
    """Every rule's findings on one file, unfiltered (or RAP-SYNTAX)."""
    try:
        tree = ast.parse(source, filename=str(file))
    except SyntaxError as error:
        return [
            Violation(
                rule="RAP-SYNTAX",
                path=str(file),
                line=error.lineno or 1,
                column=error.offset or 0,
                message=f"file does not parse: {error.msg}",
            )
        ]
    context = LintContext(
        path=str(file),
        relpath=relpath,
        tree=tree,
        source_lines=tuple(source.splitlines()),
    )
    return [
        violation
        for rule in rules.values()
        for violation in rule.check(context)
    ]


def lint_file(
    file: Path,
    rules: Dict[str, Rule],
    root: Optional[Path] = None,
    strict: bool = False,
) -> List[Violation]:
    """Lint a single file; syntax errors surface as RAP-SYNTAX."""
    source = file.read_text(encoding="utf-8")
    relpath = _module_relpath(file, root or file.parent)
    key = (str(file.resolve()), relpath, source, tuple(sorted(rules)))
    found = _RULE_PASSES.get(key)
    if found is None:
        found = _RULE_PASSES[key] = _rule_pass(file, source, relpath, rules)
    path = str(file)
    found = [
        violation if violation.path == path else replace(violation, path=path)
        for violation in found
    ]
    if found and found[0].rule == "RAP-SYNTAX":
        return found
    source_lines = tuple(source.splitlines())
    violations = [
        violation
        for violation in found
        if not _suppressed(violation, source_lines, strict=strict)
    ]
    if strict:
        violations.extend(_audit_suppressions(file, source))
    violations.sort(key=lambda v: (v.path, v.line, v.column, v.rule))
    return violations


def lint_paths(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    strict: bool = False,
) -> LintReport:
    """Lint files/directories and return the aggregate report."""
    rules = select_rules(select, ignore)
    report = LintReport(rules_run=tuple(sorted(rules)))
    for raw in paths:
        root = Path(raw) if Path(raw).is_dir() else Path(raw).parent
        for file in _discover([raw]):
            report.violations.extend(
                lint_file(file, rules, root=root, strict=strict)
            )
            report.files_checked += 1
    report.violations.sort(key=lambda v: (v.path, v.line, v.column, v.rule))
    return report
