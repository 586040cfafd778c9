"""Finite partial sum tables and relational algebras.

The two table classes model effect algebras and pseudo effect algebras as
explicit partial sum tables on a named finite carrier.  A ``RelFA`` carries
the relational picture: a ternary multiplication relation ``mu``, a unit set
``eta``, a ternary comultiplication relation ``delta`` and a counit set
``epsilon``.  Validators run one check per axiom.  The relational checks
join the sparse relations on their shared elements instead of scanning
every tuple of the carrier, and still report as witness the first
counterexample in carrier order.

Conventions, used consistently everywhere:

* ``mu`` triples are ``(x, y, z)`` meaning ``z in mu(x, y)``; ``x`` is the
  later factor, so a sum table translates as ``mu(x, y) ∋ y ⊕ x``.
* ``delta`` triples are ``(z, x, y)`` meaning ``(x, y) in delta(z)``.
* A comonoid is a monoid after flipping ``delta``: ``mu_op(x, y) ∋ z`` iff
  ``(x, y) in delta(z)``, with ``epsilon`` as its unit set.
"""

from __future__ import annotations

import itertools


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug in relfa, never bad
    input.  Raised explicitly, so the checks also run under ``python -O``."""


def _record(cls):
    """Make ``cls`` an immutable record.  Its fields are its own annotated
    names in order, and a value the class gives one is its default.
    ``__init__`` sets the fields, then runs ``__post_init__`` if the class
    has one.  A record equals only a record of its own class with equal
    fields; hash and repr read the fields too."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    params = "".join(f", {n}=_defaults[{n!r}]" if n in defaults else f", {n}" for n in names)
    body = [f"    _set(self, {n!r}, {n})\n" for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()\n")
    namespace = {"_defaults": defaults, "_set": object.__setattr__}
    exec(f"def __init__(self{params}):\n{''.join(body)}", namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def values(self):
        return tuple([getattr(self, n) for n in names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({fields})"

    for method in (__eq__, __setattr__, __delattr__, __hash__, __repr__):
        setattr(cls, method.__name__, method)
    return cls


def _depth_first(slots: int, options, place, clear):
    """Yield once at each full assignment of positions 0..slots-1, depth
    first.  ``options(k)`` lists the values position k tries, in order, once
    the earlier positions hold theirs; ``place(k, value)`` records a value
    and says whether to go deeper; ``clear(k)`` undoes position k when its
    values run out.  One explicit stack of option iterators: a recursive
    closure would form a reference cycle left to the collector."""
    stack: list = []
    while True:
        if len(stack) == slots:
            yield
        else:
            stack.append(iter(options(len(stack))))
        # ``any`` stops at the first value placed and leaves the rest.
        while stack and not any(place(len(stack) - 1, v) for v in stack[-1]):
            clear(len(stack) - 1)
            stack.pop()
        if not stack:
            return


@_record
class CheckResult:
    """Outcome of a single named axiom check."""

    name: str
    passed: bool
    witness: tuple | dict | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "witness": list(self.witness) if isinstance(self.witness, tuple) else self.witness,
            "detail": self.detail,
        }


@_record
class ValidationReport:
    """Check-by-check validation outcome for one structure."""

    kind: str
    name: str
    checks: tuple[CheckResult, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "notes": list(self.notes),
        }


@_record
class SumTable:
    """Partial binary sum on a finite carrier with bottom and top.

    ``sums`` maps ordered pairs to their sum; a missing key means the sum is
    undefined.  Element order in ``elements`` is the declared order and fixes
    every iteration order downstream.  The class's ``kind`` is the
    validation kind its tables are read as.
    """

    kind = "effect-algebra"

    name: str
    elements: tuple[str, ...]
    zero: str
    one: str
    sums: dict[tuple[str, str], str]

    def __post_init__(self):
        seen = set(self.elements)
        if len(seen) != len(self.elements):
            raise ValueError(f"{self.name}: duplicate carrier elements")
        for special, label in ((self.zero, "zero"), (self.one, "one")):
            if special not in seen:
                raise ValueError(f"{self.name}: {label} element {special!r} not in carrier")
        for (a, b), c in self.sums.items():
            for x in (a, b, c):
                if x not in seen:
                    raise ValueError(f"{self.name}: sum entry ({a},{b})->{c} references unknown element {x!r}")


class EffectAlgebraTable(SumTable):
    """Sum table expected to satisfy the effect algebra axioms."""


class PseudoEffectAlgebraTable(SumTable):
    """Sum table expected to satisfy the pseudo effect algebra axioms."""

    kind = "pseudo-effect-algebra"


@_record
class RelFA:
    """Relational algebra: carrier, mu/eta multiplication data, delta/epsilon
    comultiplication data."""

    kind = "frobenius"

    name: str
    elements: tuple[str, ...]
    mu: frozenset[tuple[str, str, str]]
    eta: frozenset[str]
    delta: frozenset[tuple[str, str, str]]
    epsilon: frozenset[str]
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        seen = set(self.elements)
        if len(seen) != len(self.elements):
            raise ValueError(f"{self.name}: duplicate carrier elements")
        for rel, label in ((self.mu, "mu"), (self.delta, "delta")):
            for t in rel:
                if len(t) != 3 or any(x not in seen for x in t):
                    raise ValueError(f"{self.name}: {label} triple {t!r} references unknown element")
        for s, label in ((self.eta, "eta"), (self.epsilon, "epsilon")):
            for x in s:
                if x not in seen:
                    raise ValueError(f"{self.name}: {label} element {x!r} not in carrier")

    def delta_op(self) -> frozenset[tuple[str, str, str]]:
        """The flipped comultiplication, as mu-style triples."""
        return frozenset((x, y, z) for z, x, y in self.delta)

    def signature(self) -> tuple:
        """Hashable identity of the structure up to renaming-free equality."""
        return (
            self.elements,
            tuple(sorted(self.mu)),
            tuple(sorted(self.eta)),
            tuple(sorted(self.delta)),
            tuple(sorted(self.epsilon)),
        )


def relabel_relfa(f: RelFA, mapping: dict[str, str], name: str | None = None) -> RelFA:
    m = mapping.__getitem__
    return RelFA(
        name=name or f.name,
        elements=tuple(m(x) for x in f.elements),
        mu=frozenset((m(x), m(y), m(z)) for x, y, z in f.mu),
        eta=frozenset(m(x) for x in f.eta),
        delta=frozenset((m(z), m(x), m(y)) for z, x, y in f.delta),
        epsilon=frozenset(m(x) for x in f.epsilon),
        notes=f.notes,
    )


def relabel_table(t: SumTable, mapping: dict[str, str], name: str | None = None) -> SumTable:
    m = mapping.__getitem__
    cls = type(t)
    return cls(
        name=name or t.name,
        elements=tuple(m(x) for x in t.elements),
        zero=m(t.zero),
        one=m(t.one),
        sums={(m(a), m(b)): m(c) for (a, b), c in t.sums.items()},
    )


# ---------------------------------------------------------------------------
# Sum table validation


def _table_checks_common(t: SumTable, commutative: bool) -> list[CheckResult]:
    els, sums = t.elements, t.sums
    checks: list[CheckResult] = []

    if commutative:
        witness = None
        for a, b in itertools.product(els, els):
            if sums.get((a, b)) != sums.get((b, a)):
                witness = (a, b)
                break
        checks.append(CheckResult(
            "commutativity", witness is None, witness,
            "a+b and b+a defined together and equal"))

    witness = None
    for a, b, c in itertools.product(els, els, els):
        # An undefined inner sum reads as None, and no sum has None as a term.
        if sums.get((sums.get((a, b)), c)) != sums.get((a, sums.get((b, c)))):
            witness = (a, b, c)
            break
    checks.append(CheckResult(
        "associativity", witness is None, witness,
        "(a+b)+c defined iff a+(b+c) defined, and then equal"))

    witness = None
    for a in els:
        if sums.get((t.zero, a)) != a or sums.get((a, t.zero)) != a:
            witness = (a,)
            break
    checks.append(CheckResult(
        "zero-neutrality", witness is None, witness,
        "0+a = a = a+0 for every a"))

    witness = None
    for a in els:
        if a == t.zero:
            continue
        if (a, t.one) in sums or (t.one, a) in sums:
            witness = (a,)
            break
    checks.append(CheckResult(
        "zero-one-law", witness is None, witness,
        "a+1 or 1+a defined only for a = 0"))

    return checks


def _validate_effect_algebra(t: SumTable) -> ValidationReport:
    checks = _table_checks_common(t, commutative=True)
    witness = next(((a, tuple(right)) for a, (_, right) in _partners(t).items()
                    if len(right) != 1), None)
    checks.append(CheckResult(
        "unique-supplement", witness is None, witness,
        "every a has exactly one a' with a+a' = 1"))
    return ValidationReport("effect-algebra", t.name, tuple(checks))


def _validate_pseudo_effect_algebra(t: SumTable) -> ValidationReport:
    checks = _table_checks_common(t, commutative=False)
    els, sums = t.elements, t.sums

    witness = next(((a, tuple(left), tuple(right))
                    for a, (left, right) in _partners(t).items()
                    if len(left) != 1 or len(right) != 1), None)
    checks.append(CheckResult(
        "unique-supplements", witness is None, witness,
        "every a has exactly one left and one right supplement to 1"))

    witness = None
    for a, b in itertools.product(els, els):
        ab = sums.get((a, b))
        if ab is None:
            continue
        if not any(sums.get((b1, a)) == ab for b1 in els) or \
           not any(sums.get((b, a1)) == ab for a1 in els):
            witness = (a, b)
            break
    checks.append(CheckResult(
        "exchange", witness is None, witness,
        "a+b defined implies a+b = b1+a = b+a1 for some b1, a1"))

    report = ValidationReport("pseudo-effect-algebra", t.name, tuple(checks))
    if report.passed:
        witness = None
        supp = supplements(t)
        order = derived_order(t)
        for a, b in itertools.product(els, els):
            below = (b, supp[a][0]) in order
            if ((b, a) in sums) != below:
                witness = (a, b)
                break
        extra = CheckResult(
            "orthogonality-interval", witness is None, witness,
            "b+a defined iff b lies below the left supplement of a")
        report = ValidationReport(report.kind, report.name, report.checks + (extra,))
    return report


# ---------------------------------------------------------------------------
# Relational algebra validation


def _monoid_checks(elements, triples, units, prefix="") -> list[CheckResult]:
    by_first: dict[str, list[tuple[str, str]]] = {}
    by_second: dict[str, list[tuple[str, str]]] = {}
    for x, y, z in triples:
        by_first.setdefault(x, []).append((y, z))
        by_second.setdefault(y, []).append((x, z))

    checks: list[CheckResult] = []

    witness = None
    for a in elements:
        if not any((a, s, a) in triples for s in units):
            witness = (a, "right")
            break
        if not any((s, a, a) in triples for s in units):
            witness = (a, "left")
            break
    checks.append(CheckResult(
        prefix + "unit-existence", witness is None, witness,
        "every a is absorbed by a unit on each side"))

    witness = None
    ordered = sorted(triples)
    for r in sorted(units):
        for x, y, z in ordered:
            if x == r and y != z:
                witness = (r, y, z, "left")
                break
            if y == r and x != z:
                witness = (x, r, z, "right")
                break
        if witness:
            break
    checks.append(CheckResult(
        prefix + "unit-strictness", witness is None, witness,
        "multiplying by a unit relates a only to a itself"))

    # Both sides of (a, b, c) as maps to their result sets, joined on the
    # intermediate product: left holds (a, b, x) and (x, c, d), right holds
    # (b, c, y) and (a, y, d).  A triple missing from both passes.
    left: dict[tuple[str, str, str], set[str]] = {}
    right: dict[tuple[str, str, str], set[str]] = {}
    for a, b, x in triples:
        for c, d in by_first.get(x, ()):
            left.setdefault((a, b, c), set()).add(d)
    for b, c, y in triples:
        for a, d in by_second.get(y, ()):
            right.setdefault((a, b, c), set()).add(d)
    idx = {e: i for i, e in enumerate(elements)}
    failing = [t for t in left.keys() | right.keys() if left.get(t) != right.get(t)]
    witness = None
    if failing:
        a, b, c = min(failing, key=lambda t: (idx[t[0]], idx[t[1]], idx[t[2]]))
        diff = left.get((a, b, c), set()).symmetric_difference(right.get((a, b, c), set()))
        witness = (a, b, c, sorted(diff)[0])
    checks.append(CheckResult(
        prefix + "associativity", witness is None, witness,
        "mu(mu(a,b),c) and mu(a,mu(b,c)) relate to the same elements"))

    return checks


def _validate_rel_monoid(f: RelFA) -> ValidationReport:
    checks = _monoid_checks(f.elements, f.mu, f.eta)
    return ValidationReport("rel-monoid", f.name, tuple(checks), f.notes)


def _validate_frobenius(f: RelFA) -> ValidationReport:
    checks = _monoid_checks(f.elements, f.mu, f.eta)
    checks += _monoid_checks(f.elements, f.delta_op(), f.epsilon, prefix="co-")

    # Left side: (a, x, c) in mu and (b, x, d) in delta, joined on x.
    # Right side: (a, c, y) in delta and (y, b, d) in mu, joined on y.
    mu_by_middle: dict[str, list[tuple[str, str]]] = {}
    mu_by_first: dict[str, list[tuple[str, str]]] = {}
    for x, y, z in f.mu:
        mu_by_middle.setdefault(y, []).append((x, z))
        mu_by_first.setdefault(x, []).append((y, z))
    delta_by_middle: dict[str, list[tuple[str, str]]] = {}
    delta_by_last: dict[str, list[tuple[str, str]]] = {}
    for z, x, y in f.delta:
        delta_by_middle.setdefault(x, []).append((z, y))
        delta_by_last.setdefault(y, []).append((z, x))

    lhs = {(a, b, c, d)
           for x, acs in mu_by_middle.items()
           for b, d in delta_by_middle.get(x, ())
           for a, c in acs}
    rhs = {(a, b, c, d)
           for y, acs in delta_by_last.items()
           for b, d in mu_by_first.get(y, ())
           for a, c in acs}
    witness = None
    if lhs != rhs:
        idx = {e: i for i, e in enumerate(f.elements)}
        witness = min(lhs.symmetric_difference(rhs),
                      key=lambda q: (idx[q[0]], idx[q[1]], idx[q[2]], idx[q[3]]))
    checks.append(CheckResult(
        "frobenius-identity", witness is None, witness,
        "mu(a,x)=c with delta(b)=(x,d) iff delta(a)=(c,y) with mu(y,b)=d"))

    return ValidationReport("frobenius", f.name, tuple(checks), f.notes)


_VALIDATORS = {
    "effect-algebra": (SumTable, "a sum table", _validate_effect_algebra),
    "pseudo-effect-algebra": (SumTable, "a sum table", _validate_pseudo_effect_algebra),
    "rel-monoid": (RelFA, "a relational algebra", _validate_rel_monoid),
    "frobenius": (RelFA, "a relational algebra", _validate_frobenius),
}
VALIDATE_KINDS = tuple(_VALIDATORS)


def validate(kind: str, structure) -> ValidationReport:
    """Validate a structure against the axioms selected by ``kind``.

    ``effect-algebra`` and ``pseudo-effect-algebra`` expect a sum table of
    any class; ``rel-monoid`` and ``frobenius`` expect a ``RelFA``.  A
    structure's default kind is its class's ``kind``.
    """
    if kind not in VALIDATE_KINDS:
        raise ValueError(f"unknown validation kind {kind!r}; expected one of {', '.join(VALIDATE_KINDS)}")
    cls, expected, check = _VALIDATORS[kind]
    if not isinstance(structure, cls):
        raise ValueError(f"{kind} validation expects {expected}")
    return check(structure)


def _require(kind: str, noun: str, *structures) -> None:
    """Raise ValueError, naming the failing checks, unless every structure
    validates as ``kind``."""
    for t in structures:
        rep = validate(kind, t)
        if not rep.passed:
            raise ValueError(f"{t.name} is not {noun}: fails "
                             + ", ".join(c.name for c in rep.failing()))


# ---------------------------------------------------------------------------
# Derived structure


def derived_order(t: SumTable) -> frozenset[tuple[str, str]]:
    """Pairs (a, b) with a <= b, where a <= b iff a + c = b for some c:
    the pairs (a, a + c) of the defined sums."""
    return frozenset((a, s) for (a, _), s in t.sums.items())


def _partners(t: SumTable) -> dict[str, tuple[list[str], list[str]]]:
    """Each element's left partners (b + a = 1) and right partners
    (a + b = 1), both in carrier order."""
    partners: dict[str, tuple[list[str], list[str]]] = {a: ([], []) for a in t.elements}
    for a, b in itertools.product(t.elements, t.elements):
        if t.sums.get((a, b)) == t.one:
            partners[b][0].append(a)
            partners[a][1].append(b)
    return partners


def supplements(t: SumTable) -> dict[str, tuple[str, str]]:
    """Supplement map a -> (left, right) with left + a = 1 = a + right.  In
    an effect algebra both are the unique supplement a'."""
    out: dict[str, tuple[str, str]] = {}
    for a, (left, right) in _partners(t).items():
        if len(left) != 1 or len(right) != 1:
            raise ValueError(f"{t.name}: element {a!r} lacks unique supplements")
        out[a] = (left[0], right[0])
    return out


def height_order(t: SumTable) -> list[str]:
    """Carrier sorted by number of elements strictly below, ties by carrier
    order.  Puts 0 first, then atoms, and the top last."""
    order = derived_order(t)
    below = {a: sum(1 for b in t.elements if (b, a) in order and b != a) for a in t.elements}
    idx = {a: i for i, a in enumerate(t.elements)}
    return sorted(t.elements, key=lambda a: (below[a], idx[a]))


# ---------------------------------------------------------------------------
# Sum tables as relational algebras


def _transport_delta(elements, beta: dict[str, str], triangles) -> frozenset:
    """Triples (z, x, y) with (beta[y], beta[z], beta[x]) a triangle: one
    pass over the triangles through the preimages of beta, which need not
    be injective."""
    preimages: dict[str, list[str]] = {}
    for e in elements:
        preimages.setdefault(beta[e], []).append(e)
    return frozenset((z, x, y)
                     for t0, t1, t2 in triangles
                     for y in preimages.get(t0, ())
                     for z in preimages.get(t1, ())
                     for x in preimages.get(t2, ()))


def to_relfa(t: SumTable) -> RelFA:
    """Translate a sum table into a relational algebra.

    mu(x, y) contains y + x (composition order); eta = {0}; epsilon = {1};
    delta(z) contains (x, y) iff z~ = x~ + y~ where a~ is the right
    supplement (for effect algebras the unique supplement a').
    """
    right = {a: r for a, (_, r) in supplements(t).items()}
    mu = frozenset((x, y, c) for (y, x), c in t.sums.items())
    # delta(z) holds (x, y) when right[x] + right[y] = right[z]: the defined
    # sums p + q = s, read as triangles (q, s, p), transported through right.
    delta = _transport_delta(t.elements, right,
                             ((q, s, p) for (p, q), s in t.sums.items()))
    return RelFA(
        name=f"relfa({t.name})",
        elements=t.elements,
        mu=mu,
        eta=frozenset({t.zero}),
        delta=delta,
        epsilon=frozenset({t.one}),
        notes=(
            "mu(x, y) contains z iff z = y + x (composition order)",
            "delta(z) contains (x, y) iff z~ = x~ + y~ (right supplements)",
        ),
    )
