"""Transformations of 3F2 series at unit argument and related 4F3 splits.

A 3F2(1) value is carried around as a ThomaeForm: a Gamma prefactor in
log/sign representation times a parameter set.  The two one-term
relations below generate (together with parameter permutations) the
classical 120-element orbit of equivalent forms, which up to parameter
order has ten members, each one relation away from any other.  The
relations are checked by value; numerical summation does not use them,
since pfq_at_1 sums any convergent margin at about the same cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import (
    HypParams,
    PoleError,
    SeriesResult,
    _GammaProduct,
    pfq_at_1,
)


class PatternMatchError(ValueError):
    """Parameters do not match the pattern the transformation requires."""


class DegenerateSplitError(ValueError):
    """The split divides by a vanishing parameter difference."""


@dataclass(frozen=True)
class ThomaeForm:
    """prefactor * 3F2(params; 1) with the prefactor kept in log/sign form."""

    params: HypParams
    prefactor_log: float = 0.0
    prefactor_sign: int = 1

    def __post_init__(self):
        if len(self.params.top) != 3 or len(self.params.bottom) != 2:
            raise PatternMatchError("ThomaeForm requires 3 top and 2 bottom parameters")

    @property
    def prefactor(self) -> float:
        return self.prefactor_sign * math.exp(self.prefactor_log)

    @property
    def margin(self) -> float:
        return self.params.margin

    def evaluate(self) -> SeriesResult:
        r = pfq_at_1(self.params)
        pre = self.prefactor
        return SeriesResult(pre * r.value, abs(pre) * r.error_estimate, r.n_terms)


@dataclass(frozen=True)
class SplitForm:
    """A two-term representation: additive Gamma term plus a scaled 3F2 form."""

    additive_term: float
    scaled_form: ThomaeForm

    def evaluate(self) -> SeriesResult:
        r = self.scaled_form.evaluate()
        return SeriesResult(self.additive_term + r.value, r.error_estimate, r.n_terms)


def _prefactor(numerator, denominator) -> tuple[float, int]:
    """(log, sign) of prod Gamma(numerator)/prod Gamma(denominator); poles raise."""
    gp = _GammaProduct(numerator, denominator)
    if gp.pole or gp.zero:
        raise PoleError("Gamma pole in transformation prefactor")
    return gp.log, gp.sign


def thomae_fixed_top(form: ThomaeForm) -> ThomaeForm:
    """One-term relation keeping the first top parameter.

    (a,b,c; e,f) -> (a, e-c, e-b; e+f-b-c, e) with prefactor
    Gamma(s) Gamma(f) / (Gamma(f-a) Gamma(e+f-b-c)), s = e+f-a-b-c.
    The output margin is f - a.
    """
    a, b, c = form.params.top
    e, f = form.params.bottom
    s = e + f - a - b - c
    log, sign = _prefactor((s, f), (f - a, e + f - b - c))
    out = HypParams((a, e - c, e - b), (e + f - b - c, e))
    out.validate()
    return ThomaeForm(out, form.prefactor_log + log, form.prefactor_sign * sign)


def thomae_full(form: ThomaeForm) -> ThomaeForm:
    """One-term relation replacing every parameter.

    (a,b,c; e,f) -> (s, f-a, e-a; e+f-a-c, e+f-a-b) with prefactor
    Gamma(s) Gamma(e) Gamma(f) / (Gamma(a) Gamma(e+f-a-c) Gamma(e+f-a-b)),
    s = e+f-a-b-c.  The output margin is a.
    """
    a, b, c = form.params.top
    e, f = form.params.bottom
    s = e + f - a - b - c
    log, sign = _prefactor((s, e, f), (a, e + f - a - c, e + f - a - b))
    out = HypParams((s, f - a, e - a), (e + f - a - c, e + f - a - b))
    out.validate()
    return ThomaeForm(out, form.prefactor_log + log, form.prefactor_sign * sign)


def _split_assignments(form: ThomaeForm):
    """Role assignments (a,b,c,e,f) with e = a+1, preferring pole-free choices."""
    top, bottom = form.params.top, form.params.bottom
    for ei, e in enumerate(bottom):
        f = bottom[1 - ei]
        for ai, a in enumerate(top):
            if abs(e - (a + 1.0)) > 1e-12:
                continue
            rest = [top[j] for j in range(3) if j != ai]
            for b, c in (rest, rest[::-1]):
                yield a, b, c, e, f


def thomae_split(form: ThomaeForm) -> SplitForm:
    """Two-term relation for forms with a bottom parameter exceeding a top by one.

    For (a,b,c; a+1,f):
      value = Gamma(1-c)Gamma(f)Gamma(a+1)Gamma(b-a) / (Gamma(b)Gamma(f-a)Gamma(a-c+1))
            - a Gamma(1-c)Gamma(f) / (Gamma(b-c+1)Gamma(f-b)(b-a))
              * 3F2(b, b-f+1, b-a; b-a+1, b-c+1; 1)
    The roles of the remaining two tops (b, c) are interchangeable; the
    pole-free assignment is selected automatically.
    """
    matched = False
    degenerate = False
    last_pole: Exception | None = None
    for a, b, c, e, f in _split_assignments(form):
        matched = True
        if abs(b - a) < 1e-12:
            degenerate = True
            continue
        try:
            log1, sign1 = _prefactor((1 - c, f, a + 1, b - a), (b, f - a, a - c + 1))
            log2, sign2 = _prefactor((1 - c, f), (b - c + 1, f - b))
            out = HypParams((b, b - f + 1, b - a), (b - a + 1, b - c + 1))
            out.validate()
        except PoleError as exc:
            last_pole = exc
            continue
        pre = form.prefactor
        additive = pre * sign1 * math.exp(log1)
        coef_log = log2 + math.log(abs(a)) - math.log(abs(b - a))
        coef_sign = -sign2 * int(math.copysign(1.0, a)) * int(math.copysign(1.0, b - a))
        return SplitForm(
            additive,
            ThomaeForm(out, form.prefactor_log + coef_log,
                       form.prefactor_sign * coef_sign),
        )
    if degenerate and not last_pole:
        raise DegenerateSplitError("split requires b != a")
    if matched:
        raise last_pole if last_pole else PoleError("no pole-free split assignment")
    raise PatternMatchError("split requires a bottom parameter equal to a top parameter plus 1")


def split_4f3_contiguous(params: HypParams) -> tuple[tuple[float, HypParams], tuple[float, HypParams]]:
    """Split a 4F3 of the contiguous pattern (a,b,c,d; a+1,b+1,e) into two 3F2 forms.

    Returns ((w1, 3F2(a,c,d; a+1,e+1)), (w2, 3F2(b,c,d; b+1,e+1))) with
    w1 = b(a-e)/(e(a-b)) and w2 = -a(b-e)/(e(a-b)).
    """
    if len(params.top) != 4 or len(params.bottom) != 3:
        raise PatternMatchError("expected a 4F3 parameter set")
    top, bottom = params.top, params.bottom
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            a, b = top[i], top[j]
            slots = list(bottom)
            try:
                sa = next(s for s, v in enumerate(slots) if abs(v - (a + 1)) < 1e-12)
                slots.pop(sa)
                sb = next(s for s, v in enumerate(slots) if abs(v - (b + 1)) < 1e-12)
                slots.pop(sb)
            except StopIteration:
                continue
            if abs(a - b) < 1e-12:
                raise DegenerateSplitError("contiguous split requires a != b")
            e = slots[0]
            c, dd = (top[k] for k in range(4) if k not in (i, j))
            w1 = b * (a - e) / (e * (a - b))
            w2 = -a * (b - e) / (e * (a - b))
            return (
                (w1, HypParams((a, c, dd), (a + 1.0, e + 1.0))),
                (w2, HypParams((b, c, dd), (b + 1.0, e + 1.0))),
            )
    raise PatternMatchError("no (a,b,c,d; a+1,b+1,e) pattern found")


def split_4f3_alternative(d: float) -> tuple[tuple[float, HypParams], tuple[float, HypParams]]:
    """Alternative two-term decomposition of 4F3(2d-1, 2-2d, 1, d; 2d, 3-2d, 2-d; 1).

    4F3 = (1-2d)/(3-4d) * 3F2(2-2d,1,d; 3-2d,2-d; 1)
        + 2(1-d)/(3-4d) * 3F2(2d-1,1,d; 2d,2-d; 1).

    Valid on 0 < d < 0.5; the second form's 2d bottom parameter degenerates
    at d = 0.
    """
    if not (0.0 < d < 0.5):
        raise ValueError("decomposition defined for 0 < d < 0.5 only")
    w1 = (1 - 2 * d) / (3 - 4 * d)
    f1 = HypParams((2 - 2 * d, 1.0, d), (3 - 2 * d, 2 - d))
    w2 = 2 * (1 - d) / (3 - 4 * d)
    f2 = HypParams((2 * d - 1, 1.0, d), (2 * d, 2 - d))
    return ((w1, f1), (w2, f2))


def eval_3f2_optimized(params: HypParams) -> SeriesResult:
    """3F2(1) by pfq_at_1, looked up in this module's globals.

    The closed forms call every 3F2 through this name, which perfbench's
    trace wraps as `cumulants.eval_3f2_optimized`.  No orbit member is
    picked first: the series engine's cost and accuracy do not turn on
    the convergence margin.
    """
    return pfq_at_1(params)
