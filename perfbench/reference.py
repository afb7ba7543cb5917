"""Independent reference answers and the answer checker.

Nothing here calls qtransfer. Every reference is derived again from the
model's formulas:

- ent_pur: a memoized dynamic programme over the walk state
  (pair count, round, round of the stored pair), in place of the
  program's enumeration of every outcome path;
- qubit_pur: the O(N) geometric-series closed form, evaluated in mpmath
  at 50 digits;
- estimation (N+1)/(N+2) and single-shot teleportation (2*lambda+1)/3.

`check(argv, code, stdout)` returns None for a correct answer and a short
reason otherwise. A printed number is correct when it lies within one unit
of its last printed digit of the reference.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math

import mpmath

PRECISION = 12  # significant digits the CLI prints by default
_MP_DIGITS = 50
_CROSSING_STEP = 1e-8  # the gap must change sign across reported root +- this
_MC_SIGMAS = 5.0


def _purify(lam: float) -> float:
    return (10.0 * lam * lam - 2.0 * lam + 1.0) / (8.0 * lam * lam - 4.0 * lam + 5.0)


def _keep_probability(lam: float) -> float:
    return (8.0 * lam * lam - 4.0 * lam + 5.0) / 9.0


def single(lam: float) -> float:
    return (2.0 * lam + 1.0) / 3.0


def estimation(n: int) -> float:
    return (n + 1) / (n + 2)


# Sweeps revisit grid points and crossings revisit their roots, so the
# scalar references are cached; the bound keeps the checker's memory small.
@functools.lru_cache(maxsize=4096)
def ent_pur(n: int, lam: float) -> float:
    """Expected fidelity of the store-and-purify run on exactly n pairs."""
    return ent_pur_moments(n, lam)[0]


def ent_pur_moments(n: int, lam: float) -> tuple[float, float]:
    """First and second moments of the run's terminal fidelity on exactly n pairs."""
    lams = [lam]

    def lam_at(rnd: int) -> float:
        while len(lams) <= rnd:
            lams.append(_purify(lams[-1]))
        return lams[rnd]

    @functools.cache
    def survivors(pairs: int, rnd: int) -> list[float]:
        p = _keep_probability(lam_at(rnd))
        return [math.comb(pairs, j) * p ** j * (1.0 - p) ** (pairs - j) for j in range(pairs + 1)]

    @functools.cache
    def moments(count: int, rnd: int, stored: int) -> tuple[float, float]:
        if count % 2:
            count, stored = count - 1, rnd
        fallback = single(lam_at(stored)) if stored >= 0 else 0.5
        if count == 0:
            return fallback, fallback * fallback
        first, second = [], []
        for j, weight in enumerate(survivors(count // 2, rnd)):
            if j == 0:
                m1, m2 = fallback, fallback * fallback
            elif j == 1:
                m1 = single(lam_at(rnd + 1))
                m2 = m1 * m1
            else:
                m1, m2 = moments(j, rnd + 1, stored)
            first.append(weight * m1)
            second.append(weight * m2)
        return math.fsum(first), math.fsum(second)

    try:
        return moments(n, 0, -1)
    finally:
        # The memo tables are reference cycles through their closures; drop
        # them now so they do not pile up until a full garbage collection.
        moments.cache_clear()
        survivors.cache_clear()


@functools.lru_cache(maxsize=4096)
def qubit_pur(n: int, lam: float) -> float:
    return qubit_pur_distribution(n, lam)[0]


def qubit_pur_distribution(n: int, lam: float) -> tuple[float, dict[int, float]]:
    """Average fidelity and block-size distribution of teleport-then-purify.

    With c1 = (1+2l)/3, c0 = 2(1-l)/3 and S_m = (c1^(m+1) - c0^(m+1))/(c1 - c0),
    block m has probability mult(n, m) (c0 c1)^((n-m)/2) S_m and fidelity
    c1 (m c1^m - c0 S_(m-1)) / ((c1 - c0) m S_m); block 0 has fidelity 1/2.
    Requires lam strictly above 1/4, where c1 > c0.
    """
    with mpmath.workdps(_MP_DIGITS):
        x = mpmath.mpf(lam)
        c1, c0 = (1 + 2 * x) / 3, 2 * (1 - x) / 3
        gap = c1 - c0
        pow1, pow0 = [mpmath.mpf(1)], [mpmath.mpf(1)]
        for _ in range(n + 1):
            pow1.append(pow1[-1] * c1)
            pow0.append(pow0[-1] * c0)
        s = [(pow1[m + 1] - pow0[m + 1]) / gap for m in range(n + 1)]
        total = mpmath.mpf(0)
        probs = {}
        for m in range(n % 2, n + 1, 2):
            k = (n - m) // 2
            mult = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
            prob = mult * pow0[k] * pow1[k] * s[m]
            fid = mpmath.mpf(0.5) if m == 0 else c1 * (m * pow1[m] - c0 * s[m - 1]) / (gap * m * s[m])
            probs[m] = float(prob)
            total += prob * fid
        return float(total), probs


def sweep_grid(points: int) -> list[float]:
    """The sweep's lambda0 grid: `points` values evenly spaced strictly inside (1/4, 1)."""
    return [0.25 + 0.75 * i / (points + 1) for i in range(1, points + 1)]


def close(printed, ref: float) -> bool:
    """True when `printed` is within one unit of its last printed digit of `ref`."""
    if not isinstance(printed, (int, float)) or isinstance(printed, bool):
        return False
    if ref == 0.0:
        return printed == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(ref))) - PRECISION + 1)
    # The absolute floor accepts a float underflow of a probability below 1e-300.
    return abs(printed - ref) <= max(unit, 1e-300)


def _flags(argv: list[str]) -> dict[str, str]:
    flags = {}
    for i, arg in enumerate(argv):
        if arg.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else ""
            flags[arg] = "" if nxt.startswith("--") or not nxt else nxt
    return flags


def _check_single(flags, out):
    value = float(out)
    return None if close(value, single(float(flags["--lambda0"]))) else f"single {value}"


def _check_strategy(method, flags, out):
    report = json.loads(out)
    n = int(flags["--n"])
    if report.get("method") != method or report.get("n") != n:
        return f"header {report.get('method')} {report.get('n')}"
    if method == "est":
        if report.get("lambda0") is not None:
            return "est reports a lambda0"
        return None if close(report["fidelity"], estimation(n)) else f"est {report['fidelity']}"
    lam = float(flags["--lambda0"])
    if not close(report.get("lambda0"), lam):
        return f"lambda0 {report.get('lambda0')}"
    if method == "ent":
        ref = ent_pur(n, lam)
        if not close(report["fidelity"], ref):
            return f"ent fidelity {report['fidelity']} vs {ref!r}"
        if "--mc-samples" in flags:
            samples, seed = int(flags["--mc-samples"]), int(flags["--seed"])
            if report.get("samples") != samples or report.get("seed") != seed:
                return "mc samples or seed"
            if not report["mc_stderr"] >= 0.0:
                return f"mc stderr {report['mc_stderr']}"
            # The exact spread of the sample mean, not the reported sample
            # stderr: near lambda0 = 1 the low-fidelity paths are rarer than
            # one in a million, go unsampled, and the sample stderr misses them.
            m1, m2 = ent_pur_moments(n, lam)
            sigma = math.sqrt(max(m2 - m1 * m1, 0.0) / samples)
            estimate = report["mc_estimate"]
            if abs(estimate - m1) > _MC_SIGMAS * sigma and not close(estimate, m1):
                return f"mc estimate {estimate} vs {m1!r} +- {sigma!r}"
        return None
    ref, probs = qubit_pur_distribution(n, lam)
    if not close(report["fidelity"], ref):
        return f"qubit fidelity {report['fidelity']} vs {ref!r}"
    if "--distribution" in flags:
        shown = report.get("distribution", {})
        if set(shown) != {str(m) for m in probs}:
            return "distribution keys"
        for m, p in probs.items():
            if not close(shown[str(m)], p):
                return f"distribution m={m} {shown[str(m)]} vs {p!r}"
    return None


def _rows(out):
    return list(csv.reader(io.StringIO(out)))


def _check_sweep(flags, out):
    rows = _rows(out)
    if rows[0] != ["method", "N", "lambda0", "fidelity"]:
        return "sweep header"
    n_values = sorted({int(v) for v in flags["--n"].split(",")})
    grid = sweep_grid(int(flags["--grid"]))
    refs = {"ent_pur": ent_pur, "estimation": lambda n, lam: estimation(n),
            "qubit_pur": qubit_pur}
    methods = sorted(refs if flags["--methods"] == "all" else set(flags["--methods"].split(",")))
    expected = [(m, n, lam) for m in methods for n in n_values for lam in grid]
    if len(rows) - 1 != len(expected):
        return f"sweep rows {len(rows) - 1} vs {len(expected)}"
    for row, (method, n, lam) in zip(rows[1:], expected):
        if row[0] != method or int(row[1]) != n or not close(float(row[2]), lam):
            return f"sweep row {row}"
        if not close(float(row[3]), refs[method](n, lam)):
            return f"sweep value {row}"
    return None


def _crossing_gap(method: str, n: int, lam: float) -> float:
    if method == "ent_pur":  # discard-to-odd rule
        return ent_pur(n if n % 2 else n - 1, lam) - estimation(n)
    return qubit_pur(n, lam) - estimation(n)


def _check_crossings(flags, out):
    rows = _rows(out)
    if rows[0] != ["N", "lambda1", "lambda2"]:
        return "crossings header"
    k = int(flags["--n-max"])
    if [int(row[0]) for row in rows[1:]] != list(range(1, k + 1)):
        return "crossings rows"
    for row in rows[1:]:
        n = int(row[0])
        for method, text in (("ent_pur", row[1]), ("qubit_pur", row[2])):
            # Both fidelities rise from 1/2 at lambda0 = 1/4 to 1 at lambda0 = 1,
            # so each gap to the baseline has exactly one root to report.
            if not text:
                return f"crossing {method} N={n} missing"
            lam = float(text)
            below = _crossing_gap(method, n, lam - _CROSSING_STEP)
            above = _crossing_gap(method, n, lam + _CROSSING_STEP)
            if not below < 0.0 < above:
                return f"crossing {method} N={n} at {lam}: gap {below} .. {above}"
    return None


def _check_validate(flags, out):
    return None if json.loads(out).get("passed") is True else "validate did not pass"


def check(argv: list[str], code, out: str) -> str | None:
    """None if the command's exit code and output are correct, else the reason."""
    if code != 0:
        return f"exit {code}"
    flags = _flags(argv)
    try:
        if argv[0] == "single":
            return _check_single(flags, out)
        if argv[0] == "strategy":
            return _check_strategy(argv[1], flags, out)
        if argv[0] == "sweep":
            return _check_sweep(flags, out)
        if argv[0] == "crossings":
            return _check_crossings(flags, out)
        if argv[0] == "validate":
            return _check_validate(flags, out)
    except (ValueError, KeyError, IndexError, TypeError, csv.Error) as exc:
        return f"unparsable output ({type(exc).__name__}: {exc})"
    return f"no check for {argv[0]}"
