"""Character sums sum_x chi(f(x)) over F_{p^i}: one entry, one numpy kernel per kind of field.

``char_sums`` is the only entry.  It checks the cap p < MAX_FIELD_CHAR
once per p of a batch, then reads each unit's shape from
``algebra._sum_period``, the one shape analysis: f mod p = x^r u(x^d) on
F_q^*, and the sum is 0 when r (q-1)/d is odd.  ``LPolyCache.resolve``
settles those units while it plans a request, so from the package they
never reach this module; ``char_sums`` yields 0 for one that a direct
caller hands it, before any kernel.  For every other sum the field
alone picks the kernel, and each field's kernel runs once, with every f
of the batch over it and its period d:
- F_p (``_prime_sums``): f(x) by Horner's rule with lazy reduction,
  then an int8 character table; x runs over F_p when d = 1, and over
  x = g^k, k < (p-1)/d, for a generator g when d > 1;
- F_{p^i}, i >= 2, q <= _TABLE_MAX_ORDER (``_char_sum_logs``):
  discrete-log tables built once per call (x = g^k turns each monomial
  into an index, terms are added by Zech logarithms, and chi(y) is the
  parity of log y).  g is t = x mod h, h the modulus below, and the exp
  table is read off one linear recurring sequence of h.  Only the
  exponents k < (q-1)/d are summed;
- larger F_{p^i} (``_char_sum_norm``): f(x) by repeated squaring in
  int64, then chi_p of the norm to F_p through Frobenius-orbit products.

Every kernel works in chunks of x, and a field's tables live only for
the call that counts over it: no kernel keeps a memo.  Both
extension-field kernels count over F_p[t]/(h) for one modulus, the
primitive h of ``_primitive_modulus``, and every constant they need is
read off powers of h's companion matrix; no other polynomial arithmetic
is used, so criterion 9's oracle field (``algebra.build_extension``)
shares no code with them.  This is the package's only numpy user, and
``curvecount`` imports it on the first count.  The test suite checks
every kernel against an independent enumeration oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import _require_below_cap, _sum_period, prime_divisors

_CHUNK = 1 << 19
_BLOCK = 1 << 13  # x or exponents per step of a sum: 64 KB int64 temporaries stay in cache
_HEADROOM = 1 << 62  # |f(x)| stays below this during Horner's rule, under int64's 2^63
# Log tables serve the fields F_{p^i}, i >= 2, of order q <= _TABLE_MAX_ORDER;
# larger extension fields go through the norm kernel.  Logs lie in
# [0, q - 1) and are stored as int32, which needs q - 1 < 2^31.
_TABLE_MAX_ORDER = 1 << 23
_TABLE_BLOCK = 1 << 16  # longest recurrence jump, and block length, of a table build
_SEARCH_BATCH = 64  # counter values per batch of the primitive-modulus search


def _chi_table(p: int) -> np.ndarray:
    """chi[v] = quadratic character of v in F_p, as int8, built in chunks of squares.

    The table of the F_p kernel and of the norm kernel, built once per
    call for every f of the call.  At p near 2^25 it takes 32 MB, and its
    build holds no more than _CHUNK int64 temporaries at once.
    """
    chi = np.full(p, -1, dtype=np.int8)
    for lo in range(1, (p + 1) // 2, _CHUNK):  # x and -x have one square
        v = np.arange(lo, min(lo + _CHUNK, (p + 1) // 2), dtype=np.int64)
        v *= v
        v %= p
        chi[v] = 1
    chi[0] = 0
    return chi


def _batch_mul(a: np.ndarray, b: np.ndarray, red: np.ndarray, p: int) -> np.ndarray:
    """Rowwise products of (B, i) int64 arrays of F_{p^i} elements, entries in [0, p).

    red[j] is t^(i+j) reduced by the modulus, j = 0..i-2.  Products are
    accumulated without intermediate reduction: an entry sums at most
    2i - 1 terms below p^2 < 2^50 (p < 2^25), inside int64 for every
    i < 40 that the q < 2^62 guard of the norm kernel admits.
    """
    i = a.shape[1]
    prod = np.zeros((a.shape[0], 2 * i - 1), dtype=np.int64)
    for j in range(i):
        aj = a[:, j]
        for k in range(i):
            prod[:, j + k] += aj * b[:, k]
    high = prod[:, i:] % p
    out = prod[:, :i]
    for j in range(i - 1):
        out += high[:, j : j + 1] * red[j][None, :]
    return out % p


def _horner(coeffs: tuple[int, ...], x: np.ndarray, p: int) -> np.ndarray:
    """f(x) mod p for each x in [0, p), f's coefficients reduced mod p.

    Horner's rule with lazy reduction: while 0 <= acc <= bound, acc*x + c
    is at most bound*(p - 1) + c, so acc is reduced only when that could
    pass 2^62, and after a reduction the next step stays below p^2 < 2^50.
    Most steps are one multiply and one add, and f(x) takes a single final %.
    """
    lead, *rest = coeffs[::-1] or (0,)
    if lead == 1 and rest:  # monic: acc = x + c
        acc, bound = x + rest[0], p - 1 + rest[0]
        rest = rest[1:]
    else:
        acc, bound = np.full(x.shape, lead, dtype=np.int64), lead
    for c in rest:
        if bound * (p - 1) + c > _HEADROOM:
            acc %= p
            bound = p - 1
        acc *= x
        if c:
            acc += c
        bound = bound * (p - 1) + c
    acc %= p
    return acc


def _generates(n: int, p: int, rs: list[int]) -> bool:
    """Whether n generates F_p^*; rs are the prime divisors of p - 1."""
    return n % p != 0 and all(pow(n, (p - 1) // r, p) != 1 for r in rs)


def _prime_sums(polys: list[tuple[tuple[int, ...], int]], p: int) -> list[int]:
    """sum_x chi(f(x)) over F_p for each (f, d) of polys: f's coefficients reduced mod p, d its period.

    The f of one period share each chunk of x.  With d = 1, x runs over
    0..p-1.  With d > 1 (``algebra._sum_period``), f = x^r u(x^d) on F_p^*
    with r (p-1)/d even, so f(g^(k+D)) and f(g^k) have one character for
    D = (p-1)/d and g a generator: the sum over F_p^* is d times the sum
    over x = g^k, k < D, and x = 0 adds chi(f(0)).  A chunk's x is g^lo
    times a table of g^j, j < _BLOCK, built once per prime as the products
    of two short lists of powers; every product is below p^2 < 2^50.
    """
    chi = _chi_table(p)
    sums = [0] * len(polys)
    periods: dict[int, list[int]] = {}
    for n, (_, d) in enumerate(polys):
        periods.setdefault(d, []).append(n)
    longest = max(((p - 1) // d for d in periods if d > 1), default=0)
    if longest:
        rs = prime_divisors(p - 1)
        g = next(g for g in range(2, p) if _generates(g, p, rs))
        size = min(_BLOCK, longest)
        side = math.isqrt(size - 1) + 1  # table[side a + b] = (g^side)^a g^b, for a, b < side
        low, high = [1], [1]
        for _ in range(side - 1):
            low.append(low[-1] * g % p)
        giant = low[-1] * g % p
        for _ in range(side - 1):
            high.append(high[-1] * giant % p)
        table = (np.array(high, dtype=np.int64)[:, None] * np.array(low, dtype=np.int64) % p).ravel()[:size]
    for d, ns in periods.items():
        if d == 1:
            xs = (np.arange(lo, min(lo + _BLOCK, p), dtype=np.int64) for lo in range(0, p, _BLOCK))
        else:
            D = (p - 1) // d
            xs = (table[: D - lo] * pow(g, lo, p) % p if lo else table[:D] for lo in range(0, D, _BLOCK))
        for x in xs:
            for n in ns:
                sums[n] += int(chi[_horner(polys[n][0], x, p)].sum())
        if d > 1:
            for n in ns:
                coeffs = polys[n][0]
                sums[n] = d * sums[n] + (int(chi[coeffs[0]]) if coeffs else 0)
    return sums


def _mat_pows(M: np.ndarray, exps: list[int], p: int) -> list[np.ndarray]:
    """M^e mod p for each e >= 1 in exps; M may be a stack of square matrices.

    The exponents share one chain of squarings.
    """
    out: list[np.ndarray | None] = [None] * len(exps)
    for bit in range(max(exps).bit_length()):
        for n, e in enumerate(exps):
            if e >> bit & 1:
                out[n] = M if out[n] is None else out[n] @ M % p
        M = M @ M % p
    return out


def _companion(low, p: int) -> np.ndarray:
    """Companion matrix C of h = x^i + sum_j low_j x^j, or a stack of them for rows of low.

    C is the matrix of y -> ty on F_p[t]/(h): column j of C^n holds t^(n+j).
    A product of two such powers sums i terms below p^2, inside int64 for
    p < 2^25.
    """
    low = np.asarray(low, dtype=np.int64)
    i = low.shape[-1]
    C = np.zeros((*low.shape[:-1], i, i), dtype=np.int64)
    C[..., np.arange(1, i), np.arange(i - 1)] = 1
    C[..., :, i - 1] = -low % p
    return C


def _primitive_modulus(p: int, i: int) -> tuple[int, ...]:
    """Low coefficients (h_0, ..., h_(i-1)) of the first primitive monic h of degree i >= 2.

    The one modulus of F_{p^i} in both extension-field kernels.  h is
    primitive when t = x mod h has order q - 1: C^((q-1)/r) != I for every
    prime r | q - 1 and C^(q-1) = I, where C is h's companion matrix.
    That order also proves h irreducible.  Candidates run in base-p
    counter order over (h_0, ..., h_(i-1)) and are tested in batches of
    matrices.  Counter values below p are binomials x^i + c, whose t^i
    lies in F_p, so the scan starts at p; and a candidate whose norm
    N(t) = (-1)^i h_0 does not generate F_p^* is dropped before any matrix
    power.  q - 1 is factored by trial division: at most sqrt(q) steps,
    against the q elements a kernel then enumerates.
    """
    q = p**i
    rs_p, rs = prime_divisors(p - 1), prime_divisors(q - 1)  # rs[0] = 2: q is odd
    one = np.eye(i, dtype=np.int64)
    digits = p ** np.arange(i, dtype=np.int64)
    for lo in range(p, q, _SEARCH_BATCH):
        v = [v for v in range(lo, min(lo + _SEARCH_BATCH, q)) if _generates((-1) ** i * v, p, rs_p)]
        low = (np.array(v, dtype=np.int64)[:, None] // digits) % p
        pows = _mat_pows(_companion(low, p), [(q - 1) // r for r in rs], p)
        ok = (pows[0] @ pows[0] % p == one).all(axis=(1, 2))
        for P in pows:
            ok &= (P != one).any(axis=(1, 2))
        if ok.any():
            return tuple(int(c) for c in low[ok.argmax()])
    raise ArithmeticError(f"no primitive modulus of degree {i} mod {p}; search bug")


def _recurring_sequence(low: tuple[int, ...], p: int, n: int) -> np.ndarray:
    """s_k = coordinate 0 of t^k mod h = x^i + sum_j low_j x^j, for k < n, as int32.

    s starts 1, 0, ..., 0 and obeys h's recurrence.  With w the coordinates
    of t^D, s[k + D] = sum_j w_j s[k + j], so a jump D >= i gives the next
    D - i + 1 terms from known ones: i multiply-adds and one reduction per
    term.  D doubles up to _TABLE_BLOCK, and w is column 0 of C^D, for
    h's companion matrix C squared once per doubling.  Every product is
    below p^2 and every sum below i*p^2 <= 2q, inside int32 for q < 2^30.
    """
    i = len(low)
    s = np.empty(n, dtype=np.int32)
    head = [1] + [0] * (i - 1)
    while len(head) < min(n, 2 * i):
        head.append(-sum(c * v for c, v in zip(low, head[-i:])) % p)
    known = len(head)
    s[:known] = head[:n]
    acc, tmp = np.empty(_TABLE_BLOCK, dtype=np.int32), np.empty(_TABLE_BLOCK, dtype=np.int32)
    D, W = 1, _companion(low, p)  # W = C^D
    while known < n:
        while 2 * D <= min(known, _TABLE_BLOCK):
            D, W = 2 * D, W @ W % p
        w = W[:, 0].tolist()  # coordinates of t^D
        hi = min(known + D - i + 1, n)
        a, b = acc[: hi - known], tmp[: hi - known]  # preallocated: no page faults per block
        a.fill(0)
        for j, wj in enumerate(w):
            if wj:
                a += np.multiply(s[known - D + j : hi - D + j], wj, out=b)
        np.floor_divide(a, p, out=b)
        b *= p
        np.subtract(a, b, out=s[known:hi])  # a mod p
        known = hi
    return s


def _exp_log_tables(p: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """exp[k] = code of t^k for k < q - 1, and log with log[exp[k]] = k, log[0] = -1.

    t is x modulo the primitive modulus h = _primitive_modulus(p, i), so
    t generates F_q^* and no search for a primitive element is needed.
    An element y has the coordinates (L(y), L(ty), ..., L(t^(i-1) y)),
    where L(y) is y's coordinate 0 in the power basis, and its code reads
    them as a base-p number.  So code(t^k) = sum_j s_(k+j) p^j for the
    sequence s of h, adding 1 changes digit 0 only, and c in F_p has code
    c.  exp overwrites s, block by block, so the tables take 8 bytes per
    element.
    """
    q = p**i
    s = _recurring_sequence(_primitive_modulus(p, i), p, q + i - 2)
    for lo in range(0, q - 1, _TABLE_BLOCK):  # each block reads only s[lo:], not yet overwritten
        hi = min(lo + _TABLE_BLOCK, q - 1)
        code = s[lo + i - 1 : hi + i - 1].copy()
        for j in range(i - 2, -1, -1):
            code *= p
            code += s[lo + j : hi + j]
        s[lo:hi] = code
    exp = s[: q - 1]
    log = np.full(q, -1, dtype=np.int32)
    for lo in range(0, q - 1, _TABLE_BLOCK):
        hi = min(lo + _TABLE_BLOCK, q - 1)
        np.put(log, exp[lo:hi], np.arange(lo, hi, dtype=np.int32))
    if log[0] != -1 or (log[1:] < 0).any():
        raise ArithmeticError(f"powers of t miss part of F_{p}^{i}; modulus not primitive")
    return exp, log


def _field_tables(p: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Zech logs of F_{p^i} and the logs of F_p's elements, for one ``_char_sum_logs`` call.

    zech[n] = log(1 + t^n), or -1 where 1 + t^n = 0, for the generator t
    of _exp_log_tables; it overwrites exp.
    """
    zech, log = _exp_log_tables(p, i)
    for lo in range(0, len(zech), _TABLE_BLOCK):
        e = zech[lo : lo + _TABLE_BLOCK]
        np.take(log, e + np.where(e % p == p - 1, 1 - p, 1), out=e)  # +1 on digit 0
    return zech, log[:p].astype(np.int64)


def _char_sum_logs(polys: list[tuple[tuple[int, ...], int]], p: int, i: int) -> list[int]:
    """sum_x chi(f(x)) over F_{p^i}, i >= 2, for each (f, d) of polys, over one build of the field's tables."""
    zech, log_fp = _field_tables(p, i)
    return [_log_sum(coeffs, zech, log_fp, d) for coeffs, d in polys]


def _log_sum(coeffs: tuple[int, ...], zech: np.ndarray, log_fp: np.ndarray, d: int) -> int:
    """sum_x chi(f(x)) over F_q by discrete logs, q - 1 = len(zech); coeffs reduced mod p, d f's period.

    With x = g^k, each term c_e x^e is g^(log c_e + e*k).  Terms are added
    in log form, g^a + g^b = g^(a + zech[(b - a) mod (q-1)]), and chi(g^n)
    is (-1)^n; q - 1 is even, so the parity survives reduction mod q - 1.
    Exponents are reduced mod q - 1 first, so e*k < q^2 <= 2^46 in int64.

    Only k < D = (q-1)/d is summed, d from ``algebra._sum_period``: f =
    x^r u(x^d) on F_q^*, r its least exponent, so f(g^(k+D)) = g^(rD)
    f(g^k) and the step k -> k + D multiplies chi by (-1)^(rD), and the d
    shifted copies add up to the partial sum times d.  Precondition: rD
    is even or f(0) != 0; the other sums are 0 and are settled before any
    table is built, and one here is an ArithmeticError.  A dense f has
    d = 1.
    """
    m = len(zech)
    terms = [(e % m, int(log_fp[c])) for e, c in enumerate(coeffs) if c]
    c0 = coeffs[0] if coeffs else 0
    total = 1 - 2 * (int(log_fp[c0]) & 1) if c0 else 0  # x = 0
    if not terms:
        return total
    (e0, l0), rest = terms[0], terms[1:]
    period = m // d
    if e0 * period % 2:
        raise ArithmeticError("a sum that cancels reached the log kernel; kernel bug")
    partial = 0
    for lo in range(0, period, _BLOCK):
        k = np.arange(lo, min(lo + _BLOCK, period), dtype=np.int64)
        acc = e0 * k + l0  # a log of the partial sum, unreduced
        zero = np.zeros(len(k), dtype=bool)  # the partial sum is 0
        for e, l in rest:
            b = e * k + l
            z = zech[(b - acc) % m]
            acc = np.where(zero, b, acc + z)
            zero = (z < 0) & ~zero
        partial += len(k) - int(zero.sum()) - 2 * int((acc[~zero] & 1).sum())
    return total + d * partial


def _norm_matrices(low: tuple[int, ...], p: int) -> tuple[np.ndarray, np.ndarray]:
    """The norm kernel's constants for F_p[t]/(h), h = x^i + sum_j low_j x^j irreducible: (red, frob).

    red[j] = t^(i+j) for j = 0..i-2.  frob is the matrix of the (F_p-linear)
    p-power map; its column j is sigma(t^j) = t^(pj).  Each is column 0 of
    a power of h's companion matrix, from one chain of squarings.
    """
    i = len(low)
    exps = [i + j for j in range(i - 1)] + [p * j for j in range(1, i)]
    cols = [P[:, 0] for P in _mat_pows(_companion(low, p), exps, p)]
    one = np.eye(i, dtype=np.int64)[:, 0]
    return np.array(cols[: i - 1]), np.column_stack([one, *cols[i - 1 :]])


def _char_sum_norm(polys: list[tuple[int, ...]], p: int, i: int) -> list[int]:
    """sum_x chi(f(x)) via chi_p(Norm(f(x))) for each f of polys; i >= 2, coefficients reduced mod p.

    The field's constants are made once per call, and each chunk's digits
    and squares x^(2^b) once for every f, up to the largest degree.
    """
    q = p**i
    if q >= 1 << 62:
        raise ValueError(f"field order {q} exceeds the int64 enumeration range")
    chi = _chi_table(p)
    red, frob = _norm_matrices(_primitive_modulus(p, i), p)
    # Frobenius iterates sigma^(2^k), 2^k < i, for the pairing scheme below
    frob_pows = _mat_pows(frob, [1 << k for k in range((i - 1).bit_length())], p)

    supports = [sorted((k for k, c in enumerate(fc) if c and k), reverse=True) for fc in polys]
    maxdeg = max((exps[0] for exps in supports if exps), default=0)
    powers = np.array([p**j for j in range(i)], dtype=np.int64)
    totals = [0] * len(polys)
    for lo in range(0, q, _CHUNK):
        n = np.arange(lo, min(lo + _CHUNK, q), dtype=np.int64)
        xs = (n[:, None] // powers[None, :]) % p
        sq = {1: xs}  # x^(2^b), for binary powering over the support of f (f is often sparse)
        for b in range(1, maxdeg.bit_length()):
            sq[1 << b] = _batch_mul(sq[1 << (b - 1)], sq[1 << (b - 1)], red, p)
        for k, (fc, exponents) in enumerate(zip(polys, supports)):
            val = np.zeros_like(xs)
            val[:, 0] = fc[0] if fc else 0
            for e in exponents:
                term = None  # the last term is freed before this one is built
                for b in range(e.bit_length()):
                    if e >> b & 1:
                        term = sq[1 << b] if term is None else _batch_mul(term, sq[1 << b], red, p)
                c = fc[e]
                val += term if c == 1 else (term * c) % p
            val %= p

            # Norm to F_p: multiply out the Frobenius orbit of val.  acc holds
            # prod of sigma^j(val) for j < done; double while 2*done <= i,
            # then append the remaining conjugates one at a time.
            acc, done, kk = val, 1, 0
            while 2 * done <= i:
                acc = _batch_mul(acc, acc @ frob_pows[kk].T % p, red, p)
                done *= 2
                kk += 1
            for j in range(done, i):  # sigma^j(val): sigma^done(val), then one sigma a step
                conj = val @ frob_pows[kk].T % p if j == done else conj @ frob_pows[0].T % p
                acc = _batch_mul(acc, conj, red, p)
            if np.any(acc[:, 1:]):
                raise ArithmeticError("norm landed outside the prime field; kernel bug")
            totals[k] += int(chi[acc[:, 0]].sum())
    return totals


def char_sums(units: list[tuple[tuple[int, ...], int, int]]):
    """Yield (k, sum_x chi(f(x)) over F_{p^i}) for each units[k] = (coefficients of f, p, i).

    The kernels' one entry.  Every p must be an odd prime; the cap
    p < MAX_FIELD_CHAR, which every kernel's int64 headroom needs, is
    checked for each p before any count (ValueError).  Then each unit's
    shape comes from ``algebra._sum_period``: a unit whose sum cancels is
    yielded as 0 before any kernel runs (``LPolyCache.resolve`` settles
    such units itself, so only direct callers such as ``point_count``
    hand them here), and every other unit keeps its period d.  Those
    units are grouped by field (p, i), in order of first appearance, and
    each field's kernel is called once with all of its f, reduced mod p,
    and their d: the F_p kernel when i = 1, log tables when
    q <= _TABLE_MAX_ORDER, the norm kernel, which needs no d, above.  Its
    tables are freed when that call returns, before the next field's are
    built.  The sums do not depend on a field's modulus; both
    extension-field kernels use the primitive one.
    """
    for p in dict.fromkeys(p for _, p, _ in units):
        _require_below_cap(p)
    fields: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for k, (coeffs, p, i) in enumerate(units):
        d = _sum_period(coeffs, p, i)
        if d is None:
            yield k, 0
        else:
            fields.setdefault((p, i), []).append((k, d))
    for (p, i), group in fields.items():
        polys = [(tuple(c % p for c in units[k][0]), d) for k, d in group]
        if i == 1:
            sums = _prime_sums(polys, p)
        elif p**i <= _TABLE_MAX_ORDER:
            sums = _char_sum_logs(polys, p, i)
        else:
            sums = _char_sum_norm([coeffs for coeffs, _ in polys], p, i)
        yield from zip((k for k, _ in group), sums)
