"""Character sums sum_x chi(f(x)) over F_{p^i}: one numpy kernel per kind of field.

- F_p: Horner over all x, then a character table of F_p;
- F_{p^i}, i >= 2, q <= _TABLE_MAX_ORDER: discrete-log tables built once
  per field (x = g^k turns each monomial into an index, terms are added
  by Zech logarithms, and chi(y) is the parity of log y);
- larger F_{p^i}: f(x) by repeated squaring in int64, then chi_p of the
  norm to F_p through Frobenius-orbit products.

The field alone picks the kernel (``char_sum``), and every kernel works
in chunks of x.  This is the package's only numpy user, and
``curvecount.affine_char_sum`` imports it on the first count.  The test
suite checks every kernel against an independent enumeration oracle.
"""

from __future__ import annotations

import functools

import numpy as np

from .algebra import FieldSpec, PolyModP, build_extension, prime_divisors

_CHUNK = 1 << 19
# Log tables serve the fields F_{p^i}, i >= 2, of order q <= _TABLE_MAX_ORDER;
# larger extension fields go through the norm kernel.  Logs lie in
# [0, q - 1) and are stored as int32, which needs q - 1 < 2^31.
_TABLE_MAX_ORDER = 1 << 23
_TABLE_BLOCK = 1 << 16  # rows per matrix step while building an exp table


@functools.lru_cache(maxsize=2)
def _chi_table(p: int) -> np.ndarray:
    """chi[v] = quadratic character of v in F_p, built from one squaring pass.

    Memoised for the two curves of a pair, which the backend counts back
    to back over each field; the shared table is read-only.
    """
    chi = np.full(p, -1, dtype=np.int64)
    chi[0] = 0
    v = np.arange(1, p, dtype=np.int64)
    chi[(v * v) % p] = 1
    chi.flags.writeable = False
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


def _char_sum_prime(fbar: PolyModP, p: int) -> int:
    """sum_x chi(f(x)) over F_p: chunked Horner, then the character table."""
    chi = _chi_table(p)
    total = 0
    for lo in range(0, p, _CHUNK):
        xs = np.arange(lo, min(lo + _CHUNK, p), dtype=np.int64)
        acc = np.zeros_like(xs)
        for c in reversed(fbar.coeffs):
            acc = (acc * xs + c) % p
        total += int(chi[acc].sum())
    return total


def _mul_matrix(spec: FieldSpec, a: list[int]) -> np.ndarray:
    """Matrix of y -> a*y on the power basis; column j holds a*t^j."""
    p, low = spec.p, np.array(spec.modulus.coeffs[:-1], dtype=np.int64)
    M = np.empty((spec.degree, spec.degree), dtype=np.int64)
    col = np.array(a, dtype=np.int64)
    for j in range(spec.degree):
        M[:, j] = col
        col = (np.concatenate(([0], col[:-1])) - col[-1] * low) % p  # times t, folded
    return M


def _mat_pow(M: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.eye(len(M), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ M % p
        M = M @ M % p
        e >>= 1
    return out


def _primitive_matrix(spec: FieldSpec) -> np.ndarray:
    """Multiplication matrix of the first primitive element in base-p counter order.

    a generates F_q^* iff a^((q-1)/r) != 1 for every prime r | q - 1, tested
    on i x i matrix powers.  Counter values below p are F_p, never primitive
    for i >= 2, so the scan starts at t.
    """
    p, i, q = spec.p, spec.degree, spec.order
    one, primes = np.eye(i, dtype=np.int64), prime_divisors(q - 1)
    for v in range(p, q):
        M = _mul_matrix(spec, [(v // p**j) % p for j in range(i)])
        if all(not np.array_equal(_mat_pow(M, (q - 1) // r, p), one) for r in primes):
            return M
    raise ArithmeticError(f"no primitive element in F_{p}^{i}; field data corrupt")


def _exp_log_tables(spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """exp[k] = code of g^k for k < q - 1, and log with log[exp[k]] = k, log[0] = -1.

    g is the first primitive element; the code of a field element is its
    coordinate vector read as a base-p number (base-p counter order).  The rows g^0..g^(n-1) are built by doubling,
    then each next block of n is the last one times g^n, as one matrix
    product, so memory beyond the two int32 tables stays at one block.
    """
    p, i, q = spec.p, spec.degree, spec.order
    g = _primitive_matrix(spec)
    codes = p ** np.arange(i, dtype=np.int64)
    block = np.zeros((1, i), dtype=np.int64)
    block[0, 0] = 1
    step = g  # multiplication by g^len(block)
    while len(block) < min(_TABLE_BLOCK, q - 1):
        block = np.vstack((block, block @ step.T % p))
        step = step @ step % p
    exp = np.empty(q - 1, dtype=np.int32)
    for lo in range(0, q - 1, len(block)):
        hi = min(lo + len(block), q - 1)
        exp[lo:hi] = block[: hi - lo] @ codes
        block = block @ step.T % p
    log = np.full(q, -1, dtype=np.int32)
    for lo in range(0, q - 1, _CHUNK):
        hi = min(lo + _CHUNK, q - 1)
        log[exp[lo:hi]] = np.arange(lo, hi, dtype=np.int32)
    if log[0] != -1 or (log[1:] < 0).any():
        raise ArithmeticError(f"powers of g miss part of F_{p}^{i}; table bug")
    return exp, log


@functools.lru_cache(maxsize=2)
def _field_tables(p: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Zech logs of F_{p^i} and the logs of F_p's elements, built once per field.

    zech[n] = log(1 + g^n), or -1 where 1 + g^n = 0.  The two most recent
    fields stay in memory: both curves of a pair count over one table.
    """
    exp, log = _exp_log_tables(build_extension(p, i))
    zech = np.empty_like(exp)
    for lo in range(0, len(exp), _CHUNK):
        e = exp[lo : lo + _CHUNK]
        zech[lo : lo + _CHUNK] = log[e + np.where(e % p == p - 1, 1 - p, 1)]  # +1 on digit 0
    log_fp = log[:p].astype(np.int64)
    zech.flags.writeable = log_fp.flags.writeable = False  # shared by every caller
    return zech, log_fp


def _char_sum_logs(fbar: PolyModP, spec: FieldSpec) -> int:
    """sum_x chi(f(x)) over F_q, i >= 2, by discrete logs.

    With x = g^k, each term c_e x^e is g^(log c_e + e*k).  Terms are added
    in log form, g^a + g^b = g^(a + zech[(b - a) mod (q-1)]), and chi(g^n)
    is (-1)^n; q - 1 is even, so the parity survives reduction mod q - 1.
    Exponents are reduced mod q - 1 first, so e*k < q^2 <= 2^46 in int64.
    """
    p, m = spec.p, spec.order - 1
    zech, log_fp = _field_tables(p, spec.degree)
    terms = [(e % m, int(log_fp[c])) for e, c in enumerate(fbar.coeffs) if c]
    c0 = fbar.coeffs[0] if fbar.coeffs else 0
    total = 1 - 2 * (int(log_fp[c0]) & 1) if c0 else 0  # x = 0
    if not terms:
        return total
    (e0, l0), rest = terms[0], terms[1:]
    for lo in range(0, m, _CHUNK):
        k = np.arange(lo, min(lo + _CHUNK, m), dtype=np.int64)
        acc = e0 * k + l0  # a log of the partial sum, unreduced
        zero = np.zeros(len(k), dtype=bool)  # the partial sum is 0
        for e, l in rest:
            b = e * k + l
            z = zech[(b - acc) % m]
            acc = np.where(zero, b, acc + z)
            zero = (z < 0) & ~zero
        total += len(k) - int(zero.sum()) - 2 * int((acc[~zero] & 1).sum())
    return total


def _norm_matrices(spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """The norm kernel's constants for F_{p^i}, i >= 2: (red, frob).

    red[j] = t^(i+j) mod the modulus for j = 0..i-2: columns 1..i-1 of
    multiplication by t^(i-1).  frob is the matrix of the (F_p-linear)
    p-power map; its column j is sigma(t^j) = (t^p)^j.
    """
    p, i = spec.p, spec.degree
    e = np.eye(i, dtype=np.int64)
    red = _mul_matrix(spec, e[i - 1])[:, 1:].T
    tp = _mat_pow(_mul_matrix(spec, e[1]), p, p)  # multiplication by t^p
    frob = np.empty((i, i), dtype=np.int64)
    col = e[0]
    for j in range(i):
        frob[:, j] = col
        col = tp @ col % p
    return red, frob


def _char_sum_norm(fbar: PolyModP, spec: FieldSpec) -> int:
    """sum_x chi(f(x)) via chi_p(Norm(f(x))), vectorized and chunked; i >= 2."""
    p, i, q = spec.p, spec.degree, spec.order
    if q >= 1 << 62:
        raise ValueError(f"field order {q} exceeds the int64 enumeration range")
    chi = _chi_table(p)
    fc = list(fbar.coeffs)
    red, frob = _norm_matrices(spec)
    # Frobenius iterates sigma^(2^k) for the pairing scheme below
    frob_pows = [frob]
    k = 1
    while (1 << k) < i:
        prev = frob_pows[-1]
        frob_pows.append(prev @ prev % p)
        k += 1

    exponents = sorted({k for k, c in enumerate(fc) if c != 0 and k > 0}, reverse=True)
    maxdeg = exponents[0] if exponents else 0
    powers = np.array([p**j for j in range(i)], dtype=np.int64)
    total = 0
    for lo in range(0, q, _CHUNK):
        hi = min(lo + _CHUNK, q)
        n = np.arange(lo, hi, dtype=np.int64)
        xs = (n[:, None] // powers[None, :]) % p

        # f(x) by binary powering over the support of f (f is often sparse)
        sq = {1: xs}
        b = 1
        while 2 * b <= maxdeg:
            sq[2 * b] = _batch_mul(sq[b], sq[b], red, p)
            b *= 2
        val = np.zeros_like(xs)
        val[:, 0] = fc[0] % p
        for e in exponents:
            term = None
            rem, bit = e, 1
            while rem:
                if rem & 1:
                    term = sq[bit] if term is None else _batch_mul(term, sq[bit], red, p)
                rem >>= 1
                bit <<= 1
            c = fc[e] % p
            val += term if c == 1 else (term * c) % p
        val %= p

        # Norm to F_p: multiply out the Frobenius orbit of val.  acc holds
        # prod of sigma^j(val) for j < done; double while 2*done <= i,
        # then append the remaining conjugates one at a time.
        acc = val
        done = 1
        kk = 0
        while 2 * done <= i:
            acc = _batch_mul(acc, acc @ frob_pows[kk].T % p, red, p)
            done *= 2
            kk += 1
        if done < i:
            conj = val @ frob_pows[kk].T % p  # sigma^done(val)
            while True:
                acc = _batch_mul(acc, conj, red, p)
                done += 1
                if done == i:
                    break
                conj = conj @ frob_pows[0].T % p
        if np.any(acc[:, 1:]):
            raise ArithmeticError("norm landed outside the prime field; kernel bug")
        total += int(chi[acc[:, 0]].sum())
    return total


def char_sum(fbar: PolyModP, spec: FieldSpec) -> int:
    """sum_x chi(f(x)) over spec's field; fbar has spec's characteristic."""
    if spec.degree == 1:
        return _char_sum_prime(fbar, spec.p)
    if spec.order <= _TABLE_MAX_ORDER:
        return _char_sum_logs(fbar, spec)
    return _char_sum_norm(fbar, spec)
