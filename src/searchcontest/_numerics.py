"""Pure-Python ports of the four scipy routines the solvers call, and of
numpy's `interp` for one float.

Each port returns scipy's (or numpy's) bits: the same floating-point
operations in the same order, on Python floats, which are IEEE doubles with no
fused multiply-add, and with `math.log` and float `**`, which call the C
library as scipy's compiled code does.

- `brentq`: scipy's `brentq.c` (R. P. Brent, *Algorithms for Minimization
  without Derivatives*, 1973, ch. 4), with its argument checks and its
  NaN guard.
- `qagse`: QUADPACK's `dqagse` (R. Piessens et al., *QUADPACK*, 1983) over
  `_qk21`, `_qpsrt` and `_qelg` (P. Wynn's epsilon algorithm). Its lists are
  1-based, as in the Fortran, so each index reads as it does there; slot 0 is
  unused.
- `lgam`: cephes `lgam` (S. L. Moshier, *Methods and Programs for
  Mathematical Functions*, 1989), which scipy's `gammaln` is.
- `xlogy`: scipy's `xlogy` over an integer array and a float.
- `interp`: `np.interp` at one float, for the k-draw CDF's node lists and a
  quantile grid's float reads.

Python raises where C divides by zero (in brentq's step, once a product of
tiny values underflows) or a power overflows; each such spot takes the branch
the C code takes on the inf or NaN it would get. Each test keeps the Fortran's
form (`not x > y` for a jump on `x .gt. y`), so a NaN takes the same branch.
"""
import bisect
import math

import numpy as np

_EPS = 2.220446049250313e-16  # d1mach(4), the spacing of floats at 1
_UFLOW = 2.2250738585072014e-308  # d1mach(1), the smallest normal float
_OFLOW = 1.7976931348623157e308  # d1mach(2), the largest float


# ------------------------------------------------------------------ brentq

def brentq(f, a: float, b: float, xtol: float, rtol: float = 4 * _EPS, maxiter: int = 100,
           args: tuple = ()) -> tuple[float, int, int, bool]:
    """A root of f on [a, b] and (iterations, function calls, converged).

    Raises ValueError, with scipy's messages, for a tolerance below its
    floor, ends of one sign, or a NaN value of f."""
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < 4 * _EPS:
        raise ValueError(f"rtol too small ({rtol:g} < {4 * _EPS:g})")

    def call(x: float) -> float:
        fx = f(x, *args)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return float(fx)

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:  # no iteration ran; scipy leaves its count unset here
        return xpre, 0, 2, True
    if fcur == 0:
        return xcur, 0, 2, True
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for i in range(1, maxiter + 1):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, i, i + 1, True

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's step is inf or NaN, and fails the test below
                stry = math.nan
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    return xcur, maxiter, maxiter + 2, False


# ------------------------------------------------------------------ QUADPACK

_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.000000000000000000000000000000000)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077600525452392, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


def _qk21(f, a: float, b: float) -> tuple[float, float, float, float]:
    """dqk21: the 21-point Kronrod estimate on [a, b], its error, and the
    integrals of |f| and of |f - mean|. The nodes stay scalar: numpy's array
    ops do not give these bits."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = float(f(centr))
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1, fv2 = [0.0] * 10, [0.0] * 10
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # the Gauss nodes first, as dqk21 runs them
        absc = hlgth * _XGK[j]
        fval1, fval2 = float(f(centr - absc)), float(f(centr + absc))
        fv1[j], fv2[j] = fval1, fval2
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        ratio = 200.0 * abserr / resasc  # min(1, ratio**1.5) is 1 from ratio 1 up, and
        abserr = resasc * (1.0 if ratio >= 1.0 else ratio ** 1.5)  # ** cannot overflow below
    if resabs > _UFLOW / (50.0 * _EPS):
        abserr = max((_EPS * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list,
           nrmax: int) -> tuple[int, float, int]:
    """dqpsrt: keep iord's first entries in descending error order; return the
    interval to bisect next, its error and nrmax."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):  # insert errmax top-down
            isucc = iord[i]
            if errmax >= elist[isucc]:
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd], iord[jupbn] = maxerr, last
            return iord[nrmax], elist[iord[nrmax]], nrmax
        iord[i - 1] = maxerr
        k = jbnd
        for _ in range(i, jbnd + 1):  # insert errmin bottom-up
            isucc = iord[k]
            if errmin < elist[isucc]:
                iord[k + 1] = last
                break
            iord[k + 1] = isucc
            k -= 1
        else:
            iord[i] = last
    return iord[nrmax], elist[iord[nrmax]], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int) -> tuple[int, float, float, int]:
    """dqelg: Wynn's epsilon extrapolation of the sequence epstab[1..n]; returns
    the new n, the extrapolated value, its error and nres."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPS * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = k1 = n
    for i in range(1, newelm + 1):
        k2, k3 = k1 - 1, k1 - 2
        res = epstab[k1 + 2]
        e0, e1, e2 = epstab[k3], epstab[k2], res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPS
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPS
        if not (err2 > tol2 or err3 > tol3):  # e0, e1, e2 equal to machine accuracy
            return n, res, max(err2 + err3, 5.0 * _EPS * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPS
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:  # omit part of the table
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        if not abs(ss * e1) > 1.0e-4:  # irregular behaviour: omit part of the table
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if not error > abserr:
            abserr, result = error, res
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):  # shift the table
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        epstab[1:n + 1] = epstab[num - n + 1:num + 1]
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPS * abs(result)), nres


def qagse(f, a: float, b: float, epsabs: float, epsrel: float,
          limit: int) -> tuple[float, float, int, int, int]:
    """dqagse: the integral of f over [a, b] by adaptive bisection and epsilon
    extrapolation; returns (result, abserr, neval, ier, last)."""
    a, b = float(a), float(b)
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPS, 0.5e-28):
        return 0.0, 0.0, 0, 6, 0
    alist, blist = [0.0] * (limit + 1), [0.0] * (limit + 1)
    rlist, elist, iord = [0.0] * (limit + 1), [0.0] * (limit + 1), [0] * (limit + 1)
    rlist2, res3la = [0.0] * 53, [0.0] * 4
    alist[1], blist[1] = a, b
    ier = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1], elist[1], iord[1] = result, abserr, 1
    if abserr <= 100.0 * _EPS * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 42 * last - 21, ier, last

    rlist2[1] = result
    errmax, maxerr, area, errsum, abserr = abserr, 1, result, abserr, _OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = False
    ierro = iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPS) * defabs else -1
    small = erlarg = ertest = correc = 0.0
    summed = False
    for last in range(2, limit + 1):
        # bisect the interval with the nrmax-th largest error
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2, b2 = b1, blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if not (abs(rlist[maxerr] - area12) > 1.0e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr], rlist[last] = area1, area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPS) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr], alist[last], blist[last] = a2, a1, b1
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr], elist[last] = error2, error1
        else:
            alist[last], blist[maxerr], blist[last] = a2, b1, b2
            elist[maxerr], elist[last] = error1, error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small, erlarg, ertest, rlist2[2] = abs(b - a) * 0.375, errsum, errbnd, area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to bisect next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: before bisecting,
            # work down the larger intervals, then extrapolate
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            while nrmax <= jupbnd:
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    break
                nrmax += 1
            if nrmax <= jupbnd:  # the loop broke at a larger interval: bisect it
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1.0e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin, abserr, result, correc = 0, abseps, reseps, erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum
    # the extrapolated result or the sum of the intervals, the divergence test
    # and the shift of ier (labels 100-130)
    divergence = True
    if not summed and abserr == _OFLOW:
        summed = True
    elif not summed and ier + ierro != 0:
        if ierro == 3:
            abserr += correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            summed = abserr / abs(result) > errsum / abs(area)
        elif abserr > errsum:
            summed = True
        elif area == 0.0:
            divergence = False
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    elif divergence and not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        if area == 0.0:  # C's result/area is inf or NaN: the test fails unless both are 0
            ier = 6 if result != 0.0 or errsum > 0.0 else ier
        elif 0.01 > result / area or result / area > 100.0 or errsum > abs(area):
            ier = 6
    return result, abserr, 42 * last - 21, ier - 1 if ier > 2 else ier, last


# ------------------------------------------------------------------ special functions

_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4, 7.93650340457716943945E-4,
           -2.77777777730099687205E-3, 8.33333333333331927722E-2)
_LGAM_B = (-1.37825152569120859100E3, -3.88016315134637840924E4, -3.31612992738871184744E5,
           -1.16237097492762307383E6, -1.72173700820839662146E6, -8.53555664245765465627E5)
_LGAM_C = (-3.51815701436523470549E2, -1.70642106651881159223E4, -2.20528590553854454839E5,
           -1.13933444367982507207E6, -2.53252307177582951285E6, -2.01889141433532773231E6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_LOGPI = 1.14472988584940017414  # log(pi)
_MAXLGM = 2.556348e305


def _polevl(x: float, coef: tuple, start: float) -> float:
    """Horner's rule from start, which is coef's leading coefficient (polevl)
    or x + coef[0] with an implicit leading 1 (p1evl)."""
    ans = start
    for c in coef:
        ans = ans * x + c
    return ans


def lgam(x: float) -> float:
    """log|Gamma(x)|, cephes `lgam`: scipy's `gammaln` for a float."""
    x = float(x)
    if not math.isfinite(x):
        return x
    if x < -34.0:
        q = -x
        w = lgam(q)
        p = float(math.floor(q))
        if p == q:
            return math.inf
        z = q - p
        if z > 0.5:
            p += 1.0
            z = p - q
        z = q * math.sin(math.pi * z)
        return math.inf if z == 0.0 else _LOGPI - math.log(z) - w
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            if u == 0.0:
                return math.inf
            z /= u
            p += 1.0
            u = x + p
        z = abs(z)
        if u == 2.0:
            return math.log(z)
        x = x + (p - 2.0)
        return math.log(z) + x * _polevl(x, _LGAM_B[1:], _LGAM_B[0]) / _polevl(
            x, _LGAM_C[1:], x + _LGAM_C[0])
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A[1:], _LGAM_A[0]) / x


def xlogy(k: np.ndarray, p: float) -> np.ndarray:
    """k log p for each entry of the integer array k, and 0 where k is 0 and p is
    not NaN: scipy's `xlogy`. The log is `math.log`'s, one C-library call, where
    `np.log` would give other bits; the products are numpy's, which are exact
    IEEE products."""
    log_p = math.log(p) if p > 0.0 else -math.inf if p == 0.0 else math.nan
    if math.isnan(p):
        return k * log_p
    return np.multiply(k, log_p, out=np.zeros(k.shape), where=k != 0)


def interp(x: float, xp: list[float], fp: list[float]) -> float:
    """float(np.interp(x, xp, fp)) for one float, by np.interp's operations in
    its order: the segment starts at the last node at or below x, and a node
    returns its own value. A NaN x is returned as it is (bisect would put it
    past the last node). numpy's NaN fallbacks are left out: with finite fp and
    x strictly inside a segment, slope * (x - xp[j]) + fp[j] is never NaN."""
    if x != x:
        return x
    j = bisect.bisect_right(xp, x) - 1
    if j < 0:
        return fp[0]
    if j == len(xp) - 1 or xp[j] == x:
        return fp[j]
    return (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) * (x - xp[j]) + fp[j]
