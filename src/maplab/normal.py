"""Standard normal CDF and quantile on whole numpy arrays.

ndtr and ndtri are Cephes' rational approximations (S. L. Moshier, Methods
and Programs for Mathematical Functions, 1989: ndtr.c, ndtri.c), evaluated
in the order scipy.special evaluates them, so that they agree with
scipy.special.ndtr and ndtri bit for bit. Each branch runs on its own subset
only. exp and log are libm's (math.exp, math.log on the tail subset), since
numpy's vectorized exp and log may differ from libm in the last bits.
"""

from __future__ import annotations

import math

import numpy as np

MAXLOG = 7.09782712893383996843E2           # log(DBL_MAX)
SQRT1_2 = 0.70710678118654752440            # 1/sqrt(2)
SQRT2PI = 2.50662827463100050242            # sqrt(2 pi)
EXPM2 = 0.13533528323661269189              # exp(-2)

# erf, |x| <= 1: x T(x^2) / U(x^2)
ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
         2.23200534594684319226E3, 7.00332514112805075473E3,
         5.55923013010394962768E4)
ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
         4.59432382970980127987E3, 2.26290000613890934246E4,
         4.92673942608635921086E4)
# erfc, 1 <= x < 8: exp(-x^2) P(x) / Q(x); x >= 8: with R and S
ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
          7.46321056442269912687E0, 4.86371970985681366614E1,
          1.96520832956077098242E2, 5.26445194995477358631E2,
          9.34528527171957607540E2, 1.02755188689515710272E3,
          5.57535335369399327526E2)
ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
          3.54937778887819891062E2, 9.75708501743205489753E2,
          1.82390916687909736289E3, 2.24633760818710981792E3,
          1.65666309194161350182E3, 5.57535340817727675546E2)
ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
          5.01905042251180477414E0, 6.16021097993053585195E0,
          7.40974269950448939160E0, 2.97886665372100240670E0)
ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
          1.20489539808096656605E1, 1.70814450747565897222E1,
          9.60896809063285878198E0, 3.36907645100081516050E0)
# ndtri, |y - 1/2| <= 3/8 (y > exp(-2)): in y - 1/2
NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
            -5.66762857469070293439E1, 1.39312609387279679503E1,
            -1.23916583867381258016E0)
NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
            8.63602421390890590575E1, -2.25462687854119370527E2,
            2.00260212380060660359E2, -8.20372256168333339912E1,
            1.59056225126211695515E1, -1.18331621121330003142E0)
# ndtri tails, in 1/x with x = sqrt(-2 log y): 2 <= x < 8 ...
NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
            5.71628192246421288162E1, 4.40805073893200834700E1,
            1.46849561928858024014E1, 2.18663306850790267539E0,
            -1.40256079171354495875E-1, -3.50424626827848203418E-2,
            -8.57456785154685413611E-4)
NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
            4.13172038254672030440E1, 1.50425385692907503408E1,
            2.50464946208309415979E0, -1.42182922854787788574E-1,
            -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# ... and 8 <= x <= 64
NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
            3.93881025292474443415E0, 1.33303460815807542389E0,
            2.01485389549179081538E-1, 1.23716634817820021358E-2,
            3.01581553508235416007E-4, 2.65806974686737550832E-6,
            6.23974539184983293730E-9)
NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
            1.37702099489081330271E0, 2.16236993594496635890E-1,
            1.34204006088543189037E-2, 3.28014464682127739104E-4,
            2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _horner(x, coef, monic=False):
    """Cephes polevl (p1evl with monic: a leading coefficient 1 before coef)."""
    y = x + coef[0] if monic else x * coef[0] + coef[1]
    for c in coef[1:] if monic else coef[2:]:
        y *= x
        y += c
    return y


def _ratio(p, q):
    """(v, w) -> w P(v) / Q(v), Q monic."""
    return lambda v, w: w * _horner(v, p) / _horner(v, q, monic=True)


def _branches(cond, f, g, *args):
    """f(*args) where cond holds and g(*args) elsewhere, each evaluated only
    on its own subset of the arrays args."""
    if cond.all():
        return f(*args)
    out = np.empty(cond.shape)
    out[cond] = f(*(a[cond] for a in args))
    out[~cond] = g(*(a[~cond] for a in args))
    return out


def _libm(func, x):
    """func (math.exp or math.log) at each entry of the 1-D array x."""
    return np.fromiter(map(func, x.tolist()), float, count=len(x))


def _erf(x):
    """erf(x) for |x| <= 1."""
    return _ratio(ERF_T, ERF_U)(x * x, x)


def _erfc(x):
    """erfc(x) for x >= 0 or nan."""
    out = np.zeros_like(x)
    small = x < 1.0
    out[small] = 1.0 - _erf(x[small])
    with np.errstate(over="ignore"):        # exp(-x^2) below -MAXLOG is 0
        mid = np.flatnonzero(~small & ~(-x * x < -MAXLOG))
    x = x[mid]
    out[mid] = _branches(x < 8.0, _ratio(ERFC_P, ERFC_Q),
                         _ratio(ERFC_R, ERFC_S), x, _libm(math.exp, -x * x))
    return out


def ndtr(a):
    """Standard normal CDF, elementwise; scipy.special.ndtr bit for bit."""
    a = np.asarray(a, dtype=float)
    x = (a * SQRT1_2).ravel()
    y = np.empty_like(x)
    inner = np.abs(x) < SQRT1_2
    y[inner] = 0.5 + 0.5 * _erf(x[inner])
    outer = np.flatnonzero(~inner)
    x = x[outer]
    tail = 0.5 * _erfc(np.abs(x))
    y[outer] = np.where(x > 0, 1.0 - tail, tail)
    return y.reshape(a.shape)


def ndtri(y0):
    """Standard normal quantile, elementwise; scipy.special.ndtri bit for
    bit (-inf at 0, inf at 1, nan outside [0, 1])."""
    y0 = np.asarray(y0, dtype=float)
    y = y0.ravel()
    flip = y > 1.0 - EXPM2          # then y is 1 - y0 and x is not negated
    y = np.where(flip, 1.0 - y, y)
    x = np.full_like(y, np.nan)
    central = y > EXPM2
    c = y[central] - 0.5
    x[central] = SQRT2PI * (c + c * _ratio(NDTRI_P0, NDTRI_Q0)(c * c, c * c))
    tail = np.flatnonzero(~central & (y > 0.0))     # y < 0 off [0, 1]
    t = np.sqrt(-2.0 * _libm(math.log, y[tail]))
    z = 1.0 / t
    t = t - _libm(math.log, t) / t - _branches(
        t < 8.0, _ratio(NDTRI_P1, NDTRI_Q1), _ratio(NDTRI_P2, NDTRI_Q2), z, z)
    x[tail] = np.where(flip[tail], t, -t)
    zero = y == 0.0                 # y0 is 0 or 1
    x[zero] = np.where(flip[zero], np.inf, -np.inf)
    return x.reshape(y0.shape)
