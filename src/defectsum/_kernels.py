"""Windowed adaptive integration kernel for endpoint classification.

The radial equation -u'' + q(r) u = z u is solved in the variable
t = log r, where it reads

    U' = P,   P' = P + (w(t) - z * exp(2 t)) U,   w(t) = q(e^t) e^(2 t),

which removes the 1/r^2 stiffness at the inner endpoint.  The kernel
carries two solutions with independent anchor data together with their
pairwise L^2 window integrals over dyadic windows (width log 2 in t),
rescaling the common amplitude to avoid overflow and tracking the scale
in log form.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = 0.6931471805599453

STATUS_OK = 0
STATUS_STEP_UNDERFLOW = 1
STATUS_BUDGET_EXHAUSTED = 2


def window_integrals(wtab, t_lo, dt_tab, t_anchor, pv0, n_win, direction,
                     z_re, z_im, rtol, max_steps):
    """Integrate both solutions across n_win dyadic windows.

    Returns (status, n_done, L00, L11, CRe, CIm, logscale) where L00/L11
    are natural logs of the per-window integrals of |u|^2 and |v|^2 in dr,
    and CRe/CIm hold the normalized cross integral
    (int u conj(v) dr) / sqrt(I_u I_v) per window.

    The state is a list of seven Python complex values: U, P (= r u'), V,
    Q (= r v') and the running integrals of |u|^2, |v|^2 and u conj(v).
    The stage states only carry U, P, V, Q, the components ``rhs`` reads.
    """
    w = np.asarray(wtab, dtype=np.float64).tolist()
    j_max = len(w) - 3

    L00 = [-math.inf] * n_win
    L11 = [-math.inf] * n_win
    CRe = [0.0] * n_win
    CIm = [0.0] * n_win

    # u = 1 at the anchor; v = 0 there with r * v' = pv0
    y = [1.0 + 0.0j, 0j, 0j, pv0 + 0.0j, 0j, 0j, 0j]

    def rhs(tt, yy):
        x = (tt - t_lo) / dt_tab
        j = math.floor(x)
        if j < 1:
            j = 1
        if j > j_max:
            j = j_max
        s = x - j
        cm1 = -s * (s - 1.0) * (s - 2.0) / 6.0
        c0 = (s + 1.0) * (s - 1.0) * (s - 2.0) / 2.0
        c1 = -(s + 1.0) * s * (s - 2.0) / 2.0
        c2 = (s + 1.0) * s * (s - 1.0) / 6.0
        wv = cm1 * w[j - 1] + c0 * w[j] + c1 * w[j + 1] + c2 * w[j + 2]
        e2t = math.exp(2.0 * tt)
        et = math.exp(tt)
        coef = complex(wv - z_re * e2t, -z_im * e2t)
        U, P, V, Q = yy[0], yy[1], yy[2], yy[3]
        return [P, P + coef * U, Q, Q + coef * V,
                complex(et * (U.real * U.real + U.imag * U.imag), 0.0),
                complex(et * (V.real * V.real + V.imag * V.imag), 0.0),
                complex(et * (U.real * V.real + U.imag * V.imag),
                        et * (U.imag * V.real - U.real * V.imag))]

    t = t_anchor
    h = direction * LN2 / 64.0
    logscale = 0.0
    status = STATUS_OK
    n_done = 0
    h_floor = LN2 * 1e-13
    atol = 1e-280

    for win in range(n_win):
        t_end = t_anchor + direction * LN2 * (win + 1)
        steps = 0
        failed = False
        while (t_end - t) * direction > 1e-13 * LN2:
            steps += 1
            if steps > max_steps:
                status = STATUS_BUDGET_EXHAUSTED
                failed = True
                break
            if abs(h) < h_floor:
                status = STATUS_STEP_UNDERFLOW
                failed = True
                break
            if abs(h) > abs(t_end - t):
                h = t_end - t

            # Dormand-Prince 5(4) stages
            y4 = y[:4]
            k1 = rhs(t, y)
            k2 = rhs(t + 0.2 * h, [a + h * (0.2 * b) for a, b in zip(y4, k1)])
            k3 = rhs(t + 0.3 * h, [a + h * (0.075 * b + 0.225 * c)
                                   for a, b, c in zip(y4, k1, k2)])
            k4 = rhs(t + 0.8 * h, [a + h * ((44.0 / 45.0) * b
                                            - (56.0 / 15.0) * c
                                            + (32.0 / 9.0) * d)
                                   for a, b, c, d in zip(y4, k1, k2, k3)])
            k5 = rhs(t + (8.0 / 9.0) * h,
                     [a + h * ((19372.0 / 6561.0) * b
                               - (25360.0 / 2187.0) * c
                               + (64448.0 / 6561.0) * d
                               - (212.0 / 729.0) * e)
                      for a, b, c, d, e in zip(y4, k1, k2, k3, k4)])
            k6 = rhs(t + h, [a + h * ((9017.0 / 3168.0) * b
                                      - (355.0 / 33.0) * c
                                      + (46732.0 / 5247.0) * d
                                      + (49.0 / 176.0) * e
                                      - (5103.0 / 18656.0) * f)
                             for a, b, c, d, e, f in zip(y4, k1, k2, k3, k4, k5)])
            y5 = [a + h * ((35.0 / 384.0) * b
                           + (500.0 / 1113.0) * d
                           + (125.0 / 192.0) * e
                           - (2187.0 / 6784.0) * f
                           + (11.0 / 84.0) * g)
                  for a, b, d, e, f, g in zip(y, k1, k3, k4, k5, k6)]
            k7 = rhs(t + h, y5)

            # error scaled against the largest solution component: the
            # classification consumes Gram data, so smaller components only
            # need accuracy relative to the dominant one, and per-component
            # scaling would stall at zero crossings
            sc = atol + rtol * max(0.0, *[abs(a) for a in y4 + y5[:4]])
            err = max(0.0, *[abs(p - (a + h * ((5179.0 / 57600.0) * b
                                               + (7571.0 / 16695.0) * d
                                               + (393.0 / 640.0) * e
                                               - (92097.0 / 339200.0) * f
                                               + (187.0 / 2100.0) * g
                                               + (1.0 / 40.0) * k))) / sc
                             for p, a, b, d, e, f, g, k
                             in zip(y5, y4, k1, k3, k4, k5, k6, k7)])
            if not (err == err):  # NaN guard
                err = 1e12

            if err <= 1.0:
                t = t + h
                y = y5
                nrm = max(abs(y[0]), abs(y[1]), abs(y[2]), abs(y[3]))
                if nrm > 1e50 or (nrm < 1e-50 and nrm > 0.0):
                    inv = 1.0 / nrm
                    inv2 = inv * inv
                    y = [a * inv for a in y[:4]] + [a * inv2 for a in y[4:]]
                    logscale += math.log(nrm)

            fac = 0.9 * err ** -0.2 if err > 1e-12 else 5.0
            if fac < 0.2:
                fac = 0.2
            if fac > 5.0:
                fac = 5.0
            h = h * fac
            if abs(h) > LN2 / 2.0:
                h = direction * LN2 / 2.0

        if failed:
            break

        ju = abs(y[4].real)
        jv = abs(y[5].real)
        L00[win] = (math.log(ju) if ju > 0.0 else -math.inf) + 2.0 * logscale
        L11[win] = (math.log(jv) if jv > 0.0 else -math.inf) + 2.0 * logscale
        denom = math.sqrt(ju * jv)
        if denom > 0.0:
            # multiply by the reciprocal: tests/data/kernel_pin.json pins
            # this rounding (numpy's complex-by-real division), which
            # Python's complex / float misses by one ulp in ~40% of cases
            cval = y[6] * (1.0 / denom)
            if direction < 0.0:
                cval = -cval
            CRe[win] = cval.real
            CIm[win] = cval.imag
        nrm = max(abs(y[0]), abs(y[1]), abs(y[2]), abs(y[3]))
        y = y[:4] + [0j, 0j, 0j]
        if nrm > 0.0:
            inv = 1.0 / nrm
            y = [a * inv for a in y]
            logscale += math.log(nrm)
        n_done = win + 1

    return (status, n_done, np.array(L00), np.array(L11), np.array(CRe),
            np.array(CIm), logscale)
