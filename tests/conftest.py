"""Test plumbing for the fit's kernel, ``rabipi.estimate._fit_at_rates``.

Tests call the kernel, count its calls or swap in a reference for it, and
read its columns (``_basis``) and unconstrained curves
(``_unconstrained``).  They reach all of these through the helpers here,
which speak of a kernel as ``kernel(t, f, c)``: the times t (n,), plain
fractions f (files, n) and each file's rates c (files, rates), returning
RSS, alpha, beta and phi0 of the shape of c.  So a change to the kernel's
own arguments, or to the layout of its columns, is made here alone.

The test modules import them by name (``from conftest import ...``);
pytest puts this directory on ``sys.path`` as it imports them.
"""

import numpy as np

import rabipi.estimate as est

#: The program's kernel, as imported; a patch below never wraps a patch.
_KERNEL = est._fit_at_rates


def fit_at_rates(t, f, c):
    """The program's kernel on the fractions ``f`` (files, n) at the rates
    ``c`` (files, rates), with each file's mean and centred fractions
    computed as the rate search computes them."""
    return _KERNEL(t, est._centred(f), c)


def patch_kernel(monkeypatch, kernel=None, before=None):
    """Patch the kernel with ``monkeypatch`` (until the test ends or
    ``monkeypatch.undo()``).  Each call first passes its times, its plain
    fractions and its rates to ``before(t, f, c)``, if given, and then runs
    ``kernel(t, f, c)``, or, where ``kernel`` is None, the program's kernel
    on the call's own arguments."""
    def patched(t, files, c):
        f = files[0][:, 0]
        if before is not None:
            before(t, f, c)
        return _KERNEL(t, files, c) if kernel is None else kernel(t, f, c)

    monkeypatch.setattr(est, "_fit_at_rates", patched)


def basis(c, t):
    """``_basis`` at the rates ``c`` and times ``t`` as one value per
    column: cos, sin, cc, ss, mean_cos, mean_sin, c2, s2 and cs."""
    trig, *columns = est._basis(c, t)
    return (*trig, *columns_per_column(columns))


def columns_per_column(columns):
    """``_columns``' arrays, ``_basis`` less cos and sin, as one value per
    column: cc, ss, mean_cos, mean_sin, c2, s2 and cs."""
    centred, means, sums = columns
    return (*centred, *means, *sums)


def unconstrained(yc, ys, c2, s2, cs, mean_f, mean_cos, mean_sin):
    """``_unconstrained`` on one value per column: whether each rate is
    collinear, and u, v, k and r of its unconstrained curve."""
    return est._unconstrained(np.stack((yc, ys)), np.stack((c2, s2, cs)), mean_f,
                              np.stack((mean_cos, mean_sin)))
