/* Compiled Taylor stepping kernel; semantics match pcfzeros._taylor_py.

   Every result is identical to the bit to the pure-Python kernel's: the
   complex arithmetic below is CPython's, spelled out on Py_complex.  A
   float or int operand of a complex operation becomes complex(x, 0.0),
   as in Python 3.10 to 3.13; products and Smith's quotient are those of
   Objects/complexobject.c; |z| is hypot; max() keeps its first argument
   unless a later one is larger.  setup.py's flags keep the compiler
   from fusing a multiply and an add into one rounding.  A modulus or a
   power past the largest double is inf here, as hypot and pow give, and
   the twin catches Python's OverflowError to the same effect; a try
   whose scale is not finite fails the tail test in both.  The tail test
   lives in eval alone, as in the twin's taylor_eval: taylor_eval returns
   its verdict with the values, and step and the chain hop
   (pcfzeros.chain._propagated_quotient) take that verdict as it comes.
   step starts from the caller's expansion and skips a first try that
   first_try_fails proves would fail that test; the proof makes the
   twin's decision, an inf or nan here leaving the try to run where the
   twin's OverflowError or ZeroDivisionError does.  Arguments go through
   PyArg_ParseTuple, and scaled_derivs returns the expansion as a tuple,
   which the API hands on as it is. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define TAIL_TOL 1e-15
#define MAX_SPLIT_DEPTH 6
#define RESCALE_LIMIT 1e130

typedef Py_complex cplx;

static inline cplx cx(double re, double im) { cplx r = {re, im}; return r; }
static inline cplx
add(cplx a, cplx b) { return cx(a.real + b.real, a.imag + b.imag); }
static inline cplx
sub(cplx a, cplx b) { return cx(a.real - b.real, a.imag - b.imag); }
static inline double cabs_(cplx a) { return hypot(a.real, a.imag); }

static inline cplx
mul(cplx a, cplx b)
{
    return cx(a.real * b.real - a.imag * b.imag,
              a.real * b.imag + a.imag * b.real);
}

/* x * a, a + x and a / x for real x, x promoted to complex(x, 0.0) */
static inline cplx rmul(double x, cplx a) { return mul(cx(x, 0.0), a); }
static inline cplx radd(cplx a, double x) { return add(a, cx(x, 0.0)); }

static inline cplx
rdiv(cplx a, double x)
{
    /* _Py_c_quot's branch |b.real| >= |b.imag| with b = (x, 0.0); x is
       never 0 here, where Python would raise ZeroDivisionError */
    double ratio = 0.0 / x, denom = x + 0.0 * ratio;
    return cx((a.real + a.imag * ratio) / denom,
              (a.imag - a.real * ratio) / denom);
}

/* _taylor_py.h_max, which taylor exports for both kernels */
static double
h_max_(double a, cplx z)
{
    double m = cabs_(z) * 0.5, s = sqrt(fabs(a));
    m = s > m ? s : m;
    return 6.0 / (1.0 > m ? 1.0 : m);
}

/* At least c_0..c_3, as the twin returns for any n. */
static inline Py_ssize_t ncoef(Py_ssize_t n) { return n < 3 ? 3 : n; }

/* c_0..c_n (n >= 3) at z0, operand for operand the recurrence of
   _taylor_py.scaled_derivs:
   c_{k+2} = (q c_k + (z0/2) c_{k-1} + c_{k-2}/4) / ((k+1)(k+2)). */
static void
derivs(double a, cplx z0, cplx y0, cplx y1, Py_ssize_t n, cplx *c)
{
    cplx q = radd(mul(rmul(0.25, z0), z0), a), hz = rmul(0.5, z0);
    c[0] = y0;
    c[1] = y1;
    c[2] = rdiv(mul(q, y0), 2.0);
    c[3] = rdiv(add(mul(q, y1), mul(hz, y0)), 6.0);
    for (Py_ssize_t k = 2; k < n - 1; k++)
        c[k + 2] = rdiv(add(add(mul(q, c[k]), mul(hz, c[k - 1])),
                            rmul(0.25, c[k - 2])),
                        (double)((k + 1) * (k + 2)));
}

/* The tail of a try of the expansion c_0..c_n (n >= 1) at |h| = ah: the
   larger of the last two terms of the y-sum, as a single term can vanish
   by parity at symmetric expansion points */
static inline double
tail_(const cplx *c, Py_ssize_t n, double ah)
{
    double t1 = cabs_(c[n]) * pow(ah, (double)n),
           t2 = cabs_(c[n - 1]) * pow(ah, (double)(n - 1));
    return t2 > t1 ? t2 : t1;
}

/* (y, y') of the expansion c_0..c_n at displacement h, n >= 1, and the
   verdict of the tail criterion, operation for operation that of
   _taylor_py.taylor_eval: 1 if the try is accepted as it stands */
static int
eval(const cplx *c, Py_ssize_t n, cplx h, cplx *y, cplx *yp)
{
    cplx s = c[n], sp = rmul((double)n, c[n]);
    for (Py_ssize_t k = n - 1; k > 0; k--) {
        s = add(mul(s, h), c[k]);
        sp = add(mul(sp, h), rmul((double)k, c[k]));
    }
    *y = add(mul(s, h), c[0]);
    *yp = sp;
    double ah = cabs_(h), tail = tail_(c, n, ah), m = cabs_(*y),
           ms = ah * cabs_(sp), bound;
    m = ms > m ? ms : m;
    bound = TAIL_TOL * (1e-300 > m ? 1e-300 : m);
    return tail <= bound && bound < HUGE_VAL;
}

/* 1 if the try of the expansion c_0..c_n (n >= 1) at z0 for parameter a
   surely fails eval's tail test at h, decided without evaluating it, as
   _taylor_py._first_try_fails decides: with r = |h| and
   kappa^2 = (|z0| + r)^2/4 + |a|, the majorant of the ODE bounds |y| and
   |h| |y'| of the try by
   B = max(|c_0| + |c_1|/kappa, r (kappa |c_0| + |c_1|)) e^(kappa r),
   and the tail exceeds 2 TAIL_TOL max(B, 1e-300). */
static int
first_try_fails(double a, cplx z0, const cplx *c, Py_ssize_t n, cplx h)
{
    double r = cabs_(h), tail = tail_(c, n, r), s = cabs_(z0) + r,
           kappa = sqrt(0.25 * s * s + fabs(a)), y0 = cabs_(c[0]),
           y1 = cabs_(c[1]), b = y0 + y1 / kappa,
           b1 = r * (kappa * y0 + y1);
    b = (b1 > b ? b1 : b) * exp(kappa * r);
    return 2.0 * TAIL_TOL * (1e-300 > b ? 1e-300 : b) < tail
           && tail < HUGE_VAL;
}

/* One step of size h from the expansion c0 = c_0..c_n0 (n0 >= 1) at z0
   for parameter a, or a truncation of it, bisecting up to h/64 on demand;
   later pieces are expanded afresh into c, ncoef(n0)+1 entries as the
   twin's scaled_derivs.  Returns 1 with the end values in (*yout,
   *ypout), or 0 with the values where the last attempt stopped if the
   tail criterion fails at the smallest subdivision. */
static int
step(double a, cplx z0, const cplx *c0, Py_ssize_t n0, cplx h, cplx *c,
     cplx *yout, cplx *ypout)
{
    cplx y, yp, zc, yc, ypc, hh;
    int pieces = 1, i = 0;
    Py_ssize_t n = ncoef(n0);

    /* a step of h_max rarely passes its first try; where the majorant
       proves the try fails, the bisection starts at two pieces */
    for (int depth = first_try_fails(a, z0, c0, n0, h);
         depth <= MAX_SPLIT_DEPTH && i < pieces; depth++) {
        pieces = 1 << depth;
        hh = depth ? rdiv(h, pieces) : h;
        /* every attempt starts at z0, from the caller's expansion c0 */
        zc = z0, yc = c0[0], ypc = c0[1];
        for (i = 0; i < pieces; i++) {
            if (i)
                derivs(a, zc, yc, ypc, n, c);
            if (!(i ? eval(c, n, hh, &y, &yp) : eval(c0, n0, hh, &y, &yp)))
                break;
            zc = add(zc, hh);
            yc = y;
            ypc = yp;
        }
    }
    *yout = yc;
    *ypout = ypc;
    return i == pieces;
}

static inline cplx
as_cplx(PyObject *o)
{
    return PyComplex_CheckExact(o) ? ((PyComplexObject *)o)->cval
                                   : PyComplex_AsCComplex(o);
}

/* The expansion c_0..c_n (n >= 1) in the sequence o, copied into a new
   array, followed if spare by room for the ncoef(n)+1 that step expands
   into; NULL with an exception set on failure. */
static cplx *
coefs(PyObject *o, Py_ssize_t *n, int spare)
{
    cplx *c = NULL;
    PyObject *seq = PySequence_Fast(o, "coefficients must be a sequence");
    if (seq && (*n = PySequence_Fast_GET_SIZE(seq) - 1) < 1)
        PyErr_SetString(PyExc_ValueError, "need at least two coefficients");
    else if (seq && !(c = PyMem_New(cplx, *n + 1 + spare * (ncoef(*n) + 1))))
        PyErr_NoMemory();
    for (Py_ssize_t i = 0; c && i <= *n; i++)
        if ((c[i] = as_cplx(PySequence_Fast_GET_ITEM(seq, i))).real == -1.0
            && PyErr_Occurred())
            break;
    Py_XDECREF(seq);
    if (c && PyErr_Occurred())
        PyMem_Free(c), c = NULL;
    return c;
}

static PyObject *
py_scaled_derivs(PyObject *self, PyObject *args)
{
    double a;
    cplx z0, y0, y1, *c;
    int n;
    if (!PyArg_ParseTuple(args, "dDDDi:scaled_derivs", &a, &z0, &y0, &y1, &n))
        return NULL;
    Py_ssize_t m = ncoef(n);
    if ((c = PyMem_New(cplx, m + 1)) == NULL)
        return PyErr_NoMemory();
    derivs(a, z0, y0, y1, m, c);
    PyObject *tuple = PyTuple_New(m + 1);
    for (Py_ssize_t i = 0; tuple != NULL && i <= m; i++) {
        PyObject *v = PyComplex_FromCComplex(c[i]);
        if (v == NULL)
            Py_CLEAR(tuple);
        else
            PyTuple_SET_ITEM(tuple, i, v);
    }
    PyMem_Free(c);
    return tuple;
}

static PyObject *
py_taylor_eval(PyObject *self, PyObject *args)
{
    PyObject *seq;
    Py_ssize_t n;
    cplx h, y, yp, *c;
    if (!PyArg_ParseTuple(args, "OD:taylor_eval", &seq, &h)
        || !(c = coefs(seq, &n, 0)))
        return NULL;
    int ok = eval(c, n, h, &y, &yp);
    PyMem_Free(c);
    return Py_BuildValue("(DDO)", &y, &yp, ok ? Py_True : Py_False);
}

static PyObject *
py_step_once(PyObject *self, PyObject *args)
{
    double a;
    PyObject *seq;
    Py_ssize_t n;
    cplx z0, h, y, yp, *c;
    if (!PyArg_ParseTuple(args, "dDOD:step_once", &a, &z0, &seq, &h)
        || !(c = coefs(seq, &n, 1)))
        return NULL;
    int good = step(a, z0, c, n, h, c + n + 1, &y, &yp);
    PyMem_Free(c);
    return Py_BuildValue("(DDO)", &y, &yp, good ? Py_True : Py_False);
}

static PyObject *
py_propagate_polyline(PyObject *self, PyObject *args)
{
    double a, logscale = 0.0;
    cplx zc, yc, ypc, *c;
    PyObject *wp, *res = NULL;
    int order, good = 1;
    if (!PyArg_ParseTuple(args, "dDDDOi:propagate_polyline",
                          &a, &zc, &yc, &ypc, &wp, &order)
        || !(wp = PySequence_Fast(wp, "waypoints must be iterable")))
        return NULL;
    Py_ssize_t n = ncoef((Py_ssize_t)order + 1);
    if ((c = PyMem_New(cplx, 2 * (n + 1))) == NULL)
        PyErr_NoMemory();
    for (Py_ssize_t i = 0;
         c && good && i < PySequence_Fast_GET_SIZE(wp); i++) {
        cplx target = as_cplx(PySequence_Fast_GET_ITEM(wp, i));
        if (target.real == -1.0 && PyErr_Occurred())
            break;
        for (;;) {
            cplx rem = sub(target, zc), h;
            double d = cabs_(rem), hm, m, mp;
            if (d == 0.0)
                break;
            hm = h_max_(a, zc);
            h = d <= hm ? rem : rmul(hm / d, rem);
            derivs(a, zc, yc, ypc, n, c);
            if (!(good = step(a, zc, c, n, h, c + n + 1, &yc, &ypc)))
                break;
            zc = add(zc, h);
            m = cabs_(yc);
            m = (mp = cabs_(ypc)) > m ? mp : m;
            if (m > RESCALE_LIMIT) {
                logscale += log(m);
                yc = rdiv(yc, m);
                ypc = rdiv(ypc, m);
            }
            if (d <= hm)
                break;
        }
        zc = target;
    }
    if (!PyErr_Occurred())
        res = Py_BuildValue("(DDdO)", &yc, &ypc, logscale,
                            good ? Py_True : Py_False);
    PyMem_Free(c);
    Py_DECREF(wp);
    return res;
}

static PyMethodDef methods[] = {
    {"scaled_derivs", py_scaled_derivs, METH_VARARGS,
     "Scaled derivatives c_0..c_n at z0, a tuple of n+1 entries (n >= 3)."},
    {"taylor_eval", py_taylor_eval, METH_VARARGS,
     "Evaluate (y, yprime, ok) of the expansion at displacement h."},
    {"step_once", py_step_once, METH_VARARGS,
     "One step of size h from the expansion c0; returns (y, yprime, ok)."},
    {"propagate_polyline", py_propagate_polyline, METH_VARARGS,
     "Propagate along straight segments; returns (y, yprime, logscale, ok)."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_taylor_c",
    "Compiled Taylor stepping kernel; semantics match pcfzeros._taylor_py.",
    -1, methods
};

PyMODINIT_FUNC
PyInit__taylor_c(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "KERNEL", "c") < 0)
        Py_CLEAR(m);
    return m;
}
