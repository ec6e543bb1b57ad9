/* Runtime-compiled kernel pack of repro.nn's `blocked` execution backend
 * (compiled on first use and loaded by repro/nn/backend.py).
 *
 * A CPython extension rather than a ctypes library because the matmuls it
 * serves are small (a policy step is an (8, 134) @ (134, 64)): the ~6 us of
 * ctypes pointer-marshalling per call would swallow the win, while a
 * METH_VARARGS entry point costs well under a microsecond.
 *
 * Numerical contract (load-bearing): for each output element, terms are
 * accumulated over k in strictly increasing order, each term a separate IEEE
 * multiply and add.  The 4-wide unroll keeps that order -- `t += a0*b0[h];
 * t += a1*b1[h]; ...` is the same chain of rounded operations the reference
 * einsum performs -- and `-ffp-contract=off` forbids the compiler from fusing
 * any multiply/add pair.  Auto-vectorisation is safe because SIMD lanes run
 * across the *output* axis `h`; the per-element reduction order is untouched.
 *
 * Gate kernels: the fused GRU/LSTM phase kernels below perform only exact
 * IEEE-754 arithmetic (negate / add / multiply / divide).  The transcendental
 * exp/tanh evaluations deliberately stay in numpy on the Python side (see
 * _compiled_gru_gates / _compiled_lstm_gates in backend.py): numpy's exp/tanh
 * differ from C libm in the last ulp, but are value-deterministic, so the
 * hybrid pipeline reproduces the pure-numpy oracle bit for bit.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>

/* ------------------------------------------------------------------ */
/* Row-consistent f64 GEMM, bit-identical to np.einsum("ik,kh->ih"):  */
/* strictly increasing k-order accumulation per output element,       */
/* separate multiply and add per term (no FMA; see build flags).      */
/* ------------------------------------------------------------------ */
static void rc_gemm_rows(const double *restrict a, const double *restrict b,
                         double *restrict out, npy_intp rows,
                         npy_intp inner, npy_intp cols) {
    for (npy_intp i = 0; i < rows; ++i) {
        const double *restrict arow = a + i * inner;
        double *restrict orow = out + i * cols;
        for (npy_intp h = 0; h < cols; ++h) orow[h] = 0.0;
        npy_intp k = 0;
        for (; k + 4 <= inner; k += 4) {
            const double a0 = arow[k], a1 = arow[k + 1];
            const double a2 = arow[k + 2], a3 = arow[k + 3];
            const double *restrict b0 = b + k * cols;
            const double *restrict b1 = b0 + cols;
            const double *restrict b2 = b1 + cols;
            const double *restrict b3 = b2 + cols;
            for (npy_intp h = 0; h < cols; ++h) {
                double t = orow[h];
                t += a0 * b0[h];
                t += a1 * b1[h];
                t += a2 * b2[h];
                t += a3 * b3[h];
                orow[h] = t;
            }
        }
        for (; k < inner; ++k) {
            const double aik = arow[k];
            const double *restrict brow = b + k * cols;
            for (npy_intp h = 0; h < cols; ++h) orow[h] += aik * brow[h];
        }
    }
}

/* ------------------------------------------------------------------ */
/* Argument helpers                                                   */
/* ------------------------------------------------------------------ */
static PyArrayObject *rc_as_array(PyObject *obj, int ndim, const char *name) {
    PyArrayObject *arr =
        (PyArrayObject *)PyArray_FROM_OTF(obj, NPY_DOUBLE, NPY_ARRAY_IN_ARRAY);
    if (arr == NULL) return NULL;
    if (PyArray_NDIM(arr) != ndim) {
        PyErr_Format(PyExc_ValueError, "%s must be %d-D", name, ndim);
        Py_DECREF(arr);
        return NULL;
    }
    return arr;
}

/* ------------------------------------------------------------------ */
/* GEMM entry point: rc_gemm(a, b) -> (m, n) float64                  */
/* ------------------------------------------------------------------ */
static PyObject *py_rc_gemm(PyObject *self, PyObject *args) {
    PyObject *a_obj, *b_obj;
    if (!PyArg_ParseTuple(args, "OO", &a_obj, &b_obj)) return NULL;
    PyArrayObject *a = rc_as_array(a_obj, 2, "a");
    if (a == NULL) return NULL;
    PyArrayObject *b = rc_as_array(b_obj, 2, "b");
    if (b == NULL) {
        Py_DECREF(a);
        return NULL;
    }
    if (PyArray_DIM(a, 1) != PyArray_DIM(b, 0)) {
        Py_DECREF(a);
        Py_DECREF(b);
        PyErr_SetString(PyExc_ValueError, "rc_gemm expects (m, k) @ (k, n) arrays");
        return NULL;
    }
    npy_intp dims[2] = {PyArray_DIM(a, 0), PyArray_DIM(b, 1)};
    PyArrayObject *out = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    if (out == NULL) {
        Py_DECREF(a);
        Py_DECREF(b);
        return NULL;
    }
    npy_intp rows = dims[0], inner = PyArray_DIM(a, 1), cols = dims[1];
    const double *ad = (const double *)PyArray_DATA(a);
    const double *bd = (const double *)PyArray_DATA(b);
    double *od = (double *)PyArray_DATA(out);
    Py_BEGIN_ALLOW_THREADS
    rc_gemm_rows(ad, bd, od, rows, inner, cols);
    Py_END_ALLOW_THREADS
    Py_DECREF(a);
    Py_DECREF(b);
    return (PyObject *)out;
}

/* ------------------------------------------------------------------ */
/* Fused GRU gate phases (exact IEEE arithmetic only; exp/tanh run in */
/* numpy between phases — see the Python-side hybrid wrappers).       */
/*                                                                    */
/* Oracle being reproduced (nn/functional.py):                        */
/*   pre_rz    = (gx[:, :2H] + gh[:, :2H]) + b[:2H]                   */
/*   r, z      = 1/(1+exp(-pre_rz[:, :H])), 1/(1+exp(-pre_rz[:, H:])) */
/*   candidate = tanh((gx[:, 2H:] + r * gh[:, 2H:]) + b[2H:])         */
/*   h'        = ((1 - z) * candidate) + (z * h)                      */
/* ------------------------------------------------------------------ */

/* gru_phase1(gx (B,3H), gh (B,3H), b (3H,)) -> -((gx+gh)+b) over the
   first 2H columns: the exp argument for both sigmoid gates. */
static PyObject *py_gru_phase1(PyObject *self, PyObject *args) {
    PyObject *gx_obj, *gh_obj, *b_obj;
    if (!PyArg_ParseTuple(args, "OOO", &gx_obj, &gh_obj, &b_obj)) return NULL;
    PyArrayObject *gx = rc_as_array(gx_obj, 2, "gx");
    PyArrayObject *gh = gx ? rc_as_array(gh_obj, 2, "gh") : NULL;
    PyArrayObject *b = gh ? rc_as_array(b_obj, 1, "b") : NULL;
    if (b == NULL) {
        Py_XDECREF(gx);
        Py_XDECREF(gh);
        return NULL;
    }
    npy_intp batch = PyArray_DIM(gx, 0), width = PyArray_DIM(gx, 1);
    npy_intp size = width / 3;
    if (width != 3 * size || PyArray_DIM(gh, 0) != batch ||
        PyArray_DIM(gh, 1) != width || PyArray_DIM(b, 0) != width) {
        Py_DECREF(gx);
        Py_DECREF(gh);
        Py_DECREF(b);
        PyErr_SetString(PyExc_ValueError,
                        "gru_phase1 expects gx/gh (B, 3H) and b (3H,)");
        return NULL;
    }
    npy_intp dims[2] = {batch, 2 * size};
    PyArrayObject *out = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    if (out == NULL) {
        Py_DECREF(gx);
        Py_DECREF(gh);
        Py_DECREF(b);
        return NULL;
    }
    const double *gxd = (const double *)PyArray_DATA(gx);
    const double *ghd = (const double *)PyArray_DATA(gh);
    const double *bd = (const double *)PyArray_DATA(b);
    double *od = (double *)PyArray_DATA(out);
    npy_intp two = 2 * size;
    for (npy_intp i = 0; i < batch; ++i) {
        const double *gxr = gxd + i * width;
        const double *ghr = ghd + i * width;
        double *orow = od + i * two;
        for (npy_intp j = 0; j < two; ++j)
            orow[j] = -((gxr[j] + ghr[j]) + bd[j]);
    }
    Py_DECREF(gx);
    Py_DECREF(gh);
    Py_DECREF(b);
    return (PyObject *)out;
}

/* gru_phase2(exp_pre (B,2H), gx, gh, b) -> (reset, update, cand_pre),
   each (B,H): finishes the sigmoids from the numpy exp and builds the
   candidate tanh argument (gx_n + r*gh_n) + b_n. */
static PyObject *py_gru_phase2(PyObject *self, PyObject *args) {
    PyObject *e_obj, *gx_obj, *gh_obj, *b_obj;
    if (!PyArg_ParseTuple(args, "OOOO", &e_obj, &gx_obj, &gh_obj, &b_obj))
        return NULL;
    PyArrayObject *e = rc_as_array(e_obj, 2, "exp_pre");
    PyArrayObject *gx = e ? rc_as_array(gx_obj, 2, "gx") : NULL;
    PyArrayObject *gh = gx ? rc_as_array(gh_obj, 2, "gh") : NULL;
    PyArrayObject *b = gh ? rc_as_array(b_obj, 1, "b") : NULL;
    if (b == NULL) {
        Py_XDECREF(e);
        Py_XDECREF(gx);
        Py_XDECREF(gh);
        return NULL;
    }
    npy_intp batch = PyArray_DIM(gx, 0), width = PyArray_DIM(gx, 1);
    npy_intp size = width / 3;
    if (width != 3 * size || PyArray_DIM(e, 0) != batch ||
        PyArray_DIM(e, 1) != 2 * size || PyArray_DIM(gh, 0) != batch ||
        PyArray_DIM(gh, 1) != width || PyArray_DIM(b, 0) != width) {
        Py_DECREF(e);
        Py_DECREF(gx);
        Py_DECREF(gh);
        Py_DECREF(b);
        PyErr_SetString(PyExc_ValueError,
                        "gru_phase2 expects exp_pre (B, 2H), gx/gh (B, 3H), b (3H,)");
        return NULL;
    }
    npy_intp dims[2] = {batch, size};
    PyArrayObject *reset = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    PyArrayObject *update = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    PyArrayObject *cand = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    if (reset == NULL || update == NULL || cand == NULL) {
        Py_DECREF(e);
        Py_DECREF(gx);
        Py_DECREF(gh);
        Py_DECREF(b);
        Py_XDECREF(reset);
        Py_XDECREF(update);
        Py_XDECREF(cand);
        return NULL;
    }
    const double *ed = (const double *)PyArray_DATA(e);
    const double *gxd = (const double *)PyArray_DATA(gx);
    const double *ghd = (const double *)PyArray_DATA(gh);
    const double *bd = (const double *)PyArray_DATA(b);
    double *rd = (double *)PyArray_DATA(reset);
    double *zd = (double *)PyArray_DATA(update);
    double *cd = (double *)PyArray_DATA(cand);
    const double *bn = bd + 2 * size;
    for (npy_intp i = 0; i < batch; ++i) {
        const double *erow = ed + i * 2 * size;
        const double *gxn = gxd + i * width + 2 * size;
        const double *ghn = ghd + i * width + 2 * size;
        double *rrow = rd + i * size;
        double *zrow = zd + i * size;
        double *crow = cd + i * size;
        for (npy_intp j = 0; j < size; ++j) {
            const double r = 1.0 / (1.0 + erow[j]);
            rrow[j] = r;
            zrow[j] = 1.0 / (1.0 + erow[size + j]);
            crow[j] = (gxn[j] + r * ghn[j]) + bn[j];
        }
    }
    Py_DECREF(e);
    Py_DECREF(gx);
    Py_DECREF(gh);
    Py_DECREF(b);
    return Py_BuildValue("NNN", reset, update, cand);
}

/* gru_phase3(update, candidate, hidden) -> ((1-z)*n) + (z*h), all (B,H). */
static PyObject *py_gru_phase3(PyObject *self, PyObject *args) {
    PyObject *z_obj, *n_obj, *h_obj;
    if (!PyArg_ParseTuple(args, "OOO", &z_obj, &n_obj, &h_obj)) return NULL;
    PyArrayObject *z = rc_as_array(z_obj, 2, "update");
    PyArrayObject *n = z ? rc_as_array(n_obj, 2, "candidate") : NULL;
    PyArrayObject *h = n ? rc_as_array(h_obj, 2, "hidden") : NULL;
    if (h == NULL) {
        Py_XDECREF(z);
        Py_XDECREF(n);
        return NULL;
    }
    npy_intp batch = PyArray_DIM(z, 0), size = PyArray_DIM(z, 1);
    if (PyArray_DIM(n, 0) != batch || PyArray_DIM(n, 1) != size ||
        PyArray_DIM(h, 0) != batch || PyArray_DIM(h, 1) != size) {
        Py_DECREF(z);
        Py_DECREF(n);
        Py_DECREF(h);
        PyErr_SetString(PyExc_ValueError, "gru_phase3 expects three (B, H) arrays");
        return NULL;
    }
    npy_intp dims[2] = {batch, size};
    PyArrayObject *out = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    if (out == NULL) {
        Py_DECREF(z);
        Py_DECREF(n);
        Py_DECREF(h);
        return NULL;
    }
    const double *zd = (const double *)PyArray_DATA(z);
    const double *nd = (const double *)PyArray_DATA(n);
    const double *hd = (const double *)PyArray_DATA(h);
    double *od = (double *)PyArray_DATA(out);
    npy_intp total = batch * size;
    for (npy_intp j = 0; j < total; ++j)
        od[j] = ((1.0 - zd[j]) * nd[j]) + (zd[j] * hd[j]);
    Py_DECREF(z);
    Py_DECREF(n);
    Py_DECREF(h);
    return (PyObject *)out;
}

/* ------------------------------------------------------------------ */
/* Fused LSTM gate phases.  Oracle (nn/functional.py):                */
/*   pre = (gx + gh) + b                       (B, 4H), [i | f | g | o] */
/*   i, f, o = sigmoid(pre slices);  g = tanh(pre[:, 2H:3H])          */
/*   c' = (f * c) + (i * g);  h' = o * tanh(c')                       */
/* ------------------------------------------------------------------ */

/* lstm_phase1(gx (B,4H), gh, b (4H,)) -> (neg_ifo (B,3H), pre_g (B,H)):
   neg_ifo packs [-pre_i | -pre_f | -pre_o] (exp arguments); pre_g is the
   tanh argument. */
static PyObject *py_lstm_phase1(PyObject *self, PyObject *args) {
    PyObject *gx_obj, *gh_obj, *b_obj;
    if (!PyArg_ParseTuple(args, "OOO", &gx_obj, &gh_obj, &b_obj)) return NULL;
    PyArrayObject *gx = rc_as_array(gx_obj, 2, "gx");
    PyArrayObject *gh = gx ? rc_as_array(gh_obj, 2, "gh") : NULL;
    PyArrayObject *b = gh ? rc_as_array(b_obj, 1, "b") : NULL;
    if (b == NULL) {
        Py_XDECREF(gx);
        Py_XDECREF(gh);
        return NULL;
    }
    npy_intp batch = PyArray_DIM(gx, 0), width = PyArray_DIM(gx, 1);
    npy_intp size = width / 4;
    if (width != 4 * size || PyArray_DIM(gh, 0) != batch ||
        PyArray_DIM(gh, 1) != width || PyArray_DIM(b, 0) != width) {
        Py_DECREF(gx);
        Py_DECREF(gh);
        Py_DECREF(b);
        PyErr_SetString(PyExc_ValueError,
                        "lstm_phase1 expects gx/gh (B, 4H) and b (4H,)");
        return NULL;
    }
    npy_intp dims_ifo[2] = {batch, 3 * size};
    npy_intp dims_g[2] = {batch, size};
    PyArrayObject *neg_ifo =
        (PyArrayObject *)PyArray_SimpleNew(2, dims_ifo, NPY_DOUBLE);
    PyArrayObject *pre_g = (PyArrayObject *)PyArray_SimpleNew(2, dims_g, NPY_DOUBLE);
    if (neg_ifo == NULL || pre_g == NULL) {
        Py_DECREF(gx);
        Py_DECREF(gh);
        Py_DECREF(b);
        Py_XDECREF(neg_ifo);
        Py_XDECREF(pre_g);
        return NULL;
    }
    const double *gxd = (const double *)PyArray_DATA(gx);
    const double *ghd = (const double *)PyArray_DATA(gh);
    const double *bd = (const double *)PyArray_DATA(b);
    double *nd = (double *)PyArray_DATA(neg_ifo);
    double *gd = (double *)PyArray_DATA(pre_g);
    for (npy_intp i = 0; i < batch; ++i) {
        const double *gxr = gxd + i * width;
        const double *ghr = ghd + i * width;
        double *nrow = nd + i * 3 * size;
        double *grow = gd + i * size;
        for (npy_intp j = 0; j < size; ++j) {
            nrow[j] = -((gxr[j] + ghr[j]) + bd[j]);
            nrow[size + j] =
                -((gxr[size + j] + ghr[size + j]) + bd[size + j]);
            nrow[2 * size + j] =
                -((gxr[3 * size + j] + ghr[3 * size + j]) + bd[3 * size + j]);
            grow[j] = (gxr[2 * size + j] + ghr[2 * size + j]) + bd[2 * size + j];
        }
    }
    Py_DECREF(gx);
    Py_DECREF(gh);
    Py_DECREF(b);
    return Py_BuildValue("NN", neg_ifo, pre_g);
}

/* lstm_phase2(exp_ifo (B,3H), gate_g (B,H), cell (B,H)) ->
   (gate_i, gate_f, gate_o, new_cell): finishes the sigmoids and
   computes c' = (f*c) + (i*g). */
static PyObject *py_lstm_phase2(PyObject *self, PyObject *args) {
    PyObject *e_obj, *g_obj, *c_obj;
    if (!PyArg_ParseTuple(args, "OOO", &e_obj, &g_obj, &c_obj)) return NULL;
    PyArrayObject *e = rc_as_array(e_obj, 2, "exp_ifo");
    PyArrayObject *g = e ? rc_as_array(g_obj, 2, "gate_g") : NULL;
    PyArrayObject *c = g ? rc_as_array(c_obj, 2, "cell") : NULL;
    if (c == NULL) {
        Py_XDECREF(e);
        Py_XDECREF(g);
        return NULL;
    }
    npy_intp batch = PyArray_DIM(g, 0), size = PyArray_DIM(g, 1);
    if (PyArray_DIM(e, 0) != batch || PyArray_DIM(e, 1) != 3 * size ||
        PyArray_DIM(c, 0) != batch || PyArray_DIM(c, 1) != size) {
        Py_DECREF(e);
        Py_DECREF(g);
        Py_DECREF(c);
        PyErr_SetString(PyExc_ValueError,
                        "lstm_phase2 expects exp_ifo (B, 3H), gate_g/cell (B, H)");
        return NULL;
    }
    npy_intp dims[2] = {batch, size};
    PyArrayObject *gi = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    PyArrayObject *gf = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    PyArrayObject *go = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    PyArrayObject *nc = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    if (gi == NULL || gf == NULL || go == NULL || nc == NULL) {
        Py_DECREF(e);
        Py_DECREF(g);
        Py_DECREF(c);
        Py_XDECREF(gi);
        Py_XDECREF(gf);
        Py_XDECREF(go);
        Py_XDECREF(nc);
        return NULL;
    }
    const double *ed = (const double *)PyArray_DATA(e);
    const double *gd = (const double *)PyArray_DATA(g);
    const double *cd = (const double *)PyArray_DATA(c);
    double *gid = (double *)PyArray_DATA(gi);
    double *gfd = (double *)PyArray_DATA(gf);
    double *god = (double *)PyArray_DATA(go);
    double *ncd = (double *)PyArray_DATA(nc);
    for (npy_intp i = 0; i < batch; ++i) {
        const double *erow = ed + i * 3 * size;
        const double *grow = gd + i * size;
        const double *crow = cd + i * size;
        double *girow = gid + i * size;
        double *gfrow = gfd + i * size;
        double *gorow = god + i * size;
        double *ncrow = ncd + i * size;
        for (npy_intp j = 0; j < size; ++j) {
            const double vi = 1.0 / (1.0 + erow[j]);
            const double vf = 1.0 / (1.0 + erow[size + j]);
            girow[j] = vi;
            gfrow[j] = vf;
            gorow[j] = 1.0 / (1.0 + erow[2 * size + j]);
            ncrow[j] = (vf * crow[j]) + (vi * grow[j]);
        }
    }
    Py_DECREF(e);
    Py_DECREF(g);
    Py_DECREF(c);
    return Py_BuildValue("NNNN", gi, gf, go, nc);
}

static PyMethodDef rc_gemm_methods[] = {
    {"rc_gemm", py_rc_gemm, METH_VARARGS,
     "Row-consistent f64 GEMM, bit-identical to np.einsum('ik,kh->ih')."},
    {"gru_phase1", py_gru_phase1, METH_VARARGS,
     "GRU gate phase 1: -((gx+gh)+b) over the r/z columns."},
    {"gru_phase2", py_gru_phase2, METH_VARARGS,
     "GRU gate phase 2: finish sigmoids, build candidate pre-activation."},
    {"gru_phase3", py_gru_phase3, METH_VARARGS,
     "GRU gate phase 3: ((1-z)*n) + (z*h)."},
    {"lstm_phase1", py_lstm_phase1, METH_VARARGS,
     "LSTM gate phase 1: packed -pre for i/f/o plus the g pre-activation."},
    {"lstm_phase2", py_lstm_phase2, METH_VARARGS,
     "LSTM gate phase 2: finish sigmoids, c' = (f*c) + (i*g)."},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef rc_gemm_module = {
    PyModuleDef_HEAD_INIT, "_repro_rc_gemm", NULL, -1, rc_gemm_methods};

PyMODINIT_FUNC PyInit__repro_rc_gemm(void) {
    import_array();
    return PyModule_Create(&rc_gemm_module);
}
