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
 * Fused kernels: the GRU gate pass (gru_gates), one step of a whole GRU
 * stack (gru_step) and the tanh MLP forward (tanh_mlp) each run as one call.
 * Their own code performs only exact IEEE-754 arithmetic (negate / add /
 * multiply / divide) on rc_gemm_rows projections; the transcendental exp and
 * tanh run numpy's own float64 inner loops, taken from the np.exp / np.tanh
 * ufunc objects at load (bind_loops) and called on contiguous scratch.
 * numpy's exp/tanh differ from C libm in the last ulp, so libm is never
 * used: the values are numpy's bits by construction, and backend.py
 * self-checks every kernel against the numpy composition before use.  The
 * LSTM gate phases still interleave with np.exp / np.tanh on the Python side
 * (_compiled_lstm_gates in backend.py).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>
#include <numpy/ufuncobject.h>

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
/* numpy's own float64 exp / tanh inner loops                         */
/*                                                                    */
/* bind_loops(np.exp, np.tanh) takes, from each ufunc's loop table,   */
/* the first entry whose signature is exactly d->d -- the loop        */
/* numpy's type resolver picks for a float64 array -- and keeps it    */
/* with its data pointer.  The kernels below call it on contiguous,   */
/* non-overlapping scratch, the layout np.exp / np.tanh hand it for a */
/* freshly computed operand, so the values are numpy's own bits.      */
/* ------------------------------------------------------------------ */
typedef struct {
    PyUFuncGenericFunction fn;
    void *data;
    PyObject *ufunc;
} rc_bound_loop;

static rc_bound_loop rc_exp_loop, rc_tanh_loop;

static int rc_bind_loop(rc_bound_loop *slot, PyObject *obj, const char *name) {
    if (!PyObject_TypeCheck(obj, &PyUFunc_Type)) {
        PyErr_Format(PyExc_TypeError, "%s loop source must be a numpy ufunc", name);
        return -1;
    }
    PyUFuncObject *ufunc = (PyUFuncObject *)obj;
    if (ufunc->nin != 1 || ufunc->nout != 1) {
        PyErr_Format(PyExc_ValueError, "%s loop source must be a unary ufunc", name);
        return -1;
    }
    for (int i = 0; i < ufunc->ntypes; ++i) {
        if (ufunc->types[2 * i] == NPY_DOUBLE && ufunc->types[2 * i + 1] == NPY_DOUBLE &&
            ufunc->functions[i] != NULL) {
            Py_INCREF(obj);
            Py_XDECREF(slot->ufunc);
            slot->fn = ufunc->functions[i];
            slot->data = ufunc->data == NULL ? NULL : ufunc->data[i];
            slot->ufunc = obj;
            return 0;
        }
    }
    PyErr_Format(PyExc_RuntimeError, "%s ufunc has no float64 -> float64 loop", name);
    return -1;
}

static int rc_loops_bound(void) {
    if (rc_exp_loop.fn == NULL || rc_tanh_loop.fn == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "exp/tanh loops are not bound (call bind_loops)");
        return 0;
    }
    return 1;
}

/* out[:n] = loop(in[:n]); `in` and `out` never overlap. */
static void rc_apply_loop(const rc_bound_loop *loop, const double *in, double *out,
                          npy_intp n) {
    if (n <= 0) return;
    char *args[2] = {(char *)in, (char *)out};
    npy_intp dims[1] = {n};
    npy_intp steps[2] = {sizeof(double), sizeof(double)};
    loop->fn(args, dims, steps, loop->data);
}

static PyObject *py_bind_loops(PyObject *self, PyObject *args) {
    PyObject *exp_obj, *tanh_obj;
    if (!PyArg_ParseTuple(args, "OO", &exp_obj, &tanh_obj)) return NULL;
    if (rc_bind_loop(&rc_exp_loop, exp_obj, "exp") < 0) return NULL;
    if (rc_bind_loop(&rc_tanh_loop, tanh_obj, "tanh") < 0) return NULL;
    Py_RETURN_NONE;
}

/* bound_loop(name, x) -> the bound "exp" or "tanh" loop over a
   contiguous copy of x, called exactly as the kernels call it. */
static PyObject *py_bound_loop(PyObject *self, PyObject *args) {
    const char *name;
    PyObject *x_obj;
    if (!PyArg_ParseTuple(args, "sO", &name, &x_obj)) return NULL;
    const rc_bound_loop *loop;
    if (strcmp(name, "exp") == 0) {
        loop = &rc_exp_loop;
    } else if (strcmp(name, "tanh") == 0) {
        loop = &rc_tanh_loop;
    } else {
        PyErr_Format(PyExc_ValueError, "unknown loop %s", name);
        return NULL;
    }
    if (!rc_loops_bound()) return NULL;
    PyArrayObject *x =
        (PyArrayObject *)PyArray_FROM_OTF(x_obj, NPY_DOUBLE, NPY_ARRAY_IN_ARRAY);
    if (x == NULL) return NULL;
    PyArrayObject *out = (PyArrayObject *)PyArray_SimpleNew(
        PyArray_NDIM(x), PyArray_DIMS(x), NPY_DOUBLE);
    if (out != NULL)
        rc_apply_loop(loop, (const double *)PyArray_DATA(x), (double *)PyArray_DATA(out),
                      PyArray_SIZE(x));
    Py_DECREF(x);
    return (PyObject *)out;
}

/* ------------------------------------------------------------------ */
/* Fused GRU gates: the whole gate pass in one call, numpy's own      */
/* exp/tanh loops in the middle.  Oracle (backend._np_gru_gates):     */
/*   pre_rz    = (gx[:, :2H] + gh[:, :2H]) + b[:2H]                   */
/*   r, z      = 1/(1+exp(-pre_rz[:, :H])), 1/(1+exp(-pre_rz[:, H:])) */
/*   candidate = tanh((gx[:, 2H:] + r * gh[:, 2H:]) + b[2H:])         */
/*   h'        = ((1 - z) * candidate) + (z * h)                      */
/* `scratch` holds 5 * batch * size doubles; `reset` may be NULL.     */
/* ------------------------------------------------------------------ */
static void rc_gru_gate_rows(const double *gx, const double *gh, const double *b,
                             const double *h, npy_intp batch, npy_intp size,
                             double *scratch, double *reset, double *update,
                             double *candidate, double *out) {
    const npy_intp width = 3 * size, two = 2 * size, total = batch * size;
    double *neg = scratch;              /* batch * 2H: -pre_rz */
    double *ex = neg + batch * two;     /* batch * 2H: exp(-pre_rz) */
    double *cand_pre = ex + batch * two; /* batch * H */
    for (npy_intp i = 0; i < batch; ++i) {
        const double *gxr = gx + i * width;
        const double *ghr = gh + i * width;
        double *nrow = neg + i * two;
        for (npy_intp j = 0; j < two; ++j) nrow[j] = -((gxr[j] + ghr[j]) + b[j]);
    }
    rc_apply_loop(&rc_exp_loop, neg, ex, batch * two);
    const double *bn = b + two;
    for (npy_intp i = 0; i < batch; ++i) {
        const double *erow = ex + i * two;
        const double *gxn = gx + i * width + two;
        const double *ghn = gh + i * width + two;
        double *zrow = update + i * size;
        double *crow = cand_pre + i * size;
        for (npy_intp j = 0; j < size; ++j) {
            const double r = 1.0 / (1.0 + erow[j]);
            if (reset != NULL) reset[i * size + j] = r;
            zrow[j] = 1.0 / (1.0 + erow[size + j]);
            crow[j] = (gxn[j] + r * ghn[j]) + bn[j];
        }
    }
    rc_apply_loop(&rc_tanh_loop, cand_pre, candidate, total);
    for (npy_intp j = 0; j < total; ++j)
        out[j] = ((1.0 - update[j]) * candidate[j]) + (update[j] * h[j]);
}

/* gru_gates(gx (B,3H), gh (B,3H), b (3H,), hidden (B,H)) ->
   (h', reset, update, candidate), each (B,H). */
static PyObject *py_gru_gates(PyObject *self, PyObject *args) {
    PyObject *gx_obj, *gh_obj, *b_obj, *h_obj;
    if (!PyArg_ParseTuple(args, "OOOO", &gx_obj, &gh_obj, &b_obj, &h_obj)) return NULL;
    if (!rc_loops_bound()) return NULL;
    PyObject *result = NULL;
    double *scratch = NULL;
    PyArrayObject *outs[4] = {NULL, NULL, NULL, NULL};
    PyArrayObject *gx = rc_as_array(gx_obj, 2, "gx");
    PyArrayObject *gh = gx ? rc_as_array(gh_obj, 2, "gh") : NULL;
    PyArrayObject *b = gh ? rc_as_array(b_obj, 1, "b") : NULL;
    PyArrayObject *h = b ? rc_as_array(h_obj, 2, "hidden") : NULL;
    if (h == NULL) goto done;
    npy_intp batch = PyArray_DIM(h, 0), size = PyArray_DIM(h, 1);
    if (PyArray_DIM(gx, 0) != batch || PyArray_DIM(gx, 1) != 3 * size ||
        PyArray_DIM(gh, 0) != batch || PyArray_DIM(gh, 1) != 3 * size ||
        PyArray_DIM(b, 0) != 3 * size) {
        PyErr_SetString(PyExc_ValueError,
                        "gru_gates expects gx/gh (B, 3H), b (3H,) and hidden (B, H)");
        goto done;
    }
    npy_intp dims[2] = {batch, size};
    for (int k = 0; k < 4; ++k) {
        outs[k] = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
        if (outs[k] == NULL) goto done;
    }
    scratch = PyMem_Malloc((5 * batch * size + 1) * sizeof(double));
    if (scratch == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    rc_gru_gate_rows(PyArray_DATA(gx), PyArray_DATA(gh), PyArray_DATA(b), PyArray_DATA(h),
                     batch, size, scratch, PyArray_DATA(outs[1]), PyArray_DATA(outs[2]),
                     PyArray_DATA(outs[3]), PyArray_DATA(outs[0]));
    result = Py_BuildValue("OOOO", outs[0], outs[1], outs[2], outs[3]);
done:
    PyMem_Free(scratch);
    for (int k = 0; k < 4; ++k) Py_XDECREF(outs[k]);
    Py_XDECREF(gx);
    Py_XDECREF(gh);
    Py_XDECREF(b);
    Py_XDECREF(h);
    return result;
}

/* ------------------------------------------------------------------ */
/* Per-layer weights: `seq` holds `count` tuples of `arity` arrays    */
/* with the given ndims; they land in arrays[k * arity + a].  On -1   */
/* the caller still releases whatever was converted.                  */
/* ------------------------------------------------------------------ */
static int rc_unpack_layers(PyObject *seq, npy_intp count, int arity, const int *ndims,
                            PyArrayObject **arrays, const char *what) {
    for (npy_intp k = 0; k < count; ++k) {
        PyObject *item = PySequence_Fast(PySequence_Fast_GET_ITEM(seq, k), what);
        if (item == NULL) return -1;
        int status = PySequence_Fast_GET_SIZE(item) == arity ? 0 : -1;
        if (status < 0) PyErr_SetString(PyExc_ValueError, what);
        for (int a = 0; status == 0 && a < arity; ++a) {
            arrays[k * arity + a] = rc_as_array(PySequence_Fast_GET_ITEM(item, a), ndims[a], what);
            if (arrays[k * arity + a] == NULL) status = -1;
        }
        Py_DECREF(item);
        if (status < 0) return -1;
    }
    return 0;
}

static void rc_release_layers(PyArrayObject **arrays, npy_intp n) {
    if (arrays == NULL) return;
    for (npy_intp k = 0; k < n; ++k) Py_XDECREF(arrays[k]);
    PyMem_Free(arrays);
}

/* ------------------------------------------------------------------ */
/* gru_step(x (n, in), hidden (L, n, H), cells) -> (L, n, H): one     */
/* step of a whole GRU stack.  `cells` holds one (w_x, w_h, b) per    */
/* layer; each layer is gx = x @ w_x and gh = h @ w_h on              */
/* rc_gemm_rows, then the gate pass above, and its output is the next */
/* layer's input -- backend.ExecutionBackend.gru_step in one call.    */
/* ------------------------------------------------------------------ */
static PyObject *py_gru_step(PyObject *self, PyObject *args) {
    static const int ndims[3] = {2, 2, 1};
    static const char what[] = "gru_step cells must be (w_x (in, 3H), w_h (H, 3H), b (3H,))";
    PyObject *x_obj, *h_obj, *cells_obj;
    if (!PyArg_ParseTuple(args, "OOO", &x_obj, &h_obj, &cells_obj)) return NULL;
    if (!rc_loops_bound()) return NULL;
    PyObject *cells = NULL;
    PyArrayObject **weights = NULL, *out = NULL;
    npy_intp layers = 0;
    double *scratch = NULL;
    PyArrayObject *x = rc_as_array(x_obj, 2, "x");
    PyArrayObject *h = x ? rc_as_array(h_obj, 3, "hidden") : NULL;
    if (h == NULL) goto fail;
    cells = PySequence_Fast(cells_obj, what);
    if (cells == NULL) goto fail;
    layers = PyArray_DIM(h, 0);
    npy_intp batch = PyArray_DIM(h, 1), size = PyArray_DIM(h, 2);
    if (PySequence_Fast_GET_SIZE(cells) != layers || PyArray_DIM(x, 0) != batch) {
        PyErr_SetString(PyExc_ValueError,
                        "gru_step expects x (n, in), hidden (layers, n, H), one cell per layer");
        goto fail;
    }
    weights = PyMem_Calloc(3 * layers + 1, sizeof(PyArrayObject *));
    if (weights == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    if (rc_unpack_layers(cells, layers, 3, ndims, weights, what) < 0) goto fail;
    for (npy_intp layer = 0; layer < layers; ++layer) {
        PyArrayObject **cell = weights + 3 * layer;
        npy_intp inner = layer == 0 ? PyArray_DIM(x, 1) : size;
        if (PyArray_DIM(cell[0], 0) != inner || PyArray_DIM(cell[0], 1) != 3 * size ||
            PyArray_DIM(cell[1], 0) != size || PyArray_DIM(cell[1], 1) != 3 * size ||
            PyArray_DIM(cell[2], 0) != 3 * size) {
            PyErr_SetString(PyExc_ValueError, what);
            goto fail;
        }
    }
    npy_intp dims[3] = {layers, batch, size};
    out = (PyArrayObject *)PyArray_SimpleNew(3, dims, NPY_DOUBLE);
    /* gx, gh (3H each) + gate scratch (5H) + update (H) + candidate (H) */
    scratch = out ? PyMem_Malloc((13 * batch * size + 1) * sizeof(double)) : NULL;
    if (scratch == NULL) {
        if (out != NULL) PyErr_NoMemory();
        goto fail;
    }
    const npy_intp block = batch * size;
    double *gx = scratch, *gh = gx + 3 * block, *gates = gh + 3 * block;
    double *update = gates + 5 * block, *candidate = update + block;
    const double *input = PyArray_DATA(x);
    for (npy_intp layer = 0; layer < layers; ++layer) {
        PyArrayObject **cell = weights + 3 * layer;
        const double *h_layer = (const double *)PyArray_DATA(h) + layer * block;
        double *o_layer = (double *)PyArray_DATA(out) + layer * block;
        rc_gemm_rows(input, PyArray_DATA(cell[0]), gx, batch, PyArray_DIM(cell[0], 0), 3 * size);
        rc_gemm_rows(h_layer, PyArray_DATA(cell[1]), gh, batch, size, 3 * size);
        rc_gru_gate_rows(gx, gh, PyArray_DATA(cell[2]), h_layer, batch, size, gates, NULL,
                         update, candidate, o_layer);
        input = o_layer;
    }
    PyMem_Free(scratch);
    rc_release_layers(weights, 3 * layers);
    Py_DECREF(cells);
    Py_DECREF(x);
    Py_DECREF(h);
    return (PyObject *)out;
fail:
    PyMem_Free(scratch);
    rc_release_layers(weights, 3 * layers);
    Py_XDECREF(out);
    Py_XDECREF(cells);
    Py_XDECREF(x);
    Py_XDECREF(h);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* tanh_mlp(x (n, in), layers) -> (n, out): Linear-tanh-...-Linear.   */
/* `layers` holds one (weight (in, out), bias (out,)) per Linear;     */
/* each is rc_gemm_rows then `+ bias`, and every layer but the last   */
/* goes through numpy's tanh loop -- functional.tanh_mlp_forward in   */
/* one call.                                                          */
/* ------------------------------------------------------------------ */
static PyObject *py_tanh_mlp(PyObject *self, PyObject *args) {
    static const int ndims[2] = {2, 1};
    static const char what[] = "tanh_mlp layers must be (weight (in, out), bias (out,))";
    PyObject *x_obj, *layers_obj;
    if (!PyArg_ParseTuple(args, "OO", &x_obj, &layers_obj)) return NULL;
    if (!rc_loops_bound()) return NULL;
    PyObject *layers = NULL;
    PyArrayObject **weights = NULL, *out = NULL;
    npy_intp count = 0;
    double *scratch = NULL;
    PyArrayObject *x = rc_as_array(x_obj, 2, "x");
    if (x == NULL) goto fail;
    layers = PySequence_Fast(layers_obj, what);
    if (layers == NULL) goto fail;
    count = PySequence_Fast_GET_SIZE(layers);
    weights = PyMem_Calloc(2 * count + 1, sizeof(PyArrayObject *));
    if (weights == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    if (count < 1 || rc_unpack_layers(layers, count, 2, ndims, weights, what) < 0) {
        if (count < 1) PyErr_SetString(PyExc_ValueError, "tanh_mlp needs at least one layer");
        goto fail;
    }
    const npy_intp batch = PyArray_DIM(x, 0);
    npy_intp inner = PyArray_DIM(x, 1), widest = 0;
    for (npy_intp k = 0; k < count; ++k) {
        PyArrayObject *w = weights[2 * k], *b = weights[2 * k + 1];
        if (PyArray_DIM(w, 0) != inner || PyArray_DIM(b, 0) != PyArray_DIM(w, 1)) {
            PyErr_SetString(PyExc_ValueError, what);
            goto fail;
        }
        inner = PyArray_DIM(w, 1);
        if (k + 1 < count && inner > widest) widest = inner;
    }
    npy_intp dims[2] = {batch, inner};
    out = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    /* pre-activations, then their tanh: the next layer's input */
    scratch = out ? PyMem_Malloc((2 * batch * widest + 1) * sizeof(double)) : NULL;
    if (scratch == NULL) {
        if (out != NULL) PyErr_NoMemory();
        goto fail;
    }
    double *pre = scratch, *act = scratch + batch * widest;
    const double *input = PyArray_DATA(x);
    inner = PyArray_DIM(x, 1);
    for (npy_intp k = 0; k < count; ++k) {
        const npy_intp cols = PyArray_DIM(weights[2 * k], 1);
        const int last = k + 1 == count;
        const double *bias = PyArray_DATA(weights[2 * k + 1]);
        double *y = last ? (double *)PyArray_DATA(out) : pre;
        rc_gemm_rows(input, PyArray_DATA(weights[2 * k]), y, batch, inner, cols);
        for (npy_intp i = 0; i < batch; ++i) {
            double *row = y + i * cols;
            for (npy_intp j = 0; j < cols; ++j) row[j] = row[j] + bias[j];
        }
        if (!last) {
            rc_apply_loop(&rc_tanh_loop, pre, act, batch * cols);
            input = act;
        }
        inner = cols;
    }
    PyMem_Free(scratch);
    rc_release_layers(weights, 2 * count);
    Py_DECREF(layers);
    Py_DECREF(x);
    return (PyObject *)out;
fail:
    PyMem_Free(scratch);
    rc_release_layers(weights, 2 * count);
    Py_XDECREF(out);
    Py_XDECREF(layers);
    Py_XDECREF(x);
    return NULL;
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
    {"bind_loops", py_bind_loops, METH_VARARGS,
     "Bind numpy's float64 loops of the given exp and tanh ufuncs."},
    {"bound_loop", py_bound_loop, METH_VARARGS,
     "Run the bound 'exp' or 'tanh' loop over a contiguous copy of x."},
    {"gru_gates", py_gru_gates, METH_VARARGS,
     "Fused GRU gate pass: (h', reset, update, candidate)."},
    {"gru_step", py_gru_step, METH_VARARGS,
     "One step of a GRU stack: (layers, n, H) -> (layers, n, H)."},
    {"tanh_mlp", py_tanh_mlp, METH_VARARGS,
     "Linear-tanh-...-Linear forward on row-consistent GEMMs."},
    {"lstm_phase1", py_lstm_phase1, METH_VARARGS,
     "LSTM gate phase 1: packed -pre for i/f/o plus the g pre-activation."},
    {"lstm_phase2", py_lstm_phase2, METH_VARARGS,
     "LSTM gate phase 2: finish sigmoids, c' = (f*c) + (i*g)."},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef rc_gemm_module = {
    PyModuleDef_HEAD_INIT, "_repro_rc_gemm", NULL, -1, rc_gemm_methods};

PyMODINIT_FUNC PyInit__repro_rc_gemm(void) {
    import_array();
    import_umath();
    return PyModule_Create(&rc_gemm_module);
}
