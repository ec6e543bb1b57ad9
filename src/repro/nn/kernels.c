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
 * Every other entry point but bind_loops / bound_loop is one hook of
 * backend.py's table (_HOOKS), which names the numpy body it mirrors
 * operation for operation and self-checks it bitwise at load.  Their own
 * code performs only exact IEEE-754 arithmetic; exp and tanh run numpy's own
 * float64 inner loops, taken from the np.exp / np.tanh ufuncs at load
 * (bind_loops), because numpy's differ from C libm in the last ulp: every
 * entry point that runs them first calls rc_loops_bound(), and the table
 * marks exactly those rows.  Operands outside a kernel's float64 fast path
 * return NotImplemented, and the hook runs the numpy body instead.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>
#include <numpy/ufuncobject.h>
#include <math.h>
#include <string.h>

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
/* exp/tanh loops in the middle. Oracle: ExecutionBackend.gru_gates:  */
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

/* ------------------------------------------------------------------ */
/* Training elementwise kernels: the PPO update's minibatch step.     */
/*                                                                    */
/* Each mirrors one numpy expression of backend.ExecutionBackend      */
/* operation for operation (the expression is quoted above it); the   */
/* BLAS products and the reductions around them stay numpy calls.     */
/* Operands must be float64 ndarrays of the documented shapes:        */
/* anything else returns NotImplemented and the caller runs the numpy */
/* expression instead, which is how broadcasting and other dtypes     */
/* keep numpy's own semantics.                                        */
/* ------------------------------------------------------------------ */
static int rc_is_f64(PyObject *obj, int ndim) {
    return PyArray_Check(obj) && PyArray_TYPE((PyArrayObject *)obj) == NPY_DOUBLE &&
           PyArray_NDIM((PyArrayObject *)obj) == ndim;
}

static int rc_same_shape(PyObject *a, PyObject *b) {
    return PyArray_SAMESHAPE((PyArrayObject *)a, (PyArrayObject *)b);
}

/* C-contiguous float64 views of `count` operands (a copy only for a
   strided one); 0 with every slot NULL on failure. */
static int rc_contiguous(PyObject **objs, PyArrayObject **arrays, int count) {
    for (int k = 0; k < count; ++k) {
        arrays[k] = (PyArrayObject *)PyArray_FROM_OTF(objs[k], NPY_DOUBLE, NPY_ARRAY_IN_ARRAY);
        if (arrays[k] == NULL) {
            for (int j = 0; j < k; ++j) Py_CLEAR(arrays[j]);
            return 0;
        }
    }
    return 1;
}

static void rc_release(PyArrayObject **arrays, int count) {
    for (int k = 0; k < count; ++k) Py_XDECREF(arrays[k]);
}

#define RC_DATA(array) ((double *)PyArray_DATA(array))

/* bias_tanh(y (n, k), bias (k,)) -> np.tanh(y + bias) */
static PyObject *py_bias_tanh(PyObject *self, PyObject *args) {
    PyObject *objs[2];
    if (!PyArg_ParseTuple(args, "OO", &objs[0], &objs[1])) return NULL;
    if (!rc_loops_bound()) return NULL;
    if (!rc_is_f64(objs[0], 2) || !rc_is_f64(objs[1], 1) ||
        PyArray_DIM((PyArrayObject *)objs[0], 1) != PyArray_DIM((PyArrayObject *)objs[1], 0))
        Py_RETURN_NOTIMPLEMENTED;
    PyArrayObject *in[2];
    if (!rc_contiguous(objs, in, 2)) return NULL;
    const npy_intp rows = PyArray_DIM(in[0], 0), cols = PyArray_DIM(in[0], 1);
    PyArrayObject *out = (PyArrayObject *)PyArray_SimpleNew(2, PyArray_DIMS(in[0]), NPY_DOUBLE);
    double *pre = out ? PyMem_Malloc((rows * cols + 1) * sizeof(double)) : NULL;
    if (pre == NULL) {
        if (out != NULL) PyErr_NoMemory();
        Py_CLEAR(out);
    } else {
        const double *y = RC_DATA(in[0]), *bias = RC_DATA(in[1]);
        for (npy_intp i = 0; i < rows; ++i)
            for (npy_intp j = 0; j < cols; ++j) pre[i * cols + j] = y[i * cols + j] + bias[j];
        rc_apply_loop(&rc_tanh_loop, pre, RC_DATA(out), rows * cols);
        PyMem_Free(pre);
    }
    rc_release(in, 2);
    return (PyObject *)out;
}

/* tanh_backward(grad (n, k), activation (n, k)) ->
   grad * (1.0 - activation ** 2)          (x ** 2 is np.square: x * x) */
static PyObject *py_tanh_backward(PyObject *self, PyObject *args) {
    PyObject *objs[2];
    if (!PyArg_ParseTuple(args, "OO", &objs[0], &objs[1])) return NULL;
    if (!rc_is_f64(objs[0], 2) || !rc_is_f64(objs[1], 2) || !rc_same_shape(objs[0], objs[1]))
        Py_RETURN_NOTIMPLEMENTED;
    PyArrayObject *in[2];
    if (!rc_contiguous(objs, in, 2)) return NULL;
    PyArrayObject *out = (PyArrayObject *)PyArray_SimpleNew(2, PyArray_DIMS(in[0]), NPY_DOUBLE);
    if (out != NULL) {
        const double *restrict g = RC_DATA(in[0]), *restrict x = RC_DATA(in[1]);
        double *restrict o = RC_DATA(out);
        const npy_intp n = PyArray_SIZE(in[0]);
        for (npy_intp i = 0; i < n; ++i) o[i] = g[i] * (1.0 - x[i] * x[i]);
    }
    rc_release(in, 2);
    return (PyObject *)out;
}

/* gaussian_log_density(actions (n, d), mean (n, d), log_std (d,), c) ->
   (per_dim, diff, scaled, variance):
     variance = np.exp(log_std * 2.0)
     diff     = actions + -mean
     scaled   = (diff ** 2) * -0.5
     per_dim  = ((scaled / variance) + -log_std) + c        c = -(0.5 log 2pi) */
static PyObject *py_gaussian_log_density(PyObject *self, PyObject *args) {
    PyObject *objs[3];
    double constant;
    if (!PyArg_ParseTuple(args, "OOOd", &objs[0], &objs[1], &objs[2], &constant)) return NULL;
    if (!rc_loops_bound()) return NULL;
    if (!rc_is_f64(objs[0], 2) || !rc_is_f64(objs[1], 2) || !rc_is_f64(objs[2], 1) ||
        !rc_same_shape(objs[0], objs[1]) ||
        PyArray_DIM((PyArrayObject *)objs[1], 1) != PyArray_DIM((PyArrayObject *)objs[2], 0))
        Py_RETURN_NOTIMPLEMENTED;
    PyArrayObject *in[3];
    if (!rc_contiguous(objs, in, 3)) return NULL;
    const npy_intp rows = PyArray_DIM(in[1], 0), dims = PyArray_DIM(in[1], 1);
    PyArrayObject *out[4] = {NULL, NULL, NULL, NULL};
    PyObject *result = NULL;
    double *doubled = NULL;
    for (int k = 0; k < 3; ++k) {
        out[k] = (PyArrayObject *)PyArray_SimpleNew(2, PyArray_DIMS(in[1]), NPY_DOUBLE);
        if (out[k] == NULL) goto done;
    }
    out[3] = (PyArrayObject *)PyArray_SimpleNew(1, PyArray_DIMS(in[2]), NPY_DOUBLE);
    if (out[3] == NULL) goto done;
    doubled = PyMem_Malloc((dims + 1) * sizeof(double));
    if (doubled == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    const double *actions = RC_DATA(in[0]), *mean = RC_DATA(in[1]), *log_std = RC_DATA(in[2]);
    double *per_dim = RC_DATA(out[0]), *diff = RC_DATA(out[1]), *scaled = RC_DATA(out[2]);
    double *variance = RC_DATA(out[3]);
    for (npy_intp j = 0; j < dims; ++j) doubled[j] = log_std[j] * 2.0;
    rc_apply_loop(&rc_exp_loop, doubled, variance, dims);
    for (npy_intp i = 0; i < rows; ++i) {
        for (npy_intp j = 0; j < dims; ++j) {
            const npy_intp at = i * dims + j;
            const double d = actions[at] + -mean[at];
            const double s = (d * d) * -0.5;
            diff[at] = d;
            scaled[at] = s;
            per_dim[at] = ((s / variance[j]) + -log_std[j]) + constant;
        }
    }
    result = Py_BuildValue("OOOO", out[0], out[1], out[2], out[3]);
done:
    PyMem_Free(doubled);
    rc_release(out, 4);
    rc_release(in, 3);
    return result;
}

/* gaussian_log_density_backward(grad (n,), diff (n, d), scaled (n, d),
   variance (d,)) -> (d_per_dim, d_variance_terms, d_mean), each (n, d):
     d_per_dim        = grad repeated along the last axis
     d_variance_terms = -d_per_dim * scaled / (variance ** 2)
     d_mean           = -(d_per_dim / variance * -0.5 * 2 * diff)       */
static PyObject *py_gaussian_log_density_backward(PyObject *self, PyObject *args) {
    PyObject *objs[4];
    if (!PyArg_ParseTuple(args, "OOOO", &objs[0], &objs[1], &objs[2], &objs[3])) return NULL;
    if (!rc_is_f64(objs[0], 1) || !rc_is_f64(objs[1], 2) || !rc_is_f64(objs[2], 2) ||
        !rc_is_f64(objs[3], 1) || !rc_same_shape(objs[1], objs[2]) ||
        PyArray_DIM((PyArrayObject *)objs[0], 0) != PyArray_DIM((PyArrayObject *)objs[1], 0) ||
        PyArray_DIM((PyArrayObject *)objs[1], 1) != PyArray_DIM((PyArrayObject *)objs[3], 0))
        Py_RETURN_NOTIMPLEMENTED;
    PyArrayObject *in[4];
    if (!rc_contiguous(objs, in, 4)) return NULL;
    const npy_intp rows = PyArray_DIM(in[1], 0), dims = PyArray_DIM(in[1], 1);
    PyArrayObject *out[3] = {NULL, NULL, NULL};
    PyObject *result = NULL;
    for (int k = 0; k < 3; ++k) {
        out[k] = (PyArrayObject *)PyArray_SimpleNew(2, PyArray_DIMS(in[1]), NPY_DOUBLE);
        if (out[k] == NULL) goto done;
    }
    const double *grad = RC_DATA(in[0]), *diff = RC_DATA(in[1]), *scaled = RC_DATA(in[2]);
    const double *variance = RC_DATA(in[3]);
    double *d_per_dim = RC_DATA(out[0]), *d_terms = RC_DATA(out[1]), *d_mean = RC_DATA(out[2]);
    for (npy_intp i = 0; i < rows; ++i) {
        const double g = grad[i];
        for (npy_intp j = 0; j < dims; ++j) {
            const npy_intp at = i * dims + j;
            const double v = variance[j];
            d_per_dim[at] = g;
            d_terms[at] = (-g * scaled[at]) / (v * v);
            d_mean[at] = -((((g / v) * -0.5) * 2.0) * diff[at]);
        }
    }
    result = Py_BuildValue("OOO", out[0], out[1], out[2]);
done:
    rc_release(out, 3);
    rc_release(in, 4);
    return result;
}

/* np.clip on a float64: NaN passes through, then max, then min. */
static inline double rc_clip(double x, double low, double high) {
    const double raised = isnan(x) ? x : (x > low ? x : low);
    return isnan(raised) ? raised : (raised < high ? raised : high);
}

/* clipped_surrogate(log_probs (n,), old_log_probs (n,), advantages (n,),
   low, high) -> (surrogate, ratio, take_raw, inside):
     ratio     = np.exp(log_probs + -old_log_probs)
     inside    = (ratio >= low) & (ratio <= high)
     raw       = ratio * advantages
     clipped   = np.clip(ratio, low, high) * advantages
     take_raw  = raw <= clipped
     surrogate = np.where(take_raw, raw, clipped)                       */
static PyObject *py_clipped_surrogate(PyObject *self, PyObject *args) {
    PyObject *objs[3];
    double low, high;
    if (!PyArg_ParseTuple(args, "OOOdd", &objs[0], &objs[1], &objs[2], &low, &high)) return NULL;
    if (!rc_loops_bound()) return NULL;
    if (!rc_is_f64(objs[0], 1) || !rc_is_f64(objs[1], 1) || !rc_is_f64(objs[2], 1) ||
        !rc_same_shape(objs[0], objs[1]) || !rc_same_shape(objs[0], objs[2]))
        Py_RETURN_NOTIMPLEMENTED;
    PyArrayObject *in[3];
    if (!rc_contiguous(objs, in, 3)) return NULL;
    npy_intp *shape = PyArray_DIMS(in[0]);
    const npy_intp n = shape[0];
    PyArrayObject *out[4] = {NULL, NULL, NULL, NULL};
    PyObject *result = NULL;
    for (int k = 0; k < 4; ++k) {
        out[k] = (PyArrayObject *)PyArray_SimpleNew(1, shape, k < 2 ? NPY_DOUBLE : NPY_BOOL);
        if (out[k] == NULL) goto done;
    }
    const double *log_probs = RC_DATA(in[0]), *old = RC_DATA(in[1]), *adv = RC_DATA(in[2]);
    double *surrogate = RC_DATA(out[0]), *ratio = RC_DATA(out[1]);
    npy_bool *take_raw = PyArray_DATA(out[2]), *inside = PyArray_DATA(out[3]);
    /* the exp argument goes through `surrogate`, overwritten below */
    for (npy_intp i = 0; i < n; ++i) surrogate[i] = log_probs[i] + -old[i];
    rc_apply_loop(&rc_exp_loop, surrogate, ratio, n);
    for (npy_intp i = 0; i < n; ++i) {
        const double r = ratio[i];
        const double raw = r * adv[i];
        const double clipped = rc_clip(r, low, high) * adv[i];
        const int take = raw <= clipped;
        inside[i] = (r >= low) & (r <= high);
        take_raw[i] = take;
        surrogate[i] = take ? raw : clipped;
    }
    result = Py_BuildValue("OOOO", out[0], out[1], out[2], out[3]);
done:
    rc_release(out, 4);
    rc_release(in, 3);
    return result;
}

/* clipped_surrogate_backward(d_surrogate, ratio (n,), advantages (n,),
   take_raw (n,) bool, inside (n,) bool) -> gradient of the log-probs:
     (d_surrogate * ~take_raw * advantages * inside
      + d_surrogate * take_raw * advantages) * ratio                     */
static PyObject *py_clipped_surrogate_backward(PyObject *self, PyObject *args) {
    PyObject *objs[2], *take_obj, *inside_obj;
    double ds;
    if (!PyArg_ParseTuple(args, "dOOOO", &ds, &objs[0], &objs[1], &take_obj, &inside_obj))
        return NULL;
    if (!rc_is_f64(objs[0], 1) || !rc_is_f64(objs[1], 1) || !rc_same_shape(objs[0], objs[1]) ||
        !PyArray_Check(take_obj) || !PyArray_Check(inside_obj) ||
        PyArray_TYPE((PyArrayObject *)take_obj) != NPY_BOOL ||
        PyArray_TYPE((PyArrayObject *)inside_obj) != NPY_BOOL ||
        !rc_same_shape(objs[0], take_obj) || !rc_same_shape(objs[0], inside_obj))
        Py_RETURN_NOTIMPLEMENTED;
    PyArrayObject *in[2];
    if (!rc_contiguous(objs, in, 2)) return NULL;
    PyArrayObject *masks[2] = {
        (PyArrayObject *)PyArray_FROM_OTF(take_obj, NPY_BOOL, NPY_ARRAY_IN_ARRAY), NULL};
    masks[1] = masks[0] ? (PyArrayObject *)PyArray_FROM_OTF(inside_obj, NPY_BOOL,
                                                            NPY_ARRAY_IN_ARRAY)
                        : NULL;
    PyArrayObject *out = masks[1] ? (PyArrayObject *)PyArray_SimpleNew(
                                        1, PyArray_DIMS(in[0]), NPY_DOUBLE)
                                  : NULL;
    if (out != NULL) {
        const double *ratio = RC_DATA(in[0]), *adv = RC_DATA(in[1]);
        const npy_bool *take_raw = PyArray_DATA(masks[0]), *inside = PyArray_DATA(masks[1]);
        double *grad = RC_DATA(out);
        const npy_intp n = PyArray_DIM(in[0], 0);
        for (npy_intp i = 0; i < n; ++i) {
            const double take = take_raw[i] ? 1.0 : 0.0;
            const double clipped = ((ds * (take_raw[i] ? 0.0 : 1.0)) * adv[i]) *
                                   (inside[i] ? 1.0 : 0.0);
            grad[i] = (clipped + (ds * take) * adv[i]) * ratio[i];
        }
    }
    Py_XDECREF(masks[0]);
    Py_XDECREF(masks[1]);
    rc_release(in, 2);
    return (PyObject *)out;
}

/* numpy's float64 add.reduce of x[i] * x[i] (the pairwise sum of the
   squares, from 0.0): below 8 terms in order, up to 128 in eight
   interleaved partial sums folded ((0+1)+(2+3))+((4+5)+(6+7)) and the tail
   in order, above that the two halves (the first a multiple of 8) apart. */
static double rc_pairwise_sum_of_squares(const double *x, npy_intp n) {
    if (n < 8) {
        double total = 0.0;
        for (npy_intp i = 0; i < n; ++i) total += x[i] * x[i];
        return total;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; ++j) r[j] = x[j] * x[j];
        npy_intp i = 8;
        for (; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; ++j) r[j] += x[i + j] * x[i + j];
        double total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; ++i) total += x[i] * x[i];
        return total;
    }
    npy_intp half = n / 2;
    half -= half % 8;
    return rc_pairwise_sum_of_squares(x, half) + rc_pairwise_sum_of_squares(x + half, n - half);
}

/* grad_norm(grads) -> sqrt(sum((g ** 2).sum() for g in grads)), the sum
   taken in order from 0.0; every gradient a C-contiguous float64 array,
   otherwise NotImplemented. */
static PyObject *py_grad_norm(PyObject *self, PyObject *args) {
    PyObject *grads_obj;
    if (!PyArg_ParseTuple(args, "O", &grads_obj)) return NULL;
    PyObject *grads = PySequence_Fast(grads_obj, "grad_norm expects a sequence of arrays");
    if (grads == NULL) return NULL;
    const Py_ssize_t count = PySequence_Fast_GET_SIZE(grads);
    for (Py_ssize_t k = 0; k < count; ++k) {
        PyObject *g = PySequence_Fast_GET_ITEM(grads, k);
        if (!PyArray_Check(g) || PyArray_TYPE((PyArrayObject *)g) != NPY_DOUBLE ||
            !PyArray_IS_C_CONTIGUOUS((PyArrayObject *)g)) {
            Py_DECREF(grads);
            Py_RETURN_NOTIMPLEMENTED;
        }
    }
    double total = 0.0;
    for (Py_ssize_t k = 0; k < count; ++k) {
        PyArrayObject *g = (PyArrayObject *)PySequence_Fast_GET_ITEM(grads, k);
        total += rc_pairwise_sum_of_squares(RC_DATA(g), PyArray_SIZE(g));
    }
    Py_DECREF(grads);
    return PyFloat_FromDouble(sqrt(total));
}

static void rc_adam_decrement(const double *restrict g, double *restrict m, double *restrict v,
                              double *restrict decrement, npy_intp n, double lr, double beta1,
                              double beta2, double eps, double bias1, double bias2) {
    const double keep1 = 1.0 - beta1, keep2 = 1.0 - beta2;
    for (npy_intp i = 0; i < n; ++i) {
        const double mi = m[i] * beta1 + g[i] * keep1;
        const double vi = v[i] * beta2 + (g[i] * keep2) * g[i];
        m[i] = mi;
        v[i] = vi;
        decrement[i] = ((mi / bias1) * lr) / (sqrt(vi / bias2) + eps);
    }
}

/* adam_step(params, grads, state (3, N), scratch (2, N), (lr, beta1, beta2,
   eps, bias1, bias2)) -> True: Adam.step's flat update in one pass.
   Gather every gradient into state[2], run the 13 in-place operations of
   backend._np_adam_decrement over all N elements (state[0] = m,
   state[1] = v, scratch[1] the decrement), then `param -= decrement` per
   parameter.  Every parameter must be a writable C-contiguous float64
   array and every gradient a C-contiguous float64 array of its shape,
   together N elements; otherwise NotImplemented, before anything is
   written. */
static PyObject *py_adam_step(PyObject *self, PyObject *args) {
    PyObject *params_obj, *grads_obj, *state_obj, *scratch_obj;
    double lr, beta1, beta2, eps, bias1, bias2;
    if (!PyArg_ParseTuple(args, "OOOO(dddddd)", &params_obj, &grads_obj, &state_obj,
                          &scratch_obj, &lr, &beta1, &beta2, &eps, &bias1, &bias2))
        return NULL;
    PyObject *params = PySequence_Fast(params_obj, "adam_step params must be a sequence");
    if (params == NULL) return NULL;
    PyObject *grads = PySequence_Fast(grads_obj, "adam_step grads must be a sequence");
    if (grads == NULL) {
        Py_DECREF(params);
        return NULL;
    }
    const Py_ssize_t count = PySequence_Fast_GET_SIZE(params);
    int eligible = PySequence_Fast_GET_SIZE(grads) == count && rc_is_f64(state_obj, 2) &&
                   rc_is_f64(scratch_obj, 2);
    PyArrayObject *state = (PyArrayObject *)state_obj, *scratch = (PyArrayObject *)scratch_obj;
    npy_intp total = 0;
    if (eligible)
        eligible = PyArray_IS_C_CONTIGUOUS(state) && PyArray_ISWRITEABLE(state) &&
                   PyArray_IS_C_CONTIGUOUS(scratch) && PyArray_ISWRITEABLE(scratch) &&
                   PyArray_DIM(state, 0) == 3 && PyArray_DIM(scratch, 0) == 2 &&
                   PyArray_DIM(scratch, 1) == PyArray_DIM(state, 1);
    for (Py_ssize_t k = 0; eligible && k < count; ++k) {
        PyObject *p = PySequence_Fast_GET_ITEM(params, k);
        PyObject *g = PySequence_Fast_GET_ITEM(grads, k);
        eligible = PyArray_Check(p) && PyArray_Check(g) &&
                   PyArray_TYPE((PyArrayObject *)p) == NPY_DOUBLE &&
                   PyArray_TYPE((PyArrayObject *)g) == NPY_DOUBLE &&
                   PyArray_IS_C_CONTIGUOUS((PyArrayObject *)p) &&
                   PyArray_ISWRITEABLE((PyArrayObject *)p) &&
                   PyArray_IS_C_CONTIGUOUS((PyArrayObject *)g) && rc_same_shape(p, g);
        if (eligible) total += PyArray_SIZE((PyArrayObject *)p);
    }
    if (!eligible || total != PyArray_DIM(state, 1)) {
        Py_DECREF(params);
        Py_DECREF(grads);
        Py_RETURN_NOTIMPLEMENTED;
    }
    double *restrict m = RC_DATA(state), *restrict v = m + total, *restrict g = v + total;
    double *restrict decrement = RC_DATA(scratch) + total;
    npy_intp offset = 0;
    for (Py_ssize_t k = 0; k < count; ++k) {
        PyArrayObject *grad = (PyArrayObject *)PySequence_Fast_GET_ITEM(grads, k);
        const npy_intp size = PyArray_SIZE(grad);
        memcpy(g + offset, PyArray_DATA(grad), size * sizeof(double));
        offset += size;
    }
    rc_adam_decrement(g, m, v, decrement, total, lr, beta1, beta2, eps, bias1, bias2);
    offset = 0;
    for (Py_ssize_t k = 0; k < count; ++k) {
        PyArrayObject *param = (PyArrayObject *)PySequence_Fast_GET_ITEM(params, k);
        double *restrict p = RC_DATA(param);
        const npy_intp size = PyArray_SIZE(param);
        for (npy_intp i = 0; i < size; ++i) p[i] = p[i] - decrement[offset + i];
        offset += size;
    }
    Py_DECREF(params);
    Py_DECREF(grads);
    Py_RETURN_TRUE;
}

/* ------------------------------------------------------------------ */
/* Conv-block kernels: the copy in front of DF's conv product, the    */
/* epilogue after it and their backwards (the products stay numpy's). */
/* ------------------------------------------------------------------ */

/* im2col_1d(x (n, C, L), kernel, stride, padding) -> (n, P, C * kernel),
   C-contiguous, with P = (L + 2 * padding - kernel) // stride + 1:
   column c * kernel + j of position p is x[:, c, p * stride + j - padding],
   0.0 off either end.  backend.ExecutionBackend.im2col_1d zero-pads a copy
   of the batch and reshapes the transposed window view; here one flow at a
   time is staged in a zero-padded (C, L + 2 * padding) buffer, so there is
   no padded temporary of the batch, and every value is copied, so keeps
   its bits.  x may have any strides (DF scoring passes the transposed view
   of a channel-last array).
   NotImplemented for an x that is not an aligned float64 array, for a
   window longer than the padded input (numpy raises), and wherever numpy's
   reshape merges the (C, kernel) axes of the window view without a copy:
   one channel, a kernel of one, or a channel stride of `kernel` time steps
   (a padded input exactly one window long).  numpy then returns a strided
   view, and the products of the forward and of the weight gradient could
   take another BLAS path on it than on a C-contiguous copy. */
static PyObject *py_im2col_1d(PyObject *self, PyObject *args) {
    PyObject *obj;
    Py_ssize_t kernel, stride, padding;
    if (!PyArg_ParseTuple(args, "Onnn", &obj, &kernel, &stride, &padding)) return NULL;
    if (!rc_is_f64(obj, 3) || !PyArray_ISALIGNED((PyArrayObject *)obj) || kernel < 1 ||
        stride < 1 || padding < 0)
        Py_RETURN_NOTIMPLEMENTED;
    PyArrayObject *x = (PyArrayObject *)obj;
    const npy_intp n = PyArray_DIM(x, 0), channels = PyArray_DIM(x, 1);
    const npy_intp length = PyArray_DIM(x, 2);
    if (length + 2 * padding < kernel) Py_RETURN_NOTIMPLEMENTED;
    /* the strides of the array numpy takes its windows from: x, or a
       C-contiguous zero-padded copy of it */
    const npy_intp s_window_c = padding > 0 ? (length + 2 * padding) * (npy_intp)sizeof(double)
                                            : PyArray_STRIDE(x, 1);
    const npy_intp s_window_t = padding > 0 ? (npy_intp)sizeof(double) : PyArray_STRIDE(x, 2);
    if (channels == 1 || kernel == 1 || s_window_c == kernel * s_window_t)
        Py_RETURN_NOTIMPLEMENTED;
    const npy_intp positions = (length + 2 * padding - kernel) / stride + 1;
    const npy_intp width = channels * kernel;
    npy_intp dims[3] = {n, positions, width};
    PyArrayObject *out = (PyArrayObject *)PyArray_SimpleNew(3, dims, NPY_DOUBLE);
    if (out == NULL) return NULL;
    /* every window of a staged channel is a contiguous run, and the
       columns are written in order */
    const npy_intp padded_length = length + 2 * padding;
    double *restrict padded = PyMem_Calloc(channels * padded_length + 1, sizeof(double));
    if (padded == NULL) {
        Py_DECREF(out);
        return PyErr_NoMemory();
    }
    const char *base = PyArray_BYTES(x);
    const npy_intp s_n = PyArray_STRIDE(x, 0), s_c = PyArray_STRIDE(x, 1);
    const npy_intp s_t = PyArray_STRIDE(x, 2);
    double *restrict col = RC_DATA(out);
    for (npy_intp b = 0; b < n; ++b) {
        for (npy_intp c = 0; c < channels; ++c) {
            const char *src = base + b * s_n + c * s_c;
            double *restrict row = padded + c * padded_length + padding;
            for (npy_intp t = 0; t < length; ++t) row[t] = *(const double *)(src + t * s_t);
        }
        for (npy_intp p = 0; p < positions; ++p) {
            const double *restrict window = padded + p * stride;
            for (npy_intp c = 0; c < channels; ++c, col += kernel, window += padded_length)
                for (npy_intp j = 0; j < kernel; ++j) col[j] = window[j];
        }
    }
    PyMem_Free(padded);
    return (PyObject *)out;
}

/* bias_relu_pool(h (n, L, C), bias (C,)) -> (n, C, L // 2), C-contiguous:
     h = h + bias
     h *= h > 0                       a negative becomes -0.0, NaN passes
     np.maximum(h[:, 0:2m:2], h[:, 1:2m:2]), transposed to the conv layout
   with m = L // 2 (an odd last position is dropped).  np.maximum(a, b) is
   a when a is NaN, else a when a > b, else b (its second operand on a tie
   of zeros).  Both numpy behaviours are pinned in tests.  NotImplemented
   for operands that are not float64 of these shapes. */
static PyObject *py_bias_relu_pool(PyObject *self, PyObject *args) {
    PyObject *objs[2];
    if (!PyArg_ParseTuple(args, "OO", &objs[0], &objs[1])) return NULL;
    if (!rc_is_f64(objs[0], 3) || !rc_is_f64(objs[1], 1) ||
        PyArray_DIM((PyArrayObject *)objs[0], 2) != PyArray_DIM((PyArrayObject *)objs[1], 0))
        Py_RETURN_NOTIMPLEMENTED;
    PyArrayObject *in[2];
    if (!rc_contiguous(objs, in, 2)) return NULL;
    const npy_intp n = PyArray_DIM(in[0], 0), length = PyArray_DIM(in[0], 1);
    const npy_intp channels = PyArray_DIM(in[0], 2), half = length / 2;
    npy_intp dims[3] = {n, channels, half};
    PyArrayObject *out = (PyArrayObject *)PyArray_SimpleNew(3, dims, NPY_DOUBLE);
    if (out != NULL) {
        const double *restrict h = RC_DATA(in[0]), *restrict bias = RC_DATA(in[1]);
        double *restrict pooled = RC_DATA(out);
        for (npy_intp b = 0; b < n; ++b) {
            const double *block = h + b * length * channels;
            double *dst = pooled + b * channels * half;
            for (npy_intp q = 0; q < half; ++q) {
                const double *even = block + 2 * q * channels, *odd = even + channels;
                for (npy_intp c = 0; c < channels; ++c) {
                    double a = even[c] + bias[c], z = odd[c] + bias[c];
                    a = a * (a > 0.0 ? 1.0 : 0.0);
                    z = z * (z > 0.0 ? 1.0 : 0.0);
                    dst[c * half + q] = isnan(a) ? a : (a > z ? a : z);
                }
            }
        }
    }
    rc_release(in, 2);
    return (PyObject *)out;
}

/* bias_relu_pool_backward(grad (n, C, L // 2), h (n, L, C), bias (C,)) ->
   (n, L, C), C-contiguous: the gradient of h.  With the forward's
     z = h + bias,  mask = z > 0,  r = z * mask
   recomputed, pair q sends g = grad[:, c, q] to its first maximum
   (take_odd = r[2q + 1] > r[2q], strict, so a NaN or a tie keeps the even
   one) and 0.0 to the other, each added to +0.0, then multiplied by its
   mask -- MaxPool1d's where / += scatter and Tensor.relu's grad * mask.
   An odd last position gets +0.0.  NotImplemented for operands that are
   not float64 of these shapes. */
static PyObject *py_bias_relu_pool_backward(PyObject *self, PyObject *args) {
    PyObject *objs[3];
    if (!PyArg_ParseTuple(args, "OOO", &objs[0], &objs[1], &objs[2])) return NULL;
    if (!rc_is_f64(objs[0], 3) || !rc_is_f64(objs[1], 3) || !rc_is_f64(objs[2], 1))
        Py_RETURN_NOTIMPLEMENTED;
    PyArrayObject *g_obj = (PyArrayObject *)objs[0], *h_obj = (PyArrayObject *)objs[1];
    const npy_intp n = PyArray_DIM(h_obj, 0), length = PyArray_DIM(h_obj, 1);
    const npy_intp channels = PyArray_DIM(h_obj, 2), half = length / 2;
    if (PyArray_DIM(g_obj, 0) != n || PyArray_DIM(g_obj, 1) != channels ||
        PyArray_DIM(g_obj, 2) != half || PyArray_DIM((PyArrayObject *)objs[2], 0) != channels)
        Py_RETURN_NOTIMPLEMENTED;
    PyArrayObject *in[3];
    if (!rc_contiguous(objs, in, 3)) return NULL;
    PyArrayObject *out = (PyArrayObject *)PyArray_SimpleNew(3, PyArray_DIMS(in[1]), NPY_DOUBLE);
    if (out != NULL) {
        const double *restrict grad = RC_DATA(in[0]), *restrict h = RC_DATA(in[1]);
        const double *restrict bias = RC_DATA(in[2]);
        double *restrict d_h = RC_DATA(out);
        for (npy_intp b = 0; b < n; ++b) {
            const double *block = h + b * length * channels, *g = grad + b * channels * half;
            double *dst = d_h + b * length * channels;
            for (npy_intp q = 0; q < half; ++q) {
                const double *even = block + 2 * q * channels, *odd = even + channels;
                double *d_even = dst + 2 * q * channels, *d_odd = d_even + channels;
                for (npy_intp c = 0; c < channels; ++c) {
                    const double ze = even[c] + bias[c], zo = odd[c] + bias[c];
                    const double me = ze > 0.0 ? 1.0 : 0.0, mo = zo > 0.0 ? 1.0 : 0.0;
                    const double gv = g[c * half + q];
                    const int take_odd = zo * mo > ze * me;
                    d_even[c] = (0.0 + (take_odd ? 0.0 : gv)) * me;
                    d_odd[c] = (0.0 + (take_odd ? gv : 0.0)) * mo;
                }
            }
            if (length % 2 != 0)
                for (npy_intp c = 0; c < channels; ++c) dst[(length - 1) * channels + c] = 0.0;
        }
    }
    rc_release(in, 3);
    return (PyObject *)out;
}

/* col2im_1d(grad (n, P, C * kernel), length, kernel, stride, padding) ->
   (n, C, length), C-contiguous: the backward of im2col_1d, in the loop
   order of backend.ExecutionBackend.col2im_1d -- each channel row starts
   at +0.0 and takes one strided += per kernel offset, last offset first
   (column c * kernel + j of window p lands on p * stride + j - padding),
   so every element sums the same terms in the same order.  Positions in
   the padding take no store.  NotImplemented for a grad that is not
   float64 of a width divisible by kernel, or whose windows do not fit the
   padded length (numpy raises). */
static PyObject *py_col2im_1d(PyObject *self, PyObject *args) {
    PyObject *obj;
    Py_ssize_t length, kernel, stride, padding;
    if (!PyArg_ParseTuple(args, "Onnnn", &obj, &length, &kernel, &stride, &padding)) return NULL;
    if (!rc_is_f64(obj, 3) || length < 0 || kernel < 1 || stride < 1 || padding < 0)
        Py_RETURN_NOTIMPLEMENTED;
    const npy_intp n = PyArray_DIM((PyArrayObject *)obj, 0);
    const npy_intp positions = PyArray_DIM((PyArrayObject *)obj, 1);
    const npy_intp width = PyArray_DIM((PyArrayObject *)obj, 2);
    if (width % kernel != 0 ||
        (positions > 0 && (positions - 1) * stride + kernel > length + 2 * padding))
        Py_RETURN_NOTIMPLEMENTED;
    PyArrayObject *in[1];
    if (!rc_contiguous(&obj, in, 1)) return NULL;
    const npy_intp channels = width / kernel;
    npy_intp dims[3] = {n, channels, length};
    PyArrayObject *out = (PyArrayObject *)PyArray_ZEROS(3, dims, NPY_DOUBLE, 0);
    if (out != NULL) {
        const double *restrict grad = RC_DATA(in[0]);
        double *restrict x = RC_DATA(out);
        for (npy_intp b = 0; b < n; ++b) {
            const double *g = grad + b * positions * width;
            for (npy_intp c = 0; c < channels; ++c, x += length) {
                for (npy_intp j = kernel - 1; j >= 0; --j) {
                    /* windows p whose offset j lands inside the row:
                       0 <= p * stride + j - padding < length */
                    const npy_intp lead = padding - j;
                    npy_intp p = lead > 0 ? (lead + stride - 1) / stride : 0;
                    const double *column = g + c * kernel + j;
                    for (npy_intp t = p * stride - lead; p < positions && t < length; ++p, t += stride)
                        x[t] += column[p * width];
                }
            }
        }
    }
    rc_release(in, 1);
    return (PyObject *)out;
}

/* ------------------------------------------------------------------ */
/* BPTT step kernels: one time step t of the closed-form backward of  */
/* gru_sequence / lstm_sequence.  Every operand is read and written   */
/* through its strides, so the (B, H) rows of step t of a (B, T, W)   */
/* slab need no copy; the slabs written must not overlap the inputs   */
/* (the callers allocate them).  NotImplemented, before anything is   */
/* written, for an operand that is not an aligned float64 array of    */
/* the documented shape, a slab that is read-only, or t outside       */
/* [0, T).                                                            */
/* ------------------------------------------------------------------ */

/* 1 when obj is an aligned float64 array of shape dims (and writable
   when asked). */
static int rc_is_shaped(PyObject *obj, int ndim, const npy_intp *dims, int writable) {
    if (!rc_is_f64(obj, ndim)) return 0;
    PyArrayObject *a = (PyArrayObject *)obj;
    if (!PyArray_ISALIGNED(a) || (writable && !PyArray_ISWRITEABLE(a))) return 0;
    for (int k = 0; k < ndim; ++k)
        if (PyArray_DIM(a, k) != dims[k]) return 0;
    return 1;
}

/* The (B, W) rows of one operand: step t of a (B, T, W) slab, or a whole
   (B, W) array (t ignored). */
typedef struct {
    char *base;
    npy_intp s_b, s_j;
} rc_rows;

static rc_rows rc_step_rows(PyObject *obj, npy_intp t) {
    PyArrayObject *a = (PyArrayObject *)obj;
    rc_rows rows;
    const int three = PyArray_NDIM(a) == 3;
    rows.base = PyArray_BYTES(a) + (three ? t * PyArray_STRIDE(a, 1) : 0);
    rows.s_b = PyArray_STRIDE(a, 0);
    rows.s_j = PyArray_STRIDE(a, three ? 2 : 1);
    return rows;
}

#define RC_ROW(rows, b, j) (*(double *)((rows).base + (b) * (rows).s_b + (j) * (rows).s_j))

/* gru_bptt_step(t, d_hidden (B, H), grad (B, T, H), resets, updates,
   candidates, h_prevs, gh_ns (B, T, H), d_gx_all, d_gh_all (B, T, 3H))
   -> the carry (B, H), C-contiguous.  Oracle
   (backend.ExecutionBackend.gru_bptt_step):
     d_hidden  = d_hidden + grad[:, t]
     d_cand    = d_hidden * (1.0 - z);  d_update = d_hidden * (h_prev - n)
     d_pre_n   = d_cand * (1.0 - n ** 2);  d_reset = d_pre_n * gh_n
     d_pre_r   = (d_reset * r) * (1.0 - r)
     d_pre_z   = (d_update * z) * (1.0 - z)
     d_gx[:, t] = [d_pre_r | d_pre_z | d_pre_n]
     d_gh[:, t] = [d_pre_r | d_pre_z | d_pre_n * r]
     return d_hidden * z                       (x ** 2 is x * x) */
static PyObject *py_gru_bptt_step(PyObject *self, PyObject *args) {
    Py_ssize_t t;
    PyObject *o[9];
    if (!PyArg_ParseTuple(args, "nOOOOOOOOO", &t, &o[0], &o[1], &o[2], &o[3], &o[4], &o[5],
                          &o[6], &o[7], &o[8]))
        return NULL;
    if (!rc_is_f64(o[0], 2) || !rc_is_f64(o[1], 3)) Py_RETURN_NOTIMPLEMENTED;
    const npy_intp batch = PyArray_DIM((PyArrayObject *)o[0], 0);
    const npy_intp size = PyArray_DIM((PyArrayObject *)o[0], 1);
    const npy_intp steps = PyArray_DIM((PyArrayObject *)o[1], 1);
    const npy_intp hidden_dims[2] = {batch, size}, cache_dims[3] = {batch, steps, size};
    const npy_intp slab_dims[3] = {batch, steps, 3 * size};
    int eligible = t >= 0 && t < steps && rc_is_shaped(o[0], 2, hidden_dims, 0);
    for (int k = 1; eligible && k < 7; ++k) eligible = rc_is_shaped(o[k], 3, cache_dims, 0);
    for (int k = 7; eligible && k < 9; ++k) eligible = rc_is_shaped(o[k], 3, slab_dims, 1);
    if (!eligible) Py_RETURN_NOTIMPLEMENTED;
    PyArrayObject *out = (PyArrayObject *)PyArray_SimpleNew(2, hidden_dims, NPY_DOUBLE);
    if (out == NULL) return NULL;
    const rc_rows dh = rc_step_rows(o[0], t), g = rc_step_rows(o[1], t);
    const rc_rows r = rc_step_rows(o[2], t), z = rc_step_rows(o[3], t);
    const rc_rows n = rc_step_rows(o[4], t), hp = rc_step_rows(o[5], t);
    const rc_rows ghn = rc_step_rows(o[6], t);
    const rc_rows dgx = rc_step_rows(o[7], t), dgh = rc_step_rows(o[8], t);
    double *carry = RC_DATA(out);
    for (npy_intp b = 0; b < batch; ++b) {
        for (npy_intp j = 0; j < size; ++j) {
            const double d = RC_ROW(dh, b, j) + RC_ROW(g, b, j);
            const double vr = RC_ROW(r, b, j), vz = RC_ROW(z, b, j), vn = RC_ROW(n, b, j);
            const double d_cand = d * (1.0 - vz);
            const double d_update = d * (RC_ROW(hp, b, j) - vn);
            const double d_pre_n = d_cand * (1.0 - vn * vn);
            const double d_reset = d_pre_n * RC_ROW(ghn, b, j);
            const double d_pre_r = (d_reset * vr) * (1.0 - vr);
            const double d_pre_z = (d_update * vz) * (1.0 - vz);
            RC_ROW(dgx, b, j) = d_pre_r;
            RC_ROW(dgx, b, size + j) = d_pre_z;
            RC_ROW(dgx, b, 2 * size + j) = d_pre_n;
            RC_ROW(dgh, b, j) = d_pre_r;
            RC_ROW(dgh, b, size + j) = d_pre_z;
            RC_ROW(dgh, b, 2 * size + j) = d_pre_n * vr;
            carry[b * size + j] = d * vz;
        }
    }
    return (PyObject *)out;
}

/* lstm_bptt_step(t, d_hidden (B, H), d_cell (B, H), grad (B, T, H) or None,
   gates_i, gates_f, gates_g, gates_o, tanh_cells, c_prevs (B, T, H),
   d_pre_all (B, T, 4H)) -> the carry (B, H), C-contiguous.  Oracle
   (backend.ExecutionBackend.lstm_bptt_step):
     d_hidden = d_hidden + grad[:, t]          (when grad is not None)
     d_o      = d_hidden * tc
     d_cell   = d_cell + (d_hidden * o) * (1.0 - tc ** 2)
     d_pre[:, t] = [((d_cell * g) * i) * (1.0 - i)
                   | ((d_cell * c_prev) * f) * (1.0 - f)
                   | (d_cell * i) * (1.0 - g ** 2)
                   | (d_o * o) * (1.0 - o)]
     return d_cell * f                          (x ** 2 is x * x) */
static PyObject *py_lstm_bptt_step(PyObject *self, PyObject *args) {
    Py_ssize_t t;
    PyObject *o[10];
    if (!PyArg_ParseTuple(args, "nOOOOOOOOOO", &t, &o[0], &o[1], &o[2], &o[3], &o[4], &o[5],
                          &o[6], &o[7], &o[8], &o[9]))
        return NULL;
    const int has_grad = o[2] != Py_None;
    if (!rc_is_f64(o[0], 2) || !rc_is_f64(o[9], 3)) Py_RETURN_NOTIMPLEMENTED;
    const npy_intp batch = PyArray_DIM((PyArrayObject *)o[0], 0);
    const npy_intp size = PyArray_DIM((PyArrayObject *)o[0], 1);
    const npy_intp steps = PyArray_DIM((PyArrayObject *)o[9], 1);
    const npy_intp hidden_dims[2] = {batch, size}, cache_dims[3] = {batch, steps, size};
    const npy_intp slab_dims[3] = {batch, steps, 4 * size};
    int eligible = t >= 0 && t < steps && rc_is_shaped(o[0], 2, hidden_dims, 0) &&
                   rc_is_shaped(o[1], 2, hidden_dims, 0) &&
                   (!has_grad || rc_is_shaped(o[2], 3, cache_dims, 0)) &&
                   rc_is_shaped(o[9], 3, slab_dims, 1);
    for (int k = 3; eligible && k < 9; ++k) eligible = rc_is_shaped(o[k], 3, cache_dims, 0);
    if (!eligible) Py_RETURN_NOTIMPLEMENTED;
    PyArrayObject *out = (PyArrayObject *)PyArray_SimpleNew(2, hidden_dims, NPY_DOUBLE);
    if (out == NULL) return NULL;
    const rc_rows dh = rc_step_rows(o[0], t), dc = rc_step_rows(o[1], t);
    const rc_rows g = has_grad ? rc_step_rows(o[2], t) : dh;
    const rc_rows gi = rc_step_rows(o[3], t), gf = rc_step_rows(o[4], t);
    const rc_rows gg = rc_step_rows(o[5], t), go = rc_step_rows(o[6], t);
    const rc_rows tc = rc_step_rows(o[7], t), cp = rc_step_rows(o[8], t);
    const rc_rows dpre = rc_step_rows(o[9], t);
    double *carry = RC_DATA(out);
    for (npy_intp b = 0; b < batch; ++b) {
        for (npy_intp j = 0; j < size; ++j) {
            const double d = has_grad ? RC_ROW(dh, b, j) + RC_ROW(g, b, j) : RC_ROW(dh, b, j);
            const double vi = RC_ROW(gi, b, j), vf = RC_ROW(gf, b, j);
            const double vg = RC_ROW(gg, b, j), vo = RC_ROW(go, b, j);
            const double vt = RC_ROW(tc, b, j);
            const double d_o = d * vt;
            const double d_cell = RC_ROW(dc, b, j) + (d * vo) * (1.0 - vt * vt);
            RC_ROW(dpre, b, j) = ((d_cell * vg) * vi) * (1.0 - vi);
            RC_ROW(dpre, b, size + j) = ((d_cell * RC_ROW(cp, b, j)) * vf) * (1.0 - vf);
            RC_ROW(dpre, b, 2 * size + j) = (d_cell * vi) * (1.0 - vg * vg);
            RC_ROW(dpre, b, 3 * size + j) = (d_o * vo) * (1.0 - vo);
            carry[b * size + j] = d_cell * vf;
        }
    }
    return (PyObject *)out;
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
    {"bias_tanh", py_bias_tanh, METH_VARARGS, "np.tanh(y + bias) of a hidden layer."},
    {"tanh_backward", py_tanh_backward, METH_VARARGS, "grad * (1.0 - activation ** 2)."},
    {"gaussian_log_density", py_gaussian_log_density, METH_VARARGS,
     "Diagonal-Gaussian log-density terms: (per_dim, diff, scaled, variance)."},
    {"gaussian_log_density_backward", py_gaussian_log_density_backward, METH_VARARGS,
     "Their backward: (d_per_dim, d_variance_terms, d_mean)."},
    {"clipped_surrogate", py_clipped_surrogate, METH_VARARGS,
     "PPO clipped surrogate terms: (surrogate, ratio, take_raw, inside)."},
    {"clipped_surrogate_backward", py_clipped_surrogate_backward, METH_VARARGS,
     "Gradient of the clipped surrogate terms w.r.t. the log-probabilities."},
    {"grad_norm", py_grad_norm, METH_VARARGS,
     "Global L2 norm of gradients, numpy's pairwise sums of their squares."},
    {"adam_step", py_adam_step, METH_VARARGS,
     "Adam's flat update in one pass: gather, decrement, scatter."},
    {"im2col_1d", py_im2col_1d, METH_VARARGS,
     "Conv1d column matrix (n, positions, C * kernel), zero padding written in place."},
    {"bias_relu_pool", py_bias_relu_pool, METH_VARARGS,
     "Bias, ReLU and a max-pool of two, (n, L, C) in, (n, C, L // 2) out."},
    {"bias_relu_pool_backward", py_bias_relu_pool_backward, METH_VARARGS,
     "Gradient of bias_relu_pool's h: pool-select times ReLU mask, (n, L, C) out."},
    {"col2im_1d", py_col2im_1d, METH_VARARGS,
     "Backward of im2col_1d: column gradient scattered onto (n, C, length)."},
    {"gru_bptt_step", py_gru_bptt_step, METH_VARARGS,
     "One GRU BPTT step: gate gradients into the step's slab rows, the carry out."},
    {"lstm_bptt_step", py_lstm_bptt_step, METH_VARARGS,
     "One LSTM BPTT step: gate gradients into the step's slab rows, the carry out."},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef rc_gemm_module = {
    PyModuleDef_HEAD_INIT, "_repro_rc_gemm", NULL, -1, rc_gemm_methods};

PyMODINIT_FUNC PyInit__repro_rc_gemm(void) {
    import_array();
    import_umath();
    return PyModule_Create(&rc_gemm_module);
}
