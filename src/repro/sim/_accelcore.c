/* Accelerated event core for the discrete-event engine.
 *
 * A binary min-heap of events keyed by the engine's total order
 * (time, origin, parent, parent2, parent3, seq) -- seq is unique, so the
 * order is total and the heap fires events in exactly the same sequence as
 * the pure-Python calendar queue (the golden-records parity tests pin this).
 * The run loop lives in C as well: it pops entries, maintains the
 * simulator's clock/ancestry registers through direct instance-dict stores,
 * and only enters the interpreter to execute the callbacks themselves.
 *
 * Built on demand by repro.sim.accel_build (no toolchain -> the pure
 * backend is used); see docs/architecture.md, "Engine backends".
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h> /* T_LONGLONG / READONLY on Python <= 3.11 */
#include <string.h>

#define NKEYS 6 /* time, origin, parent, parent2, parent3, seq */

typedef struct {
    long long k[NKEYS];
    PyObject *callback;
    PyObject *args; /* tuple */
} entry_t;

typedef struct {
    PyObject_HEAD
    entry_t *heap;
    Py_ssize_t size;
    Py_ssize_t capacity;
    /* Events fired by the most recent run() call, including a partial count
     * when a callback raised: the Python wrapper reads this in its finally
     * block to keep events_processed exact across exceptions. */
    long long last_processed;
} EventHeapObject;

/* Interned attribute names for the per-event register stores. */
static PyObject *str_now, *str_cur_origin, *str_cur_parent, *str_cur_parent2;
static PyObject *str_dict;

static inline int
entry_lt(const entry_t *a, const entry_t *b)
{
    int i;
    for (i = 0; i < NKEYS; i++) {
        if (a->k[i] != b->k[i])
            return a->k[i] < b->k[i];
    }
    return 0; /* unreachable: seq is unique */
}

static void
sift_up(entry_t *heap, Py_ssize_t pos)
{
    entry_t item = heap[pos];
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!entry_lt(&item, &heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

static void
sift_down(entry_t *heap, Py_ssize_t size, Py_ssize_t pos)
{
    entry_t item = heap[pos];
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= size)
            break;
        if (child + 1 < size && entry_lt(&heap[child + 1], &heap[child]))
            child += 1;
        if (!entry_lt(&heap[child], &item))
            break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = item;
}

/* Remove the root.  The caller owns the references held by *out. */
static void
heap_pop_root(EventHeapObject *self, entry_t *out)
{
    *out = self->heap[0];
    self->size -= 1;
    if (self->size > 0) {
        self->heap[0] = self->heap[self->size];
        sift_down(self->heap, self->size, 0);
    }
}

static int
heap_grow(EventHeapObject *self)
{
    Py_ssize_t cap = self->capacity ? self->capacity * 2 : 256;
    entry_t *mem = PyMem_Realloc(self->heap, (size_t)cap * sizeof(entry_t));
    if (mem == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->heap = mem;
    self->capacity = cap;
    return 0;
}

static PyObject *
EventHeap_insert(EventHeapObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    entry_t e;
    int i;
    if (nargs != NKEYS + 2) {
        PyErr_SetString(PyExc_TypeError,
                        "insert expects (time, origin, parent, parent2, "
                        "parent3, seq, callback, args_tuple)");
        return NULL;
    }
    for (i = 0; i < NKEYS; i++) {
        e.k[i] = PyLong_AsLongLong(args[i]);
        if (e.k[i] == -1 && PyErr_Occurred())
            return NULL;
    }
    if (!PyTuple_Check(args[NKEYS + 1])) {
        PyErr_SetString(PyExc_TypeError, "args must be a tuple");
        return NULL;
    }
    if (self->size >= self->capacity && heap_grow(self) < 0)
        return NULL;
    e.callback = Py_NewRef(args[NKEYS]);
    e.args = Py_NewRef(args[NKEYS + 1]);
    self->heap[self->size] = e;
    self->size += 1;
    sift_up(self->heap, self->size - 1);
    Py_RETURN_NONE;
}

static PyObject *
EventHeap_peek_time(EventHeapObject *self, PyObject *Py_UNUSED(ignored))
{
    if (self->size == 0)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(self->heap[0].k[0]);
}

static PyObject *
entry_as_tuple(const entry_t *e)
{
    PyObject *tup = PyTuple_New(NKEYS + 2);
    int i;
    if (tup == NULL)
        return NULL;
    for (i = 0; i < NKEYS; i++) {
        PyObject *num = PyLong_FromLongLong(e->k[i]);
        if (num == NULL) {
            Py_DECREF(tup);
            return NULL;
        }
        PyTuple_SET_ITEM(tup, i, num);
    }
    PyTuple_SET_ITEM(tup, NKEYS, Py_NewRef(e->callback));
    PyTuple_SET_ITEM(tup, NKEYS + 1, Py_NewRef(e->args));
    return tup;
}

static PyObject *
EventHeap_pop(EventHeapObject *self, PyObject *Py_UNUSED(ignored))
{
    entry_t e;
    PyObject *tup;
    if (self->size == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from an empty EventHeap");
        return NULL;
    }
    heap_pop_root(self, &e);
    tup = entry_as_tuple(&e);
    Py_DECREF(e.callback);
    Py_DECREF(e.args);
    return tup;
}

static PyObject *
EventHeap_compact(EventHeapObject *self, PyObject *cancelled)
{
    Py_ssize_t kept = 0, i;
    if (!PySet_Check(cancelled)) {
        PyErr_SetString(PyExc_TypeError, "compact expects a set of seqs");
        return NULL;
    }
    for (i = 0; i < self->size; i++) {
        entry_t *e = &self->heap[i];
        PyObject *seq = PyLong_FromLongLong(e->k[NKEYS - 1]);
        int dead;
        if (seq == NULL)
            return NULL;
        dead = PySet_Contains(cancelled, seq);
        Py_DECREF(seq);
        if (dead < 0)
            return NULL;
        if (dead) {
            Py_DECREF(e->callback);
            Py_DECREF(e->args);
        }
        else {
            self->heap[kept] = *e;
            kept += 1;
        }
    }
    self->size = kept;
    /* Bottom-up heapify restores the invariant in O(n). */
    for (i = kept / 2 - 1; i >= 0; i--)
        sift_down(self->heap, kept, i);
    Py_RETURN_NONE;
}

/* The engine run loop: fire events until the queue drains, the next event
 * lies beyond stop_after (it stays queued), or max_events have fired. */
static PyObject *
EventHeap_run(EventHeapObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *sim, *cancelled, *dict;
    long long stop_after, cap, processed = 0;
    int use_dict;

    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "run expects (sim, cancelled_set, stop_after, max_events)");
        return NULL;
    }
    sim = args[0];
    cancelled = args[1];
    stop_after = PyLong_AsLongLong(args[2]);
    if (stop_after == -1 && PyErr_Occurred())
        return NULL;
    cap = PyLong_AsLongLong(args[3]);
    if (cap == -1 && PyErr_Occurred())
        return NULL;
    if (!PySet_Check(cancelled)) {
        PyErr_SetString(PyExc_TypeError, "cancelled must be a set");
        return NULL;
    }
    self->last_processed = 0;
    /* The register stores go straight into the instance dict when there is
     * one (every Simulator instance has); otherwise through setattr. */
    dict = PyObject_GetAttr(sim, str_dict);
    use_dict = (dict != NULL && PyDict_Check(dict));
    if (dict == NULL)
        PyErr_Clear();

    while (processed < cap && self->size > 0) {
        entry_t e;
        PyObject *result;
        int rc = 0;

        if (PySet_GET_SIZE(cancelled) > 0) {
            PyObject *seq = PyLong_FromLongLong(self->heap[0].k[NKEYS - 1]);
            int dead;
            if (seq == NULL)
                goto error;
            dead = PySet_Contains(cancelled, seq);
            if (dead < 0) {
                Py_DECREF(seq);
                goto error;
            }
            if (dead) {
                if (PySet_Discard(cancelled, seq) < 0) {
                    Py_DECREF(seq);
                    goto error;
                }
                Py_DECREF(seq);
                heap_pop_root(self, &e);
                Py_DECREF(e.callback);
                Py_DECREF(e.args);
                continue;
            }
            Py_DECREF(seq);
        }
        if (self->heap[0].k[0] > stop_after)
            break;
        heap_pop_root(self, &e);
        {
            int i;
            static PyObject **names[4];
            names[0] = &str_now;
            names[1] = &str_cur_origin;
            names[2] = &str_cur_parent;
            names[3] = &str_cur_parent2;
            for (i = 0; i < 4 && rc == 0; i++) {
                PyObject *val = PyLong_FromLongLong(e.k[i]);
                if (val == NULL) {
                    rc = -1;
                    break;
                }
                if (use_dict)
                    rc = PyDict_SetItem(dict, *names[i], val);
                else
                    rc = PyObject_SetAttr(sim, *names[i], val);
                Py_DECREF(val);
            }
        }
        if (rc < 0) {
            Py_DECREF(e.callback);
            Py_DECREF(e.args);
            goto error;
        }
        result = PyObject_CallObject(e.callback, e.args);
        Py_DECREF(e.callback);
        Py_DECREF(e.args);
        if (result == NULL)
            goto error;
        Py_DECREF(result);
        processed += 1;
    }
    self->last_processed = processed;
    Py_XDECREF(dict);
    return PyLong_FromLongLong(processed);

error:
    self->last_processed = processed;
    Py_XDECREF(dict);
    return NULL;
}

static Py_ssize_t
EventHeap_length(EventHeapObject *self)
{
    return self->size;
}

static int
EventHeap_traverse(EventHeapObject *self, visitproc visit, void *arg)
{
    Py_ssize_t i;
    for (i = 0; i < self->size; i++) {
        Py_VISIT(self->heap[i].callback);
        Py_VISIT(self->heap[i].args);
    }
    return 0;
}

static int
EventHeap_clear(EventHeapObject *self)
{
    Py_ssize_t i, size = self->size;
    self->size = 0;
    for (i = 0; i < size; i++) {
        Py_CLEAR(self->heap[i].callback);
        Py_CLEAR(self->heap[i].args);
    }
    return 0;
}

static void
EventHeap_dealloc(EventHeapObject *self)
{
    PyObject_GC_UnTrack(self);
    EventHeap_clear(self);
    PyMem_Free(self->heap);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
EventHeap_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    EventHeapObject *self = (EventHeapObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->heap = NULL;
    self->size = 0;
    self->capacity = 0;
    self->last_processed = 0;
    return (PyObject *)self;
}

static PyMethodDef EventHeap_methods[] = {
    {"insert", (PyCFunction)(void (*)(void))EventHeap_insert, METH_FASTCALL,
     "insert(time, origin, parent, parent2, parent3, seq, callback, args)"},
    {"peek_time", (PyCFunction)EventHeap_peek_time, METH_NOARGS,
     "Earliest pending entry's firing time, or None when empty."},
    {"pop", (PyCFunction)EventHeap_pop, METH_NOARGS,
     "Pop and return the earliest entry as a plain tuple."},
    {"compact", (PyCFunction)EventHeap_compact, METH_O,
     "Drop every entry whose seq is in the given set."},
    {"run", (PyCFunction)(void (*)(void))EventHeap_run, METH_FASTCALL,
     "run(sim, cancelled_set, stop_after, max_events) -> events fired"},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef EventHeap_members[] = {
    {"last_processed", T_LONGLONG, offsetof(EventHeapObject, last_processed),
     READONLY, "Events fired by the most recent run() call."},
    {NULL},
};

static PySequenceMethods EventHeap_as_sequence = {
    .sq_length = (lenfunc)EventHeap_length,
};

static PyTypeObject EventHeapType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_accelcore.EventHeap",
    .tp_basicsize = sizeof(EventHeapObject),
    .tp_dealloc = (destructor)EventHeap_dealloc,
    .tp_as_sequence = &EventHeap_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Binary min-heap over the engine's total event order.",
    .tp_traverse = (traverseproc)EventHeap_traverse,
    .tp_clear = (inquiry)EventHeap_clear,
    .tp_methods = EventHeap_methods,
    .tp_members = EventHeap_members,
    .tp_new = EventHeap_new,
};

static struct PyModuleDef accelcore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_accelcore",
    .m_doc = "C event heap and run loop for the accel engine backend.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__accelcore(void)
{
    PyObject *module;
    str_now = PyUnicode_InternFromString("now");
    str_cur_origin = PyUnicode_InternFromString("_cur_origin");
    str_cur_parent = PyUnicode_InternFromString("_cur_parent");
    str_cur_parent2 = PyUnicode_InternFromString("_cur_parent2");
    str_dict = PyUnicode_InternFromString("__dict__");
    if (!str_now || !str_cur_origin || !str_cur_parent || !str_cur_parent2 ||
        !str_dict)
        return NULL;
    if (PyType_Ready(&EventHeapType) < 0)
        return NULL;
    module = PyModule_Create(&accelcore_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddObjectRef(module, "EventHeap",
                              (PyObject *)&EventHeapType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
