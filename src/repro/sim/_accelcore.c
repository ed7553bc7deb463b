/* Accelerated event core for the discrete-event engine.
 *
 * A binary min-heap of events keyed by the engine's total order
 * (time, origin, seq) -- seq is unique, so the order is total.  It is the
 * algorithm of the pure-Python engine's heapq heap, entry for entry and
 * loop for loop, so both fire events in exactly the same sequence (the
 * golden-records parity tests pin this).  EventHeap is the C base of
 * AccelSimulator and the one home of the engine's bookkeeping: the clock,
 * the sequence counter and the set of cancelled seqs are C fields (Python
 * reads and writes them as now, _seq and _cancelled), and the scheduling
 * calls (post, schedule, schedule_at and schedule_boundary's _insert),
 * cancellation and the run loop (_run, which Simulator.run calls) are C
 * methods.  An event the plane posts carries its (at most two) arguments
 * inline in the heap entry, with no tuple; one a Python scheduling call
 * files keeps its argument tuple.  The run loop enters a port's kick, a
 * switch's receive and a NIC's receive directly when an inline event's
 * callback is that bound C method, and the interpreter only for any other
 * callback.
 *
 * The rest of the file is the compiled forwarding plane (egress port, FIFO
 * queue, shared buffer, the switch's data hop with its ECN draw and ECMP
 * pick, the host NIC with its CNPs, DCQCN's sender rate machine and the BFC
 * switch's discipline, scheduler, flow table and queue pool): it posts its
 * deliveries and wake-ups straight into the heap and reads the clock from
 * the same fields.  The per-packet state it keeps is C state: a port's
 * control queue (a packet ring) and its last two tx times, the buffer's
 * bytes per ingress and the hop's PFC flags (arrays by ingress index; the
 * switch's _pfc_sent dict mirrors the flags), the counters the hop and the
 * NIC bump (C fields of the node's Counters, folded into its values dict
 * before any read), and the host settings the NIC reads (bound when the
 * host assigns them, not looked up per packet).  Type checks of the
 * plane's own C types walk the tp_base chain (type_is), with no call.
 *
 * Every table and queue in the file is one of two containers, defined once
 * ahead of the engine: an int64 -> int64 hash map (imap_t: the cancelled
 * seqs, the DRR's queue-id index, the ECMP memo and the BFC flow table)
 * and a ring of packets with their sizes (pring: the FIFO's queue and the
 * BFC scheduler's queues).
 *
 * Built on demand by repro.sim.accel_build (no toolchain -> the pure
 * backend is used); see docs/architecture.md, "Engine backends".
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h> /* T_LONGLONG / READONLY on Python <= 3.11 */
#include <limits.h>
#include <math.h>

#if PY_VERSION_HEX < 0x030A0000
/* Py_NewRef and PyModule_AddObjectRef are new in Python 3.10. */
static inline PyObject *
compat_NewRef(PyObject *obj)
{
    Py_INCREF(obj);
    return obj;
}
#define Py_NewRef(obj) compat_NewRef((PyObject *)(obj))

static int
compat_AddObjectRef(PyObject *module, const char *name, PyObject *value)
{
    Py_INCREF(value);
    if (PyModule_AddObject(module, name, value) < 0) {
        Py_DECREF(value);
        return -1;
    }
    return 0;
}
#define PyModule_AddObjectRef compat_AddObjectRef
#endif

static PyObject *empty_tuple, *int_zero, *int_minus_one;

/* -- Slots of Python classes through cached member offsets ------------ */

/* A __slots__ class whose attributes the core reads and writes in C: the
 * member offsets are looked up once (bind()), and an object of exactly that
 * class is read and written at them; anything else goes through getattr. */
typedef struct {
    int n;
    const char *const *names;
    PyObject **strs;
    Py_ssize_t *offsets;
    PyTypeObject *type; /* NULL until bound */
} slot_class;

static int slot_class_bind(slot_class *cls, PyObject *type);

/* ===================================================================== *
 * Containers: one int64-keyed hash map and one packet ring
 * ===================================================================== */

/* -- An int64 -> int64 hash map ----------------------------------------- */

/* Open addressing with a Fibonacci hash and linear probing; deletion
 * shifts the rest of the probe run back, so the table never holds
 * tombstones.  It grows at half full and shrinks at one eighth, so its
 * memory follows the live keys.  Every key but IMAP_EMPTY may be stored. */
#define IMAP_EMPTY LLONG_MIN

typedef struct {
    long long key;
    long long value;
} imap_slot;

typedef struct {
    imap_slot *slots; /* NULL until the first put */
    Py_ssize_t mask;
    Py_ssize_t used;
} imap_t;

static inline Py_ssize_t
imap_home(long long key, Py_ssize_t mask)
{
    return (Py_ssize_t)(((unsigned long long)key * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
}

/* The slot holding key, or the empty slot where it would go. */
static inline Py_ssize_t
imap_find(const imap_t *m, long long key)
{
    Py_ssize_t i = imap_home(key, m->mask);
    while (m->slots[i].key != key && m->slots[i].key != IMAP_EMPTY)
        i = (i + 1) & m->mask;
    return i;
}

/* 1 with the value in *value, or 0 when key is absent. */
static inline int
imap_get(const imap_t *m, long long key, long long *value)
{
    Py_ssize_t i;
    if (m->used == 0 || key == IMAP_EMPTY)
        return 0;
    i = imap_find(m, key);
    if (m->slots[i].key != key)
        return 0;
    *value = m->slots[i].value;
    return 1;
}

static int
imap_resize(imap_t *m, Py_ssize_t capacity)
{
    imap_slot *old = m->slots, *slots;
    Py_ssize_t i, old_cap = old == NULL ? 0 : m->mask + 1;
    slots = PyMem_Malloc((size_t)capacity * sizeof(imap_slot));
    if (slots == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < capacity; i++)
        slots[i].key = IMAP_EMPTY;
    m->slots = slots;
    m->mask = capacity - 1;
    for (i = 0; i < old_cap; i++) {
        if (old[i].key != IMAP_EMPTY)
            slots[imap_find(m, old[i].key)] = old[i];
    }
    PyMem_Free(old);
    return 0;
}

/* Set key's value; replacing the value of a present key never fails. */
static int
imap_put(imap_t *m, long long key, long long value)
{
    Py_ssize_t i;
    if (key == IMAP_EMPTY) {
        PyErr_SetString(PyExc_OverflowError, "key out of range");
        return -1;
    }
    i = m->slots == NULL ? -1 : imap_find(m, key);
    if (i < 0 || m->slots[i].key != key) {
        if (i < 0 || 2 * (m->used + 1) > m->mask + 1) {
            if (imap_resize(m, i < 0 ? 16 : 2 * (m->mask + 1)) < 0)
                return -1;
            i = imap_find(m, key);
        }
        m->slots[i].key = key;
        m->used += 1;
    }
    m->slots[i].value = value;
    return 0;
}

/* Remove key: 1 if it was there, else 0. */
static int
imap_del(imap_t *m, long long key)
{
    Py_ssize_t i, j, mask;
    if (m->used == 0 || key == IMAP_EMPTY)
        return 0;
    i = imap_find(m, key);
    if (m->slots[i].key != key)
        return 0;
    mask = m->mask;
    j = i;
    for (;;) {
        Py_ssize_t home;
        j = (j + 1) & mask;
        if (m->slots[j].key == IMAP_EMPTY)
            break;
        home = imap_home(m->slots[j].key, mask);
        /* Keep slots[j] where it is when its home lies cyclically in (i, j]. */
        if (i <= j ? (i < home && home <= j) : (i < home || home <= j))
            continue;
        m->slots[i] = m->slots[j];
        i = j;
    }
    m->slots[i].key = IMAP_EMPTY;
    m->used -= 1;
    if (m->mask + 1 > 16 && 8 * m->used < m->mask + 1 && imap_resize(m, (m->mask + 1) / 2) < 0)
        PyErr_Clear(); /* out of memory: keep the larger table */
    return 1;
}

/* The next live slot at or after *pos (advanced past it), or NULL:
 * `Py_ssize_t pos = 0; while ((slot = imap_next(m, &pos)) != NULL) ...`. */
static inline imap_slot *
imap_next(const imap_t *m, Py_ssize_t *pos)
{
    while (m->slots != NULL && *pos <= m->mask) {
        imap_slot *slot = &m->slots[(*pos)++];
        if (slot->key != IMAP_EMPTY)
            return slot;
    }
    return NULL;
}

static void
imap_free(imap_t *m)
{
    PyMem_Free(m->slots);
    m->slots = NULL;
    m->mask = -1;
    m->used = 0;
}

/* -- A packet ring -------------------------------------------------------- */

/* A first-in first-out queue of packets (each a reference) with the size
 * each had when pushed, and their byte total.  Its capacity is a power of
 * two, allocated with the first packet and doubled when full. */
typedef struct {
    PyObject *packet;
    long long size;
} qitem;

typedef struct {
    qitem *items;
    Py_ssize_t head;
    Py_ssize_t count;
    Py_ssize_t cap;
    long long bytes;
} pring;

/* The k-th packet from the head. */
static inline qitem *
ring_at(const pring *q, Py_ssize_t k)
{
    return &q->items[(q->head + k) & (q->cap - 1)];
}

static int
ring_push(pring *q, PyObject *packet, long long size)
{
    qitem *item;
    if (q->count == q->cap) {
        Py_ssize_t cap = q->cap ? 2 * q->cap : 8, k;
        qitem *items = PyMem_Malloc((size_t)cap * sizeof(qitem));
        if (items == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (k = 0; k < q->count; k++)
            items[k] = *ring_at(q, k);
        PyMem_Free(q->items);
        q->items = items;
        q->head = 0;
        q->cap = cap;
    }
    item = ring_at(q, q->count);
    item->packet = Py_NewRef(packet);
    item->size = size;
    q->count += 1;
    q->bytes += size;
    return 0;
}

/* The head packet of a non-empty ring (its reference moves to the caller). */
static PyObject *
ring_pop(pring *q, long long *size)
{
    qitem item = q->items[q->head];
    q->head = (q->head + 1) & (q->cap - 1);
    q->count -= 1;
    q->bytes -= item.size;
    *size = item.size;
    return item.packet;
}

static int
ring_traverse(const pring *q, visitproc visit, void *arg)
{
    Py_ssize_t k;
    for (k = 0; k < q->count; k++)
        Py_VISIT(ring_at(q, k)->packet);
    return 0;
}

/* Drop every packet; the storage is kept for reuse. */
static void
ring_clear(pring *q)
{
    Py_ssize_t k, count = q->count;
    q->count = 0;
    q->bytes = 0;
    for (k = 0; k < count; k++)
        Py_CLEAR(ring_at(q, k)->packet);
}

/* ===================================================================== *
 * The event engine
 * ===================================================================== */

#define NKEYS 3 /* time, origin, seq */

/* An event: its keys, its callback and the callback's arguments.  An event
 * posted from C carries up to two arguments inline (a NULL ends them); one a
 * Python scheduling call files keeps the argument tuple it was given, in a0,
 * with a1 set to ARGS_TUPLE. */
typedef struct {
    long long k[NKEYS];
    PyObject *callback;
    PyObject *a0;
    PyObject *a1;
} entry_t;

#define ARGS_TUPLE ((PyObject *)&EventHeapType)

typedef struct {
    PyObject_HEAD
    entry_t *heap;
    Py_ssize_t size;
    Py_ssize_t capacity;
    /* Events fired by the most recent _run() call, including a partial
     * count when a callback raised: Simulator.run reads this in its
     * finally block to keep events_processed exact across exceptions. */
    long long last_processed;
    /* The registers: the clock and the next seq. */
    long long now;
    long long seq;
    /* The clock as a Python int, made when first asked for at now_obj_at. */
    PyObject *now_obj;
    long long now_obj_at;
    /* Seqs of cancelled events not reaped yet (popped or compacted). */
    imap_t cancelled; /* a set: the values are unused */
} EventHeapObject;

static PyTypeObject EventHeapType;

/* Set by bind_engine(): the handle schedule() returns, the error a bad
 * scheduling call raises, and the cancelled-set size that may compact. */
enum { E_TIME, E_SEQ, E_CANCELLED, E_SIM, E_NSLOTS };
static const char *const event_slot_names[E_NSLOTS] = {"time", "seq", "cancelled", "_sim"};
static PyObject *event_slot_strs[E_NSLOTS];
static Py_ssize_t event_slot_offsets[E_NSLOTS];
static slot_class event_class = {E_NSLOTS, event_slot_names, event_slot_strs,
                                 event_slot_offsets, NULL};
static PyObject *simulation_error;
static Py_ssize_t compact_min_cancelled = 64;

/* Drop the references an entry holds. */
static void
entry_release(entry_t *e)
{
    Py_DECREF(e->callback);
    Py_XDECREF(e->a0);
    if (e->a1 != ARGS_TUPLE)
        Py_XDECREF(e->a1);
}

/* Run an inline entry's callback; defined with the plane, whose bound
 * methods it enters directly. */
static int entry_fire(entry_t *e);

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

/* File e; its references are stolen, also on failure. */
static int
heap_push(EventHeapObject *self, entry_t *e)
{
    if (self->size >= self->capacity) {
        Py_ssize_t cap = self->capacity ? self->capacity * 2 : 256;
        entry_t *mem = PyMem_Realloc(self->heap, (size_t)cap * sizeof(entry_t));
        if (mem == NULL) {
            entry_release(e);
            PyErr_NoMemory();
            return -1;
        }
        self->heap = mem;
        self->capacity = cap;
    }
    self->heap[self->size] = *e;
    self->size += 1;
    sift_up(self->heap, self->size - 1);
    return 0;
}

/* File an event at time: the entry takes the clock as its origin and the
 * next seq.  The argument references are stolen (also on failure), the
 * callback is borrowed.  A refused entry consumes no seq. */
static int
heap_file(EventHeapObject *self, long long time, PyObject *callback, PyObject *a0,
          PyObject *a1)
{
    entry_t e;
    e.k[0] = time;
    e.k[1] = self->now;
    e.k[2] = self->seq;
    e.callback = Py_NewRef(callback);
    e.a0 = a0;
    e.a1 = a1;
    if (heap_push(self, &e) < 0)
        return -1;
    self->seq += 1;
    return 0;
}

/* sim.schedule_at(time, callback, *args) with args already a tuple (stolen). */
static int
heap_post_at(EventHeapObject *self, long long time, PyObject *callback, PyObject *args)
{
    return heap_file(self, time, callback, args, ARGS_TUPLE);
}

static int
delay_fits(EventHeapObject *self, long long delay)
{
    if (delay > LLONG_MAX - self->now) {
        PyErr_SetString(PyExc_OverflowError, "event time out of range");
        return 0;
    }
    return 1;
}

/* sim.post(delay, callback, *args) for a delay already known to be >= 0. */
static int
heap_post(EventHeapObject *self, long long delay, PyObject *callback, PyObject *args)
{
    if (!delay_fits(self, delay)) {
        Py_DECREF(args);
        return -1;
    }
    return heap_post_at(self, self->now + delay, callback, args);
}

/* The same post from C: callback(a0, a1) with the arguments inline (a1, or
 * both, NULL for fewer); nothing is stolen. */
static int
heap_call_at(EventHeapObject *self, long long time, PyObject *callback, PyObject *a0,
             PyObject *a1)
{
    Py_XINCREF(a0);
    Py_XINCREF(a1);
    return heap_file(self, time, callback, a0, a1);
}

static int
heap_call(EventHeapObject *self, long long delay, PyObject *callback, PyObject *a0,
          PyObject *a1)
{
    if (!delay_fits(self, delay))
        return -1;
    return heap_call_at(self, self->now + delay, callback, a0, a1);
}

/* sim.now as a Python int (a new reference), made at most once per clock
 * value however often it is asked for. */
static PyObject *
heap_now_obj(EventHeapObject *self)
{
    if (self->now_obj == NULL || self->now_obj_at != self->now) {
        PyObject *now = PyLong_FromLongLong(self->now);
        if (now == NULL)
            return NULL;
        Py_XSETREF(self->now_obj, now);
        self->now_obj_at = self->now;
    }
    return Py_NewRef(self->now_obj);
}

/* int(obj) as a long long; past the range raises OverflowError. */
static int
as_time_ll(PyObject *obj, long long *out)
{
    PyObject *num = PyLong_CheckExact(obj) ? Py_NewRef(obj) : PyNumber_Long(obj);
    if (num == NULL)
        return -1;
    *out = PyLong_AsLongLong(num);
    Py_DECREF(num);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* Compare an exact int with bound: -1, 0 or 1 in *sign, and its value in
 * *out when it fits a long long (*sign is then that of value - bound). */
static int
exact_int_vs(PyObject *obj, long long bound, long long *out, int *sign)
{
    int overflow;
    *out = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    *sign = overflow ? overflow : (*out > bound) - (*out < bound);
    if (overflow > 0) {
        PyErr_SetString(PyExc_OverflowError, "event time out of range");
        return -1;
    }
    return 0;
}

/* The delay of post/schedule: negative refused, then truncated by int(). */
static int
as_delay(PyObject *obj, long long *out)
{
    int sign;
    if (PyLong_CheckExact(obj)) {
        if (exact_int_vs(obj, 0, out, &sign) < 0)
            return -1;
    }
    else {
        int negative = PyObject_RichCompareBool(obj, int_zero, Py_LT);
        if (negative < 0)
            return -1;
        sign = negative ? -1 : 0;
    }
    if (sign < 0) {
        PyErr_Format(simulation_error, "cannot schedule into the past (delay=%S)", obj);
        return -1;
    }
    return PyLong_CheckExact(obj) ? 0 : as_time_ll(obj, out);
}

/* The firing time of schedule_at: before the clock refused, then int(). */
static int
as_firing_time(EventHeapObject *self, PyObject *obj, long long *out)
{
    int sign;
    if (PyLong_CheckExact(obj)) {
        if (exact_int_vs(obj, self->now, out, &sign) < 0)
            return -1;
    }
    else {
        PyObject *now = heap_now_obj(self);
        int past;
        if (now == NULL)
            return -1;
        past = PyObject_RichCompareBool(obj, now, Py_LT);
        Py_DECREF(now);
        if (past < 0)
            return -1;
        sign = past ? -1 : 0;
    }
    if (sign < 0) {
        PyErr_Format(simulation_error, "cannot schedule at %S ns, current time is %lld ns",
                     obj, self->now);
        return -1;
    }
    return PyLong_CheckExact(obj) ? 0 : as_time_ll(obj, out);
}

/* (callback, *args) of a scheduling call: a new tuple of the args. */
static PyObject *
scheduled_args(PyObject *const *args, Py_ssize_t nargs, const char *what)
{
    PyObject *tail;
    Py_ssize_t i;
    if (nargs < 2) {
        PyErr_Format(PyExc_TypeError, "%s expects a time, a callback and its arguments",
                     what);
        return NULL;
    }
    if (simulation_error == NULL || event_class.type == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "_accelcore.bind_engine() has not run");
        return NULL;
    }
    if (nargs == 2)
        return Py_NewRef(empty_tuple);
    tail = PyTuple_New(nargs - 2);
    if (tail == NULL)
        return NULL;
    for (i = 2; i < nargs; i++)
        PyTuple_SET_ITEM(tail, i - 2, Py_NewRef(args[i]));
    return tail;
}

/* Event(time, seq, sim), built without running Event.__init__. */
static PyObject *
event_new(EventHeapObject *self, long long time, long long seq)
{
    PyTypeObject *type = event_class.type;
    PyObject *values[E_NSLOTS], *event;
    int i;
    values[E_TIME] = PyLong_FromLongLong(time);
    values[E_SEQ] = PyLong_FromLongLong(seq);
    event = values[E_TIME] && values[E_SEQ] ? type->tp_alloc(type, 0) : NULL;
    if (event == NULL) {
        Py_XDECREF(values[E_TIME]);
        Py_XDECREF(values[E_SEQ]);
        return NULL;
    }
    values[E_CANCELLED] = Py_NewRef(Py_False);
    values[E_SIM] = Py_NewRef(self);
    for (i = 0; i < E_NSLOTS; i++)
        *(PyObject **)((char *)event + event_slot_offsets[i]) = values[i];
    return event;
}

static PyObject *
EventHeap_post(EventHeapObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long delay;
    PyObject *tail = scheduled_args(args, nargs, "post");
    if (tail == NULL)
        return NULL;
    if (as_delay(args[0], &delay) < 0) {
        Py_DECREF(tail);
        return NULL;
    }
    if (heap_post(self, delay, args[1], tail) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
EventHeap_schedule(EventHeapObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long delay;
    PyObject *tail = scheduled_args(args, nargs, "schedule");
    if (tail == NULL)
        return NULL;
    if (as_delay(args[0], &delay) < 0) {
        Py_DECREF(tail);
        return NULL;
    }
    if (heap_post(self, delay, args[1], tail) < 0)
        return NULL;
    return event_new(self, self->now + delay, self->seq - 1);
}

static PyObject *
EventHeap_schedule_at(EventHeapObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long time;
    PyObject *tail = scheduled_args(args, nargs, "schedule_at");
    if (tail == NULL)
        return NULL;
    if (as_firing_time(self, args[0], &time) < 0) {
        Py_DECREF(tail);
        return NULL;
    }
    if (heap_post_at(self, time, args[1], tail) < 0)
        return NULL;
    return event_new(self, time, self->seq - 1);
}

/* _insert(entry): file one whole (time, origin, seq, callback, args) entry,
 * as schedule_boundary builds it. */
static PyObject *
EventHeap_insert(EventHeapObject *self, PyObject *entry)
{
    entry_t e;
    int i;
    if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != NKEYS + 2 ||
        !PyTuple_Check(PyTuple_GET_ITEM(entry, NKEYS + 1))) {
        PyErr_SetString(PyExc_TypeError,
                        "_insert expects (time, origin, seq, callback, "
                        "args_tuple)");
        return NULL;
    }
    for (i = 0; i < NKEYS; i++) {
        e.k[i] = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, i));
        if (e.k[i] == -1 && PyErr_Occurred())
            return NULL;
    }
    e.callback = Py_NewRef(PyTuple_GET_ITEM(entry, NKEYS));
    e.a0 = Py_NewRef(PyTuple_GET_ITEM(entry, NKEYS + 1));
    e.a1 = ARGS_TUPLE;
    if (heap_push(self, &e) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
EventHeap_pending_events(EventHeapObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromSsize_t(self->size);
}

static PyObject *
EventHeap_next_event_time(EventHeapObject *self, PyObject *Py_UNUSED(ignored))
{
    if (self->size == 0)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(self->heap[0].k[0]);
}

/* Drop every entry whose seq is cancelled, and forget every cancelled seq
 * (also those whose event already fired), like the pure engine's _compact. */
static int
heap_compact(EventHeapObject *self)
{
    Py_ssize_t kept = 0, ndead = 0, i;
    long long unused;
    entry_t *dead = PyMem_Malloc((size_t)(self->size ? self->size : 1) * sizeof(entry_t));
    if (dead == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < self->size; i++) {
        entry_t *e = &self->heap[i];
        if (imap_get(&self->cancelled, e->k[NKEYS - 1], &unused))
            dead[ndead++] = *e;
        else
            self->heap[kept++] = *e;
    }
    self->size = kept;
    /* Bottom-up heapify restores the invariant in O(n). */
    for (i = kept / 2 - 1; i >= 0; i--)
        sift_down(self->heap, kept, i);
    imap_free(&self->cancelled);
    /* Released last: a finalizer may schedule into the heap. */
    for (i = 0; i < ndead; i++)
        entry_release(&dead[i]);
    PyMem_Free(dead);
    return 0;
}

/* Event.cancel: the seq joins the cancelled set, and once cancelled seqs
 * dominate the heap it is compacted. */
static PyObject *
EventHeap_cancel(EventHeapObject *self, PyObject *seq_obj)
{
    long long seq = PyLong_AsLongLong(seq_obj);
    if (seq == -1 && PyErr_Occurred())
        return NULL;
    if (imap_put(&self->cancelled, seq, 0) < 0)
        return NULL;
    if (self->cancelled.used >= compact_min_cancelled &&
        self->cancelled.used * 2 > self->size && heap_compact(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* The engine run loop: fire events until the queue drains, the next event
 * lies beyond stop_after (it stays queued), or max_events have fired.  The
 * clock is set from the entry before each callback. */
static PyObject *
EventHeap_run(EventHeapObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long stop_after, cap, processed = 0;

    self->last_processed = 0;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "_run expects (stop_after, max_events)");
        return NULL;
    }
    stop_after = PyLong_AsLongLong(args[0]);
    if (stop_after == -1 && PyErr_Occurred())
        return NULL;
    cap = PyLong_AsLongLong(args[1]);
    if (cap == -1 && PyErr_Occurred())
        return NULL;

    while (processed < cap && self->size > 0) {
        entry_t e;
        int rc;

        if (self->cancelled.used > 0 &&
            imap_del(&self->cancelled, self->heap[0].k[NKEYS - 1])) {
            heap_pop_root(self, &e);
            entry_release(&e);
            continue;
        }
        if (self->heap[0].k[0] > stop_after)
            break;
        heap_pop_root(self, &e);
        self->now = e.k[0];
        if (e.a1 == ARGS_TUPLE) {
            PyObject *result = PyObject_Call(e.callback, e.a0, NULL);
            rc = result == NULL ? -1 : 0;
            Py_XDECREF(result);
        }
        else {
            rc = entry_fire(&e);
        }
        entry_release(&e);
        if (rc < 0) {
            self->last_processed = processed;
            return NULL;
        }
        processed += 1;
    }
    self->last_processed = processed;
    return PyLong_FromLongLong(processed);
}

static PyObject *
EventHeap_get_now(EventHeapObject *self, void *closure)
{
    return heap_now_obj(self);
}

static int
EventHeap_set_now(EventHeapObject *self, PyObject *value, void *closure)
{
    long long now;
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete now");
        return -1;
    }
    now = PyLong_AsLongLong(value);
    if (now == -1 && PyErr_Occurred())
        return -1;
    self->now = now;
    return 0;
}

/* A snapshot of the cancelled seqs; assigning an iterable replaces them. */
static PyObject *
EventHeap_get_cancelled(EventHeapObject *self, void *closure)
{
    PyObject *seqs = PyFrozenSet_New(NULL);
    Py_ssize_t pos = 0;
    imap_slot *slot;
    while (seqs != NULL && (slot = imap_next(&self->cancelled, &pos)) != NULL) {
        PyObject *num = PyLong_FromLongLong(slot->key);
        if (num == NULL || PySet_Add(seqs, num) < 0)
            Py_CLEAR(seqs);
        Py_XDECREF(num);
    }
    return seqs;
}

static int
EventHeap_set_cancelled(EventHeapObject *self, PyObject *value, void *closure)
{
    PyObject *iter, *item;
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete _cancelled");
        return -1;
    }
    iter = PyObject_GetIter(value);
    if (iter == NULL)
        return -1;
    imap_free(&self->cancelled);
    while ((item = PyIter_Next(iter)) != NULL) {
        long long seq = PyLong_AsLongLong(item);
        Py_DECREF(item);
        if ((seq == -1 && PyErr_Occurred()) || imap_put(&self->cancelled, seq, 0) < 0) {
            Py_DECREF(iter);
            return -1;
        }
    }
    Py_DECREF(iter);
    return PyErr_Occurred() ? -1 : 0;
}

static int
EventHeap_traverse(EventHeapObject *self, visitproc visit, void *arg)
{
    Py_ssize_t i;
    for (i = 0; i < self->size; i++) {
        Py_VISIT(self->heap[i].callback);
        Py_VISIT(self->heap[i].a0);
        if (self->heap[i].a1 != ARGS_TUPLE)
            Py_VISIT(self->heap[i].a1);
    }
    return 0;
}

static int
EventHeap_clear(EventHeapObject *self)
{
    Py_ssize_t i, size = self->size;
    self->size = 0;
    for (i = 0; i < size; i++) {
        entry_t e = self->heap[i];
        self->heap[i].callback = self->heap[i].a0 = self->heap[i].a1 = NULL;
        entry_release(&e);
    }
    return 0;
}

static void
EventHeap_dealloc(EventHeapObject *self)
{
    PyObject_GC_UnTrack(self);
    EventHeap_clear(self);
    PyMem_Free(self->heap);
    imap_free(&self->cancelled);
    Py_CLEAR(self->now_obj);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef EventHeap_methods[] = {
    {"post", (PyCFunction)(void (*)(void))EventHeap_post, METH_FASTCALL,
     "post(delay_ns, callback, *args): schedule without a cancellation handle."},
    {"schedule", (PyCFunction)(void (*)(void))EventHeap_schedule, METH_FASTCALL,
     "schedule(delay_ns, callback, *args) -> Event"},
    {"schedule_at", (PyCFunction)(void (*)(void))EventHeap_schedule_at, METH_FASTCALL,
     "schedule_at(time_ns, callback, *args) -> Event"},
    {"_insert", (PyCFunction)EventHeap_insert, METH_O,
     "_insert((time, origin, seq, callback, args))"},
    {"pending_events", (PyCFunction)EventHeap_pending_events, METH_NOARGS,
     "Queued entries, cancelled ones not reaped yet included."},
    {"next_event_time", (PyCFunction)EventHeap_next_event_time, METH_NOARGS,
     "Earliest pending entry's firing time, or None when empty."},
    {"_cancel", (PyCFunction)EventHeap_cancel, METH_O,
     "Cancel the entry of one seq (Event.cancel)."},
    {"_run", (PyCFunction)(void (*)(void))EventHeap_run, METH_FASTCALL,
     "_run(stop_after, max_events) -> events fired"},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef EventHeap_members[] = {
    {"last_processed", T_LONGLONG, offsetof(EventHeapObject, last_processed),
     READONLY, "Events fired by the most recent _run() call."},
    {"_seq", T_LONGLONG, offsetof(EventHeapObject, seq), 0,
     "The sequence number of the next entry."},
    {NULL},
};

static PyGetSetDef EventHeap_getset[] = {
    {"now", (getter)EventHeap_get_now, (setter)EventHeap_set_now,
     "Current simulated time in nanoseconds.", NULL},
    {"_cancelled", (getter)EventHeap_get_cancelled, (setter)EventHeap_set_cancelled,
     "The cancelled seqs not reaped yet (a snapshot).", NULL},
    {NULL},
};

static PyTypeObject EventHeapType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_accelcore.EventHeap",
    .tp_basicsize = sizeof(EventHeapObject),
    .tp_dealloc = (destructor)EventHeap_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "The compiled engine: a binary min-heap over the total event "
              "order, its registers, scheduling calls and run loop.",
    .tp_traverse = (traverseproc)EventHeap_traverse,
    .tp_clear = (inquiry)EventHeap_clear,
    .tp_methods = EventHeap_methods,
    .tp_members = EventHeap_members,
    .tp_getset = EventHeap_getset,
    .tp_new = PyType_GenericNew,
};

static PyObject *
bind_engine(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t threshold;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "bind_engine expects (Event, SimulationError, "
                        "compact_min_cancelled)");
        return NULL;
    }
    threshold = PyLong_AsSsize_t(args[2]);
    if (threshold == -1 && PyErr_Occurred())
        return NULL;
    if (slot_class_bind(&event_class, args[0]) < 0)
        return NULL;
    Py_XSETREF(simulation_error, Py_NewRef(args[1]));
    compact_min_cancelled = threshold;
    Py_RETURN_NONE;
}

/* ===================================================================== *
 * The compiled forwarding plane.
 *
 * C twins of repro.sim.port.EgressPort (kick / send_control / notify),
 * repro.sim.disciplines.FifoDiscipline, repro.sim.buffer.SharedBuffer and
 * the data hop of repro.sim.switch.Switch (ECMP memo and pick, admission,
 * ECN marking with its draw, PFC pause/resume checks, the dequeue hook).
 * Every statement mirrors the Python reference in order, so both planes
 * post the same events with the same keys and sequence numbers; whatever
 * is not here (non-FIFO disciplines, PFC/Bloom frame construction, INT
 * stamps, a pick or a draw the switch replaces) is called back in Python.
 *
 * Posts go straight into the simulator's EventHeap (heap_post, the layout
 * of AccelSimulator.post), and the clock is read from its fields.
 * ===================================================================== */

static PyObject *str_dict, *str_popleft, *str_dequeue,
    *str_enqueue, *str_has_backlog, *str_backlog_bytes, *str_set_paused,
    *str_paused, *str_kick, *str_ecmp_pick, *str_maybe_mark_ecn,
    *str_send_pfc, *str_stamp_int, *str_handle_pfc, *str_handle_bloom,
    *str_data_bytes, *str_data_packets,
    *str_control_bytes, *str_control_packets, *str_post, *str_name,
    *str_tx_memo, *str_random;

enum {
    P_KIND,
    P_IS_CONTROL,
    P_KEY,
    P_SIZE,
    P_ECN_CAPABLE,
    P_INT_ENABLED,
    P_HOPS,
    P_CUR_INGRESS,
    P_FLOW_ID,
    P_SEQ,
    P_ACK_SEQ,
    P_FLOW_SIZE,
    P_CREATED_NS,
    P_ECN_MARKED,
    P_ECN_ECHO,
    P_INT_STACK,
    P_FIRST_OF_FLOW,
    P_LAST_OF_FLOW,
    P_PAUSE,
    P_PAUSE_CLASS,
    P_BLOOM_BITS,
    P_ENTRY,
    P_VFID,
    P_VFID_SPACE,
    P_NSLOTS
};
static const char *const packet_slot_names[P_NSLOTS] = {
    "kind", "is_control", "key", "size",
    "ecn_capable", "int_enabled", "hops", "cur_ingress",
    "flow_id", "seq", "ack_seq", "flow_size", "created_ns",
    "ecn_marked", "ecn_echo", "int_stack", "first_of_flow", "last_of_flow",
    "pause", "pause_class", "bloom_bits", "entry", "vfid", "vfid_space",
};
static PyObject *packet_slot_strs[P_NSLOTS];
static Py_ssize_t packet_slot_offsets[P_NSLOTS];
static slot_class packet_class = {P_NSLOTS, packet_slot_names, packet_slot_strs,
                                  packet_slot_offsets, NULL};
#define packet_type (packet_class.type)
static PyObject *kind_pfc, *kind_bloom;

enum { K_SRC, K_DST, K_SRC_PORT, K_DST_PORT, K_PROTOCOL, K_DIGEST, K_HASH, K_REVERSED, K_NSLOTS };
static const char *const flowkey_slot_names[K_NSLOTS] = {
    "src", "dst", "src_port", "dst_port", "protocol", "_digest", "_hash", "_reversed",
};
static PyObject *flowkey_slot_strs[K_NSLOTS];
static Py_ssize_t flowkey_slot_offsets[K_NSLOTS];
static slot_class flowkey_class = {K_NSLOTS, flowkey_slot_names, flowkey_slot_strs,
                                   flowkey_slot_offsets, NULL};

/* Cache the member offsets of every name of cls in type; the names must be
 * all of type's own __slots__, so a slot added in Python cannot be missed
 * by the objects the core builds. */
static int
slot_class_bind(slot_class *cls, PyObject *type)
{
    PyObject *slots;
    Py_ssize_t declared;
    int i;
    if (!PyType_Check(type)) {
        PyErr_SetString(PyExc_TypeError, "expected a class");
        return -1;
    }
    for (i = 0; i < cls->n; i++) {
        PyObject *descr = PyObject_GetAttr(type, cls->strs[i]);
        PyMemberDef *member;
        if (descr == NULL)
            return -1;
        if (Py_TYPE(descr) != &PyMemberDescr_Type) {
            Py_DECREF(descr);
            PyErr_Format(PyExc_TypeError, "%R.%s is not a slot", type, cls->names[i]);
            return -1;
        }
        member = ((PyMemberDescrObject *)descr)->d_member;
        if (member->type != T_OBJECT_EX) {
            Py_DECREF(descr);
            PyErr_Format(PyExc_TypeError, "%R.%s is not an object slot", type,
                         cls->names[i]);
            return -1;
        }
        cls->offsets[i] = member->offset;
        Py_DECREF(descr);
    }
    slots = PyObject_GetAttrString(type, "__slots__");
    if (slots == NULL)
        return -1;
    declared = PyObject_Size(slots);
    Py_DECREF(slots);
    if (declared < 0)
        return -1;
    if (declared != cls->n) {
        PyErr_Format(PyExc_TypeError, "%R has %zd slots, the compiled plane knows %d",
                     type, declared, cls->n);
        return -1;
    }
    Py_XSETREF(cls->type, (PyTypeObject *)Py_NewRef(type));
    return 0;
}

/* New reference to an attribute (NULL with an exception set). */
static PyObject *
cls_get(const slot_class *cls, PyObject *obj, int slot)
{
    if (Py_TYPE(obj) == cls->type) {
        PyObject *value = *(PyObject **)((char *)obj + cls->offsets[slot]);
        if (value != NULL)
            return Py_NewRef(value);
    }
    return PyObject_GetAttr(obj, cls->strs[slot]);
}

static int
cls_set(const slot_class *cls, PyObject *obj, int slot, PyObject *value)
{
    if (Py_TYPE(obj) == cls->type) {
        PyObject **addr = (PyObject **)((char *)obj + cls->offsets[slot]);
        PyObject *old = *addr;
        *addr = Py_NewRef(value);
        Py_XDECREF(old);
        return 0;
    }
    return PyObject_SetAttr(obj, cls->strs[slot], value);
}

static int
cls_ll(const slot_class *cls, PyObject *obj, int slot, long long *out)
{
    PyObject *value = cls_get(cls, obj, slot);
    if (value == NULL)
        return -1;
    *out = PyLong_AsLongLong(value);
    Py_DECREF(value);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
cls_set_ll(const slot_class *cls, PyObject *obj, int slot, long long value)
{
    PyObject *num = PyLong_FromLongLong(value);
    int rc;
    if (num == NULL)
        return -1;
    rc = cls_set(cls, obj, slot, num);
    Py_DECREF(num);
    return rc;
}

/* Truth value of an attribute: 1, 0, or -1 on error. */
static int
cls_truth(const slot_class *cls, PyObject *obj, int slot)
{
    PyObject *value = cls_get(cls, obj, slot);
    int truth;
    if (value == NULL)
        return -1;
    truth = value == Py_True ? 1 : value == Py_False ? 0 : PyObject_IsTrue(value);
    Py_DECREF(value);
    return truth;
}

#define pkt_get(pkt, slot) cls_get(&packet_class, (pkt), (slot))
#define pkt_set(pkt, slot, value) cls_set(&packet_class, (pkt), (slot), (value))
#define pkt_ll(pkt, slot, out) cls_ll(&packet_class, (pkt), (slot), (out))
#define pkt_truth(pkt, slot) cls_truth(&packet_class, (pkt), (slot))

/* Set by bind(): what a compiled port builds for its queue and meters. */
static PyObject *pause_meter_type, *byte_meter_type;

static PyObject *
bind(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError,
                        "bind expects (Packet, FlowKey, PacketKind.PFC, "
                        "PacketKind.BLOOM, PauseMeter, ByteMeter)");
        return NULL;
    }
    if (slot_class_bind(&packet_class, args[0]) < 0 ||
        slot_class_bind(&flowkey_class, args[1]) < 0)
        return NULL;
    Py_XSETREF(kind_pfc, Py_NewRef(args[2]));
    Py_XSETREF(kind_bloom, Py_NewRef(args[3]));
    Py_XSETREF(pause_meter_type, Py_NewRef(args[4]));
    Py_XSETREF(byte_meter_type, Py_NewRef(args[5]));
    Py_RETURN_NONE;
}

/* -- Small helpers ---------------------------------------------------- */

/* PyObject_TypeCheck for one of this file's C types, with no call: each
 * of them adds fields to object, and CPython lays a class out on its
 * tp_base, so every subtype of one has it on its tp_base chain.  From one
 * of the plane's Python classes the chain is its C base, then object. */
static inline int
type_is(PyObject *obj, PyTypeObject *base)
{
    PyTypeObject *type;
    for (type = Py_TYPE(obj); type != NULL; type = type->tp_base)
        if (type == base)
            return 1;
    return 0;
}

/* Call obj.name(*args) with one or two positional arguments. */
static PyObject *
call_method2(PyObject *obj, PyObject *name, PyObject *a, PyObject *b)
{
    PyObject *stack[3] = {obj, a, b};
    return PyObject_VectorcallMethod(
        name, stack, (b == NULL ? 2 : 3) | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
}

/* Python's round() of a float: half to even. */
static double
round_half_even(double x)
{
    double r = round(x);
    if (fabs(x - r) == 0.5)
        r = 2.0 * round(x / 2.0);
    return r;
}

/* ===================================================================== *
 * Counters: the counts the compiled plane keeps for a node
 * ===================================================================== */

/* The counters the compiled switch hop and NIC increment.  They are C
 * fields of the node's Counters, folded into its values dict before any
 * read of it (Counters.get, as_dict and values all read values), so what
 * Python sees is what the Python plane's increments would have made: a
 * counter appears once it has been counted, even by zero. */
enum {
    C_FORWARDED_PACKETS,
    C_DROPPED_PACKETS,
    C_DROPPED_BYTES,
    C_ECN_MARKED,
    C_DATA_PACKETS_SENT,
    C_DATA_PACKETS_RECEIVED,
    C_OUT_OF_ORDER_PACKETS,
    C_DUPLICATE_PACKETS,
    C_ACKS_SENT,
    C_NACKS_SENT,
    C_SELECTIVE_RETRANSMISSIONS,
    C_CNPS_SENT,
    C_CNPS_RECEIVED,
    C_NCOUNTERS
};
static const char *const counter_names[C_NCOUNTERS] = {
    "forwarded_packets", "dropped_packets", "dropped_bytes", "ecn_marked",
    "data_packets_sent", "data_packets_received", "out_of_order_packets",
    "duplicate_packets", "acks_sent", "nacks_sent", "selective_retransmissions",
    "cnps_sent", "cnps_received",
};
static PyObject *counter_strs[C_NCOUNTERS];

typedef struct {
    PyObject_HEAD
    PyObject *values;              /* the dict the counts fold into */
    long long pending[C_NCOUNTERS];
    unsigned int counted;          /* bit i: pending[i] is due a fold */
} CountersObject;

static PyTypeObject CountersType;

static inline void
count(CountersObject *counters, int which, long long amount)
{
    counters->pending[which] += amount;
    counters->counted |= 1u << which;
}

/* values[name] += pending for every counter counted since the last fold. */
static int
counters_fold(CountersObject *self)
{
    int i;
    if (self->counted == 0)
        return 0;
    if (self->values == NULL) {
        PyErr_SetString(PyExc_AttributeError, "values");
        return -1;
    }
    for (i = 0; i < C_NCOUNTERS; i++) {
        PyObject *cur, *next;
        long long total;
        int rc;
        if (!(self->counted & (1u << i)))
            continue;
        cur = PyDict_GetItemWithError(self->values, counter_strs[i]);
        if (cur == NULL && PyErr_Occurred())
            return -1;
        total = self->pending[i];
        if (cur != NULL) {
            long long have = PyLong_AsLongLong(cur);
            if (have == -1 && PyErr_Occurred())
                return -1;
            total += have;
        }
        next = PyLong_FromLongLong(total);
        if (next == NULL)
            return -1;
        rc = PyDict_SetItem(self->values, counter_strs[i], next);
        Py_DECREF(next);
        if (rc < 0)
            return -1;
        self->pending[i] = 0;
        self->counted &= ~(1u << i);
    }
    return 0;
}

static PyObject *
Counters_get_values(CountersObject *self, void *closure)
{
    if (counters_fold(self) < 0)
        return NULL;
    if (self->values == NULL) {
        PyErr_SetString(PyExc_AttributeError, "values");
        return NULL;
    }
    return Py_NewRef(self->values);
}

/* A new dict takes the counts from here on; those made so far stay in the
 * old one, as they would on the Python plane. */
static int
Counters_set_values(CountersObject *self, PyObject *value, void *closure)
{
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete values");
        return -1;
    }
    if (!PyDict_Check(value)) {
        PyErr_SetString(PyExc_TypeError, "Counters.values must be a dict");
        return -1;
    }
    if (self->values != NULL && counters_fold(self) < 0)
        return -1;
    Py_XSETREF(self->values, Py_NewRef(value));
    return 0;
}

static int
Counters_traverse(CountersObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->values);
    return 0;
}

static int
Counters_clear(CountersObject *self)
{
    Py_CLEAR(self->values);
    return 0;
}

static void
Counters_dealloc(CountersObject *self)
{
    PyObject_GC_UnTrack(self);
    Counters_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyGetSetDef Counters_getset[] = {
    {"values", (getter)Counters_get_values, (setter)Counters_set_values,
     "The counts by name, with those the compiled plane made folded in.", NULL},
    {NULL},
};

static PyTypeObject CountersType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_accelcore.Counters",
    .tp_basicsize = sizeof(CountersObject),
    .tp_dealloc = (destructor)Counters_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "A node's counters, the hot ones stored in C (compiled plane).",
    .tp_traverse = (traverseproc)Counters_traverse,
    .tp_clear = (inquiry)Counters_clear,
    .tp_getset = Counters_getset,
    .tp_new = PyType_GenericNew,
};

/* ===================================================================== *
 * FifoDiscipline
 * ===================================================================== */

typedef struct {
    PyObject_HEAD
    pring q;
} FifoObject;

static PyTypeObject FifoType;
#define Fifo_Check(op) type_is(op, &FifoType)

static int
fifo_enqueue(FifoObject *self, PyObject *packet)
{
    long long size;
    return pkt_ll(packet, P_SIZE, &size) < 0 ? -1 : ring_push(&self->q, packet, size);
}

/* New reference to the head packet, or Py_None when the queue is empty. */
static PyObject *
fifo_dequeue(FifoObject *self)
{
    long long size;
    if (self->q.count == 0)
        Py_RETURN_NONE;
    return ring_pop(&self->q, &size);
}

static int Fifo_clear(FifoObject *self);

static int
Fifo_init(FifoObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "", kwlist))
        return -1;
    return Fifo_clear(self);
}

static PyObject *
Fifo_enqueue(FifoObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"packet", "ingress", NULL};
    PyObject *packet, *ingress;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO", kwlist, &packet, &ingress))
        return NULL;
    if (fifo_enqueue(self, packet) < 0)
        return NULL;
    Py_RETURN_TRUE;
}

static PyObject *
Fifo_dequeue(FifoObject *self, PyObject *Py_UNUSED(ignored))
{
    return fifo_dequeue(self);
}

static PyObject *
Fifo_backlog_bytes(FifoObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromLongLong(self->q.bytes);
}

static PyObject *
Fifo_backlog_packets(FifoObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromSsize_t(self->q.count);
}

static PyObject *
Fifo_has_backlog(FifoObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyBool_FromLong(self->q.count > 0);
}

static int
Fifo_traverse(FifoObject *self, visitproc visit, void *arg)
{
    return ring_traverse(&self->q, visit, arg);
}

static int
Fifo_clear(FifoObject *self)
{
    ring_clear(&self->q);
    return 0;
}

static void
Fifo_dealloc(FifoObject *self)
{
    PyObject_GC_UnTrack(self);
    Fifo_clear(self);
    PyMem_Free(self->q.items);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef Fifo_methods[] = {
    {"enqueue", (PyCFunction)(void (*)(void))Fifo_enqueue, METH_VARARGS | METH_KEYWORDS,
     "Queue a packet at the tail; always accepts."},
    {"dequeue", (PyCFunction)Fifo_dequeue, METH_NOARGS,
     "Pop the head packet, or None when empty."},
    {"backlog_bytes", (PyCFunction)Fifo_backlog_bytes, METH_NOARGS, NULL},
    {"backlog_packets", (PyCFunction)Fifo_backlog_packets, METH_NOARGS, NULL},
    {"has_backlog", (PyCFunction)Fifo_has_backlog, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject FifoType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_accelcore.FifoDiscipline",
    .tp_basicsize = sizeof(FifoObject),
    .tp_dealloc = (destructor)Fifo_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "A single first-in first-out data queue (compiled plane).",
    .tp_traverse = (traverseproc)Fifo_traverse,
    .tp_clear = (inquiry)Fifo_clear,
    .tp_methods = Fifo_methods,
    .tp_init = (initproc)Fifo_init,
    .tp_new = PyType_GenericNew,
};

/* Discipline calls: the compiled FIFO and NIC directly, anything else in
 * Python. */

typedef struct NicObject NicObject;
static PyTypeObject NicType;
#define Nic_Check(op) type_is(op, &NicType)
static PyObject *nic_dequeue(NicObject *self);
static int nic_has_work_at(NicObject *self, long long horizon);
static PyObject *Nic_has_work_at(NicObject *self, PyObject *horizon);
static PyObject *instance_attr(PyObject *obj, PyObject *name, int *failed);

/* The compiled BFC discipline, with the BFC plane below. */
typedef struct BfcDiscObject BfcDiscObject;
static PyTypeObject BfcDiscType;
static int bfc_direct(PyObject *disc);
static int bfc_enqueue(BfcDiscObject *self, PyObject *packet, PyObject *ingress);
static PyObject *bfc_dequeue(BfcDiscObject *self);
static long long bfc_backlog(BfcDiscObject *self, long long *bytes);

/* New reference, Py_None when nothing is eligible, NULL on error. */
static PyObject *
disc_dequeue(PyObject *disc)
{
    if (Fifo_Check(disc))
        return fifo_dequeue((FifoObject *)disc);
    if (Nic_Check(disc)) {
        /* unless a dequeue was set on the instance */
        int failed;
        PyObject *own = instance_attr(disc, str_dequeue, &failed);
        if (failed)
            return NULL;
        if (own == NULL)
            return nic_dequeue((NicObject *)disc);
    }
    if (bfc_direct(disc))
        return bfc_dequeue((BfcDiscObject *)disc);
    return PyObject_CallMethodNoArgs(disc, str_dequeue);
}

static int
disc_has_backlog(PyObject *disc)
{
    PyObject *res;
    int truth;
    if (Fifo_Check(disc))
        return ((FifoObject *)disc)->q.count > 0;
    if (bfc_direct(disc)) {
        long long bytes;
        return bfc_backlog((BfcDiscObject *)disc, &bytes) > 0;
    }
    res = PyObject_CallMethodNoArgs(disc, str_has_backlog);
    if (res == NULL)
        return -1;
    truth = PyObject_IsTrue(res);
    Py_DECREF(res);
    return truth;
}

static int
disc_backlog_bytes(PyObject *disc, long long *out)
{
    PyObject *res;
    if (Fifo_Check(disc)) {
        *out = ((FifoObject *)disc)->q.bytes;
        return 0;
    }
    if (bfc_direct(disc)) {
        bfc_backlog((BfcDiscObject *)disc, out);
        return 0;
    }
    res = PyObject_CallMethodNoArgs(disc, str_backlog_bytes);
    if (res == NULL)
        return -1;
    *out = PyLong_AsLongLong(res);
    Py_DECREF(res);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
disc_enqueue(PyObject *disc, PyObject *packet, PyObject *ingress)
{
    PyObject *res;
    int truth;
    if (Fifo_Check(disc))
        return fifo_enqueue((FifoObject *)disc, packet) < 0 ? -1 : 1;
    if (bfc_direct(disc))
        return bfc_enqueue((BfcDiscObject *)disc, packet, ingress);
    res = call_method2(disc, str_enqueue, packet, ingress);
    if (res == NULL)
        return -1;
    truth = PyObject_IsTrue(res);
    Py_DECREF(res);
    return truth;
}

/* ===================================================================== *
 * ByteCounts / PauseState: the C halves of the port's meters
 * ===================================================================== */

typedef struct {
    PyObject_HEAD
    long long data_bytes;
    long long control_bytes;
    long long data_packets;
    long long control_packets;
} ByteCountsObject;

static int
ByteCounts_init(ByteCountsObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "", kwlist))
        return -1;
    self->data_bytes = self->control_bytes = 0;
    self->data_packets = self->control_packets = 0;
    return 0;
}

static PyMemberDef ByteCounts_members[] = {
    {"data_bytes", T_LONGLONG, offsetof(ByteCountsObject, data_bytes), 0, NULL},
    {"control_bytes", T_LONGLONG, offsetof(ByteCountsObject, control_bytes), 0, NULL},
    {"data_packets", T_LONGLONG, offsetof(ByteCountsObject, data_packets), 0, NULL},
    {"control_packets", T_LONGLONG, offsetof(ByteCountsObject, control_packets), 0, NULL},
    {NULL},
};

static PyTypeObject ByteCountsType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_accelcore.ByteCounts",
    .tp_basicsize = sizeof(ByteCountsObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_doc = "A ByteMeter's counters, stored in C.",
    .tp_members = ByteCounts_members,
    .tp_init = (initproc)ByteCounts_init,
    .tp_new = PyType_GenericNew,
};

typedef struct {
    PyObject_HEAD
    char paused;
    PyObject *paused_since; /* int, or NULL (None) while running */
    long long accumulated;
    long long pause_events;
} PauseStateObject;

static int
PauseState_init(PauseStateObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "", kwlist))
        return -1;
    self->paused = 0;
    Py_CLEAR(self->paused_since);
    self->accumulated = 0;
    self->pause_events = 0;
    return 0;
}

static void
PauseState_dealloc(PauseStateObject *self)
{
    Py_CLEAR(self->paused_since);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMemberDef PauseState_members[] = {
    {"paused", T_BOOL, offsetof(PauseStateObject, paused), 0, NULL},
    {"_paused_since", T_OBJECT, offsetof(PauseStateObject, paused_since), 0, NULL},
    {"_accumulated", T_LONGLONG, offsetof(PauseStateObject, accumulated), 0, NULL},
    {"pause_events", T_LONGLONG, offsetof(PauseStateObject, pause_events), 0, NULL},
    {NULL},
};

static PyTypeObject PauseStateType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_accelcore.PauseState",
    .tp_basicsize = sizeof(PauseStateObject),
    .tp_dealloc = (destructor)PauseState_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_doc = "A PauseMeter's state, stored in C.",
    .tp_members = PauseState_members,
    .tp_init = (initproc)PauseState_init,
    .tp_new = PyType_GenericNew,
};

static int
meter_missing(PyObject *meter)
{
    if (meter != NULL)
        return 0;
    PyErr_SetString(PyExc_AttributeError, "egress port meter is not set");
    return -1;
}

static int
meter_paused(PyObject *meter)
{
    PyObject *value;
    int truth;
    if (meter_missing(meter) < 0)
        return -1;
    if (type_is(meter, &PauseStateType))
        return ((PauseStateObject *)meter)->paused;
    value = PyObject_GetAttr(meter, str_paused);
    if (value == NULL)
        return -1;
    truth = PyObject_IsTrue(value);
    Py_DECREF(value);
    return truth;
}

static int
meter_add(PyObject *meter, int is_data, long long size)
{
    PyObject *names[2];
    long long amounts[2] = {size, 1};
    int i;
    if (meter_missing(meter) < 0)
        return -1;
    if (type_is(meter, &ByteCountsType)) {
        ByteCountsObject *counts = (ByteCountsObject *)meter;
        if (is_data) {
            counts->data_bytes += size;
            counts->data_packets += 1;
        }
        else {
            counts->control_bytes += size;
            counts->control_packets += 1;
        }
        return 0;
    }
    names[0] = is_data ? str_data_bytes : str_control_bytes;
    names[1] = is_data ? str_data_packets : str_control_packets;
    for (i = 0; i < 2; i++) {
        PyObject *cur = PyObject_GetAttr(meter, names[i]), *delta, *next;
        int rc;
        if (cur == NULL)
            return -1;
        delta = PyLong_FromLongLong(amounts[i]);
        if (delta == NULL) {
            Py_DECREF(cur);
            return -1;
        }
        next = PyNumber_Add(cur, delta);
        Py_DECREF(cur);
        Py_DECREF(delta);
        if (next == NULL)
            return -1;
        rc = PyObject_SetAttr(meter, names[i], next);
        Py_DECREF(next);
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* ===================================================================== *
 * SharedBuffer (and its BufferStats)
 * ===================================================================== */

/* -- A value per ingress interface ---------------------------------------- */

/* An array indexed by ingress interface, grown on demand; -1 marks an index
 * with no value yet (a key the Python class's dict does not have). */
typedef struct {
    long long *v;
    Py_ssize_t n;
} ingress_arr;

static inline long long
ingress_get(const ingress_arr *a, Py_ssize_t i)
{
    return i < a->n ? a->v[i] : -1;
}

static int
ingress_put(ingress_arr *a, Py_ssize_t i, long long value)
{
    if (i >= a->n) {
        Py_ssize_t n = a->n ? a->n : 8, k;
        long long *v;
        while (n <= i)
            n *= 2;
        v = PyMem_Realloc(a->v, (size_t)n * sizeof(long long));
        if (v == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (k = a->n; k < n; k++)
            v[k] = -1;
        a->v = v;
        a->n = n;
    }
    a->v[i] = value;
    return 0;
}

static void
ingress_free(ingress_arr *a)
{
    PyMem_Free(a->v);
    a->v = NULL;
    a->n = 0;
}

/* {ingress: value} of the indices that have one; values as bools or ints. */
static PyObject *
ingress_dict(const ingress_arr *a, int as_bool)
{
    PyObject *dict = PyDict_New();
    Py_ssize_t i;
    for (i = 0; dict != NULL && i < a->n; i++) {
        PyObject *key, *value;
        int rc;
        if (a->v[i] < 0)
            continue;
        key = PyLong_FromSsize_t(i);
        value = as_bool ? PyBool_FromLong(a->v[i] != 0) : PyLong_FromLongLong(a->v[i]);
        rc = key == NULL || value == NULL ? -1 : PyDict_SetItem(dict, key, value);
        Py_XDECREF(key);
        Py_XDECREF(value);
        if (rc < 0)
            Py_CLEAR(dict);
    }
    return dict;
}

/* An ingress as an array index: a non-negative interface index. */
static int
ingress_index(PyObject *ingress, Py_ssize_t *out)
{
    *out = PyLong_AsSsize_t(ingress);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    if (*out < 0) {
        PyErr_Format(PyExc_ValueError, "ingress %zd is not an interface index", *out);
        return -1;
    }
    return 0;
}

typedef struct {
    PyObject_HEAD
    long long dropped_packets;
    long long dropped_bytes;
    long long max_occupancy;
    long long admitted_packets;
    long long admitted_bytes;
} BufferStatsObject;

static PyMemberDef BufferStats_members[] = {
    {"dropped_packets", T_LONGLONG, offsetof(BufferStatsObject, dropped_packets), 0, NULL},
    {"dropped_bytes", T_LONGLONG, offsetof(BufferStatsObject, dropped_bytes), 0, NULL},
    {"max_occupancy", T_LONGLONG, offsetof(BufferStatsObject, max_occupancy), 0, NULL},
    {"admitted_packets", T_LONGLONG, offsetof(BufferStatsObject, admitted_packets), 0, NULL},
    {"admitted_bytes", T_LONGLONG, offsetof(BufferStatsObject, admitted_bytes), 0, NULL},
    {NULL},
};

static PyTypeObject BufferStatsType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_accelcore.BufferStats",
    .tp_basicsize = sizeof(BufferStatsObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Drop and high-water-mark accounting for a shared buffer.",
    .tp_members = BufferStats_members,
    .tp_new = PyType_GenericNew,
};

typedef struct {
    PyObject_HEAD
    long long capacity;
    long long used;
    ingress_arr per_ingress; /* bytes attributed to each ingress */
    BufferStatsObject *stats;
} BufferObject;

static PyTypeObject BufferType;
#define Buffer_Check(op) type_is(op, &BufferType)

static int
Buffer_init(BufferObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"capacity_bytes", NULL};
    PyObject *arg, *as_int;
    long long capacity;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O", kwlist, &arg))
        return -1;
    as_int = PyNumber_Long(arg);
    if (as_int == NULL)
        return -1;
    capacity = PyLong_AsLongLong(as_int);
    Py_DECREF(as_int);
    if (capacity == -1 && PyErr_Occurred())
        return -1;
    if (capacity <= 0) {
        PyErr_SetString(PyExc_ValueError, "buffer capacity must be positive");
        return -1;
    }
    self->capacity = capacity;
    self->used = 0;
    ingress_free(&self->per_ingress);
    Py_XSETREF(self->stats,
               (BufferStatsObject *)PyObject_CallNoArgs((PyObject *)&BufferStatsType));
    return self->stats == NULL ? -1 : 0;
}

static inline long long
ingress_bytes(BufferObject *self, Py_ssize_t ingress)
{
    long long bytes = ingress_get(&self->per_ingress, ingress);
    return bytes < 0 ? 0 : bytes;
}

/* 1 admitted, 0 dropped, -1 error. */
static int
buffer_admit(BufferObject *self, long long size, Py_ssize_t ingress)
{
    BufferStatsObject *stats = self->stats;
    long long used;
    if (size < 0) {
        PyErr_SetString(PyExc_ValueError, "packet size must be non-negative");
        return -1;
    }
    used = self->used + size;
    if (used > self->capacity) {
        stats->dropped_packets += 1;
        stats->dropped_bytes += size;
        return 0;
    }
    if (ingress_put(&self->per_ingress, ingress, ingress_bytes(self, ingress) + size) < 0)
        return -1;
    self->used = used;
    stats->admitted_packets += 1;
    stats->admitted_bytes += size;
    if (used > stats->max_occupancy)
        stats->max_occupancy = used;
    return 1;
}

static int
buffer_release(BufferObject *self, long long size, Py_ssize_t ingress)
{
    long long current = ingress_bytes(self, ingress);
    if (size < 0) {
        PyErr_SetString(PyExc_ValueError, "packet size must be non-negative");
        return -1;
    }
    if (size > self->used) {
        PyErr_Format(PyExc_ValueError,
                     "releasing %lld bytes but only %lld are in use", size,
                     self->used);
        return -1;
    }
    if (size > current) {
        PyErr_Format(PyExc_ValueError,
                     "releasing %lld bytes from ingress %zd but only %lld are "
                     "attributed to it",
                     size, ingress, current);
        return -1;
    }
    self->used -= size;
    return ingress_put(&self->per_ingress, ingress, current - size);
}

static PyObject *
Buffer_admit(BufferObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"size", "ingress", NULL};
    long long size;
    PyObject *ingress;
    Py_ssize_t index;
    int rc;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "LO", kwlist, &size, &ingress) ||
        ingress_index(ingress, &index) < 0)
        return NULL;
    rc = buffer_admit(self, size, index);
    if (rc < 0)
        return NULL;
    return PyBool_FromLong(rc);
}

static PyObject *
Buffer_release(BufferObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"size", "ingress", NULL};
    long long size;
    PyObject *ingress;
    Py_ssize_t index;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "LO", kwlist, &size, &ingress) ||
        ingress_index(ingress, &index) < 0)
        return NULL;
    if (buffer_release(self, size, index) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Buffer_occupancy(BufferObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromLongLong(self->used);
}

static PyObject *
Buffer_ingress_occupancy(BufferObject *self, PyObject *ingress)
{
    Py_ssize_t index;
    if (ingress_index(ingress, &index) < 0)
        return NULL;
    return PyLong_FromLongLong(ingress_bytes(self, index));
}

static PyObject *
Buffer_infinite(PyObject *cls, PyObject *Py_UNUSED(ignored))
{
    return PyObject_CallFunction(cls, "L", (long long)1 << 60);
}

static long long
buffer_free(BufferObject *self)
{
    return self->capacity > self->used ? self->capacity - self->used : 0;
}

static PyObject *
Buffer_get_free(BufferObject *self, void *closure)
{
    return PyLong_FromLongLong(buffer_free(self));
}

/* {ingress: bytes} for every ingress that has had bytes: a read-only
 * snapshot, so code that still writes to it raises instead of losing the
 * write. */
static PyObject *
Buffer_get_per_ingress(BufferObject *self, void *closure)
{
    PyObject *dict = ingress_dict(&self->per_ingress, 0), *view;
    if (dict == NULL)
        return NULL;
    view = PyDictProxy_New(dict);
    Py_DECREF(dict);
    return view;
}

static int
Buffer_traverse(BufferObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->stats);
    return 0;
}

static int
Buffer_clear(BufferObject *self)
{
    Py_CLEAR(self->stats);
    return 0;
}

static void
Buffer_dealloc(BufferObject *self)
{
    PyObject_GC_UnTrack(self);
    Buffer_clear(self);
    ingress_free(&self->per_ingress);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef Buffer_methods[] = {
    {"admit", (PyCFunction)(void (*)(void))Buffer_admit, METH_VARARGS | METH_KEYWORDS,
     "Try to admit size bytes from ingress; False (and a drop) on overflow."},
    {"release", (PyCFunction)(void (*)(void))Buffer_release, METH_VARARGS | METH_KEYWORDS,
     "Return size bytes attributed to ingress to the pool."},
    {"occupancy", (PyCFunction)Buffer_occupancy, METH_NOARGS, NULL},
    {"ingress_occupancy", (PyCFunction)Buffer_ingress_occupancy, METH_O, NULL},
    {"infinite", (PyCFunction)Buffer_infinite, METH_NOARGS | METH_CLASS,
     "A buffer so large it never fills (used by Ideal-FQ)."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef Buffer_members[] = {
    {"capacity", T_LONGLONG, offsetof(BufferObject, capacity), 0, NULL},
    {"used", T_LONGLONG, offsetof(BufferObject, used), 0, NULL},
    {"stats", T_OBJECT_EX, offsetof(BufferObject, stats), READONLY, NULL},
    {NULL},
};

static PyGetSetDef Buffer_getset[] = {
    {"free", (getter)Buffer_get_free, NULL, "Unallocated bytes.", NULL},
    {"per_ingress", (getter)Buffer_get_per_ingress, NULL,
     "Bytes attributed to each ingress (a read-only snapshot).", NULL},
    {NULL},
};

static PyTypeObject BufferType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_accelcore.SharedBuffer",
    .tp_basicsize = sizeof(BufferObject),
    .tp_dealloc = (destructor)Buffer_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "A byte-counted shared memory pool with per-ingress accounting.",
    .tp_traverse = (traverseproc)Buffer_traverse,
    .tp_clear = (inquiry)Buffer_clear,
    .tp_methods = Buffer_methods,
    .tp_members = Buffer_members,
    .tp_getset = Buffer_getset,
    .tp_init = (initproc)Buffer_init,
    .tp_new = PyType_GenericNew,
};

/* ===================================================================== *
 * EgressPort
 * ===================================================================== */

typedef struct SwitchPlaneObject SwitchPlaneObject;

typedef struct {
    PyObject_HEAD
    EventHeapObject *sim;
    PyObject *post;        /* the _post alias */
    int post_direct;       /* _post is the simulator's own post */
    PyObject *owner;
    PyObject *name;
    long long iface_index;
    PyObject *iface_index_obj;
    PyObject *rate_obj; /* rate_bps as given */
    double rate_bps;
    long long delay_ns;
    PyObject *peer_node;
    PyObject *peer_iface;
    PyObject *peer_receive;
    PyObject *tx_memo;
    /* The last two packet sizes served and their tx times, ahead of the
     * shared memo (a size of -1 is empty). */
    long long tx_size[2];
    long long tx_time[2];
    int tx_next;
    pring control; /* the control queue: strict priority, never paused */
    PyObject *discipline;
    char busy;
    long long busy_until;
    long long wake_at;
    PyObject *pfc_meter;
    PyObject *bytes;
    long long tx_data_bytes_total;
    PyObject *wake_check;
    PyObject *on_data_dequeue;
    PyObject *on_data_transmitted;
    PyObject *kick_method; /* self.kick, bound once */
} PortObject;

static PyTypeObject PortType;
#define Port_Check(op) type_is(op, &PortType)

static int port_kick(PortObject *self);
static int plane_on_dequeue(SwitchPlaneObject *plane, PyObject *packet,
                            PyObject *iface_index);
static PyObject *SwitchPlane_on_data_dequeue(SwitchPlaneObject *self,
                                             PyObject *const *args,
                                             Py_ssize_t nargs);

/* self._post(delay, callback, a0, a1), with a1 or both NULL for fewer
 * arguments: straight into the heap unless _post was replaced. */
static int
port_post(PortObject *self, long long delay, PyObject *callback, PyObject *a0, PyObject *a1)
{
    PyObject *stack[4], *delay_obj, *post, *res;
    if (callback == NULL) {
        PyErr_SetString(PyExc_TypeError, "egress port is not connected");
        return -1;
    }
    if (self->post_direct)
        return heap_call(self->sim, delay, callback, a0, a1);
    delay_obj = PyLong_FromLongLong(delay);
    if (delay_obj == NULL)
        return -1;
    stack[0] = delay_obj;
    stack[1] = Py_NewRef(callback);
    stack[2] = a0;
    stack[3] = a1;
    post = Py_NewRef(self->post);
    res = PyObject_Vectorcall(post, stack, a0 == NULL ? 2 : a1 == NULL ? 3 : 4, NULL);
    Py_DECREF(post);
    Py_DECREF(stack[1]);
    Py_DECREF(delay_obj);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}


/* hook(packet, iface_index), entering a switch plane's hook directly. */
static int
port_call_hook(PortObject *self, PyObject *hook, PyObject *packet)
{
    PyObject *res, *stack[2];
    if (PyCFunction_Check(hook) &&
        PyCFunction_GET_FUNCTION(hook) == (PyCFunction)(void (*)(void))SwitchPlane_on_data_dequeue)
        return plane_on_dequeue((SwitchPlaneObject *)PyCFunction_GET_SELF(hook),
                                packet, self->iface_index_obj);
    stack[0] = packet;
    stack[1] = self->iface_index_obj;
    res = PyObject_Vectorcall(hook, stack, 2, NULL);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* The tx time of one packet size: the port's last two sizes, else the
 * shared per-rate memo.  A tx time is a function of the size and the fixed
 * rate, so either answers as the computation would. */
static int
port_tx_ns(PortObject *self, PyObject *size_obj, long long size, long long *out)
{
    PyObject *hit, *num;
    long long tx_ns;
    int rc = 0;
    if (self->tx_size[0] == size) {
        *out = self->tx_time[0];
        return 0;
    }
    if (self->tx_size[1] == size) {
        *out = self->tx_time[1];
        return 0;
    }
    hit = PyDict_GetItemWithError(self->tx_memo, size_obj);
    if (hit != NULL) {
        tx_ns = PyLong_AsLongLong(hit);
        if (tx_ns == -1 && PyErr_Occurred())
            return -1;
    }
    else {
        if (PyErr_Occurred())
            return -1;
        /* Arithmetically identical to units.transmission_time_ns. */
        tx_ns = (long long)round_half_even((double)(size * 8 * 1000000000LL) / self->rate_bps);
        if (tx_ns <= 0)
            tx_ns = 1;
        num = PyLong_FromLongLong(tx_ns);
        if (num == NULL)
            return -1;
        rc = PyDict_SetItem(self->tx_memo, size_obj, num);
        Py_DECREF(num);
    }
    self->tx_size[self->tx_next] = size;
    self->tx_time[self->tx_next] = tx_ns;
    self->tx_next ^= 1;
    *out = tx_ns;
    return rc;
}

static int
port_kick(PortObject *self)
{
    PyObject *packet, *size_obj;
    long long now, size, tx_ns, end;
    int is_data, paused, rc;

    if (self->busy) {
        long long until = self->busy_until;
        now = self->sim->now;
        if (now < until) {
            if (self->wake_at != until) {
                self->wake_at = until;
                return port_post(self, until - now, self->kick_method, NULL, NULL);
            }
            return 0;
        }
        self->busy = 0;
    }
    if (self->peer_node == NULL || self->peer_node == Py_None)
        return 0;
    if (self->control.count > 0) {
        long long unused;
        packet = ring_pop(&self->control, &unused);
        is_data = 0;
    }
    else {
        PyObject *discipline = self->discipline, *hook;
        paused = meter_paused(self->pfc_meter);
        if (paused < 0)
            return -1;
        if (paused || discipline == NULL || discipline == Py_None)
            return 0;
        packet = disc_dequeue(discipline);
        if (packet == NULL)
            return -1;
        if (packet == Py_None) {
            Py_DECREF(packet);
            return 0;
        }
        hook = self->on_data_dequeue;
        if (hook != NULL && hook != Py_None) {
            Py_INCREF(hook);
            if (port_call_hook(self, hook, packet) < 0) {
                Py_DECREF(hook);
                Py_DECREF(packet);
                return -1;
            }
            Py_DECREF(hook);
        }
        is_data = 1;
    }
    self->busy = 1;
    now = self->sim->now;
    size_obj = pkt_get(packet, P_SIZE);
    if (size_obj == NULL)
        goto error;
    size = PyLong_AsLongLong(size_obj);
    if ((size == -1 && PyErr_Occurred()) ||
        port_tx_ns(self, size_obj, size, &tx_ns) < 0) {
        Py_DECREF(size_obj);
        goto error;
    }
    Py_DECREF(size_obj);
    if (meter_add(self->bytes, is_data, size) < 0)
        goto error;
    if (is_data) {
        PyObject *hook = self->on_data_transmitted;
        self->tx_data_bytes_total += size;
        if (hook != NULL && hook != Py_None) {
            Py_INCREF(hook);
            rc = port_call_hook(self, hook, packet);
            Py_DECREF(hook);
            if (rc < 0)
                goto error;
        }
    }
    /* The fused delivery: one event at now + tx + propagation. */
    rc = port_post(self, tx_ns + self->delay_ns, self->peer_receive, packet, self->peer_iface);
    Py_DECREF(packet);
    if (rc < 0)
        return -1;
    end = now + tx_ns;
    self->busy_until = end;
    /* Chain wake-up at the commit horizon, exactly as EgressPort.kick. */
    if (self->control.count == 0) {
        paused = meter_paused(self->pfc_meter);
        if (paused < 0)
            return -1;
        if (paused)
            return 0;
        if (self->wake_check != NULL && self->wake_check != Py_None) {
            PyObject *check = self->wake_check, *end_obj, *res;
            int truth;
            if (PyCFunction_Check(check) &&
                PyCFunction_GET_FUNCTION(check) == (PyCFunction)Nic_has_work_at &&
                Nic_Check(PyCFunction_GET_SELF(check))) {
                truth = nic_has_work_at((NicObject *)PyCFunction_GET_SELF(check), end);
                if (truth <= 0)
                    return truth;
                goto wake;
            }
            end_obj = PyLong_FromLongLong(end);
            if (end_obj == NULL)
                return -1;
            res = PyObject_CallOneArg(self->wake_check, end_obj);
            Py_DECREF(end_obj);
            if (res == NULL)
                return -1;
            truth = PyObject_IsTrue(res);
            Py_DECREF(res);
            if (truth <= 0)
                return truth;
        }
        else {
            int has;
            if (self->discipline == NULL || self->discipline == Py_None)
                return 0;
            has = disc_has_backlog(self->discipline);
            if (has <= 0)
                return has;
        }
    }
wake:
    if (self->wake_at != end) {
        self->wake_at = end;
        return port_post(self, tx_ns, self->kick_method, NULL, NULL);
    }
    return 0;

error:
    Py_DECREF(packet);
    return -1;
}

static int
port_send_control(PortObject *self, PyObject *packet)
{
    int control = pkt_truth(packet, P_IS_CONTROL);
    if (control < 0)
        return -1;
    if (!control) {
        PyErr_SetString(PyExc_ValueError,
                        "send_control() is only for control packets");
        return -1;
    }
    /* A control packet's size is read when it is sent, not here. */
    if (ring_push(&self->control, packet, 0) < 0)
        return -1;
    return port_kick(self);
}

/* EgressPort.queue_control: append frames to the control queue, no kick. */
static int
port_queue_control(PortObject *self, PyObject *frames)
{
    PyObject *iter, *frame;
    if (PyList_CheckExact(frames)) {
        Py_ssize_t k;
        for (k = 0; k < PyList_GET_SIZE(frames); k++) {
            if (ring_push(&self->control, PyList_GET_ITEM(frames, k), 0) < 0)
                return -1;
        }
        return 0;
    }
    iter = PyObject_GetIter(frames);
    if (iter == NULL)
        return -1;
    while ((frame = PyIter_Next(iter)) != NULL) {
        int rc = ring_push(&self->control, frame, 0);
        Py_DECREF(frame);
        if (rc < 0) {
            Py_DECREF(iter);
            return -1;
        }
    }
    Py_DECREF(iter);
    return PyErr_Occurred() ? -1 : 0;
}

static int
Port_init(PortObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"sim", "owner", "iface_index", "rate_bps",
                             "delay_ns", "name", NULL};
    PyObject *sim, *owner, *rate, *delay, *name = NULL, *as_int;
    long long iface_index;
    int named;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOLOO|O", kwlist, &sim,
                                     &owner, &iface_index, &rate, &delay, &name))
        return -1;
    if (pause_meter_type == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "_accelcore.bind() has not run");
        return -1;
    }
    if (!PyObject_TypeCheck(sim, &EventHeapType)) {
        PyErr_SetString(PyExc_TypeError, "a compiled port needs the compiled engine's simulator");
        return -1;
    }
    self->rate_bps = PyFloat_AsDouble(rate);
    if (self->rate_bps == -1.0 && PyErr_Occurred())
        return -1;
    if (self->rate_bps <= 0) {
        PyErr_SetString(PyExc_ValueError, "link rate must be positive");
        return -1;
    }
    as_int = PyNumber_Long(delay);
    if (as_int == NULL)
        return -1;
    self->delay_ns = PyLong_AsLongLong(as_int);
    Py_DECREF(as_int);
    if (self->delay_ns == -1 && PyErr_Occurred())
        return -1;
    if (self->delay_ns < 0) {
        PyErr_SetString(PyExc_ValueError, "propagation delay cannot be negative");
        return -1;
    }
    Py_XSETREF(self->rate_obj, Py_NewRef(rate));
    Py_XSETREF(self->sim, (EventHeapObject *)Py_NewRef(sim));
    Py_XSETREF(self->post, PyObject_GetAttr(sim, str_post));
    if (self->post == NULL)
        return -1;
    self->post_direct = 1;
    Py_XSETREF(self->owner, Py_NewRef(owner));
    self->iface_index = iface_index;
    Py_XSETREF(self->iface_index_obj, PyLong_FromLongLong(iface_index));
    if (self->iface_index_obj == NULL)
        return -1;
    /* name or f"{owner.name}.if{iface_index}" */
    named = name == NULL ? 0 : PyObject_IsTrue(name);
    if (named < 0)
        return -1;
    if (named) {
        Py_XSETREF(self->name, Py_NewRef(name));
    }
    else {
        PyObject *owner_name = PyObject_GetAttr(owner, str_name);
        if (owner_name == NULL)
            return -1;
        Py_XSETREF(self->name, PyUnicode_FromFormat("%S.if%lld", owner_name, iface_index));
        Py_DECREF(owner_name);
        if (self->name == NULL)
            return -1;
    }
    Py_XSETREF(self->tx_memo, PyObject_CallMethodOneArg(sim, str_tx_memo, rate));
    ring_clear(&self->control);
    self->tx_size[0] = self->tx_size[1] = -1;
    self->tx_next = 0;
    Py_XSETREF(self->pfc_meter, PyObject_CallNoArgs(pause_meter_type));
    Py_XSETREF(self->bytes, PyObject_CallNoArgs(byte_meter_type));
    if (self->tx_memo == NULL || self->pfc_meter == NULL || self->bytes == NULL)
        return -1;
    Py_XSETREF(self->peer_iface, PyLong_FromLong(-1));
    if (self->peer_iface == NULL)
        return -1;
    self->busy = 0;
    self->busy_until = 0;
    self->wake_at = -1;
    self->tx_data_bytes_total = 0;
    Py_XSETREF(self->kick_method, PyObject_GetAttr((PyObject *)self, str_kick));
    return self->kick_method == NULL ? -1 : 0;
}

static PyObject *
Port_kick(PortObject *self, PyObject *Py_UNUSED(ignored))
{
    if (port_kick(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Port_send_control(PortObject *self, PyObject *packet)
{
    if (port_send_control(self, packet) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Port_queue_control(PortObject *self, PyObject *frames)
{
    if (port_queue_control(self, frames) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Port_set_pfc_paused(PortObject *self, PyObject *paused)
{
    PyObject *now, *res;
    int truth = PyObject_IsTrue(paused);
    if (truth < 0)
        return NULL;
    now = heap_now_obj(self->sim);
    if (now == NULL)
        return NULL;
    res = call_method2(self->pfc_meter, str_set_paused, paused, now);
    Py_DECREF(now);
    if (res == NULL)
        return NULL;
    Py_DECREF(res);
    if (!truth && port_kick(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* The control queue's packets, head first: a tuple, so code that still
 * appends to it raises instead of losing the packet (queue_control and
 * send_control are the writers). */
static PyObject *
Port_get_control_queue(PortObject *self, void *closure)
{
    PyObject *tuple = PyTuple_New(self->control.count);
    Py_ssize_t k;
    if (tuple == NULL)
        return NULL;
    for (k = 0; k < self->control.count; k++)
        PyTuple_SET_ITEM(tuple, k, Py_NewRef(ring_at(&self->control, k)->packet));
    return tuple;
}

static PyObject *
Port_get_post(PortObject *self, void *closure)
{
    return Py_NewRef(self->post);
}

static int
Port_set_post(PortObject *self, PyObject *value, void *closure)
{
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete _post");
        return -1;
    }
    Py_XSETREF(self->post, Py_NewRef(value));
    self->post_direct = 0;
    return 0;
}

static int
Port_traverse(PortObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim);
    Py_VISIT(self->rate_obj);
    Py_VISIT(self->post);
    Py_VISIT(self->owner);
    Py_VISIT(self->name);
    Py_VISIT(self->peer_node);
    Py_VISIT(self->peer_iface);
    Py_VISIT(self->peer_receive);
    Py_VISIT(self->tx_memo);
    ring_traverse(&self->control, visit, arg);
    Py_VISIT(self->discipline);
    Py_VISIT(self->pfc_meter);
    Py_VISIT(self->bytes);
    Py_VISIT(self->wake_check);
    Py_VISIT(self->on_data_dequeue);
    Py_VISIT(self->on_data_transmitted);
    Py_VISIT(self->kick_method);
    return 0;
}

static int
Port_clear(PortObject *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->post);
    Py_CLEAR(self->owner);
    Py_CLEAR(self->name);
    Py_CLEAR(self->iface_index_obj);
    Py_CLEAR(self->rate_obj);
    Py_CLEAR(self->peer_node);
    Py_CLEAR(self->peer_iface);
    Py_CLEAR(self->peer_receive);
    Py_CLEAR(self->tx_memo);
    ring_clear(&self->control);
    Py_CLEAR(self->discipline);
    Py_CLEAR(self->pfc_meter);
    Py_CLEAR(self->bytes);
    Py_CLEAR(self->wake_check);
    Py_CLEAR(self->on_data_dequeue);
    Py_CLEAR(self->on_data_transmitted);
    Py_CLEAR(self->kick_method);
    return 0;
}

static void
Port_dealloc(PortObject *self)
{
    PyObject_GC_UnTrack(self);
    Port_clear(self);
    PyMem_Free(self->control.items);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef Port_methods[] = {
    {"kick", (PyCFunction)Port_kick, METH_NOARGS,
     "Transmit the next eligible packet, or arm a wake-up if committed."},
    {"notify", (PyCFunction)Port_kick, METH_NOARGS,
     "Tell the port that the data discipline may have become non-empty."},
    {"send_control", (PyCFunction)Port_send_control, METH_O,
     "Queue a control packet for transmission at strict priority."},
    {"queue_control", (PyCFunction)Port_queue_control, METH_O,
     "Append control frames to the control queue without a kick."},
    {"set_pfc_paused", (PyCFunction)Port_set_pfc_paused, METH_O,
     "Pause/resume the data class of this port (control still flows)."},
    {NULL, NULL, 0, NULL},
};

#define PORT_OBJ(name, field) \
    {name, T_OBJECT, offsetof(PortObject, field), 0, NULL}
static PyMemberDef Port_members[] = {
    {"sim", T_OBJECT, offsetof(PortObject, sim), READONLY, NULL},
    {"owner", T_OBJECT, offsetof(PortObject, owner), READONLY, NULL},
    {"iface_index", T_LONGLONG, offsetof(PortObject, iface_index), READONLY, NULL},
    {"rate_bps", T_OBJECT, offsetof(PortObject, rate_obj), READONLY, NULL},
    {"delay_ns", T_LONGLONG, offsetof(PortObject, delay_ns), READONLY, NULL},
    PORT_OBJ("name", name),
    PORT_OBJ("peer_node", peer_node),
    PORT_OBJ("peer_iface", peer_iface),
    PORT_OBJ("_peer_receive", peer_receive),
    PORT_OBJ("_tx_memo", tx_memo),
    PORT_OBJ("discipline", discipline),
    {"busy", T_BOOL, offsetof(PortObject, busy), 0, NULL},
    {"_busy_until", T_LONGLONG, offsetof(PortObject, busy_until), 0, NULL},
    {"_wake_at", T_LONGLONG, offsetof(PortObject, wake_at), 0, NULL},
    PORT_OBJ("pfc_meter", pfc_meter),
    PORT_OBJ("bytes", bytes),
    {"tx_data_bytes_total", T_LONGLONG, offsetof(PortObject, tx_data_bytes_total), 0, NULL},
    PORT_OBJ("_wake_check", wake_check),
    PORT_OBJ("on_data_dequeue", on_data_dequeue),
    PORT_OBJ("on_data_transmitted", on_data_transmitted),
    {NULL},
};
#undef PORT_OBJ

static PyGetSetDef Port_getset[] = {
    {"control_queue", (getter)Port_get_control_queue, NULL,
     "The queued control packets, head first (a snapshot tuple).", NULL},
    {"_post", (getter)Port_get_post, (setter)Port_set_post,
     "The post alias; replacing it routes every post through the replacement.",
     NULL},
    {NULL},
};

static PyTypeObject PortType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_accelcore.EgressPort",
    .tp_basicsize = sizeof(PortObject),
    .tp_dealloc = (destructor)Port_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "The transmit path of an egress port (compiled plane).",
    .tp_traverse = (traverseproc)Port_traverse,
    .tp_clear = (inquiry)Port_clear,
    .tp_methods = Port_methods,
    .tp_members = Port_members,
    .tp_getset = Port_getset,
    .tp_init = (initproc)Port_init,
    .tp_new = PyType_GenericNew,
};

/* ===================================================================== *
 * SwitchPlane: the data hop of one switch
 * ===================================================================== */

struct SwitchPlaneObject {
    PyObject_HEAD
    PyObject *owner;     /* the Switch node: cold paths call back into it */
    PyObject *ports;     /* list: interface index -> egress port */
    BufferObject *buffer;
    CountersObject *counters; /* the switch's counters */
    ingress_arr pfc;     /* the PFC pause in force per ingress (1), or not (0) */
    PyObject *pfc_sent;  /* the switch's _pfc_sent dict: kept equal to pfc */
    PyObject *admit_override; /* a replaced _admit_data, or NULL */
    char pfc_enabled;
    double pfc_fraction;
    double pfc_resume_ratio;
    char ecn_enabled;
    double ecn_kmin;
    double ecn_kmax;
    double ecn_pmax;
    PyObject *ecn_rng;   /* the switch's random.Random, or NULL: call _maybe_mark_ecn */
    char int_enabled;
    /* ECMP memo: FlowKey address -> egress index; it holds a reference to
     * each key, so no address is reused while it is memoized. */
    imap_t memo;
    Py_ssize_t memo_limit;
    PyObject *routes;    /* the switch's routes, or NULL: call _ecmp_pick */
    PyObject *salt;      /* its _name_salt */
};

static PyTypeObject SwitchPlaneType;

static void
memo_clear(SwitchPlaneObject *self)
{
    imap_t memo = self->memo;
    Py_ssize_t pos = 0;
    imap_slot *slot;
    self->memo.slots = NULL;
    self->memo.used = 0;
    /* Detached before the keys are released: releasing one may run Python. */
    while ((slot = imap_next(&memo, &pos)) != NULL)
        Py_DECREF((PyObject *)(intptr_t)slot->key);
    imap_free(&memo);
}

/* hash((key, salt)) */
static Py_hash_t
ecmp_hash(SwitchPlaneObject *self, PyObject *key)
{
    PyObject *pair = PyTuple_Pack(2, key, self->salt);
    Py_hash_t h;
    if (pair == NULL)
        return -1;
    h = PyObject_Hash(pair);
    Py_DECREF(pair);
    return h;
}

/* Switch._ecmp_pick: choices[(hash((key, salt)) & 0x7FFFFFFF) % len(choices)]
 * for the key's destination; a missing route (the KeyError) and a switch
 * that replaces the method go through Python. */
static Py_ssize_t
plane_ecmp_pick(SwitchPlaneObject *self, PyObject *key)
{
    PyObject *dst, *choices, *choice = NULL;
    Py_ssize_t n, egress;
    if (self->routes != NULL) {
        dst = cls_get(&flowkey_class, key, K_DST);
        if (dst == NULL)
            return -1;
        choices = PyDict_GetItemWithError(self->routes, dst);
        Py_DECREF(dst);
        if (choices == NULL && PyErr_Occurred())
            return -1;
        Py_XINCREF(choices);
        n = choices == NULL ? 0 : PySequence_Size(choices);
        if (n == 1) {
            choice = PySequence_GetItem(choices, 0);
        }
        else if (n > 1) {
            Py_hash_t h = ecmp_hash(self, key);
            if (h != -1 || !PyErr_Occurred())
                choice = PySequence_GetItem(
                    choices, (Py_ssize_t)(((Py_uhash_t)h & 0x7FFFFFFF) % (Py_uhash_t)n));
        }
        Py_XDECREF(choices);
        if (n != 0 && choice == NULL)
            return -1;
    }
    if (choice == NULL)
        choice = PyObject_CallMethodOneArg(self->owner, str_ecmp_pick, key);
    if (choice == NULL)
        return -1;
    egress = PyLong_AsSsize_t(choice);
    Py_DECREF(choice);
    return egress;
}

/* Egress interface of a packet: the memo, else the ECMP pick. */
static Py_ssize_t
plane_egress(SwitchPlaneObject *self, PyObject *packet)
{
    PyObject *key = pkt_get(packet, P_KEY);
    Py_ssize_t egress;
    long long found;
    if (key == NULL)
        return -1;
    if (imap_get(&self->memo, (long long)(intptr_t)key, &found)) {
        Py_DECREF(key);
        return (Py_ssize_t)found;
    }
    egress = plane_ecmp_pick(self, key);
    if (egress == -1 && PyErr_Occurred()) {
        Py_DECREF(key);
        return -1;
    }
    if (self->memo.used >= self->memo_limit)
        memo_clear(self);
    if (imap_put(&self->memo, (long long)(intptr_t)key, egress) < 0) {
        Py_DECREF(key);
        return -1;
    }
    return egress; /* the memo keeps the reference */
}

static int
plane_send_pfc(SwitchPlaneObject *self, PyObject *ingress, Py_ssize_t index, int pause)
{
    PyObject *res;
    if (ingress_put(&self->pfc, index, pause) < 0 ||
        PyDict_SetItem(self->pfc_sent, ingress, pause ? Py_True : Py_False) < 0)
        return -1;
    res = call_method2(self->owner, str_send_pfc, ingress, pause ? Py_True : Py_False);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* Switch._check_pfc_pause with PfcPolicy.should_pause inlined, past its
 * pfc.enabled check. */
static int
plane_check_pause(SwitchPlaneObject *self, PyObject *ingress, Py_ssize_t index)
{
    long long occupancy, free_bytes;
    if (ingress_get(&self->pfc, index) > 0)
        return 0;
    occupancy = ingress_bytes(self->buffer, index);
    free_bytes = buffer_free(self->buffer);
    if ((double)occupancy > self->pfc_fraction * (double)free_bytes)
        return plane_send_pfc(self, ingress, index, 1);
    return 0;
}

/* Switch._check_pfc_resume with PfcPolicy.should_resume inlined, past its
 * pfc.enabled check. */
static int
plane_check_resume(SwitchPlaneObject *self, PyObject *ingress, Py_ssize_t index)
{
    long long occupancy, free_bytes;
    if (ingress_get(&self->pfc, index) <= 0)
        return 0;
    occupancy = ingress_bytes(self->buffer, index);
    free_bytes = buffer_free(self->buffer);
    if ((double)occupancy <=
        self->pfc_fraction * (double)free_bytes * self->pfc_resume_ratio)
        return plane_send_pfc(self, ingress, index, 0);
    return 0;
}

static int
plane_drop(SwitchPlaneObject *self, long long size)
{
    count(self->counters, C_DROPPED_PACKETS, 1);
    count(self->counters, C_DROPPED_BYTES, size);
    return 0;
}

/* Switch._maybe_mark_ecn, past the caller's kmin check: the RED marking
 * probability of EcnConfig.marking_probability and one draw of the switch's
 * random.Random only when it is positive. */
static int
plane_mark_ecn(SwitchPlaneObject *self, PyObject *packet, PyObject *port, long long backlog)
{
    PyObject *draw;
    double prob, span, value;
    if (self->ecn_rng == NULL) {
        draw = call_method2(self->owner, str_maybe_mark_ecn, packet, port);
        Py_XDECREF(draw);
        return draw == NULL ? -1 : 0;
    }
    if ((double)backlog >= self->ecn_kmax) {
        prob = 1.0;
    }
    else {
        span = self->ecn_kmax - self->ecn_kmin;
        prob = self->ecn_pmax * ((double)backlog - self->ecn_kmin) / (span > 1.0 ? span : 1.0);
    }
    if (!(prob > 0))
        return 0;
    draw = PyObject_CallMethodNoArgs(self->ecn_rng, str_random);
    if (draw == NULL)
        return -1;
    value = PyFloat_AsDouble(draw);
    Py_DECREF(draw);
    if (value == -1.0 && PyErr_Occurred())
        return -1;
    if (!(value < prob))
        return 0;
    if (pkt_set(packet, P_ECN_MARKED, Py_True) < 0)
        return -1;
    count(self->counters, C_ECN_MARKED, 1);
    return 0;
}

/* Switch._admit_data. */
static int
plane_admit_data(SwitchPlaneObject *self, PyObject *packet, PyObject *in_index,
                 PyObject *port)
{
    PyObject *discipline, *hops, *next;
    long long size, hop_count;
    Py_ssize_t ingress;
    int rc, capable;

    discipline = ((PortObject *)port)->discipline;
    if (discipline == NULL) {
        PyErr_SetString(PyExc_AttributeError, "egress port has no discipline");
        return -1;
    }
    if (pkt_ll(packet, P_SIZE, &size) < 0 || ingress_index(in_index, &ingress) < 0)
        return -1;
    rc = buffer_admit(self->buffer, size, ingress);
    if (rc <= 0)
        return rc < 0 ? -1 : plane_drop(self, size);
    if (pkt_set(packet, P_CUR_INGRESS, in_index) < 0)
        return -1;
    hops = pkt_get(packet, P_HOPS);
    if (hops == NULL)
        return -1;
    hop_count = PyLong_AsLongLong(hops);
    Py_DECREF(hops);
    if (hop_count == -1 && PyErr_Occurred())
        return -1;
    next = PyLong_FromLongLong(hop_count + 1);
    if (next == NULL)
        return -1;
    rc = pkt_set(packet, P_HOPS, next);
    Py_DECREF(next);
    if (rc < 0)
        return -1;
    Py_INCREF(discipline);
    if (self->ecn_enabled) {
        capable = pkt_truth(packet, P_ECN_CAPABLE);
        if (capable < 0)
            goto error;
        if (capable) {
            long long backlog;
            if (disc_backlog_bytes(discipline, &backlog) < 0)
                goto error;
            if ((double)backlog > self->ecn_kmin &&
                plane_mark_ecn(self, packet, port, backlog) < 0)
                goto error;
        }
    }
    rc = disc_enqueue(discipline, packet, in_index);
    Py_DECREF(discipline);
    if (rc < 0)
        return -1;
    if (rc == 0) {
        if (buffer_release(self->buffer, size, ingress) < 0)
            return -1;
        return plane_drop(self, size);
    }
    count(self->counters, C_FORWARDED_PACKETS, 1);
    if (port_kick((PortObject *)port) < 0)
        return -1;
    if (self->pfc_enabled)
        return plane_check_pause(self, in_index, ingress);
    return 0;

error:
    Py_DECREF(discipline);
    return -1;
}

/* Switch._on_data_dequeue. */
static int
plane_on_dequeue(SwitchPlaneObject *self, PyObject *packet, PyObject *iface_index)
{
    PyObject *ingress = pkt_get(packet, P_CUR_INGRESS);
    long long in_index, size;
    if (ingress == NULL)
        return -1;
    in_index = PyLong_AsLongLong(ingress);
    if (in_index == -1 && PyErr_Occurred())
        goto error;
    if (in_index >= 0) {
        if (pkt_ll(packet, P_SIZE, &size) < 0 ||
            buffer_release(self->buffer, size, (Py_ssize_t)in_index) < 0 ||
            pkt_set(packet, P_CUR_INGRESS, int_minus_one) < 0)
            goto error;
        if (self->pfc_enabled &&
            plane_check_resume(self, ingress, (Py_ssize_t)in_index) < 0)
            goto error;
    }
    Py_DECREF(ingress);
    if (self->int_enabled) {
        int stamped = pkt_truth(packet, P_INT_ENABLED);
        if (stamped < 0)
            return -1;
        if (stamped) {
            PyObject *res = call_method2(self->owner, str_stamp_int, packet, iface_index);
            if (res == NULL)
                return -1;
            Py_DECREF(res);
        }
    }
    return 0;

error:
    Py_DECREF(ingress);
    return -1;
}

static int pfc_load(SwitchPlaneObject *self, PyObject *sent);

/* A replaced Switch._admit_data: called as the Python hop calls it. */
static int
plane_admit_override(SwitchPlaneObject *self, PyObject *packet,
                     PyObject *iface_index, Py_ssize_t egress)
{
    PyObject *interfaces, *stack[3], *override, *res;
    interfaces = PyObject_GetAttrString(self->owner, "interfaces");
    if (interfaces == NULL)
        return -1;
    stack[0] = packet;
    stack[1] = iface_index;
    stack[2] = PySequence_GetItem(interfaces, egress);
    Py_DECREF(interfaces);
    if (stack[2] == NULL)
        return -1;
    override = Py_NewRef(self->admit_override);
    res = PyObject_Vectorcall(override, stack, 3, NULL);
    Py_DECREF(override);
    Py_DECREF(stack[2]);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    /* The Python hop may have set a flag in _pfc_sent itself (through an
     * instance's own _check_pfc_pause): take the dict's flags back. */
    return pfc_load(self, self->pfc_sent);
}

/* Switch.handle_packet. */
static int
plane_handle(SwitchPlaneObject *self, PyObject *packet, PyObject *iface_index)
{
    PyObject *port, *res;
    Py_ssize_t egress;
    int rc, is_control = pkt_truth(packet, P_IS_CONTROL);
    if (is_control < 0)
        return -1;
    if (is_control) {
        PyObject *kind = pkt_get(packet, P_KIND), *handler = NULL;
        if (kind == NULL)
            return -1;
        if (kind == kind_pfc)
            handler = str_handle_pfc;
        else if (kind == kind_bloom)
            handler = str_handle_bloom;
        Py_DECREF(kind);
        if (handler != NULL) {
            res = call_method2(self->owner, handler, packet, iface_index);
            if (res == NULL)
                return -1;
            Py_DECREF(res);
            return 0;
        }
    }
    egress = plane_egress(self, packet);
    if (egress < 0)
        return -1;
    if (egress >= PyList_GET_SIZE(self->ports)) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return -1;
    }
    port = Py_NewRef(PyList_GET_ITEM(self->ports, egress));
    if (is_control)
        rc = port_send_control((PortObject *)port, packet);
    else if (self->admit_override != NULL)
        rc = plane_admit_override(self, packet, iface_index, egress);
    else
        rc = plane_admit_data(self, packet, iface_index, port);
    Py_DECREF(port);
    return rc;
}

static int
check_args2(Py_ssize_t nargs, const char *what)
{
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "%s(packet, iface_index)", what);
        return -1;
    }
    return 0;
}

static PyObject *
SwitchPlane_handle_packet(SwitchPlaneObject *self, PyObject *const *args,
                          Py_ssize_t nargs)
{
    if (check_args2(nargs, "handle_packet") < 0 ||
        plane_handle(self, args[0], args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
SwitchPlane_on_data_dequeue(SwitchPlaneObject *self, PyObject *const *args,
                            Py_ssize_t nargs)
{
    if (check_args2(nargs, "on_data_dequeue") < 0 ||
        plane_on_dequeue(self, args[0], args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* Switch._check_pfc_pause / _check_pfc_resume on the compiled plane, for
 * the Python hop paths (a replaced _admit_data) to find the C flags. */
static PyObject *
SwitchPlane_check_pfc(SwitchPlaneObject *self, PyObject *ingress, int pause)
{
    Py_ssize_t index;
    int rc;
    if (!self->pfc_enabled)
        Py_RETURN_NONE;
    if (ingress_index(ingress, &index) < 0)
        return NULL;
    rc = pause ? plane_check_pause(self, ingress, index)
               : plane_check_resume(self, ingress, index);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
SwitchPlane_check_pfc_pause(SwitchPlaneObject *self, PyObject *ingress)
{
    return SwitchPlane_check_pfc(self, ingress, 1);
}

static PyObject *
SwitchPlane_check_pfc_resume(SwitchPlaneObject *self, PyObject *ingress)
{
    return SwitchPlane_check_pfc(self, ingress, 0);
}

static PyObject *
SwitchPlane_add_port(SwitchPlaneObject *self, PyObject *port)
{
    if (!Port_Check(port)) {
        PyErr_SetString(PyExc_TypeError, "the compiled hop needs compiled ports");
        return NULL;
    }
    if (PyList_Append(self->ports, port) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
SwitchPlane_clear_routes(SwitchPlaneObject *self, PyObject *Py_UNUSED(ignored))
{
    memo_clear(self);
    Py_RETURN_NONE;
}

/* Take the flags of a (new) _pfc_sent dict, which the hop keeps equal to
 * its own from here on. */
static int
pfc_load(SwitchPlaneObject *self, PyObject *sent)
{
    PyObject *key, *value;
    Py_ssize_t pos = 0, index;
    ingress_free(&self->pfc);
    while (PyDict_Next(sent, &pos, &key, &value)) {
        int truth = PyObject_IsTrue(value);
        if (truth < 0 || ingress_index(key, &index) < 0 ||
            ingress_put(&self->pfc, index, truth) < 0)
            return -1;
    }
    Py_XSETREF(self->pfc_sent, Py_NewRef(sent));
    return 0;
}

/* configure(buffer, counters, pfc_sent, pfc, ecn, int_enabled, admit_override,
 * ecn_rng, routes, name_salt) -- re-read whenever the switch rebinds one of
 * them.  ecn_rng None: the switch marks in its own _maybe_mark_ecn; routes
 * None: it picks in its own _ecmp_pick. */
static PyObject *
SwitchPlane_configure(SwitchPlaneObject *self, PyObject *const *args,
                      Py_ssize_t nargs)
{
    PyObject *pfc, *ecn, *value;
    double fraction, ratio;
    double kmin = 0.0, kmax = 0.0, pmax = 0.0;
    int pfc_enabled, ecn_enabled, int_enabled;
    if (nargs != 10) {
        PyErr_SetString(PyExc_TypeError,
                        "configure(buffer, counters, pfc_sent, pfc, ecn, int_enabled, "
                        "admit_override, ecn_rng, routes, name_salt)");
        return NULL;
    }
    if (args[8] != Py_None && !PyDict_Check(args[8])) {
        PyErr_SetString(PyExc_TypeError, "routes must be a dict");
        return NULL;
    }
    if (!Buffer_Check(args[0])) {
        PyErr_SetString(PyExc_TypeError, "the compiled hop needs the compiled SharedBuffer");
        return NULL;
    }
    if (!type_is(args[1], &CountersType)) {
        PyErr_SetString(PyExc_TypeError, "the compiled hop needs the compiled Counters");
        return NULL;
    }
    if (!PyDict_Check(args[2])) {
        PyErr_SetString(PyExc_TypeError, "pfc_sent must be a dict");
        return NULL;
    }
    pfc = args[3];
    ecn = args[4];
#define READ_BOOL(obj, name, out)                          \
    value = PyObject_GetAttrString(obj, name);             \
    if (value == NULL)                                     \
        return NULL;                                       \
    out = PyObject_IsTrue(value);                          \
    Py_DECREF(value);                                      \
    if (out < 0)                                           \
        return NULL;
#define READ_NUM(obj, name, out, conv)                     \
    value = PyObject_GetAttrString(obj, name);             \
    if (value == NULL)                                     \
        return NULL;                                       \
    out = conv(value);                                     \
    Py_DECREF(value);                                      \
    if (PyErr_Occurred())                                  \
        return NULL;
    READ_BOOL(pfc, "enabled", pfc_enabled)
    READ_NUM(pfc, "threshold_fraction", fraction, PyFloat_AsDouble)
    READ_NUM(pfc, "resume_ratio", ratio, PyFloat_AsDouble)
    READ_BOOL(ecn, "enabled", ecn_enabled)
    if (ecn_enabled) {
        READ_NUM(ecn, "kmin", kmin, PyFloat_AsDouble)
        READ_NUM(ecn, "kmax", kmax, PyFloat_AsDouble)
        READ_NUM(ecn, "pmax", pmax, PyFloat_AsDouble)
    }
#undef READ_BOOL
#undef READ_NUM
    int_enabled = PyObject_IsTrue(args[5]);
    if (int_enabled < 0)
        return NULL;
    Py_XSETREF(self->buffer, (BufferObject *)Py_NewRef(args[0]));
    Py_XSETREF(self->counters, (CountersObject *)Py_NewRef(args[1]));
    if (pfc_load(self, args[2]) < 0)
        return NULL;
    Py_CLEAR(self->admit_override);
    if (args[6] != Py_None)
        self->admit_override = Py_NewRef(args[6]);
    self->pfc_enabled = (char)pfc_enabled;
    self->pfc_fraction = fraction;
    self->pfc_resume_ratio = ratio;
    self->ecn_enabled = (char)ecn_enabled;
    self->ecn_kmin = kmin;
    self->ecn_kmax = kmax;
    self->ecn_pmax = pmax;
    Py_XSETREF(self->ecn_rng, args[7] == Py_None ? NULL : Py_NewRef(args[7]));
    self->int_enabled = (char)int_enabled;
    Py_XSETREF(self->routes, args[8] == Py_None ? NULL : Py_NewRef(args[8]));
    Py_XSETREF(self->salt, Py_NewRef(args[9]));
    Py_RETURN_NONE;
}

static int
SwitchPlane_init(SwitchPlaneObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"owner", "route_cache_limit", NULL};
    PyObject *owner;
    Py_ssize_t limit;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "On", kwlist, &owner, &limit))
        return -1;
    if (limit < 1) {
        PyErr_SetString(PyExc_ValueError, "route_cache_limit must be positive");
        return -1;
    }
    memo_clear(self);
    self->memo_limit = limit;
    Py_XSETREF(self->owner, Py_NewRef(owner));
    Py_XSETREF(self->ports, PyList_New(0));
    return self->ports == NULL ? -1 : 0;
}

static int
SwitchPlane_traverse(SwitchPlaneObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->owner);
    Py_VISIT(self->ports);
    Py_VISIT(self->buffer);
    Py_VISIT(self->counters);
    Py_VISIT(self->pfc_sent);
    Py_VISIT(self->admit_override);
    Py_VISIT(self->ecn_rng);
    Py_VISIT(self->routes);
    Py_VISIT(self->salt);
    return 0;
}

static int
SwitchPlane_clear(SwitchPlaneObject *self)
{
    Py_CLEAR(self->owner);
    Py_CLEAR(self->ports);
    Py_CLEAR(self->buffer);
    Py_CLEAR(self->counters);
    Py_CLEAR(self->pfc_sent);
    Py_CLEAR(self->admit_override);
    Py_CLEAR(self->ecn_rng);
    Py_CLEAR(self->routes);
    Py_CLEAR(self->salt);
    memo_clear(self);
    ingress_free(&self->pfc);
    return 0;
}

static void
SwitchPlane_dealloc(SwitchPlaneObject *self)
{
    PyObject_GC_UnTrack(self);
    SwitchPlane_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef SwitchPlane_methods[] = {
    {"handle_packet", (PyCFunction)(void (*)(void))SwitchPlane_handle_packet,
     METH_FASTCALL, "Switch.handle_packet for the compiled plane."},
    {"on_data_dequeue", (PyCFunction)(void (*)(void))SwitchPlane_on_data_dequeue,
     METH_FASTCALL, "Switch._on_data_dequeue for the compiled plane."},
    {"check_pfc_pause", (PyCFunction)SwitchPlane_check_pfc_pause, METH_O,
     "Switch._check_pfc_pause against the compiled hop's PFC flags."},
    {"check_pfc_resume", (PyCFunction)SwitchPlane_check_pfc_resume, METH_O,
     "Switch._check_pfc_resume against the compiled hop's PFC flags."},
    {"add_port", (PyCFunction)SwitchPlane_add_port, METH_O,
     "Register the egress port of the next interface."},
    {"clear_routes", (PyCFunction)SwitchPlane_clear_routes, METH_NOARGS,
     "Forget every memoized ECMP pick."},
    {"configure", (PyCFunction)(void (*)(void))SwitchPlane_configure, METH_FASTCALL,
     "Re-read the switch's buffer, counters, PFC/ECN/INT settings and routes."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject SwitchPlaneType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_accelcore.SwitchPlane",
    .tp_basicsize = sizeof(SwitchPlaneObject),
    .tp_dealloc = (destructor)SwitchPlane_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The data hop of one switch (compiled plane).",
    .tp_traverse = (traverseproc)SwitchPlane_traverse,
    .tp_clear = (inquiry)SwitchPlane_clear,
    .tp_methods = SwitchPlane_methods,
    .tp_init = (initproc)SwitchPlane_init,
    .tp_new = PyType_GenericNew,
};

/* ===================================================================== *
 * DeficitRoundRobin
 *
 * repro.sim.disciplines.DeficitRoundRobin statement for statement: the
 * round (queue ids in activation order with their stamps), its unparked
 * part, the deficits, the cursor and the queue being served.  The
 * compiled NIC drives it with a C probe; everything else passes a Python
 * callable to select().
 * ===================================================================== */

/* What a probe answers: nothing to send (park the queue), or a size in
 * *size (BLOCKED, i.e. negative, for a queue that may not send now). */
#define PROBE_NONE 0
#define PROBE_SIZE 1
typedef int (*drr_probe_fn)(void *ctx, PyObject *queue_id, long long *size);

typedef struct {
    PyObject *key; /* the queue id as first activated */
    long long qid;
    long long deficit;
    long long stamp;
    char parked;
} drr_rec;

typedef struct {
    long long qid;
    long long stamp;
    PyObject *key; /* borrowed from the queue's drr_rec */
} drr_pos;

typedef struct {
    PyObject_HEAD
    long long quantum;
    /* One record per queue in the round, in no order, and queue id ->
     * index into recs. */
    drr_rec *recs;
    imap_t index;
    /* The round and its unparked part, in stamp order. */
    drr_pos *active;
    Py_ssize_t n;
    drr_pos *live;
    Py_ssize_t m;
    Py_ssize_t cap; /* of recs, active and live */
    long long next_stamp;
    Py_ssize_t cursor;
    PyObject *current; /* borrowed key of the queue being served, or NULL */
    long long current_qid;
    char selecting;    /* a select() is probing: the round may not change */
} DrrObject;

static PyTypeObject DrrType;
#define Drr_Check(op) type_is(op, &DrrType)

/* The record of qid, or NULL. */
static inline drr_rec *
drr_find(DrrObject *self, long long qid)
{
    long long i;
    return imap_get(&self->index, qid, &i) ? &self->recs[i] : NULL;
}

static Py_ssize_t
pos_bisect(const drr_pos *a, Py_ssize_t n, long long stamp)
{
    Py_ssize_t lo = 0, hi = n;
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        if (a[mid].stamp < stamp)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

static void
pos_insert(drr_pos *a, Py_ssize_t *n, Py_ssize_t idx, drr_pos pos)
{
    memmove(&a[idx + 1], &a[idx], (size_t)(*n - idx) * sizeof(drr_pos));
    a[idx] = pos;
    *n += 1;
}

static void
pos_delete(drr_pos *a, Py_ssize_t *n, Py_ssize_t idx)
{
    memmove(&a[idx], &a[idx + 1], (size_t)(*n - idx - 1) * sizeof(drr_pos));
    *n -= 1;
}

static int
drr_refuse_while_selecting(DrrObject *self)
{
    if (!self->selecting)
        return 0;
    PyErr_SetString(PyExc_RuntimeError, "a select() probe must not change the round");
    return -1;
}

static int
drr_activate(DrrObject *self, PyObject *key)
{
    long long qid = PyLong_AsLongLong(key);
    drr_rec *rec;
    drr_pos pos;
    if (qid == -1 && PyErr_Occurred())
        return -1;
    if (drr_refuse_while_selecting(self) < 0)
        return -1;
    rec = drr_find(self, qid);
    if (rec != NULL) {
        if (rec->parked) {
            rec->parked = 0;
            pos.qid = qid;
            pos.stamp = rec->stamp;
            pos.key = rec->key;
            pos_insert(self->live, &self->m, pos_bisect(self->live, self->m, rec->stamp), pos);
        }
        return 0;
    }
    if (self->n == self->cap) {
        Py_ssize_t cap = self->cap ? 2 * self->cap : 8;
        drr_rec *recs = PyMem_Realloc(self->recs, (size_t)cap * sizeof(drr_rec));
        drr_pos *active, *live;
        if (recs == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        self->recs = recs;
        active = PyMem_Realloc(self->active, (size_t)cap * sizeof(drr_pos));
        if (active == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        self->active = active;
        live = PyMem_Realloc(self->live, (size_t)cap * sizeof(drr_pos));
        if (live == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        self->live = live;
        self->cap = cap;
    }
    if (imap_put(&self->index, qid, self->n) < 0)
        return -1;
    rec = &self->recs[self->n];
    rec->key = Py_NewRef(key);
    rec->qid = qid;
    rec->deficit = 0;
    rec->stamp = self->next_stamp++;
    rec->parked = 0;
    pos.qid = qid;
    pos.stamp = rec->stamp;
    pos.key = rec->key;
    self->active[self->n++] = pos;
    self->live[self->m++] = pos;
    return 0;
}

static int
drr_deactivate(DrrObject *self, PyObject *key)
{
    long long qid = PyLong_AsLongLong(key);
    drr_rec *rec;
    Py_ssize_t idx;
    if (qid == -1 && PyErr_Occurred())
        return -1;
    if (drr_refuse_while_selecting(self) < 0)
        return -1;
    rec = drr_find(self, qid);
    if (rec == NULL)
        return 0;
    idx = pos_bisect(self->active, self->n, rec->stamp);
    pos_delete(self->active, &self->n, idx);
    if (!rec->parked)
        pos_delete(self->live, &self->m, pos_bisect(self->live, self->m, rec->stamp));
    if (idx < self->cursor)
        self->cursor -= 1;
    if (self->n)
        self->cursor %= self->n;
    else
        self->cursor = 0;
    if (self->current == rec->key)
        self->current = NULL;
    /* The last record moves into the hole; n has already dropped by one. */
    imap_del(&self->index, qid);
    Py_DECREF(rec->key);
    if (rec != &self->recs[self->n]) {
        *rec = self->recs[self->n];
        imap_put(&self->index, rec->qid, rec - self->recs); /* present: cannot fail */
    }
    return 0;
}

static void
drr_park(DrrObject *self, Py_ssize_t live_idx)
{
    drr_find(self, self->live[live_idx].qid)->parked = 1;
    pos_delete(self->live, &self->m, live_idx);
}

/* DeficitRoundRobin.select: 1 with the picked queue's id in *out
 * (borrowed), 0 when nothing may send, -1 on error. */
static int
drr_select_inner(DrrObject *self, drr_probe_fn probe, void *ctx, PyObject **out)
{
    Py_ssize_t n, m, k, start, remaining;
    long long size, at_cursor = 0;
    int rc, have_at_cursor = 0;
    drr_rec *rec;

    if (self->current != NULL) {
        rec = drr_find(self, self->current_qid);
        rc = probe(ctx, rec->key, &size);
        if (rc < 0)
            return -1;
        if (rc == PROBE_NONE) {
            rec->deficit = 0; /* an empty queue forfeits its deficit */
            drr_park(self, pos_bisect(self->live, self->m, rec->stamp));
        }
        else if (size >= 0 && rec->deficit >= size) {
            rec->deficit -= size;
            *out = rec->key;
            return 1;
        }
        self->current = NULL;
    }
    n = self->n;
    if (!n)
        return 0;
    start = self->cursor;
    m = self->m;
    k = 0;
    if (m == n) {
        k = start;
        at_cursor = self->live[k].qid;
        have_at_cursor = 1;
        remaining = 2 * n + 1;
    }
    else if (m) {
        long long cursor_stamp = self->active[start].stamp;
        k = pos_bisect(self->live, m, cursor_stamp);
        if (k == m)
            k = 0;
        have_at_cursor = self->live[k].stamp == cursor_stamp;
        at_cursor = self->live[k].qid;
        remaining = 2 * m + have_at_cursor;
    }
    else {
        remaining = 0;
    }
    while (remaining > 0) {
        long long qid;
        if (k == m)
            k = 0;
        qid = self->live[k].qid;
        remaining -= 1;
        rc = probe(ctx, self->live[k].key, &size);
        if (rc < 0)
            return -1;
        if (rc == PROBE_NONE) {
            drr_park(self, k);
            m -= 1;
            remaining -= (have_at_cursor && qid == at_cursor) ? 2 : 1;
            continue;
        }
        if (size >= 0) {
            long long deficit;
            rec = drr_find(self, qid);
            deficit = rec->deficit + self->quantum;
            if (deficit >= size) {
                rec->deficit = deficit - size;
                self->current = rec->key;
                self->current_qid = qid;
                if (m != n)
                    k = pos_bisect(self->active, n, self->live[k].stamp);
                k += 1;
                self->cursor = k < n ? k : 0;
                *out = rec->key;
                return 1;
            }
            rec->deficit = deficit;
        }
        k += 1;
    }
    /* Fruitless: 2n + 1 arrivals leave the cursor one step on. */
    start += 1;
    self->cursor = start < n ? start : 0;
    return 0;
}

static int
drr_select(DrrObject *self, drr_probe_fn probe, void *ctx, PyObject **out)
{
    int rc;
    if (drr_refuse_while_selecting(self) < 0)
        return -1;
    self->selecting = 1;
    rc = drr_select_inner(self, probe, ctx, out);
    self->selecting = 0;
    return rc;
}

/* A Python callable as the probe. */
static int
drr_call_probe(void *ctx, PyObject *queue_id, long long *size)
{
    PyObject *res = PyObject_CallOneArg((PyObject *)ctx, queue_id);
    if (res == NULL)
        return -1;
    if (res == Py_None) {
        Py_DECREF(res);
        return PROBE_NONE;
    }
    *size = PyLong_AsLongLong(res);
    Py_DECREF(res);
    return (*size == -1 && PyErr_Occurred()) ? -1 : PROBE_SIZE;
}

static int Drr_clear(DrrObject *self);

static int
Drr_init(DrrObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"quantum", NULL};
    long long quantum = 1000;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|L", kwlist, &quantum))
        return -1;
    if (quantum <= 0) {
        PyErr_SetString(PyExc_ValueError, "quantum must be positive");
        return -1;
    }
    Drr_clear(self);
    self->quantum = quantum;
    self->next_stamp = 0;
    return 0;
}

static PyObject *
Drr_activate(DrrObject *self, PyObject *key)
{
    if (drr_activate(self, key) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Drr_deactivate(DrrObject *self, PyObject *key)
{
    if (drr_deactivate(self, key) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Drr_select(DrrObject *self, PyObject *probe)
{
    PyObject *picked;
    int rc = drr_select(self, drr_call_probe, probe, &picked);
    if (rc < 0)
        return NULL;
    if (rc == 0)
        Py_RETURN_NONE;
    return Py_NewRef(picked);
}

/* DeficitRoundRobin.idle. */
static void
drr_idle(DrrObject *self)
{
    self->current = NULL;
    if (self->n)
        self->cursor = (self->cursor + 1) % self->n;
}

static PyObject *
Drr_idle(DrrObject *self, PyObject *Py_UNUSED(ignored))
{
    drr_idle(self);
    Py_RETURN_NONE;
}

static PyObject *
pos_list(const drr_pos *a, Py_ssize_t n)
{
    PyObject *list = PyList_New(n);
    Py_ssize_t i;
    if (list == NULL)
        return NULL;
    for (i = 0; i < n; i++)
        PyList_SET_ITEM(list, i, Py_NewRef(a[i].key));
    return list;
}

static PyObject *
Drr_active_queues(DrrObject *self, PyObject *Py_UNUSED(ignored))
{
    return pos_list(self->active, self->n);
}

static PyObject *
Drr_unparked_queues(DrrObject *self, PyObject *Py_UNUSED(ignored))
{
    return pos_list(self->live, self->m);
}

static drr_rec *
drr_lookup(DrrObject *self, PyObject *key, int *failed)
{
    long long qid = PyLong_AsLongLong(key);
    *failed = qid == -1 && PyErr_Occurred();
    return *failed ? NULL : drr_find(self, qid);
}

static PyObject *
Drr_is_active(DrrObject *self, PyObject *key)
{
    int failed;
    drr_rec *rec = drr_lookup(self, key, &failed);
    if (failed)
        return NULL;
    return PyBool_FromLong(rec != NULL);
}

static PyObject *
Drr_deficit(DrrObject *self, PyObject *key)
{
    int failed;
    drr_rec *rec = drr_lookup(self, key, &failed);
    if (failed)
        return NULL;
    return PyLong_FromLongLong(rec != NULL ? rec->deficit : 0);
}

static PyObject *
Drr_get_cursor(DrrObject *self, void *closure)
{
    return PyLong_FromSsize_t(self->cursor);
}

static PyObject *
Drr_get_current(DrrObject *self, void *closure)
{
    return Py_NewRef(self->current != NULL ? self->current : Py_None);
}

static int
Drr_clear(DrrObject *self)
{
    Py_ssize_t i, n = self->n;
    self->n = self->m = 0;
    for (i = 0; i < n; i++)
        Py_DECREF(self->recs[i].key);
    imap_free(&self->index);
    PyMem_Free(self->recs);
    PyMem_Free(self->active);
    PyMem_Free(self->live);
    self->recs = NULL;
    self->active = self->live = NULL;
    self->cap = 0;
    self->cursor = 0;
    self->current = NULL;
    self->selecting = 0;
    return 0;
}

static void
Drr_dealloc(DrrObject *self)
{
    Drr_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef Drr_methods[] = {
    {"activate", (PyCFunction)Drr_activate, METH_O,
     "Add a queue to the round, or unpark it if it is already there."},
    {"deactivate", (PyCFunction)Drr_deactivate, METH_O,
     "Remove a queue (e.g. it became empty); its deficit is forgotten."},
    {"select", (PyCFunction)Drr_select, METH_O,
     "Pick the next queue to serve (one packet per call), or None."},
    {"idle", (PyCFunction)Drr_idle, METH_NOARGS,
     "Move the state as a select() that finds nothing sendable would."},
    {"active_queues", (PyCFunction)Drr_active_queues, METH_NOARGS,
     "Every queue in the round (parked ones too), in round order."},
    {"unparked_queues", (PyCFunction)Drr_unparked_queues, METH_NOARGS,
     "The queues a scan would probe, in round order."},
    {"is_active", (PyCFunction)Drr_is_active, METH_O, NULL},
    {"deficit", (PyCFunction)Drr_deficit, METH_O, NULL},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef Drr_members[] = {
    {"quantum", T_LONGLONG, offsetof(DrrObject, quantum), 0, NULL},
    {NULL},
};

static PyGetSetDef Drr_getset[] = {
    {"cursor", (getter)Drr_get_cursor, NULL,
     "Where the next scan starts: an index into active_queues().", NULL},
    {"current", (getter)Drr_get_current, NULL,
     "The queue whose service turn is in progress, if any.", NULL},
    {NULL},
};

static PyTypeObject DrrType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_accelcore.DeficitRoundRobin",
    .tp_basicsize = sizeof(DrrObject),
    .tp_dealloc = (destructor)Drr_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_doc = "Deficit round robin over numbered queues (compiled plane).",
    .tp_methods = Drr_methods,
    .tp_members = Drr_members,
    .tp_getset = Drr_getset,
    .tp_init = (initproc)Drr_init,
    .tp_new = PyType_GenericNew,
};

/* ===================================================================== *
 * The BFC data plane
 *
 * The egress discipline of a BFC switch port (repro.core.discipline), its
 * scheduler (repro.core.scheduler), the switch-wide virtual-flow table
 * (repro.core.vfid), physical-queue assignment (repro.core.queues) and
 * packet_vfid, statement for statement.  Pauses and unlimited resumes call
 * the agent back (pause_flow, resume_flow), a collision draws from the
 * pool's random.Random, and a filter test reads the codec's memoized int
 * masks, so both planes change the same state in the same order.  The
 * stats objects are the dataclasses of repro.core with their fields
 * stored in C (bind_bfc).
 * ===================================================================== */

#define BLOCKED (-1LL)
#define OVERFLOW_QUEUE (-2LL)
#define HIGH_PRIORITY_QUEUE (-1LL)

static PyObject *str_pause_flow, *str_resume_flow, *str_randrange, *str_digest,
    *str_masks, *str_mask, *str_bits, *str_flow_table, *str_by_count;

/* Does type keep base's methods of these names (no Python override)?
 * 1, 0 or -1. */
static int
keeps_methods(PyTypeObject *type, PyTypeObject *base, const char *const *names, size_t n)
{
    size_t i;
    for (i = 0; i < n; i++) {
        PyObject *mine = PyObject_GetAttrString((PyObject *)base, names[i]);
        PyObject *theirs = PyObject_GetAttrString((PyObject *)type, names[i]);
        int same = mine == theirs;
        Py_XDECREF(mine);
        Py_XDECREF(theirs);
        if (mine == NULL || theirs == NULL)
            return -1;
        if (!same)
            return 0;
    }
    return 1;
}

/* A config attribute as a long long: its int value, or with truth set its
 * truth value (a bool knob). */
static int
config_ll(PyObject *config, const char *name, int truth, long long *out)
{
    PyObject *value = PyObject_GetAttrString(config, name);
    if (value == NULL)
        return -1;
    *out = truth ? PyObject_IsTrue(value) : PyLong_AsLongLong(value);
    Py_DECREF(value);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* -- Stats: the dataclasses' fields, stored in C ------------------------ */

typedef struct {
    PyObject_HEAD
    long long inserts;
    long long vfid_collisions;
    long long bucket_overflows;
    long long cache_overflows;
    long long max_active_entries;
} TableStatsObject;

typedef struct {
    PyObject_HEAD
    long long assignments;
    long long collisions;
} PoolStatsObject;

typedef struct {
    PyObject_HEAD
    long long enqueued_packets;
    long long dequeued_packets;
    long long high_priority_packets;
    long long overflow_packets;
    long long pauses_sent;
    long long resumes_sent;
    long long max_queue_bytes;
    long long max_occupied_queues;
} EgressStatsObject;

#define STAT(type, name) {#name, T_LONGLONG, offsetof(type, name), 0, NULL}
static PyMemberDef TableStats_members[] = {
    STAT(TableStatsObject, inserts),
    STAT(TableStatsObject, vfid_collisions),
    STAT(TableStatsObject, bucket_overflows),
    STAT(TableStatsObject, cache_overflows),
    STAT(TableStatsObject, max_active_entries),
    {NULL},
};
static PyMemberDef PoolStats_members[] = {
    STAT(PoolStatsObject, assignments),
    STAT(PoolStatsObject, collisions),
    {NULL},
};
static PyMemberDef EgressStats_members[] = {
    STAT(EgressStatsObject, enqueued_packets),
    STAT(EgressStatsObject, dequeued_packets),
    STAT(EgressStatsObject, high_priority_packets),
    STAT(EgressStatsObject, overflow_packets),
    STAT(EgressStatsObject, pauses_sent),
    STAT(EgressStatsObject, resumes_sent),
    STAT(EgressStatsObject, max_queue_bytes),
    STAT(EgressStatsObject, max_occupied_queues),
    {NULL},
};
#undef STAT

/* No tp_init: the dataclass the plane mixes in sets the fields. */
#define STATS_TYPE(cname, pyname, doc)                                  \
    static PyTypeObject cname##Type = {                                 \
        PyVarObject_HEAD_INIT(NULL, 0)                                  \
        .tp_name = "_accelcore." pyname,                                \
        .tp_basicsize = sizeof(cname##Object),                          \
        .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,           \
        .tp_doc = doc,                                                  \
        .tp_members = cname##_members,                                  \
        .tp_new = PyType_GenericNew,                                    \
    };
STATS_TYPE(TableStats, "FlowTableStats", "FlowTableStats' counters, stored in C.")
STATS_TYPE(PoolStats, "QueueAssignmentStats", "QueueAssignmentStats' counters, stored in C.")
STATS_TYPE(EgressStats, "BfcEgressStats", "BfcEgressStats' counters, stored in C.")
#undef STATS_TYPE

/* Set by bind_bfc(): the plane's stats classes, the C types above with
 * their dataclass mixed in. */
static PyObject *table_stats_class, *pool_stats_class, *egress_stats_class;

/* A new stats object of a bound class. */
static PyObject *
new_stats(PyObject *cls, PyTypeObject *base)
{
    PyObject *stats;
    if (cls == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "_accelcore.bind_bfc() has not run");
        return NULL;
    }
    stats = PyObject_CallNoArgs(cls);
    if (stats != NULL && !PyObject_TypeCheck(stats, base)) {
        Py_DECREF(stats);
        PyErr_Format(PyExc_TypeError, "%R does not store its fields in C", cls);
        return NULL;
    }
    return stats;
}

static PyObject *
bind_bfc(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyTypeObject *bases[3] = {&TableStatsType, &PoolStatsType, &EgressStatsType};
    int i;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "bind_bfc expects (FlowTableStats, QueueAssignmentStats, "
                        "BfcEgressStats)");
        return NULL;
    }
    for (i = 0; i < 3; i++) {
        if (!PyType_Check(args[i]) ||
            !PyType_IsSubtype((PyTypeObject *)args[i], bases[i])) {
            PyErr_Format(PyExc_TypeError, "%R is not a subclass of %s", args[i],
                         bases[i]->tp_name);
            return NULL;
        }
    }
    Py_XSETREF(table_stats_class, Py_NewRef(args[0]));
    Py_XSETREF(pool_stats_class, Py_NewRef(args[1]));
    Py_XSETREF(egress_stats_class, Py_NewRef(args[2]));
    Py_RETURN_NONE;
}

/* -- packet_vfid -------------------------------------------------------- */

/* repro.core.vfid.packet_vfid: the packet's VFID in a space of `space`
 * (new reference, value in *out), cached on the packet. */
static PyObject *
packet_vfid_obj(PyObject *packet, long long space, PyObject *space_obj, long long *out)
{
    PyObject *vfid = pkt_get(packet, P_VFID), *key, *digest;
    long long value, have_space;
    if (vfid == NULL)
        return NULL;
    value = PyLong_AsLongLong(vfid);
    if (value == -1 && PyErr_Occurred())
        goto error;
    if (value >= 0) {
        if (pkt_ll(packet, P_VFID_SPACE, &have_space) < 0)
            goto error;
        if (have_space == space) {
            *out = value;
            return vfid;
        }
    }
    Py_DECREF(vfid);
    key = pkt_get(packet, P_KEY);
    if (key == NULL)
        return NULL;
    digest = PyObject_GetAttr(key, str_digest);
    Py_DECREF(key);
    if (digest == NULL)
        return NULL;
    vfid = PyNumber_Remainder(digest, space_obj);
    Py_DECREF(digest);
    if (vfid == NULL)
        return NULL;
    if (pkt_set(packet, P_VFID, vfid) < 0 || pkt_set(packet, P_VFID_SPACE, space_obj) < 0)
        goto error;
    *out = PyLong_AsLongLong(vfid);
    if (*out == -1 && PyErr_Occurred())
        goto error;
    return vfid;

error:
    Py_DECREF(vfid);
    return NULL;
}

static PyObject *
module_packet_vfid(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    long long space, vfid;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "packet_vfid(packet, space)");
        return NULL;
    }
    space = PyLong_AsLongLong(args[1]);
    if (space == -1 && PyErr_Occurred())
        return NULL;
    if (space <= 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "the VFID space must be positive");
        return NULL;
    }
    return packet_vfid_obj(args[0], space, args[1], &vfid);
}

/* -- FlowEntry ---------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    long long vfid;
    long long ingress;
    long long egress;
    long long queue; /* -1 while no physical queue is assigned (None) */
    long long packets;
    long long bytes;
    char paused_upstream;
    char resume_pending;
    char in_overflow_cache;
    PyObject *current_key; /* NULL reads as None */
} FlowEntryObject;

static PyTypeObject FlowEntryType;
#define FlowEntry_Check(op) PyObject_TypeCheck(op, &FlowEntryType)

/* Every field, whatever state the entry's previous flow left behind. */
static void
entry_reset(FlowEntryObject *e, long long vfid, long long ingress, long long egress,
            PyObject *key)
{
    e->vfid = vfid;
    e->ingress = ingress;
    e->egress = egress;
    e->queue = -1;
    e->packets = e->bytes = 0;
    e->paused_upstream = e->resume_pending = e->in_overflow_cache = 0;
    Py_XSETREF(e->current_key, (key == NULL || key == Py_None) ? NULL : Py_NewRef(key));
}

static int
FlowEntry_init(FlowEntryObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"vfid", "ingress", "egress", "current_key", NULL};
    long long vfid, ingress, egress;
    PyObject *key = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "LLL|O", kwlist, &vfid, &ingress,
                                     &egress, &key))
        return -1;
    entry_reset(self, vfid, ingress, egress, key);
    return 0;
}

static void
FlowEntry_dealloc(FlowEntryObject *self)
{
    Py_CLEAR(self->current_key);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
FlowEntry_get_queue(FlowEntryObject *self, void *closure)
{
    if (self->queue < 0)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(self->queue);
}

static int
FlowEntry_set_queue(FlowEntryObject *self, PyObject *value, void *closure)
{
    long long queue;
    if (value == NULL || value == Py_None) {
        self->queue = -1;
        return 0;
    }
    queue = PyLong_AsLongLong(value);
    if (queue == -1 && PyErr_Occurred())
        return -1;
    if (queue < 0) {
        PyErr_SetString(PyExc_ValueError, "a physical queue id is not negative");
        return -1;
    }
    self->queue = queue;
    return 0;
}

static PyObject *
FlowEntry_is_idle(FlowEntryObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyBool_FromLong(self->packets == 0);
}

static PyObject *
FlowEntry_identity(FlowEntryObject *self, PyObject *Py_UNUSED(ignored))
{
    return Py_BuildValue("(LLL)", self->vfid, self->ingress, self->egress);
}

static PyMethodDef FlowEntry_methods[] = {
    {"is_idle", (PyCFunction)FlowEntry_is_idle, METH_NOARGS, NULL},
    {"identity", (PyCFunction)FlowEntry_identity, METH_NOARGS,
     "(vfid, ingress, egress)."},
    {NULL, NULL, 0, NULL},
};

#define ENTRY_LL(name) {#name, T_LONGLONG, offsetof(FlowEntryObject, name), 0, NULL}
#define ENTRY_BOOL(name) {#name, T_BOOL, offsetof(FlowEntryObject, name), 0, NULL}
static PyMemberDef FlowEntry_members[] = {
    ENTRY_LL(vfid),
    ENTRY_LL(ingress),
    ENTRY_LL(egress),
    ENTRY_LL(packets),
    ENTRY_LL(bytes),
    ENTRY_BOOL(paused_upstream),
    ENTRY_BOOL(resume_pending),
    ENTRY_BOOL(in_overflow_cache),
    {"current_key", T_OBJECT, offsetof(FlowEntryObject, current_key), 0, NULL},
    {NULL},
};
#undef ENTRY_LL
#undef ENTRY_BOOL

static PyGetSetDef FlowEntry_getset[] = {
    {"queue", (getter)FlowEntry_get_queue, (setter)FlowEntry_set_queue,
     "The assigned physical queue, or None.", NULL},
    {NULL},
};

static PyTypeObject FlowEntryType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_accelcore.FlowEntry",
    .tp_basicsize = sizeof(FlowEntryObject),
    .tp_dealloc = (destructor)FlowEntry_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Per-active-flow switch state (repro.core.vfid.FlowEntry) in C.",
    .tp_methods = FlowEntry_methods,
    .tp_members = FlowEntry_members,
    .tp_getset = FlowEntry_getset,
    .tp_init = (initproc)FlowEntry_init,
    .tp_new = PyType_GenericNew,
};

/* -- FlowTable ---------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    PyObject *config;
    TableStatsObject *stats;
    long long bucket_size;
    long long cache_entries;
    imap_t entries; /* packed (vfid, ingress, egress) -> owned FlowEntryObject * */
    imap_t buckets; /* vfid -> its entries outside the overflow cache */
    long long cached;
    FlowEntryObject **free; /* recycled entries, owned */
    Py_ssize_t nfree;
    Py_ssize_t free_cap;
} FlowTableObject;

static PyTypeObject FlowTableType;

static inline long long
flow_pack(long long vfid, long long ingress, long long egress)
{
    return (long long)(((unsigned long long)vfid << 32) + ((unsigned long long)ingress << 16) +
                       (unsigned long long)egress);
}

static FlowEntryObject *
table_lookup(FlowTableObject *t, long long vfid, long long ingress, long long egress)
{
    long long found;
    return imap_get(&t->entries, flow_pack(vfid, ingress, egress), &found)
               ? (FlowEntryObject *)(intptr_t)found
               : NULL;
}

/* FlowTable.lookup_or_insert: 0 with the entry (borrowed) in *out, NULL
 * when neither the bucket nor the overflow cache has room; -1 on error.
 * key may be NULL or None (no key). */
static int
table_lookup_or_insert(FlowTableObject *t, long long vfid, long long ingress,
                       long long egress, PyObject *key, FlowEntryObject **out)
{
    long long packed = flow_pack(vfid, ingress, egress), found, in_bucket = 0;
    FlowEntryObject *entry;
    int cached;
    if (imap_get(&t->entries, packed, &found)) {
        entry = (FlowEntryObject *)(intptr_t)found;
        if (key != NULL && key != Py_None && key != entry->current_key) {
            PyObject *current = entry->current_key;
            if (current != NULL && current != Py_None && entry->packets > 0) {
                int differs = PyObject_RichCompareBool(key, current, Py_NE);
                if (differs < 0)
                    return -1;
                /* A different real flow hashed onto the same live entry. */
                if (differs)
                    t->stats->vfid_collisions += 1;
            }
            Py_XSETREF(entry->current_key, Py_NewRef(key));
        }
        *out = entry;
        return 0;
    }
    t->stats->inserts += 1;
    imap_get(&t->buckets, vfid, &in_bucket);
    cached = in_bucket >= t->bucket_size;
    if (cached) {
        t->stats->bucket_overflows += 1;
        if (t->cached >= t->cache_entries) {
            t->stats->cache_overflows += 1;
            *out = NULL;
            return 0;
        }
    }
    if (t->nfree) {
        entry = t->free[--t->nfree]; /* its reference moves to the table */
    }
    else {
        entry = (FlowEntryObject *)FlowEntryType.tp_alloc(&FlowEntryType, 0);
        if (entry == NULL)
            return -1;
    }
    if (imap_put(&t->entries, packed, (long long)(intptr_t)entry) < 0 ||
        (!cached && imap_put(&t->buckets, vfid, in_bucket + 1) < 0)) {
        imap_del(&t->entries, packed);
        Py_DECREF(entry);
        return -1;
    }
    if (cached)
        t->cached += 1;
    entry_reset(entry, vfid, ingress, egress, key);
    entry->in_overflow_cache = (char)cached;
    if (t->entries.used > t->stats->max_active_entries)
        t->stats->max_active_entries = t->entries.used;
    *out = entry;
    return 0;
}

/* FlowTable.remove: the flow's last packet left the switch. */
static int
table_remove(FlowTableObject *t, FlowEntryObject *entry)
{
    long long packed = flow_pack(entry->vfid, entry->ingress, entry->egress), found;
    if (!imap_get(&t->entries, packed, &found) || (FlowEntryObject *)(intptr_t)found != entry) {
        /* Fail loudly: a second remove would put the entry on the free
         * list twice and hand one object to two flows. */
        PyErr_Format(PyExc_KeyError, "flow entry (%lld, %lld, %lld) is not in the table",
                     entry->vfid, entry->ingress, entry->egress);
        return -1;
    }
    if (t->nfree == t->free_cap) {
        Py_ssize_t cap = t->free_cap ? 2 * t->free_cap : 16;
        FlowEntryObject **grown = PyMem_Realloc(t->free, (size_t)cap * sizeof(*grown));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        t->free = grown;
        t->free_cap = cap;
    }
    imap_del(&t->entries, packed);
    if (entry->in_overflow_cache) {
        t->cached -= 1;
    }
    else {
        long long left = 0;
        imap_get(&t->buckets, entry->vfid, &left);
        left -= 1;
        if (left > 0) {
            if (imap_put(&t->buckets, entry->vfid, left) < 0)
                return -1;
        }
        else {
            imap_del(&t->buckets, entry->vfid);
        }
    }
    t->free[t->nfree++] = entry; /* the table's reference moves here */
    return 0;
}

static int FlowTable_clear(FlowTableObject *self);

static int
FlowTable_init(FlowTableObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"config", NULL};
    PyObject *config;
    long long sizes[2];
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O", kwlist, &config) ||
        config_ll(config, "table_bucket_size", 0, &sizes[0]) < 0 ||
        config_ll(config, "overflow_cache_entries", 0, &sizes[1]) < 0)
        return -1;
    FlowTable_clear(self);
    self->stats = (TableStatsObject *)new_stats(table_stats_class, &TableStatsType);
    if (self->stats == NULL)
        return -1;
    self->config = Py_NewRef(config);
    self->bucket_size = sizes[0];
    self->cache_entries = sizes[1];
    return 0;
}

static int
table_args(PyObject *const *args, Py_ssize_t nargs, long long out[3])
{
    Py_ssize_t i;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "expected (vfid, ingress, egress)");
        return -1;
    }
    for (i = 0; i < 3; i++) {
        out[i] = PyLong_AsLongLong(args[i]);
        if (out[i] == -1 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

static PyObject *
FlowTable_lookup(FlowTableObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long ids[3];
    FlowEntryObject *entry;
    if (table_args(args, nargs, ids) < 0)
        return NULL;
    entry = table_lookup(self, ids[0], ids[1], ids[2]);
    return Py_NewRef(entry != NULL ? (PyObject *)entry : Py_None);
}

static PyObject *
FlowTable_lookup_or_insert(FlowTableObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"vfid", "ingress", "egress", "key", NULL};
    long long vfid, ingress, egress;
    PyObject *key = NULL;
    FlowEntryObject *entry;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "LLL|O", kwlist, &vfid, &ingress,
                                     &egress, &key))
        return NULL;
    if (table_lookup_or_insert(self, vfid, ingress, egress, key, &entry) < 0)
        return NULL;
    return Py_NewRef(entry != NULL ? (PyObject *)entry : Py_None);
}

static PyObject *
FlowTable_remove(FlowTableObject *self, PyObject *entry)
{
    if (!FlowEntry_Check(entry)) {
        PyErr_SetString(PyExc_TypeError, "expected a compiled FlowEntry");
        return NULL;
    }
    if (table_remove(self, (FlowEntryObject *)entry) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
FlowTable_active_entries(FlowTableObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromSsize_t(self->entries.used);
}

static PyObject *
FlowTable_entries(FlowTableObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *list = PyList_New(0);
    Py_ssize_t pos = 0;
    imap_slot *slot;
    if (list == NULL)
        return NULL;
    while ((slot = imap_next(&self->entries, &pos)) != NULL) {
        if (PyList_Append(list, (PyObject *)(intptr_t)slot->value) < 0) {
            Py_DECREF(list);
            return NULL;
        }
    }
    return list;
}

static PyObject *
FlowTable_bucket_counts(FlowTableObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *counts = PyDict_New();
    Py_ssize_t pos = 0;
    imap_slot *slot;
    if (counts == NULL)
        return NULL;
    while ((slot = imap_next(&self->buckets, &pos)) != NULL) {
        PyObject *vfid, *count;
        int rc;
        vfid = PyLong_FromLongLong(slot->key);
        count = PyLong_FromLongLong(slot->value);
        rc = (vfid == NULL || count == NULL) ? -1 : PyDict_SetItem(counts, vfid, count);
        Py_XDECREF(vfid);
        Py_XDECREF(count);
        if (rc < 0) {
            Py_DECREF(counts);
            return NULL;
        }
    }
    return counts;
}

static PyObject *
FlowTable_get_cached(FlowTableObject *self, void *closure)
{
    return PyLong_FromLongLong(self->cached);
}

static int
FlowTable_traverse(FlowTableObject *self, visitproc visit, void *arg)
{
    Py_ssize_t i, pos = 0;
    imap_slot *slot;
    Py_VISIT(self->config);
    Py_VISIT(self->stats);
    while ((slot = imap_next(&self->entries, &pos)) != NULL)
        Py_VISIT((PyObject *)(intptr_t)slot->value);
    for (i = 0; i < self->nfree; i++)
        Py_VISIT(self->free[i]);
    return 0;
}

static int
FlowTable_clear(FlowTableObject *self)
{
    Py_ssize_t i, pos = 0;
    imap_slot *slot;
    Py_CLEAR(self->config);
    Py_CLEAR(self->stats);
    while ((slot = imap_next(&self->entries, &pos)) != NULL)
        Py_DECREF((PyObject *)(intptr_t)slot->value);
    imap_free(&self->entries);
    imap_free(&self->buckets);
    for (i = 0; i < self->nfree; i++)
        Py_DECREF(self->free[i]);
    PyMem_Free(self->free);
    self->free = NULL;
    self->nfree = self->free_cap = 0;
    self->cached = 0;
    return 0;
}

static void
FlowTable_dealloc(FlowTableObject *self)
{
    PyObject_GC_UnTrack(self);
    FlowTable_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef FlowTable_methods[] = {
    {"lookup", (PyCFunction)(void (*)(void))FlowTable_lookup, METH_FASTCALL,
     "Find the entry for (vfid, ingress, egress), if any."},
    {"lookup_or_insert", (PyCFunction)(void (*)(void))FlowTable_lookup_or_insert,
     METH_VARARGS | METH_KEYWORDS,
     "Return the entry for a packet, creating one if needed (None: no room)."},
    {"remove", (PyCFunction)FlowTable_remove, METH_O,
     "Reclaim an entry (the flow's last packet left the switch)."},
    {"active_entries", (PyCFunction)FlowTable_active_entries, METH_NOARGS, NULL},
    {"entries", (PyCFunction)FlowTable_entries, METH_NOARGS, NULL},
    {"bucket_counts", (PyCFunction)FlowTable_bucket_counts, METH_NOARGS,
     "{vfid: entries outside the overflow cache}."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef FlowTable_members[] = {
    {"config", T_OBJECT, offsetof(FlowTableObject, config), READONLY, NULL},
    {"stats", T_OBJECT, offsetof(FlowTableObject, stats), READONLY, NULL},
    {NULL},
};

static PyGetSetDef FlowTable_getset[] = {
    {"_cached", (getter)FlowTable_get_cached, NULL, "Entries in the overflow cache.", NULL},
    {NULL},
};

static PyTypeObject FlowTableType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_accelcore.FlowTable",
    .tp_basicsize = sizeof(FlowTableObject),
    .tp_dealloc = (destructor)FlowTable_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "The virtual-flow hash table plus the overflow cache (compiled plane).",
    .tp_traverse = (traverseproc)FlowTable_traverse,
    .tp_clear = (inquiry)FlowTable_clear,
    .tp_methods = FlowTable_methods,
    .tp_members = FlowTable_members,
    .tp_getset = FlowTable_getset,
    .tp_init = (initproc)FlowTable_init,
    .tp_new = PyType_GenericNew,
};

/* -- PhysicalQueuePool -------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    PyObject *config;
    PyObject *rng;
    PyObject *num_queues_obj;
    PoolStatsObject *stats;
    Py_ssize_t num_queues;
    char is_static;
    long long *assigned; /* flows per queue */
    long long *free;     /* unallocated queues, most recently released last */
    Py_ssize_t nfree;
    long long occupied;
} PoolObject;

static PyTypeObject PoolType;

/* PhysicalQueuePool.assign: the queue in *out. */
static int
pool_assign(PoolObject *p, long long vfid, long long *out)
{
    long long queue;
    PyObject *drawn;
    p->stats->assignments += 1;
    if (p->is_static) {
        queue = ((vfid % p->num_queues) + p->num_queues) % p->num_queues;
        if (p->assigned[queue] > 0)
            p->stats->collisions += 1;
        else
            p->occupied += 1;
        p->assigned[queue] += 1;
        *out = queue;
        return 0;
    }
    if (p->nfree) {
        queue = p->free[--p->nfree];
        p->occupied += 1;
        p->assigned[queue] = 1;
        *out = queue;
        return 0;
    }
    /* Every queue is occupied: a random one, as the paper assigns (§3.3). */
    drawn = call_method2(p->rng, str_randrange, p->num_queues_obj, NULL);
    if (drawn == NULL)
        return -1;
    queue = PyLong_AsLongLong(drawn);
    Py_DECREF(drawn);
    if (queue == -1 && PyErr_Occurred())
        return -1;
    if (queue < 0 || queue >= p->num_queues) {
        PyErr_SetString(PyExc_ValueError, "randrange() left the queue range");
        return -1;
    }
    p->stats->collisions += 1;
    p->assigned[queue] += 1;
    *out = queue;
    return 0;
}

static int
pool_check(PoolObject *p, long long queue)
{
    if (queue >= 0 && queue < p->num_queues)
        return 0;
    PyErr_SetString(PyExc_IndexError, "physical queue out of range");
    return -1;
}

/* PhysicalQueuePool.release: a flow assigned to queue went idle. */
static int
pool_release(PoolObject *p, long long queue)
{
    if (pool_check(p, queue) < 0)
        return -1;
    if (p->assigned[queue] <= 0) {
        PyErr_Format(PyExc_ValueError, "queue %lld has no assigned flows to release", queue);
        return -1;
    }
    p->assigned[queue] -= 1;
    if (p->assigned[queue] == 0) {
        p->occupied -= 1;
        if (!p->is_static)
            p->free[p->nfree++] = queue;
    }
    return 0;
}

static int Pool_clear(PoolObject *self);

static int
Pool_init(PoolObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"config", "rng", NULL};
    PyObject *config, *rng = Py_None;
    Py_ssize_t i, num_queues;
    long long queues, is_static;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|O", kwlist, &config, &rng) ||
        config_ll(config, "num_physical_queues", 0, &queues) < 0 ||
        config_ll(config, "static_queue_assignment", 1, &is_static) < 0)
        return -1;
    if (queues < 1) {
        PyErr_SetString(PyExc_ValueError, "need at least one physical queue per port");
        return -1;
    }
    num_queues = (Py_ssize_t)queues;
    Pool_clear(self);
    if (rng == Py_None) {
        PyObject *random = PyImport_ImportModule("random");
        if (random == NULL)
            return -1;
        self->rng = PyObject_CallMethod(random, "Random", "i", 0);
        Py_DECREF(random);
        if (self->rng == NULL)
            return -1;
    }
    else {
        self->rng = Py_NewRef(rng);
    }
    self->stats = (PoolStatsObject *)new_stats(pool_stats_class, &PoolStatsType);
    self->num_queues_obj = PyLong_FromSsize_t(num_queues);
    self->assigned = PyMem_Calloc((size_t)num_queues, sizeof(long long));
    self->free = PyMem_Calloc((size_t)num_queues, sizeof(long long));
    if (self->stats == NULL || self->num_queues_obj == NULL)
        return -1;
    if (self->assigned == NULL || self->free == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->config = Py_NewRef(config);
    self->num_queues = num_queues;
    self->is_static = (char)is_static;
    /* Static assignment (BFC-VFID) never consults the free list. */
    self->nfree = is_static ? 0 : num_queues;
    for (i = 0; i < self->nfree; i++)
        self->free[i] = i;
    self->occupied = 0;
    return 0;
}

static PyObject *
Pool_assign(PoolObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"vfid", NULL};
    long long vfid, queue;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "L", kwlist, &vfid))
        return NULL;
    if (pool_assign(self, vfid, &queue) < 0)
        return NULL;
    return PyLong_FromLongLong(queue);
}

static PyObject *
Pool_release(PoolObject *self, PyObject *queue_obj)
{
    long long queue = PyLong_AsLongLong(queue_obj);
    if (queue == -1 && PyErr_Occurred())
        return NULL;
    if (pool_release(self, queue) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Pool_assigned_flows(PoolObject *self, PyObject *queue_obj)
{
    long long queue = PyLong_AsLongLong(queue_obj);
    if ((queue == -1 && PyErr_Occurred()) || pool_check(self, queue) < 0)
        return NULL;
    return PyLong_FromLongLong(self->assigned[queue]);
}

static PyObject *
Pool_occupied_queues(PoolObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromLongLong(self->occupied);
}

static PyObject *
ll_list(const long long *values, Py_ssize_t n)
{
    PyObject *list = PyList_New(n);
    Py_ssize_t i;
    if (list == NULL)
        return NULL;
    for (i = 0; i < n; i++) {
        PyObject *value = PyLong_FromLongLong(values[i]);
        if (value == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, value);
    }
    return list;
}

static PyObject *
Pool_get_free(PoolObject *self, void *closure)
{
    return ll_list(self->free, self->nfree);
}

static PyObject *
Pool_get_assigned(PoolObject *self, void *closure)
{
    return ll_list(self->assigned, self->num_queues);
}

static int
Pool_traverse(PoolObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->config);
    Py_VISIT(self->rng);
    Py_VISIT(self->stats);
    return 0;
}

static int
Pool_clear(PoolObject *self)
{
    Py_CLEAR(self->config);
    Py_CLEAR(self->rng);
    Py_CLEAR(self->stats);
    Py_CLEAR(self->num_queues_obj);
    PyMem_Free(self->assigned);
    PyMem_Free(self->free);
    self->assigned = self->free = NULL;
    self->num_queues = self->nfree = 0;
    return 0;
}

static void
Pool_dealloc(PoolObject *self)
{
    PyObject_GC_UnTrack(self);
    Pool_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef Pool_methods[] = {
    {"assign", (PyCFunction)(void (*)(void))Pool_assign, METH_VARARGS | METH_KEYWORDS, "Pick a physical queue for a newly-active flow."},
    {"release", (PyCFunction)Pool_release, METH_O, "A flow assigned to queue went idle."},
    {"assigned_flows", (PyCFunction)Pool_assigned_flows, METH_O, NULL},
    {"occupied_queues", (PyCFunction)Pool_occupied_queues, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef Pool_members[] = {
    {"config", T_OBJECT, offsetof(PoolObject, config), READONLY, NULL},
    {"stats", T_OBJECT, offsetof(PoolObject, stats), READONLY, NULL},
    {"num_queues", T_PYSSIZET, offsetof(PoolObject, num_queues), READONLY, NULL},
    {NULL},
};

static PyGetSetDef Pool_getset[] = {
    {"_free", (getter)Pool_get_free, NULL, "Unallocated queues, next one last.", NULL},
    {"_assigned_flows", (getter)Pool_get_assigned, NULL, "Flows per queue.", NULL},
    {NULL},
};

static PyTypeObject PoolType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_accelcore.PhysicalQueuePool",
    .tp_basicsize = sizeof(PoolObject),
    .tp_dealloc = (destructor)Pool_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "Which physical queues are free and how many flows use each (compiled plane).",
    .tp_traverse = (traverseproc)Pool_traverse,
    .tp_clear = (inquiry)Pool_clear,
    .tp_methods = Pool_methods,
    .tp_members = Pool_members,
    .tp_getset = Pool_getset,
    .tp_init = (initproc)Pool_init,
    .tp_new = PyType_GenericNew,
};

/* -- BfcScheduler ------------------------------------------------------- */

/* One packet queue, with what the DRR reads of it. */
typedef struct {
    pring ring;
    long long ready; /* the head's size if it may send, else BLOCKED */
} bfcq;

typedef struct {
    PyObject_HEAD
    PyObject *config;
    PyObject *codec;
    PyObject *masks; /* codec._masks */
    PyObject *space; /* num_vfids as an int */
    long long num_vfids;
    Py_ssize_t num_queues;
    /* The physical queues, then the overflow queue at [num_queues] and the
     * high-priority queue at [num_queues + 1]; NULL until the first push. */
    bfcq *queues;
    long long total_bytes;
    long long total_packets;
    long long eligible_count;
    DrrObject *drr;
    PyObject *filter;      /* downstream_filter: bytes, or NULL for None */
    PyObject *filter_bits; /* the same filter as the codec's int */
    char filtering;        /* filter_bits != 0 */
} SchedObject;

static PyTypeObject SchedType;

static int
sched_index(SchedObject *s, long long qid, Py_ssize_t *out)
{
    if (qid < -2 || qid >= s->num_queues) {
        PyErr_Format(PyExc_IndexError, "queue %lld out of range", qid);
        return -1;
    }
    *out = qid >= 0 ? (Py_ssize_t)qid : s->num_queues + 2 + (Py_ssize_t)qid;
    return 0;
}

static int
sched_alloc(SchedObject *s)
{
    Py_ssize_t i, n = s->num_queues + 2;
    if (s->queues != NULL)
        return 0;
    s->queues = PyMem_Calloc((size_t)n, sizeof(bfcq));
    if (s->queues == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < n; i++)
        s->queues[i].ready = BLOCKED;
    return 0;
}

/* BfcScheduler._blocked: is the VFID of head in the installed filter?
 * The codec's memoized mask, tested as bits & mask == mask. */
static int
sched_blocked(SchedObject *s, PyObject *head)
{
    long long vfid;
    PyObject *vfid_obj = packet_vfid_obj(head, s->num_vfids, s->space, &vfid), *mask, *both;
    int blocked;
    if (vfid_obj == NULL)
        return -1;
    mask = PyDict_GetItemWithError(s->masks, vfid_obj);
    if (mask != NULL)
        Py_INCREF(mask);
    else if (!PyErr_Occurred())
        mask = PyObject_CallMethodOneArg(s->codec, str_mask, vfid_obj);
    Py_DECREF(vfid_obj);
    if (mask == NULL)
        return -1;
    both = PyNumber_And(s->filter_bits, mask);
    if (both == NULL) {
        Py_DECREF(mask);
        return -1;
    }
    blocked = PyObject_RichCompareBool(both, mask, Py_EQ);
    Py_DECREF(both);
    Py_DECREF(mask);
    return blocked;
}

/* Is head allowed to send under the installed filter: 1, 0, or -1. */
static inline int
sched_may_send(SchedObject *s, PyObject *head)
{
    int blocked;
    if (!s->filtering)
        return 1;
    blocked = sched_blocked(s, head);
    return blocked < 0 ? -1 : !blocked;
}

/* BfcScheduler.push_queue: the queue's bytes in *queue_bytes. */
static int
sched_push(SchedObject *s, long long qid, PyObject *packet, long long size,
           long long *queue_bytes)
{
    Py_ssize_t i;
    bfcq *q;
    if (sched_index(s, qid, &i) < 0 || sched_alloc(s) < 0)
        return -1;
    if (qid == HIGH_PRIORITY_QUEUE) {
        PyErr_SetString(PyExc_ValueError, "push_queue() takes a physical or the overflow queue");
        return -1;
    }
    q = &s->queues[i];
    if (q->ring.count == 0) {
        PyObject *key = PyLong_FromLongLong(qid);
        int rc, ok;
        if (key == NULL)
            return -1;
        rc = drr_activate(s->drr, key);
        Py_DECREF(key);
        if (rc < 0)
            return -1;
        ok = sched_may_send(s, packet);
        if (ok < 0)
            return -1;
        if (ok) {
            q->ready = size;
            s->eligible_count += 1;
        }
    }
    if (ring_push(&q->ring, packet, size) < 0)
        return -1;
    s->total_bytes += size;
    s->total_packets += 1;
    *queue_bytes = q->ring.bytes;
    return 0;
}

static int
sched_push_high_priority(SchedObject *s, PyObject *packet, long long size)
{
    if (sched_alloc(s) < 0 || ring_push(&s->queues[s->num_queues + 1].ring, packet, size) < 0)
        return -1;
    s->total_bytes += size;
    s->total_packets += 1;
    return 0;
}

/* BfcScheduler.install_filter: 1 if installed, 0 if it is the one installed. */
static int
sched_install(SchedObject *s, PyObject *bitmap)
{
    PyObject *bits;
    Py_ssize_t k;
    long long count = 0;
    int same = PyObject_RichCompareBool(bitmap, s->filter != NULL ? s->filter : Py_None, Py_EQ);
    if (same != 0)
        return same < 0 ? -1 : 0;
    Py_XSETREF(s->filter, bitmap == Py_None ? NULL : Py_NewRef(bitmap));
    bits = PyObject_CallMethodOneArg(s->codec, str_bits, bitmap);
    if (bits == NULL)
        return -1;
    Py_XSETREF(s->filter_bits, bits);
    same = PyObject_IsTrue(bits);
    if (same < 0)
        return -1;
    s->filtering = (char)same;
    for (k = 0; k < s->drr->n; k++) {
        Py_ssize_t i;
        bfcq *q;
        int ok;
        if (sched_index(s, s->drr->active[k].qid, &i) < 0)
            return -1;
        q = &s->queues[i];
        ok = sched_may_send(s, ring_at(&q->ring, 0)->packet);
        if (ok < 0)
            return -1;
        if (ok) {
            q->ready = ring_at(&q->ring, 0)->size;
            count += 1;
        }
        else {
            q->ready = BLOCKED;
        }
    }
    s->eligible_count = count;
    return 1;
}

/* The DRR's probe: a queue's ready value. */
static int
sched_probe(void *ctx, PyObject *queue_id, long long *size)
{
    SchedObject *s = (SchedObject *)ctx;
    long long qid = PyLong_AsLongLong(queue_id);
    Py_ssize_t i;
    if ((qid == -1 && PyErr_Occurred()) || sched_index(s, qid, &i) < 0)
        return -1;
    *size = s->queues[i].ready;
    return PROBE_SIZE;
}

/* BfcScheduler.pop: 1 with the packet (new reference), its size and its
 * source queue, 0 when nothing may send, -1 on error. */
static int
sched_pop(SchedObject *s, PyObject **packet, long long *size, long long *qid)
{
    PyObject *key;
    Py_ssize_t i;
    bfcq *q;
    int rc;
    if (s->queues != NULL && s->queues[s->num_queues + 1].ring.count) {
        *packet = ring_pop(&s->queues[s->num_queues + 1].ring, size);
        s->total_bytes -= *size;
        s->total_packets -= 1;
        *qid = HIGH_PRIORITY_QUEUE;
        return 1;
    }
    if (!s->eligible_count) {
        drr_idle(s->drr); /* nothing may send: skip the fruitless scan */
        return 0;
    }
    rc = drr_select(s->drr, sched_probe, s, &key);
    if (rc <= 0)
        return rc;
    *qid = PyLong_AsLongLong(key);
    if ((*qid == -1 && PyErr_Occurred()) || sched_index(s, *qid, &i) < 0)
        return -1;
    q = &s->queues[i];
    *packet = ring_pop(&q->ring, size);
    s->total_bytes -= *size;
    s->total_packets -= 1;
    if (q->ring.count == 0) {
        q->ready = BLOCKED;
        s->eligible_count -= 1;
        Py_INCREF(key); /* deactivate() drops the round's reference */
        rc = drr_deactivate(s->drr, key);
        Py_DECREF(key);
    }
    else {
        rc = sched_may_send(s, ring_at(&q->ring, 0)->packet);
        if (rc > 0) {
            q->ready = ring_at(&q->ring, 0)->size;
        }
        else if (rc == 0) {
            q->ready = BLOCKED;
            s->eligible_count -= 1;
        }
    }
    if (rc < 0) {
        Py_CLEAR(*packet);
        return -1;
    }
    return 1;
}

static long long
sched_queue_bytes(SchedObject *s, Py_ssize_t index)
{
    return s->queues == NULL ? 0 : s->queues[index].ring.bytes;
}

static int Sched_clear(SchedObject *self);

static int
Sched_init(SchedObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"config", "codec", "sim", NULL};
    PyObject *config, *codec, *sim = Py_None;
    long long values[3];
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO|O", kwlist, &config, &codec, &sim) ||
        config_ll(config, "num_physical_queues", 0, &values[0]) < 0 ||
        config_ll(config, "num_vfids", 0, &values[1]) < 0 ||
        config_ll(config, "mtu", 0, &values[2]) < 0)
        return -1;
    if (values[0] < 1 || values[1] < 1) {
        PyErr_SetString(PyExc_ValueError, "need physical queues and a VFID space");
        return -1;
    }
    Sched_clear(self);
    self->masks = PyObject_GetAttr(codec, str_masks);
    if (self->masks == NULL)
        return -1;
    if (!PyDict_Check(self->masks)) {
        PyErr_SetString(PyExc_TypeError, "the codec's mask memo must be a dict");
        return -1;
    }
    self->space = PyLong_FromLongLong(values[1]);
    self->drr = (DrrObject *)PyObject_CallFunction((PyObject *)&DrrType, "L", values[2] + 48);
    if (self->space == NULL || self->drr == NULL)
        return -1;
    self->config = Py_NewRef(config);
    self->codec = Py_NewRef(codec);
    self->num_queues = (Py_ssize_t)values[0];
    self->num_vfids = values[1];
    self->filter_bits = Py_NewRef(int_zero);
    return 0;
}

static PyObject *
Sched_push_high_priority(SchedObject *self, PyObject *packet)
{
    long long size;
    if (pkt_ll(packet, P_SIZE, &size) < 0 || sched_push_high_priority(self, packet, size) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Sched_push_queue(SchedObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long qid, size, queue_bytes;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "push_queue(qid, packet)");
        return NULL;
    }
    qid = PyLong_AsLongLong(args[0]);
    if ((qid == -1 && PyErr_Occurred()) || pkt_ll(args[1], P_SIZE, &size) < 0 ||
        sched_push(self, qid, args[1], size, &queue_bytes) < 0)
        return NULL;
    return PyLong_FromLongLong(queue_bytes);
}

static PyObject *
Sched_install_filter(SchedObject *self, PyObject *bitmap)
{
    int rc = sched_install(self, bitmap);
    if (rc < 0)
        return NULL;
    return PyBool_FromLong(rc);
}

static PyObject *
Sched_pop(SchedObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *packet, *result;
    long long size, qid;
    int rc = sched_pop(self, &packet, &size, &qid);
    if (rc < 0)
        return NULL;
    if (rc == 0)
        Py_RETURN_NONE;
    result = Py_BuildValue("(NL)", packet, qid);
    return result;
}

static PyObject *
Sched_queue_bytes(SchedObject *self, PyObject *qid_obj)
{
    long long qid = PyLong_AsLongLong(qid_obj);
    Py_ssize_t i;
    if ((qid == -1 && PyErr_Occurred()) || sched_index(self, qid, &i) < 0)
        return NULL;
    return PyLong_FromLongLong(sched_queue_bytes(self, i));
}

static PyObject *
Sched_queued(SchedObject *self, PyObject *qid_obj)
{
    long long qid = PyLong_AsLongLong(qid_obj);
    Py_ssize_t i, k;
    PyObject *list;
    bfcq *q;
    if ((qid == -1 && PyErr_Occurred()) || sched_index(self, qid, &i) < 0)
        return NULL;
    if (self->queues == NULL)
        return PyList_New(0);
    q = &self->queues[i];
    list = PyList_New(q->ring.count);
    if (list == NULL)
        return NULL;
    for (k = 0; k < q->ring.count; k++)
        PyList_SET_ITEM(list, k, Py_NewRef(ring_at(&q->ring, k)->packet));
    return list;
}

static PyObject *
Sched_nonempty_queues(SchedObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *list = PyList_New(0), *overflow = NULL;
    Py_ssize_t k;
    if (list == NULL)
        return NULL;
    for (k = 0; k < self->drr->n; k++) {
        PyObject *key = self->drr->active[k].key;
        if (self->drr->active[k].qid == OVERFLOW_QUEUE)
            overflow = key;
        else if (PyList_Append(list, key) < 0)
            goto error;
    }
    if (PyList_Sort(list) < 0 || (overflow != NULL && PyList_Append(list, overflow) < 0))
        goto error;
    return list;

error:
    Py_DECREF(list);
    return NULL;
}

static PyObject *
Sched_per_queue_bytes(SchedObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *list = PyList_New(self->num_queues);
    Py_ssize_t i;
    if (list == NULL)
        return NULL;
    for (i = 0; i < self->num_queues; i++) {
        PyObject *value = PyLong_FromLongLong(sched_queue_bytes(self, i));
        if (value == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, value);
    }
    return list;
}

static PyObject *
Sched_get_ready(SchedObject *self, void *closure)
{
    Py_ssize_t i, n = self->num_queues + 2;
    PyObject *list = PyList_New(n);
    if (list == NULL)
        return NULL;
    for (i = 0; i < n; i++) {
        PyObject *value = PyLong_FromLongLong(self->queues == NULL ? BLOCKED : self->queues[i].ready);
        if (value == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, value);
    }
    return list;
}

static PyObject *
Sched_get_filter(SchedObject *self, void *closure)
{
    return Py_NewRef(self->filter != NULL ? self->filter : Py_None);
}

static int
Sched_traverse(SchedObject *self, visitproc visit, void *arg)
{
    Py_ssize_t i;
    Py_VISIT(self->config);
    Py_VISIT(self->codec);
    Py_VISIT(self->masks);
    Py_VISIT(self->drr);
    Py_VISIT(self->filter);
    Py_VISIT(self->filter_bits);
    for (i = 0; self->queues != NULL && i < self->num_queues + 2; i++) {
        int rc = ring_traverse(&self->queues[i].ring, visit, arg);
        if (rc)
            return rc;
    }
    return 0;
}

static int
Sched_clear(SchedObject *self)
{
    Py_ssize_t i;
    Py_CLEAR(self->config);
    Py_CLEAR(self->codec);
    Py_CLEAR(self->masks);
    Py_CLEAR(self->space);
    Py_CLEAR(self->drr);
    Py_CLEAR(self->filter);
    Py_CLEAR(self->filter_bits);
    for (i = 0; self->queues != NULL && i < self->num_queues + 2; i++) {
        ring_clear(&self->queues[i].ring);
        PyMem_Free(self->queues[i].ring.items);
    }
    PyMem_Free(self->queues);
    self->queues = NULL;
    self->total_bytes = self->total_packets = self->eligible_count = 0;
    self->filtering = 0;
    return 0;
}

static void
Sched_dealloc(SchedObject *self)
{
    PyObject_GC_UnTrack(self);
    Sched_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef Sched_methods[] = {
    {"push_high_priority", (PyCFunction)Sched_push_high_priority, METH_O, NULL},
    {"push_queue", (PyCFunction)(void (*)(void))Sched_push_queue, METH_FASTCALL,
     "Append to a physical queue or OVERFLOW_QUEUE; returns its bytes."},
    {"install_filter", (PyCFunction)Sched_install_filter, METH_O,
     "Install the next hop's pause filter; False if it is the one installed."},
    {"pop", (PyCFunction)Sched_pop, METH_NOARGS,
     "Pick the next packet to send: (packet, source_queue) or None."},
    {"queue_bytes", (PyCFunction)Sched_queue_bytes, METH_O, NULL},
    {"queued", (PyCFunction)Sched_queued, METH_O, "The packets of one queue, head first."},
    {"nonempty_queues", (PyCFunction)Sched_nonempty_queues, METH_NOARGS, NULL},
    {"per_queue_bytes", (PyCFunction)Sched_per_queue_bytes, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef Sched_members[] = {
    {"config", T_OBJECT, offsetof(SchedObject, config), READONLY, NULL},
    {"num_queues", T_PYSSIZET, offsetof(SchedObject, num_queues), READONLY, NULL},
    {"total_bytes", T_LONGLONG, offsetof(SchedObject, total_bytes), READONLY, NULL},
    {"total_packets", T_LONGLONG, offsetof(SchedObject, total_packets), READONLY, NULL},
    {"eligible_count", T_LONGLONG, offsetof(SchedObject, eligible_count), READONLY, NULL},
    {"_codec", T_OBJECT, offsetof(SchedObject, codec), READONLY, NULL},
    {"_drr", T_OBJECT, offsetof(SchedObject, drr), READONLY, NULL},
    {"_filter_bits", T_OBJECT, offsetof(SchedObject, filter_bits), READONLY, NULL},
    {"_num_vfids", T_LONGLONG, offsetof(SchedObject, num_vfids), READONLY, NULL},
    {NULL},
};

static PyGetSetDef Sched_getset[] = {
    {"downstream_filter", (getter)Sched_get_filter, NULL,
     "The most recent Bloom filter received from the next hop.", NULL},
    {"_ready", (getter)Sched_get_ready, NULL,
     "Per queue: the head's size if it may send, else BLOCKED.", NULL},
    {NULL},
};

static PyTypeObject SchedType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_accelcore.BfcScheduler",
    .tp_basicsize = sizeof(SchedObject),
    .tp_dealloc = (destructor)Sched_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "Packet storage and DRR service for one BFC egress port (compiled plane).",
    .tp_traverse = (traverseproc)Sched_traverse,
    .tp_clear = (inquiry)Sched_clear,
    .tp_methods = Sched_methods,
    .tp_members = Sched_members,
    .tp_getset = Sched_getset,
    .tp_init = (initproc)Sched_init,
    .tp_new = PyType_GenericNew,
};

/* -- BfcEgressDiscipline ------------------------------------------------ */

typedef struct {
    long long vfid;
    long long ingress;
} rpair;

/* A physical queue's to-be-resumed list, FIFO without duplicates. */
typedef struct {
    rpair *items; /* items[head .. head + count) */
    Py_ssize_t head;
    Py_ssize_t count;
    Py_ssize_t cap;
    char created;
} rlist;

struct BfcDiscObject {
    PyObject_HEAD
    PyObject *agent;
    PyObject *config;
    PyObject *thresholds;
    PyObject *space; /* num_vfids as an int */
    long long egress_index;
    long long num_vfids;
    SchedObject *scheduler;
    PoolObject *pool;
    FlowTableObject *table;
    EgressStatsObject *stats;
    double *by_count; /* Th by the number of active queues */
    Py_ssize_t nthresholds;
    long long resumes_per_interval;
    long long pending_resumes;
    char use_high_priority;
    char limit_resume_rate;
    char direct; /* the hot methods are this type's own */
    rlist *lists;           /* by physical queue; NULL until the first is made */
    Py_ssize_t *list_order; /* queues whose list exists, in creation order */
    Py_ssize_t nlists;
};

#define BfcDisc_Check(op) type_is(op, &BfcDiscType)

static int
bfc_threshold(BfcDiscObject *d, long long active, double *out)
{
    if (active < 0 || active >= d->nthresholds) {
        PyErr_SetString(PyExc_IndexError, "active queue count outside the threshold table");
        return -1;
    }
    *out = d->by_count[active];
    return 0;
}

/* BfcEgressDiscipline._resume_list: made on first use. */
static rlist *
bfc_rlist(BfcDiscObject *d, long long queue)
{
    Py_ssize_t n = d->pool->num_queues;
    rlist *l;
    if (queue < 0 || queue >= n) {
        PyErr_Format(PyExc_IndexError, "resume list of queue %lld out of range", queue);
        return NULL;
    }
    if (d->lists == NULL) {
        d->lists = PyMem_Calloc((size_t)n, sizeof(rlist));
        d->list_order = PyMem_Calloc((size_t)n, sizeof(Py_ssize_t));
        if (d->lists == NULL || d->list_order == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
    }
    l = &d->lists[queue];
    if (!l->created) {
        l->created = 1;
        d->list_order[d->nlists++] = (Py_ssize_t)queue;
    }
    return l;
}

static Py_ssize_t
rlist_find(const rlist *l, long long vfid, long long ingress)
{
    Py_ssize_t k;
    for (k = 0; k < l->count; k++) {
        const rpair *item = &l->items[l->head + k];
        if (item->vfid == vfid && item->ingress == ingress)
            return k;
    }
    return -1;
}

/* ResumeList.add: 1 if queued, 0 if it already was. */
static int
rlist_add(rlist *l, long long vfid, long long ingress)
{
    if (rlist_find(l, vfid, ingress) >= 0)
        return 0;
    if (l->head + l->count == l->cap) {
        if (l->head > 0) {
            memmove(l->items, &l->items[l->head], (size_t)l->count * sizeof(rpair));
            l->head = 0;
        }
        else {
            Py_ssize_t cap = l->cap ? 2 * l->cap : 4;
            rpair *items = PyMem_Realloc(l->items, (size_t)cap * sizeof(rpair));
            if (items == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            l->items = items;
            l->cap = cap;
        }
    }
    l->items[l->head + l->count].vfid = vfid;
    l->items[l->head + l->count].ingress = ingress;
    l->count += 1;
    return 1;
}

/* ResumeList.discard: 1 if it was queued. */
static int
rlist_discard(rlist *l, long long vfid, long long ingress)
{
    Py_ssize_t k = rlist_find(l, vfid, ingress);
    if (k < 0)
        return 0;
    memmove(&l->items[l->head + k], &l->items[l->head + k + 1],
            (size_t)(l->count - k - 1) * sizeof(rpair));
    l->count -= 1;
    return 1;
}

/* BfcEgressDiscipline._add_resume. */
static int
bfc_add_resume(BfcDiscObject *d, long long queue, FlowEntryObject *entry)
{
    rlist *l = bfc_rlist(d, queue);
    int added;
    if (l == NULL)
        return -1;
    added = rlist_add(l, entry->vfid, entry->ingress);
    if (added > 0)
        d->pending_resumes += 1;
    return added < 0 ? -1 : 0;
}

/* agent.name(vfid, ingress): its truth value, or -1. */
static int
bfc_agent_call(BfcDiscObject *d, PyObject *name, long long vfid, long long ingress)
{
    PyObject *vfid_obj = PyLong_FromLongLong(vfid), *ingress_obj, *res;
    int truth;
    if (vfid_obj == NULL)
        return -1;
    ingress_obj = PyLong_FromLongLong(ingress);
    if (ingress_obj == NULL) {
        Py_DECREF(vfid_obj);
        return -1;
    }
    res = call_method2(d->agent, name, vfid_obj, ingress_obj);
    Py_DECREF(vfid_obj);
    Py_DECREF(ingress_obj);
    if (res == NULL)
        return -1;
    truth = PyObject_IsTrue(res);
    Py_DECREF(res);
    return truth;
}

/* BfcEgressDiscipline._check_resume (§3.5): consider resuming a paused
 * flow when its queue drains below Th. */
static int
bfc_check_resume(BfcDiscObject *d, FlowEntryObject *entry, long long source_queue)
{
    long long queue = entry->queue >= 0 ? entry->queue : source_queue, queue_bytes;
    double threshold;
    int resumed;
    if (queue < 0) {
        /* Only its high-priority packet was queued: no physical queue yet. */
        queue_bytes = 0;
        queue = 0;
    }
    else {
        queue_bytes = sched_queue_bytes(d->scheduler, (Py_ssize_t)queue);
    }
    if (bfc_threshold(d, d->scheduler->eligible_count, &threshold) < 0)
        return -1;
    if ((double)queue_bytes > threshold)
        return 0;
    if (d->limit_resume_rate) {
        if (bfc_add_resume(d, queue, entry) < 0)
            return -1;
        entry->resume_pending = 1;
        return 0;
    }
    /* BFC-BufferOpt ablation: resume immediately, without rate limiting. */
    resumed = bfc_agent_call(d, str_resume_flow, entry->vfid, entry->ingress);
    if (resumed < 0)
        return -1;
    if (resumed)
        d->stats->resumes_sent += 1;
    entry->paused_upstream = 0;
    return 0;
}

/* BfcEgressDiscipline.enqueue: 1, or -1 on error. */
static int
bfc_enqueue(BfcDiscObject *d, PyObject *packet, PyObject *ingress_obj)
{
    SchedObject *s = d->scheduler;
    EgressStatsObject *stats = d->stats;
    FlowEntryObject *entry;
    PyObject *vfid_obj, *key;
    long long vfid, ingress, size, queue_bytes;
    double threshold;
    int rc;

    ingress = PyLong_AsLongLong(ingress_obj);
    if (ingress == -1 && PyErr_Occurred())
        return -1;
    vfid_obj = packet_vfid_obj(packet, d->num_vfids, d->space, &vfid);
    if (vfid_obj == NULL)
        return -1;
    Py_DECREF(vfid_obj); /* the packet keeps it */
    key = pkt_get(packet, P_KEY);
    if (key == NULL)
        return -1;
    rc = table_lookup_or_insert(d->table, vfid, ingress, d->egress_index, key, &entry);
    Py_DECREF(key);
    if (rc < 0 || pkt_ll(packet, P_SIZE, &size) < 0)
        return -1;
    stats->enqueued_packets += 1;
    if (entry == NULL) {
        /* Neither the bucket nor the overflow cache had room: divert to the
         * per-egress overflow queue (§3.8), with no entry handle. */
        if (sched_push(s, OVERFLOW_QUEUE, packet, size, &queue_bytes) < 0)
            return -1;
        stats->overflow_packets += 1;
        return 1;
    }
    if (pkt_set(packet, P_ENTRY, (PyObject *)entry) < 0)
        return -1;
    entry->packets += 1;
    entry->bytes += size;
    if (d->use_high_priority && entry->packets == 1 && !entry->paused_upstream) {
        int first = pkt_truth(packet, P_FIRST_OF_FLOW);
        if (first < 0)
            return -1;
        if (first) {
            /* §3.7: first (marked) packet of a flow, nothing else queued. */
            if (sched_push_high_priority(s, packet, size) < 0)
                return -1;
            stats->high_priority_packets += 1;
            return 1;
        }
    }
    if (entry->queue < 0) {
        if (pool_assign(d->pool, vfid, &entry->queue) < 0)
            return -1;
        if (d->pool->occupied > stats->max_occupied_queues)
            stats->max_occupied_queues = d->pool->occupied;
    }
    if (sched_push(s, entry->queue, packet, size, &queue_bytes) < 0)
        return -1;
    if (queue_bytes > stats->max_queue_bytes)
        stats->max_queue_bytes = queue_bytes;
    if (entry->paused_upstream)
        return 1;
    /* §3.4: pause the arriving flow if its queue exceeds Th(Nactive). */
    if (bfc_threshold(d, s->eligible_count, &threshold) < 0)
        return -1;
    if ((double)queue_bytes > threshold) {
        long long queue = entry->queue;
        rlist *l;
        rc = bfc_agent_call(d, str_pause_flow, vfid, ingress);
        if (rc < 0)
            return -1;
        if (rc)
            stats->pauses_sent += 1;
        entry->paused_upstream = 1;
        /* A pause supersedes any pending resume for the same flow. */
        l = bfc_rlist(d, queue);
        if (l == NULL)
            return -1;
        if (rlist_discard(l, vfid, ingress))
            d->pending_resumes -= 1;
    }
    return 1;
}

/* BfcEgressDiscipline.dequeue: a new reference, Py_None, or NULL. */
static PyObject *
bfc_dequeue(BfcDiscObject *d)
{
    PyObject *packet, *handle;
    FlowEntryObject *entry;
    long long size, source_queue;
    int rc = sched_pop(d->scheduler, &packet, &size, &source_queue);
    if (rc < 0)
        return NULL;
    if (rc == 0)
        Py_RETURN_NONE;
    d->stats->dequeued_packets += 1;
    handle = pkt_get(packet, P_ENTRY);
    if (handle == NULL)
        goto error;
    if (handle == Py_None) {
        /* Overflow-queue packets belong to flows without a table entry. */
        Py_DECREF(handle);
        return packet;
    }
    if (!FlowEntry_Check(handle)) {
        PyErr_SetString(PyExc_TypeError, "a compiled BFC port holds a foreign entry handle");
        goto error_handle;
    }
    entry = (FlowEntryObject *)handle;
    if (pkt_set(packet, P_ENTRY, Py_None) < 0)
        goto error_handle;
    entry->packets -= 1;
    entry->bytes -= size;
    if (entry->paused_upstream && bfc_check_resume(d, entry, source_queue) < 0)
        goto error_handle;
    if (entry->packets <= 0) {
        /* The flow's last packet left this switch: release its queue and
         * recycle its table entry. */
        long long queue = entry->queue;
        if (entry->paused_upstream && !entry->resume_pending &&
            bfc_add_resume(d, queue >= 0 ? queue : 0, entry) < 0)
            goto error_handle;
        if (queue >= 0) {
            if (pool_release(d->pool, queue) < 0)
                goto error_handle;
            entry->queue = -1;
        }
        if (table_remove(d->table, entry) < 0)
            goto error_handle;
    }
    Py_DECREF(handle);
    return packet;

error_handle:
    Py_DECREF(handle);
error:
    Py_DECREF(packet);
    return NULL;
}

static int
bfc_direct(PyObject *disc)
{
    return BfcDisc_Check(disc) && ((BfcDiscObject *)disc)->direct;
}

static long long
bfc_backlog(BfcDiscObject *d, long long *bytes)
{
    *bytes = d->scheduler->total_bytes;
    return d->scheduler->total_packets;
}

static int BfcDisc_clear(BfcDiscObject *self);

/* What a subclass must not override to be driven C to C. */
static const char *const bfc_hot_methods[] = {"enqueue", "dequeue", "has_backlog",
                                              "backlog_bytes"};


static int
BfcDisc_init(BfcDiscObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"agent", "egress_index", "scheduler", "pool", "thresholds", NULL};
    PyObject *agent, *scheduler, *pool, *thresholds, *config, *table, *by_count;
    long long egress_index, knobs[3];
    Py_ssize_t i, n;
    int direct;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OLO!O!O", kwlist, &agent, &egress_index,
                                     &SchedType, &scheduler, &PoolType, &pool, &thresholds))
        return -1;
    BfcDisc_clear(self);
    config = PyObject_GetAttrString(agent, "config");
    if (config == NULL)
        return -1;
    self->config = config;
    table = PyObject_GetAttr(agent, str_flow_table);
    if (table == NULL)
        return -1;
    if (!PyObject_TypeCheck(table, &FlowTableType)) {
        Py_DECREF(table);
        PyErr_SetString(PyExc_TypeError, "a compiled BFC port needs the compiled FlowTable");
        return -1;
    }
    self->table = (FlowTableObject *)table;
    if (config_ll(config, "use_high_priority_queue", 1, &knobs[0]) < 0 ||
        config_ll(config, "limit_resume_rate", 1, &knobs[1]) < 0 ||
        config_ll(config, "resumes_per_interval", 0, &knobs[2]) < 0)
        return -1;
    by_count = PyObject_GetAttr(thresholds, str_by_count);
    if (by_count == NULL)
        return -1;
    n = PySequence_Size(by_count);
    if (n != ((SchedObject *)scheduler)->num_queues + 2) {
        Py_DECREF(by_count);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError,
                            "the threshold table needs one entry per active count");
        return -1;
    }
    self->by_count = PyMem_Calloc((size_t)n, sizeof(double));
    if (self->by_count == NULL) {
        Py_DECREF(by_count);
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < n; i++) {
        PyObject *item = PySequence_GetItem(by_count, i);
        if (item == NULL) {
            Py_DECREF(by_count);
            return -1;
        }
        self->by_count[i] = PyFloat_AsDouble(item);
        Py_DECREF(item);
        if (self->by_count[i] == -1.0 && PyErr_Occurred()) {
            Py_DECREF(by_count);
            return -1;
        }
    }
    Py_DECREF(by_count);
    self->nthresholds = n;
    self->stats = (EgressStatsObject *)new_stats(egress_stats_class, &EgressStatsType);
    if (self->stats == NULL)
        return -1;
    self->num_vfids = ((SchedObject *)scheduler)->num_vfids;
    self->space = Py_NewRef(((SchedObject *)scheduler)->space);
    self->agent = Py_NewRef(agent);
    self->thresholds = Py_NewRef(thresholds);
    self->scheduler = (SchedObject *)Py_NewRef(scheduler);
    self->pool = (PoolObject *)Py_NewRef(pool);
    self->egress_index = egress_index;
    self->use_high_priority = (char)knobs[0];
    self->limit_resume_rate = (char)knobs[1];
    self->resumes_per_interval = knobs[2];
    self->pending_resumes = 0;
    direct = keeps_methods(Py_TYPE(self), &BfcDiscType, bfc_hot_methods,
                           sizeof(bfc_hot_methods) / sizeof(bfc_hot_methods[0]));
    if (direct < 0)
        return -1;
    self->direct = (char)direct;
    return 0;
}

static PyObject *
BfcDisc_enqueue(BfcDiscObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"packet", "ingress", NULL};
    PyObject *packet, *ingress;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO", kwlist, &packet, &ingress))
        return NULL;
    if (bfc_enqueue(self, packet, ingress) < 0)
        return NULL;
    Py_RETURN_TRUE;
}

static PyObject *
BfcDisc_dequeue(BfcDiscObject *self, PyObject *Py_UNUSED(ignored))
{
    return bfc_dequeue(self);
}

static PyObject *
BfcDisc_collect_resumes(BfcDiscObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *resumed = PyList_New(0);
    Py_ssize_t k;
    if (resumed == NULL)
        return NULL;
    for (k = 0; k < self->nlists; k++) {
        rlist *l = &self->lists[self->list_order[k]];
        long long taken;
        for (taken = 0; taken < self->resumes_per_interval && l->count; taken++) {
            rpair item = l->items[l->head];
            FlowEntryObject *entry;
            PyObject *pair = Py_BuildValue("(LL)", item.vfid, item.ingress);
            int rc;
            l->head += 1;
            l->count -= 1;
            if (l->count == 0)
                l->head = 0;
            self->pending_resumes -= 1;
            if (pair == NULL) {
                Py_DECREF(resumed);
                return NULL;
            }
            rc = PyList_Append(resumed, pair);
            Py_DECREF(pair);
            if (rc < 0) {
                Py_DECREF(resumed);
                return NULL;
            }
            entry = table_lookup(self->table, item.vfid, item.ingress, self->egress_index);
            if (entry != NULL) {
                entry->paused_upstream = 0;
                entry->resume_pending = 0;
            }
            self->stats->resumes_sent += 1;
        }
    }
    return resumed;
}

static PyObject *
BfcDisc_pending_resume_lists(BfcDiscObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *lists = PyDict_New();
    Py_ssize_t k, j;
    if (lists == NULL)
        return NULL;
    for (k = 0; k < self->nlists; k++) {
        rlist *l = &self->lists[self->list_order[k]];
        PyObject *queue, *items = PyList_New(l->count);
        int rc;
        if (items == NULL)
            goto error;
        for (j = 0; j < l->count; j++) {
            PyObject *pair = Py_BuildValue("(LL)", l->items[l->head + j].vfid,
                                           l->items[l->head + j].ingress);
            if (pair == NULL) {
                Py_DECREF(items);
                goto error;
            }
            PyList_SET_ITEM(items, j, pair);
        }
        queue = PyLong_FromSsize_t(self->list_order[k]);
        rc = queue == NULL ? -1 : PyDict_SetItem(lists, queue, items);
        Py_XDECREF(queue);
        Py_DECREF(items);
        if (rc < 0)
            goto error;
    }
    return lists;

error:
    Py_DECREF(lists);
    return NULL;
}

static PyObject *
BfcDisc_apply_downstream_filter(BfcDiscObject *self, PyObject *bitmap)
{
    if (sched_install(self->scheduler, bitmap) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
BfcDisc_backlog_bytes(BfcDiscObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromLongLong(self->scheduler->total_bytes);
}

static PyObject *
BfcDisc_backlog_packets(BfcDiscObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromLongLong(self->scheduler->total_packets);
}

static PyObject *
BfcDisc_has_backlog(BfcDiscObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyBool_FromLong(self->scheduler->total_packets > 0);
}

static int
BfcDisc_traverse(BfcDiscObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->agent);
    Py_VISIT(self->config);
    Py_VISIT(self->thresholds);
    Py_VISIT(self->scheduler);
    Py_VISIT(self->pool);
    Py_VISIT(self->table);
    Py_VISIT(self->stats);
    return 0;
}

static int
BfcDisc_clear(BfcDiscObject *self)
{
    Py_ssize_t k;
    Py_CLEAR(self->agent);
    Py_CLEAR(self->config);
    Py_CLEAR(self->thresholds);
    Py_CLEAR(self->space);
    Py_CLEAR(self->scheduler);
    Py_CLEAR(self->pool);
    Py_CLEAR(self->table);
    Py_CLEAR(self->stats);
    PyMem_Free(self->by_count);
    self->by_count = NULL;
    self->nthresholds = 0;
    for (k = 0; k < self->nlists; k++)
        PyMem_Free(self->lists[self->list_order[k]].items);
    PyMem_Free(self->lists);
    PyMem_Free(self->list_order);
    self->lists = NULL;
    self->list_order = NULL;
    self->nlists = 0;
    self->direct = 0;
    return 0;
}

static void
BfcDisc_dealloc(BfcDiscObject *self)
{
    PyObject_GC_UnTrack(self);
    BfcDisc_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef BfcDisc_methods[] = {
    {"enqueue", (PyCFunction)(void (*)(void))BfcDisc_enqueue, METH_VARARGS | METH_KEYWORDS,
     "File a packet under its flow (pausing it upstream past Th); True."},
    {"dequeue", (PyCFunction)BfcDisc_dequeue, METH_NOARGS,
     "The next packet to send, or None."},
    {"collect_resumes", (PyCFunction)BfcDisc_collect_resumes, METH_NOARGS,
     "Pop up to resumes_per_interval flows per queue to unpause now."},
    {"pending_resume_lists", (PyCFunction)BfcDisc_pending_resume_lists, METH_NOARGS,
     "{queue: [(vfid, ingress), ...]} in the order the lists were made."},
    {"apply_downstream_filter", (PyCFunction)BfcDisc_apply_downstream_filter, METH_O,
     "Install the most recent Bloom filter received from the next hop."},
    {"backlog_bytes", (PyCFunction)BfcDisc_backlog_bytes, METH_NOARGS, NULL},
    {"backlog_packets", (PyCFunction)BfcDisc_backlog_packets, METH_NOARGS, NULL},
    {"has_backlog", (PyCFunction)BfcDisc_has_backlog, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef BfcDisc_members[] = {
    {"agent", T_OBJECT, offsetof(BfcDiscObject, agent), READONLY, NULL},
    {"config", T_OBJECT, offsetof(BfcDiscObject, config), READONLY, NULL},
    {"egress_index", T_LONGLONG, offsetof(BfcDiscObject, egress_index), READONLY, NULL},
    {"scheduler", T_OBJECT, offsetof(BfcDiscObject, scheduler), READONLY, NULL},
    {"pool", T_OBJECT, offsetof(BfcDiscObject, pool), READONLY, NULL},
    {"thresholds", T_OBJECT, offsetof(BfcDiscObject, thresholds), READONLY, NULL},
    {"stats", T_OBJECT, offsetof(BfcDiscObject, stats), READONLY, NULL},
    {"pending_resumes", T_LONGLONG, offsetof(BfcDiscObject, pending_resumes), READONLY, NULL},
    {NULL},
};

static PyTypeObject BfcDiscType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_accelcore.BfcEgressDiscipline",
    .tp_basicsize = sizeof(BfcDiscObject),
    .tp_dealloc = (destructor)BfcDisc_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "The data-plane discipline of one BFC egress port (compiled plane).",
    .tp_traverse = (traverseproc)BfcDisc_traverse,
    .tp_clear = (inquiry)BfcDisc_clear,
    .tp_methods = BfcDisc_methods,
    .tp_members = BfcDisc_members,
    .tp_init = (initproc)BfcDisc_init,
    .tp_new = PyType_GenericNew,
};

/* ===================================================================== *
 * NicScheduler: the host NIC (repro.sim.host.NicScheduler and the
 * fast paths of repro.sim.host.Host)
 *
 * The transmit side (dequeue, the DRR probe, has_work_at, the pacing
 * wake-up), Host.build_data_packet, and the go-back-N receive path of
 * Host.handle_packet for DATA, ACK and CNP packets (with the rate-limited
 * CNP a marked packet asks for), with the batched control flush into the
 * port.  The NIC's state stays where the Python classes keep it -- the
 * flow dict, the SenderFlowState / ReceiverFlowState slots, the host's
 * instance dict -- so the Python methods around it (add_flow, revive,
 * start_flow, the RTO, BFC's on_bloom) work unchanged.  A compiled DCQCN
 * module is driven C to C; the hooks any other module overrides (an
 * inherited no-op is skipped), the window of a windowed host, flow
 * completion, tombstoned receivers, selective repeat and every other
 * packet kind call back into Python.
 * ===================================================================== */

enum {
    S_FLOW,
    S_KEY,
    S_NUM_PACKETS,
    S_NEXT_SEQ,
    S_UNA,
    S_NEXT_ALLOWED_NS,
    S_CC_STATE,
    S_PAUSED,
    S_LAST_PROGRESS_NS,
    S_RTO_EVENT,
    S_COMPLETED,
    S_MTU,
    S_RETRANSMIT_QUEUE,
    S_VFID,
    S_NSLOTS
};
static const char *const sender_slot_names[S_NSLOTS] = {
    "flow", "key", "num_packets", "next_seq", "una", "next_allowed_ns",
    "cc_state", "paused", "last_progress_ns", "rto_event", "completed", "mtu",
    "retransmit_queue", "vfid",
};
static PyObject *sender_slot_strs[S_NSLOTS];
static Py_ssize_t sender_slot_offsets[S_NSLOTS];
static slot_class sender_class = {S_NSLOTS, sender_slot_names, sender_slot_strs,
                                  sender_slot_offsets, NULL};

enum {
    R_FLOW_ID,
    R_EXPECTED_SEQ,
    R_NUM_PACKETS,
    R_BYTES_RECEIVED,
    R_FLOW_SIZE,
    R_LAST_CNP_NS,
    R_LAST_NACK_SEQ,
    R_COMPLETED,
    R_SRC,
    R_OUT_OF_ORDER,
    R_NSLOTS
};
static const char *const receiver_slot_names[R_NSLOTS] = {
    "flow_id", "expected_seq", "num_packets", "bytes_received", "flow_size",
    "last_cnp_ns", "last_nack_seq", "completed", "src", "out_of_order",
};
static PyObject *receiver_slot_strs[R_NSLOTS];
static Py_ssize_t receiver_slot_offsets[R_NSLOTS];
static slot_class receiver_class = {R_NSLOTS, receiver_slot_names, receiver_slot_strs,
                                    receiver_slot_offsets, NULL};

#define fs_get(obj, slot) cls_get(&sender_class, (obj), (slot))
#define fs_set(obj, slot, value) cls_set(&sender_class, (obj), (slot), (value))
#define fs_ll(obj, slot, out) cls_ll(&sender_class, (obj), (slot), (out))
#define rs_get(obj, slot) cls_get(&receiver_class, (obj), (slot))
#define rs_set(obj, slot, value) cls_set(&receiver_class, (obj), (slot), (value))
#define rs_ll(obj, slot, out) cls_ll(&receiver_class, (obj), (slot), (out))

/* Set by bind_host(). */
static PyObject *kind_data, *kind_ack, *kind_nack, *kind_cnp;
/* The hooks CongestionControl defines as no-ops (rate_bps: the line rate). */
static PyObject *cc_noop_on_ack, *cc_noop_on_packet_sent, *cc_noop_rate_bps;
/* Host's own CNP methods: a host class that replaces one keeps it. */
static PyObject *host_handle_cnp, *host_maybe_send_cnp;
static long long header_size, ack_size, nack_size, cnp_size, cnp_interval_ns;

static int
module_ll(PyObject *module, const char *name, long long *out)
{
    PyObject *value = PyObject_GetAttrString(module, name);
    if (value == NULL)
        return -1;
    *out = PyLong_AsLongLong(value);
    Py_DECREF(value);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* bind_host(repro.sim.host, repro.sim.packet): the flow-state classes, the
 * no-op hooks, Host's CNP methods, the packet kinds and sizes and the CNP
 * interval the compiled NIC reads and builds. */
static PyObject *
bind_host(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *host_mod, *packet_mod, *sender = NULL, *receiver = NULL, *cc = NULL,
             *host = NULL, *kinds = NULL, *result = NULL;
    PyObject **hooks[] = {&cc_noop_on_ack, &cc_noop_on_packet_sent, &cc_noop_rate_bps};
    const char *hook_names[] = {"on_ack", "on_packet_sent", "rate_bps"};
    PyObject **kind_slots[] = {&kind_data, &kind_ack, &kind_nack, &kind_cnp};
    const char *kind_names[] = {"DATA", "ACK", "NACK", "CNP"};
    int i;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "bind_host expects (repro.sim.host, repro.sim.packet)");
        return NULL;
    }
    host_mod = args[0];
    packet_mod = args[1];
    if (module_ll(packet_mod, "DATA_HEADER_SIZE", &header_size) < 0 ||
        module_ll(packet_mod, "ACK_SIZE", &ack_size) < 0 ||
        module_ll(packet_mod, "NACK_SIZE", &nack_size) < 0 ||
        module_ll(packet_mod, "CNP_SIZE", &cnp_size) < 0 ||
        module_ll(host_mod, "CNP_INTERVAL_NS", &cnp_interval_ns) < 0)
        return NULL;
    sender = PyObject_GetAttrString(host_mod, "SenderFlowState");
    receiver = PyObject_GetAttrString(host_mod, "ReceiverFlowState");
    cc = PyObject_GetAttrString(host_mod, "CongestionControl");
    host = PyObject_GetAttrString(host_mod, "Host");
    kinds = PyObject_GetAttrString(packet_mod, "PacketKind");
    if (sender == NULL || receiver == NULL || cc == NULL || host == NULL || kinds == NULL ||
        slot_class_bind(&sender_class, sender) < 0 ||
        slot_class_bind(&receiver_class, receiver) < 0)
        goto done;
    for (i = 0; i < 3; i++) {
        Py_XSETREF(*hooks[i], PyObject_GetAttrString(cc, hook_names[i]));
        if (*hooks[i] == NULL)
            goto done;
    }
    for (i = 0; i < 4; i++) {
        Py_XSETREF(*kind_slots[i], PyObject_GetAttrString(kinds, kind_names[i]));
        if (*kind_slots[i] == NULL)
            goto done;
    }
    Py_XSETREF(host_handle_cnp, PyObject_GetAttrString(host, "_handle_cnp"));
    Py_XSETREF(host_maybe_send_cnp, PyObject_GetAttrString(host, "_maybe_send_cnp"));
    if (host_handle_cnp != NULL && host_maybe_send_cnp != NULL)
        result = Py_NewRef(Py_None);
done:
    Py_XDECREF(sender);
    Py_XDECREF(receiver);
    Py_XDECREF(cc);
    Py_XDECREF(host);
    Py_XDECREF(kinds);
    return result;
}

/* A new Packet with Packet.__init__'s defaults: what Packet(kind=kind,
 * flow_id=flow_id, key=key, size=size) builds, without running __init__. */
static PyObject *
packet_new(PyObject *kind, PyObject *flow_id, PyObject *key, long long size)
{
    PyObject *packet, *values[P_NSLOTS];
    int i;
    if (packet_type == NULL || kind_data == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "_accelcore.bind_host() has not run");
        return NULL;
    }
    values[P_SIZE] = PyLong_FromLongLong(size);
    values[P_INT_STACK] = PyList_New(0);
    if (values[P_SIZE] == NULL || values[P_INT_STACK] == NULL) {
        Py_XDECREF(values[P_SIZE]);
        Py_XDECREF(values[P_INT_STACK]);
        return NULL;
    }
    packet = packet_type->tp_alloc(packet_type, 0);
    if (packet == NULL) {
        Py_DECREF(values[P_SIZE]);
        Py_DECREF(values[P_INT_STACK]);
        return NULL;
    }
    values[P_KIND] = Py_NewRef(kind);
    values[P_IS_CONTROL] = Py_NewRef(kind != kind_data ? Py_True : Py_False);
    values[P_FLOW_ID] = Py_NewRef(flow_id);
    values[P_KEY] = Py_NewRef(key);
    values[P_SEQ] = Py_NewRef(int_zero);
    values[P_ACK_SEQ] = Py_NewRef(int_zero);
    values[P_FLOW_SIZE] = Py_NewRef(int_zero);
    values[P_CREATED_NS] = Py_NewRef(int_zero);
    values[P_ECN_CAPABLE] = Py_NewRef(Py_True);
    values[P_ECN_MARKED] = Py_NewRef(Py_False);
    values[P_ECN_ECHO] = Py_NewRef(Py_False);
    values[P_INT_ENABLED] = Py_NewRef(Py_False);
    values[P_FIRST_OF_FLOW] = Py_NewRef(Py_False);
    values[P_LAST_OF_FLOW] = Py_NewRef(Py_False);
    values[P_PAUSE] = Py_NewRef(Py_False);
    values[P_PAUSE_CLASS] = Py_NewRef(int_zero);
    values[P_BLOOM_BITS] = Py_NewRef(Py_None);
    values[P_HOPS] = Py_NewRef(int_zero);
    values[P_CUR_INGRESS] = Py_NewRef(int_minus_one);
    values[P_ENTRY] = Py_NewRef(Py_None);
    values[P_VFID] = Py_NewRef(int_minus_one);
    values[P_VFID_SPACE] = Py_NewRef(int_zero);
    for (i = 0; i < P_NSLOTS; i++)
        *(PyObject **)((char *)packet + packet_class.offsets[i]) = values[i];
    return packet;
}

struct NicObject {
    PyObject_HEAD
    PyObject *host;
    PyObject *flows;        /* flow id -> SenderFlowState */
    PyObject *drr;
    PyObject *wakeup_event;
    long long now;          /* the time the probe tests pacing against */
    long long wake_at;      /* the earliest pacing timer it saw ... */
    char has_wake_at;       /* ... if it saw one */
    /* Read off the host when it is bound. */
    PyObject *host_dict;
    EventHeapObject *sim;
    PyObject *py_handle;    /* type(host).handle_packet: the cold receive paths */
    char own_handle_cnp;    /* type(host) keeps Host._handle_cnp ... */
    char own_send_cnp;      /* ... and Host._maybe_send_cnp */
    /* The host's containers and settings (nic_rebind), NULL until it has
     * them all.  The host re-binds on every assignment of one. */
    char bound;
    PyObject *config;       /* the (frozen) HostConfig, with its fields: */
    long long cfg_mtu;
    PyObject *cfg_int_enabled;
    PyObject *cfg_mark_first;
    PyObject *cc;
    int cc_truth;           /* bool(cc), or -1: ask it each time */
    PyObject *receivers;    /* dict: flow id -> ReceiverFlowState */
    PyObject *pending;      /* list: _pending_control */
    CountersObject *counters;
    CountersObject *cv_counters; /* the counters whose values are the host's _cv */
    PyObject *uplink_port;
    double uplink_rate;
    char selective;
    char no_window;
};

static PyObject *str_receivers, *str_selective, *str_pending_control,
    *str_uplink_port, *str_cc, *str_uplink_rate, *str_config, *str_counters, *str_cv,
    *str_mtu, *str_mark_first_packet, *str_no_window, *str_effective_window,
    *str_build_data_packet, *str_probe, *str_maybe_send_cnp,
    *str_record_completion, *str_finish_sender, *str_on_ack, *str_rate_bps,
    *str_on_packet_sent, *str_line_rate_bps, *str_cancel, *str_sim, *str_handle_packet, *str_queue_control,
    *str_size, *str_first_tx_ns, *str_retransmitted_packets, *str_reversed_slot,
    *str_reversed, *str_src, *str_handle_cnp;

/* Can bool(obj) change?  No for None and for an object whose type has no
 * __bool__ or __len__: *truth then holds it. */
static int
fixed_truth(PyObject *obj, int *truth)
{
    PyTypeObject *type = Py_TYPE(obj);
    if (obj == Py_None) {
        *truth = 0;
        return 1;
    }
    if ((type->tp_as_number == NULL || type->tp_as_number->nb_bool == NULL) &&
        (type->tp_as_mapping == NULL || type->tp_as_mapping->mp_length == NULL) &&
        (type->tp_as_sequence == NULL || type->tp_as_sequence->sq_length == NULL)) {
        *truth = 1;
        return 1;
    }
    return 0;
}

/* The host's name, NULL (and no error) while it has none. */
static PyObject *
host_value(NicObject *self, PyObject *name, int *failed)
{
    PyObject *value = PyDict_GetItemWithError(self->host_dict, name);
    *failed = value == NULL && PyErr_Occurred();
    return value;
}

/* Read what the hot paths use off the host: its HostConfig's fields, its
 * congestion control, receivers, pending control frames, uplink, the
 * _selective / _no_window flags, its counters and the counters its _cv
 * dict belongs to.  Python runs this when the NIC is given its host and
 * whenever the host assigns one of them (repro.sim.host._NicSetting), so no
 * packet looks them up.  As in Host's own methods, the three counts Host
 * makes through _cv follow _cv, the rest follow host.counters. */
static int
nic_rebind(NicObject *self)
{
    PyObject *values[10], *names[10] = {str_config, str_cc, str_receivers, str_pending_control,
                                        str_cv, str_uplink_port, str_uplink_rate,
                                        str_selective, str_no_window, str_counters};
    CountersObject *counters, *cv_counters;
    PyObject *config, *mtu, *int_enabled, *mark_first;
    long long cfg_mtu;
    double rate;
    int i, failed, selective, no_window;
    self->bound = 0;
    if (self->host_dict == NULL)
        return 0;
    for (i = 0; i < 10; i++) {
        values[i] = host_value(self, names[i], &failed);
        if (failed)
            return -1;
        if (values[i] == NULL)
            return 0; /* Host.__init__ has not set it yet */
    }
    config = values[0];
    counters = type_is(values[9], &CountersType) ? (CountersObject *)values[9] : NULL;
    cv_counters = self->cv_counters;
    if (cv_counters == NULL || cv_counters->values != values[4])
        cv_counters = counters;
    if (!PyDict_Check(values[2]) || !PyList_Check(values[3]) || counters == NULL ||
        cv_counters->values != values[4]) {
        PyErr_SetString(PyExc_TypeError, "a compiled NIC needs the host's receivers dict, "
                                         "_pending_control list, and compiled Counters whose "
                                         "values are its _cv");
        return -1;
    }
    rate = PyFloat_AsDouble(values[6]);
    if (rate == -1.0 && PyErr_Occurred())
        return -1;
    selective = PyObject_IsTrue(values[7]);
    no_window = selective < 0 ? -1 : PyObject_IsTrue(values[8]);
    if (no_window < 0)
        return -1;
    if (config != self->config) {
        mtu = PyObject_GetAttr(config, str_mtu);
        if (mtu == NULL)
            return -1;
        cfg_mtu = PyLong_AsLongLong(mtu);
        Py_DECREF(mtu);
        if (cfg_mtu == -1 && PyErr_Occurred())
            return -1;
        int_enabled = PyObject_GetAttr(config, packet_slot_strs[P_INT_ENABLED]);
        if (int_enabled == NULL)
            return -1;
        mark_first = PyObject_GetAttr(config, str_mark_first_packet);
        if (mark_first == NULL) {
            Py_DECREF(int_enabled);
            return -1;
        }
        Py_XSETREF(self->config, Py_NewRef(config));
        Py_XSETREF(self->cfg_int_enabled, int_enabled);
        Py_XSETREF(self->cfg_mark_first, mark_first);
        self->cfg_mtu = cfg_mtu;
    }
    Py_XSETREF(self->cc, Py_NewRef(values[1]));
    if (!fixed_truth(self->cc, &self->cc_truth))
        self->cc_truth = -1;
    Py_XSETREF(self->receivers, Py_NewRef(values[2]));
    Py_XSETREF(self->pending, Py_NewRef(values[3]));
    Py_INCREF(counters);
    Py_XSETREF(self->counters, counters);
    Py_INCREF(cv_counters);
    Py_XSETREF(self->cv_counters, cv_counters);
    Py_XSETREF(self->uplink_port, Py_NewRef(values[5]));
    self->uplink_rate = rate;
    self->selective = (char)selective;
    self->no_window = (char)no_window;
    self->bound = 1;
    return 0;
}

/* bool(host.cc): 1, 0 or -1. */
static int
nic_has_cc(NicObject *self)
{
    return self->cc_truth >= 0 ? self->cc_truth : PyObject_IsTrue(self->cc);
}

/* 1 when obj is this NIC's own compiled method cfunc (not a replacement). */
static int
own_method(NicObject *self, PyObject *obj, void *cfunc)
{
    return PyCFunction_Check(obj) &&
           (void *)PyCFunction_GET_FUNCTION(obj) == cfunc &&
           PyCFunction_GET_SELF(obj) == (PyObject *)self;
}

/* A borrowed entry of obj's own instance dict, or NULL (and no error). */
static PyObject *
instance_attr(PyObject *obj, PyObject *name, int *failed)
{
    PyObject *dict, *value;
    *failed = 0;
    if (Py_TYPE(obj)->tp_dictoffset == 0)
        return NULL;
    dict = PyObject_GenericGetDict(obj, NULL);
    if (dict == NULL) {
        *failed = 1;
        return NULL;
    }
    value = PyDict_GetItemWithError(dict, name);
    Py_DECREF(dict); /* the object keeps its dict, and so the value */
    if (value == NULL && PyErr_Occurred())
        *failed = 1;
    return value;
}

/* SenderFlowState.packet_payload(seq). */
static int
fs_payload(PyObject *fstate, long long seq, long long num_packets, long long *out)
{
    PyObject *flow, *size_obj;
    long long mtu, size, last;
    if (fs_ll(fstate, S_MTU, &mtu) < 0)
        return -1;
    if (seq < num_packets - 1) {
        *out = mtu;
        return 0;
    }
    flow = fs_get(fstate, S_FLOW);
    if (flow == NULL)
        return -1;
    size_obj = PyObject_GetAttr(flow, str_size);
    Py_DECREF(flow);
    if (size_obj == NULL)
        return -1;
    size = PyLong_AsLongLong(size_obj);
    Py_DECREF(size_obj);
    if (size == -1 && PyErr_Occurred())
        return -1;
    last = size - mtu * (num_packets - 1);
    *out = last > 0 ? last : mtu;
    return 0;
}

/* Length of the flow's retransmit queue; its head in *head when non-empty. */
static Py_ssize_t
fs_retransmits(PyObject *fstate, long long *head)
{
    PyObject *queue = fs_get(fstate, S_RETRANSMIT_QUEUE), *first;
    Py_ssize_t len;
    if (queue == NULL)
        return -1;
    len = PyObject_Size(queue);
    if (len > 0 && head != NULL) {
        first = PySequence_GetItem(queue, 0);
        if (first == NULL) {
            Py_DECREF(queue);
            return -1;
        }
        *head = PyLong_AsLongLong(first);
        Py_DECREF(first);
        if (*head == -1 && PyErr_Occurred())
            len = -1;
    }
    Py_DECREF(queue);
    return len;
}

/* Host.effective_window(fstate) against inflight bytes: 1 out of window. */
static int
nic_out_of_window(NicObject *self, PyObject *fstate)
{
    PyObject *window, *need_obj;
    long long next_seq, una, mtu;
    int over;
    window = call_method2(self->host, str_effective_window, fstate, NULL);
    if (window == NULL)
        return -1;
    if (window == Py_None) {
        Py_DECREF(window);
        return 0;
    }
    if (fs_ll(fstate, S_NEXT_SEQ, &next_seq) < 0 || fs_ll(fstate, S_UNA, &una) < 0 ||
        fs_ll(fstate, S_MTU, &mtu) < 0) {
        Py_DECREF(window);
        return -1;
    }
    need_obj = PyLong_FromLongLong((next_seq - una) * (mtu + header_size) + self->cfg_mtu);
    if (need_obj == NULL) {
        Py_DECREF(window);
        return -1;
    }
    over = PyObject_RichCompareBool(need_obj, window, Py_GT);
    Py_DECREF(need_obj);
    Py_DECREF(window);
    return over;
}

/* NicScheduler._probe_flow. */
static int
nic_probe(void *ctx, PyObject *flow_id, long long *size)
{
    NicObject *self = (NicObject *)ctx;
    PyObject *fstate = PyDict_GetItemWithError(self->flows, flow_id);
    long long seq, num_packets, allowed, payload;
    Py_ssize_t retransmits;
    int truth;
    if (fstate == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, flow_id);
        return -1;
    }
    Py_INCREF(fstate);
    retransmits = fs_retransmits(fstate, &seq);
    if (retransmits < 0 || fs_ll(fstate, S_NUM_PACKETS, &num_packets) < 0)
        goto error;
    if (!retransmits) {
        if (fs_ll(fstate, S_NEXT_SEQ, &seq) < 0)
            goto error;
        if (seq >= num_packets) {
            Py_DECREF(fstate);
            return PROBE_NONE;
        }
    }
    truth = cls_truth(&sender_class, fstate, S_PAUSED);
    if (truth < 0)
        goto error;
    if (truth)
        goto blocked;
    /* Retransmissions do not grow the in-flight window. */
    if (!(retransmits || self->no_window)) {
        truth = nic_out_of_window(self, fstate);
        if (truth < 0)
            goto error;
        if (truth)
            goto blocked;
    }
    if (fs_ll(fstate, S_NEXT_ALLOWED_NS, &allowed) < 0)
        goto error;
    if (allowed > self->now) {
        if (!self->has_wake_at || allowed < self->wake_at) {
            self->wake_at = allowed;
            self->has_wake_at = 1;
        }
        goto blocked;
    }
    if (fs_payload(fstate, seq, num_packets, &payload) < 0)
        goto error;
    Py_DECREF(fstate);
    *size = payload + header_size;
    return PROBE_SIZE;
blocked:
    Py_DECREF(fstate);
    *size = -1; /* BLOCKED */
    return PROBE_SIZE;
error:
    Py_DECREF(fstate);
    return -1;
}

static int
nic_bound(NicObject *self)
{
    if (!self->bound || self->flows == NULL || !PyDict_Check(self->flows)) {
        PyErr_SetString(PyExc_TypeError, "the NIC needs a host and a flow dict");
        return -1;
    }
    if (self->drr == NULL || !Drr_Check(self->drr)) {
        PyErr_SetString(PyExc_TypeError, "the compiled NIC needs the compiled DeficitRoundRobin");
        return -1;
    }
    return 0;
}


/* NicScheduler._arm_wakeup. */
static int
nic_arm_wakeup(NicObject *self, long long earliest)
{
    EventHeapObject *sim = self->sim;
    PyObject *event = self->wakeup_event, *kick, *res;
    long long now = sim->now;
    int rc;
    /* A handle whose time has passed belongs to an already-fired event
     * (Event.cancelled stays False after firing): treat it as dead. */
    if (event != NULL && event != Py_None) {
        long long time;
        int dead = cls_truth(&event_class, event, E_CANCELLED);
        if (dead < 0 || cls_ll(&event_class, event, E_TIME, &time) < 0)
            return -1;
        if (!dead && time > now) {
            if (time <= earliest)
                return 0;
            res = PyObject_CallMethodNoArgs(event, str_cancel);
            if (res == NULL)
                return -1;
            Py_DECREF(res);
        }
    }
    /* sim.schedule_at(earliest, host.kick) */
    if (earliest < now) {
        PyErr_Format(simulation_error, "cannot schedule at %lld ns, current time is %lld ns",
                     earliest, now);
        return -1;
    }
    kick = PyObject_GetAttr(self->host, str_kick);
    if (kick == NULL)
        return -1;
    rc = heap_call_at(sim, earliest, kick, NULL, NULL);
    Py_DECREF(kick);
    res = rc < 0 ? NULL : event_new(sim, earliest, sim->seq - 1);
    if (res == NULL)
        return -1;
    Py_XSETREF(self->wakeup_event, res);
    return 0;
}

/* NicScheduler.has_work_at: 1, 0 or -1. */
static int
nic_has_work_at(NicObject *self, long long horizon)
{
    DrrObject *drr;
    long long earliest = 0;
    int have_earliest = 0;
    Py_ssize_t i;
    if (nic_bound(self) < 0)
        return -1;
    drr = (DrrObject *)self->drr;
    for (i = 0; i < drr->m; i++) {
        PyObject *key = drr->live[i].key;
        PyObject *fstate = PyDict_GetItemWithError(self->flows, key);
        long long next_seq, num_packets, allowed;
        Py_ssize_t retransmits;
        int paused;
        if (fstate == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetObject(PyExc_KeyError, key);
            return -1;
        }
        retransmits = fs_retransmits(fstate, NULL);
        if (retransmits < 0 || fs_ll(fstate, S_NEXT_SEQ, &next_seq) < 0 ||
            fs_ll(fstate, S_NUM_PACKETS, &num_packets) < 0)
            return -1;
        if (!retransmits && next_seq >= num_packets)
            continue;
        paused = cls_truth(&sender_class, fstate, S_PAUSED);
        if (paused < 0)
            return -1;
        if (paused)
            continue;
        if (fs_ll(fstate, S_NEXT_ALLOWED_NS, &allowed) < 0)
            return -1;
        if (allowed <= horizon)
            return 1;
        if (!have_earliest || allowed < earliest) {
            earliest = allowed;
            have_earliest = 1;
        }
    }
    if (have_earliest && nic_arm_wakeup(self, earliest) < 0)
        return -1;
    return 0;
}

static PyObject *
incremented(PyObject *obj, PyObject *name)
{
    PyObject *cur = PyObject_GetAttr(obj, name), *next;
    long long value;
    if (cur == NULL)
        return NULL;
    value = PyLong_AsLongLong(cur);
    Py_DECREF(cur);
    if (value == -1 && PyErr_Occurred())
        return NULL;
    next = PyLong_FromLongLong(value + 1);
    return next;
}

/* cc.name as it would be called, or NULL when it is the no-op
 * CongestionControl defines (neither the module's class nor the instance
 * overrides it), so the call can be skipped; *failed says NULL is an error. */
static PyObject *
cc_hook(PyObject *cc, PyObject *name, PyObject *noop, int *failed)
{
    PyObject *hook = PyObject_GetAttr(cc, name);
    *failed = hook == NULL;
    if (hook != NULL && PyMethod_Check(hook) && PyMethod_GET_FUNCTION(hook) == noop &&
        PyMethod_GET_SELF(hook) == cc) {
        Py_DECREF(hook);
        return NULL;
    }
    return hook;
}

/* -- DCQCN: the sender's rate machine (repro.congestion.dcqcn) ---------
 *
 * DcqcnControl is the C base of the compiled plane's twins of DcqcnControl
 * and DcqcnWindowedControl (repro.sim.plane); DcqcnFlow is the per-flow
 * state they keep at fstate.cc_state["dcqcn"], with _DcqcnFlow's fields.
 * The lazy advance is the Python one statement for statement --
 * (1-g)**periods through pow(), floor division for the timer and the byte
 * counter, Python's min and max -- so both planes hold the same doubles.
 * The compiled NIC calls rate_bps, on_packet_sent and on_cnp C to C; a
 * twin whose type or instance replaces one of them is called in Python. */

typedef struct {
    PyObject_HEAD
    double rate;
    double target_rate;
    double alpha;
    long long last_decrease_ns;
    long long last_alpha_update_ns;
    long long bytes_since_decrease;
    long long bc_events_applied;
    long long timer_events_applied;
    char ever_decreased;
} DcqcnFlowObject;

static PyTypeObject DcqcnFlowType;

typedef struct {
    PyObject_HEAD
    PyObject *config;
    double line_rate_bps;
    double min_rate;
    double rate_ai;
    double rate_hai;
    /* The fields of the (frozen) DcqcnConfig, read when config is set. */
    double g;
    double initial_alpha;
    long long alpha_timer_ns;
    long long increase_timer_ns;
    long long byte_counter_bytes;
    long long fast_recovery_rounds;
} DcqcnObject;

static PyTypeObject DcqcnType;
static PyObject *str_dcqcn, *str_on_cnp;

/* Python's min(a, b) and max(a, b) of two floats: the first unless the
 * second is strictly smaller (larger). */
static inline double
py_min(double a, double b)
{
    return b < a ? b : a;
}

static inline double
py_max(double a, double b)
{
    return b > a ? b : a;
}

/* Python's a // b for b > 0. */
static inline long long
floor_div(long long a, long long b)
{
    long long q = a / b;
    return (a % b != 0 && a < 0) ? q - 1 : q;
}

#define FLOW_MEMBER(name, kind) {#name, kind, offsetof(DcqcnFlowObject, name), 0, NULL}
static PyMemberDef DcqcnFlow_members[] = {
    FLOW_MEMBER(rate, T_DOUBLE),
    FLOW_MEMBER(target_rate, T_DOUBLE),
    FLOW_MEMBER(alpha, T_DOUBLE),
    FLOW_MEMBER(last_decrease_ns, T_LONGLONG),
    FLOW_MEMBER(last_alpha_update_ns, T_LONGLONG),
    FLOW_MEMBER(bytes_since_decrease, T_LONGLONG),
    FLOW_MEMBER(bc_events_applied, T_LONGLONG),
    FLOW_MEMBER(timer_events_applied, T_LONGLONG),
    FLOW_MEMBER(ever_decreased, T_BOOL),
    {NULL},
};
#undef FLOW_MEMBER

static PyTypeObject DcqcnFlowType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_accelcore.DcqcnFlow",
    .tp_basicsize = sizeof(DcqcnFlowObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Per-flow DCQCN state (repro.congestion.dcqcn._DcqcnFlow) in C; "
              "a compiled DcqcnControl makes it.",
    .tp_members = DcqcnFlow_members,
};

/* DcqcnControl._apply_increase. */
static void
dcqcn_apply_increase(DcqcnObject *cc, DcqcnFlowObject *st)
{
    long long bc = st->bc_events_applied, ti = st->timer_events_applied;
    long long most = bc > ti ? bc : ti, least = bc < ti ? bc : ti;
    if (most < cc->fast_recovery_rounds)
        ; /* fast recovery: only average toward the target rate */
    else if (least < cc->fast_recovery_rounds)
        st->target_rate = py_min(cc->line_rate_bps, st->target_rate + cc->rate_ai);
    else
        st->target_rate = py_min(cc->line_rate_bps, st->target_rate + cc->rate_hai);
    st->rate = py_min(cc->line_rate_bps, (st->rate + st->target_rate) / 2.0);
}

/* DcqcnControl._advance. */
static void
dcqcn_advance(DcqcnObject *cc, DcqcnFlowObject *st, long long now)
{
    long long periods = floor_div(now - st->last_alpha_update_ns, cc->alpha_timer_ns);
    long long timer_events, bc_events;
    if (periods > 0) {
        st->alpha *= pow(1.0 - cc->g, (double)periods);
        st->last_alpha_update_ns += periods * cc->alpha_timer_ns;
    }
    if (!st->ever_decreased)
        return;
    timer_events = floor_div(now - st->last_decrease_ns, cc->increase_timer_ns);
    bc_events = floor_div(st->bytes_since_decrease, cc->byte_counter_bytes);
    while (st->timer_events_applied < timer_events || st->bc_events_applied < bc_events) {
        if (st->timer_events_applied < timer_events)
            st->timer_events_applied++;
        else
            st->bc_events_applied++;
        dcqcn_apply_increase(cc, st);
    }
}

/* fstate.cc_state.get("dcqcn") as a borrowed DcqcnFlow, or NULL: *failed
 * tells an error from a flow with no state yet. */
static DcqcnFlowObject *
dcqcn_lookup(PyObject *fstate, int *failed)
{
    PyObject *states = fs_get(fstate, S_CC_STATE), *state;
    *failed = 1;
    if (states == NULL)
        return NULL;
    if (!PyDict_Check(states)) {
        PyErr_SetString(PyExc_TypeError, "cc_state must be a dict");
        Py_DECREF(states);
        return NULL;
    }
    state = PyDict_GetItemWithError(states, str_dcqcn);
    Py_DECREF(states); /* the flow keeps its dict, and so the state */
    if (state == NULL || state == Py_None) {
        *failed = PyErr_Occurred() != NULL;
        return NULL;
    }
    if (Py_TYPE(state) != &DcqcnFlowType) {
        PyErr_SetString(PyExc_TypeError, "a compiled DCQCN keeps DcqcnFlow states");
        return NULL;
    }
    *failed = 0;
    return (DcqcnFlowObject *)state;
}

/* Has the twin's __init__ set a config (whose timers the setter checked)? */
static int
dcqcn_ready(DcqcnObject *cc)
{
    if (cc->config == NULL) {
        PyErr_SetString(PyExc_AttributeError, "the DCQCN module has no config");
        return -1;
    }
    return 0;
}

/* DcqcnControl._state: the flow's state, made at now when it has none
 * (borrowed; fstate.cc_state keeps it). */
static DcqcnFlowObject *
dcqcn_state(DcqcnObject *cc, PyObject *fstate, long long now)
{
    PyObject *states;
    DcqcnFlowObject *state;
    int failed, rc;
    if (dcqcn_ready(cc) < 0)
        return NULL;
    state = dcqcn_lookup(fstate, &failed);
    if (state != NULL || failed)
        return state;
    state = PyObject_New(DcqcnFlowObject, &DcqcnFlowType);
    if (state == NULL)
        return NULL;
    /* _DcqcnFlow.__init__ */
    state->rate = state->target_rate = cc->line_rate_bps;
    state->alpha = cc->initial_alpha;
    state->last_decrease_ns = state->last_alpha_update_ns = now;
    state->bytes_since_decrease = state->bc_events_applied = state->timer_events_applied = 0;
    state->ever_decreased = 0;
    states = fs_get(fstate, S_CC_STATE);
    rc = states == NULL ? -1 : PyDict_SetItem(states, str_dcqcn, (PyObject *)state);
    Py_XDECREF(states);
    Py_DECREF(state);
    return rc < 0 ? NULL : state;
}

/* DcqcnControl.on_packet_sent of a packet of size bytes. */
static int
dcqcn_on_sent(DcqcnObject *cc, PyObject *fstate, long long size, long long now)
{
    DcqcnFlowObject *st = dcqcn_state(cc, fstate, now);
    if (st == NULL)
        return -1;
    st->bytes_since_decrease += size;
    dcqcn_advance(cc, st, now);
    return 0;
}

/* DcqcnControl.on_cnp. */
static int
dcqcn_on_cnp(DcqcnObject *cc, PyObject *fstate, long long now)
{
    DcqcnFlowObject *st = dcqcn_state(cc, fstate, now);
    if (st == NULL)
        return -1;
    dcqcn_advance(cc, st, now);
    st->target_rate = st->rate;
    st->rate = py_max(cc->min_rate, st->rate * (1.0 - st->alpha / 2.0));
    st->alpha = (1.0 - cc->g) * st->alpha + cc->g;
    st->last_alpha_update_ns = now;
    st->last_decrease_ns = now;
    st->bytes_since_decrease = 0;
    st->bc_events_applied = 0;
    st->timer_events_applied = 0;
    st->ever_decreased = 1;
    return 0;
}

/* DcqcnControl.rate_bps. */
static int
dcqcn_rate(DcqcnObject *cc, PyObject *fstate, double *out)
{
    int failed;
    DcqcnFlowObject *st;
    if (dcqcn_ready(cc) < 0)
        return -1;
    st = dcqcn_lookup(fstate, &failed);
    if (failed)
        return -1;
    *out = st == NULL ? cc->line_rate_bps
                      : py_max(cc->min_rate, py_min(cc->line_rate_bps, st->rate));
    return 0;
}

/* Does the dict hold one of these names?  1, 0 or -1. */
static int
dict_has_any(PyObject *dict, PyObject *const *names, size_t n)
{
    size_t i;
    for (i = 0; PyDict_GET_SIZE(dict) > 0 && i < n; i++) {
        if (PyDict_GetItemWithError(dict, names[i]) != NULL)
            return 1;
        if (PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* cc as a compiled DCQCN the NIC may call C to C, or NULL (and no error
 * unless *failed): cc.rate_bps, cc.on_packet_sent and cc.on_cnp find the C
 * methods, neither a class in front of the C base nor the instance dict
 * replacing one.  (A twin's subclass that overrides any compiled step gets
 * every Python method back; see repro.sim.plane.) */
static DcqcnObject *
dcqcn_direct(PyObject *cc, int *failed)
{
    PyObject *const names[] = {str_rate_bps, str_on_packet_sent, str_on_cnp};
    const size_t n = sizeof(names) / sizeof(names[0]);
    PyObject *mro, *dict;
    Py_ssize_t i;
    int replaced = 0;
    *failed = 0;
    if (!type_is(cc, &DcqcnType))
        return NULL;
    mro = Py_TYPE(cc)->tp_mro;
    for (i = 0; replaced == 0 && PyTuple_GET_ITEM(mro, i) != (PyObject *)&DcqcnType; i++)
        replaced = dict_has_any(((PyTypeObject *)PyTuple_GET_ITEM(mro, i))->tp_dict, names, n);
    if (replaced == 0 && Py_TYPE(cc)->tp_dictoffset != 0) {
        dict = PyObject_GenericGetDict(cc, NULL);
        replaced = dict == NULL ? -1 : dict_has_any(dict, names, n);
        Py_XDECREF(dict);
    }
    *failed = replaced < 0;
    return replaced ? NULL : (DcqcnObject *)cc;
}

/* -- The Python face ------------------------------------------------------ */

static int
time_arg(PyObject *obj, long long *out)
{
    *out = PyLong_AsLongLong(obj);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static PyObject *
Dcqcn_on_flow_start(DcqcnObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long now;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "on_flow_start(fstate, now_ns)");
        return NULL;
    }
    if (time_arg(args[1], &now) < 0 || dcqcn_state(self, args[0], now) == NULL)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Dcqcn_on_packet_sent(DcqcnObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long now, size;
    PyObject *size_obj;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "on_packet_sent(fstate, packet, now_ns)");
        return NULL;
    }
    if (time_arg(args[2], &now) < 0)
        return NULL;
    size_obj = PyObject_GetAttr(args[1], str_size);
    if (size_obj == NULL)
        return NULL;
    size = PyLong_AsLongLong(size_obj);
    Py_DECREF(size_obj);
    if ((size == -1 && PyErr_Occurred()) || dcqcn_on_sent(self, args[0], size, now) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Dcqcn_on_cnp(DcqcnObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long now;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "on_cnp(fstate, now_ns)");
        return NULL;
    }
    if (time_arg(args[1], &now) < 0 || dcqcn_on_cnp(self, args[0], now) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Dcqcn_rate_bps(DcqcnObject *self, PyObject *fstate)
{
    double rate;
    if (dcqcn_rate(self, fstate, &rate) < 0)
        return NULL;
    return PyFloat_FromDouble(rate);
}

static PyObject *
Dcqcn_state(DcqcnObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long now;
    PyObject *state;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "_state(fstate, now_ns)");
        return NULL;
    }
    if (time_arg(args[1], &now) < 0)
        return NULL;
    state = (PyObject *)dcqcn_state(self, args[0], now);
    return state == NULL ? NULL : Py_NewRef(state);
}

static PyObject *
Dcqcn_get_config(DcqcnObject *self, void *closure)
{
    return Py_NewRef(self->config != NULL ? self->config : Py_None);
}

/* Setting config reads its fields: the timers, the byte counter and the
 * fast-recovery rounds as ints, g and initial_alpha as floats.  The rate
 * machine divides by the timers and the byte counter, so they must be
 * positive (DcqcnConfig.validate's messages). */
static int
Dcqcn_set_config(DcqcnObject *self, PyObject *config, void *closure)
{
    long long ints[4];
    double floats[2];
    static const char *const float_names[] = {"g", "initial_alpha"};
    int i;
    if (config == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete config");
        return -1;
    }
    if (config_ll(config, "alpha_timer_ns", 0, &ints[0]) < 0 ||
        config_ll(config, "increase_timer_ns", 0, &ints[1]) < 0 ||
        config_ll(config, "byte_counter_bytes", 0, &ints[2]) < 0 ||
        config_ll(config, "fast_recovery_rounds", 0, &ints[3]) < 0)
        return -1;
    if (ints[0] <= 0 || ints[1] <= 0) {
        PyErr_SetString(PyExc_ValueError, "timers must be positive");
        return -1;
    }
    if (ints[2] <= 0) {
        PyErr_SetString(PyExc_ValueError, "byte counter must be positive");
        return -1;
    }
    for (i = 0; i < 2; i++) {
        PyObject *value = PyObject_GetAttrString(config, float_names[i]);
        if (value == NULL)
            return -1;
        floats[i] = PyFloat_AsDouble(value);
        Py_DECREF(value);
        if (floats[i] == -1.0 && PyErr_Occurred())
            return -1;
    }
    Py_XSETREF(self->config, Py_NewRef(config));
    self->alpha_timer_ns = ints[0];
    self->increase_timer_ns = ints[1];
    self->byte_counter_bytes = ints[2];
    self->fast_recovery_rounds = ints[3];
    self->g = floats[0];
    self->initial_alpha = floats[1];
    return 0;
}

static int
Dcqcn_traverse(DcqcnObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->config);
    return 0;
}

static int
Dcqcn_clear(DcqcnObject *self)
{
    Py_CLEAR(self->config);
    return 0;
}

static void
Dcqcn_dealloc(DcqcnObject *self)
{
    PyObject_GC_UnTrack(self);
    Dcqcn_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

#define FASTCALL(fn) (PyCFunction)(void (*)(void))(fn), METH_FASTCALL
static PyMethodDef Dcqcn_methods[] = {
    {"on_flow_start", FASTCALL(Dcqcn_on_flow_start), "DcqcnControl.on_flow_start in C."},
    {"on_packet_sent", FASTCALL(Dcqcn_on_packet_sent), "DcqcnControl.on_packet_sent in C."},
    {"on_cnp", FASTCALL(Dcqcn_on_cnp), "DcqcnControl.on_cnp in C."},
    {"rate_bps", (PyCFunction)Dcqcn_rate_bps, METH_O, "DcqcnControl.rate_bps in C."},
    {"_state", FASTCALL(Dcqcn_state), "The flow's DcqcnFlow, made when it has none."},
    {NULL, NULL, 0, NULL},
};
#undef FASTCALL

#define CC_DOUBLE(name) {#name, T_DOUBLE, offsetof(DcqcnObject, name), 0, NULL}
static PyMemberDef Dcqcn_members[] = {
    CC_DOUBLE(line_rate_bps),
    CC_DOUBLE(min_rate),
    CC_DOUBLE(rate_ai),
    CC_DOUBLE(rate_hai),
    {NULL},
};
#undef CC_DOUBLE

static PyGetSetDef Dcqcn_getset[] = {
    {"config", (getter)Dcqcn_get_config, (setter)Dcqcn_set_config,
     "The DcqcnConfig; setting it reads its fields.", NULL},
    {NULL},
};

static PyTypeObject DcqcnType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_accelcore.DcqcnControl",
    .tp_basicsize = sizeof(DcqcnObject),
    .tp_dealloc = (destructor)Dcqcn_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "The DCQCN sender's hot methods and parameters (compiled plane); "
              "the Python DcqcnControl it is mixed into initialises it.",
    .tp_traverse = (traverseproc)Dcqcn_traverse,
    .tp_clear = (inquiry)Dcqcn_clear,
    .tp_methods = Dcqcn_methods,
    .tp_members = Dcqcn_members,
    .tp_getset = Dcqcn_getset,
    .tp_new = PyType_GenericNew,
};

/* Host.build_data_packet. */
static PyObject *
nic_build(NicObject *self, PyObject *fstate)
{
    PyObject *flow = NULL, *now_obj, *seq_obj = NULL, *packet = NULL, *value;
    PyObject *cc, *hook, *rate_obj = NULL, *res;
    DcqcnObject *dcqcn = NULL;
    long long now, seq, num_packets, payload, size, allowed, pace;
    double rate, uplink;
    Py_ssize_t retransmits;
    int has_cc, failed, rc;

    if (!self->bound) {
        PyErr_SetString(PyExc_AttributeError, "the NIC has no host");
        return NULL;
    }
    now_obj = heap_now_obj(self->sim);
    if (now_obj == NULL)
        return NULL;
    now = self->sim->now;
    flow = fs_get(fstate, S_FLOW);
    if (flow == NULL)
        goto error;
    retransmits = fs_retransmits(fstate, NULL);
    if (retransmits < 0)
        goto error;
    if (retransmits) {
        PyObject *queue = fs_get(fstate, S_RETRANSMIT_QUEUE);
        if (queue == NULL)
            goto error;
        seq_obj = PyObject_CallMethodNoArgs(queue, str_popleft);
        Py_DECREF(queue);
    }
    else {
        seq_obj = fs_get(fstate, S_NEXT_SEQ);
    }
    if (seq_obj == NULL)
        goto error;
    seq = PyLong_AsLongLong(seq_obj);
    if ((seq == -1 && PyErr_Occurred()) ||
        fs_ll(fstate, S_NUM_PACKETS, &num_packets) < 0 ||
        fs_payload(fstate, seq, num_packets, &payload) < 0)
        goto error;
    size = payload + header_size;
    {
        PyObject *flow_id = PyObject_GetAttr(flow, packet_slot_strs[P_FLOW_ID]);
        PyObject *key = fs_get(fstate, S_KEY), *flow_size;
        if (flow_id == NULL || key == NULL) {
            Py_XDECREF(flow_id);
            Py_XDECREF(key);
            goto error;
        }
        packet = packet_new(kind_data, flow_id, key, size);
        Py_DECREF(flow_id);
        Py_DECREF(key);
        if (packet == NULL)
            goto error;
        flow_size = PyObject_GetAttr(flow, str_size);
        if (flow_size == NULL)
            goto error;
        pkt_set(packet, P_FLOW_SIZE, flow_size);
        Py_DECREF(flow_size);
    }
    pkt_set(packet, P_SEQ, seq_obj);
    pkt_set(packet, P_CREATED_NS, now_obj);
    pkt_set(packet, P_INT_ENABLED, self->cfg_int_enabled);
    pkt_set(packet, P_FIRST_OF_FLOW, seq == 0 ? self->cfg_mark_first : Py_False);
    pkt_set(packet, P_LAST_OF_FLOW, seq == num_packets - 1 ? Py_True : Py_False);
    if (retransmits) {
        value = incremented(flow, str_retransmitted_packets);
        if (value == NULL)
            goto error;
        rc = PyObject_SetAttr(flow, str_retransmitted_packets, value);
        Py_DECREF(value);
        if (rc < 0)
            goto error;
        count(self->counters, C_SELECTIVE_RETRANSMISSIONS, 1);
    }
    else if (cls_set_ll(&sender_class, fstate, S_NEXT_SEQ, seq + 1) < 0) {
        goto error;
    }
    value = PyObject_GetAttr(flow, str_first_tx_ns);
    if (value == NULL)
        goto error;
    rc = value == Py_None ? PyObject_SetAttr(flow, str_first_tx_ns, now_obj) : 0;
    Py_DECREF(value);
    if (rc < 0)
        goto error;
    /* The rate: the cc module's, capped by the uplink (an inherited
     * CongestionControl.rate_bps is its line rate, read without the call;
     * a compiled DCQCN's is read C to C). */
    cc = Py_NewRef(self->cc);
    uplink = self->uplink_rate;
    has_cc = nic_has_cc(self);
    if (has_cc < 0)
        goto error_cc;
    if (has_cc) {
        dcqcn = dcqcn_direct(cc, &failed);
        if (failed)
            goto error_cc;
    }
    if (dcqcn != NULL) {
        if (dcqcn_rate(dcqcn, fstate, &rate) < 0)
            goto error_cc;
    }
    else {
        if (has_cc) {
            hook = cc_hook(cc, str_rate_bps, cc_noop_rate_bps, &failed);
            if (failed)
                goto error_cc;
            rate_obj = hook == NULL ? PyObject_GetAttr(cc, str_line_rate_bps)
                                    : PyObject_CallOneArg(hook, fstate);
            Py_XDECREF(hook);
        }
        if (!has_cc) {
            rate = uplink;
        }
        else if (rate_obj == NULL) {
            goto error_cc;
        }
        else {
            rate = PyFloat_AsDouble(rate_obj);
            Py_DECREF(rate_obj);
            if (rate == -1.0 && PyErr_Occurred())
                goto error_cc;
        }
    }
    /* max(1.0, min(rate, uplink_rate)), as Python's min/max pick. */
    if (uplink < rate)
        rate = uplink;
    if (!(rate > 1.0))
        rate = 1.0;
    /* Pacing delay; arithmetically identical to units.transmission_time_ns
     * (integer product, then float divide, round half to even). */
    pace = (long long)round_half_even((double)(size * 8 * 1000000000LL) / rate);
    if (pace < 1)
        pace = 1;
    if (fs_ll(fstate, S_NEXT_ALLOWED_NS, &allowed) < 0 ||
        cls_set_ll(&sender_class, fstate, S_NEXT_ALLOWED_NS, (allowed > now ? allowed : now) + pace) < 0)
        goto error_cc;
    if (dcqcn != NULL) {
        if (dcqcn_on_sent(dcqcn, fstate, size, now) < 0)
            goto error_cc;
        hook = NULL;
    }
    else {
        hook = has_cc ? cc_hook(cc, str_on_packet_sent, cc_noop_on_packet_sent, &failed) : NULL;
    }
    if (hook != NULL) {
        PyObject *stack[3] = {fstate, packet, now_obj};
        res = PyObject_Vectorcall(hook, stack, 3, NULL);
        Py_DECREF(hook);
        if (res == NULL)
            goto error_cc;
        Py_DECREF(res);
    }
    else if (has_cc && failed) {
        goto error_cc;
    }
    Py_DECREF(cc);
    count(self->cv_counters, C_DATA_PACKETS_SENT, 1);
    Py_DECREF(flow);
    Py_DECREF(seq_obj);
    Py_DECREF(now_obj);
    return packet;

error_cc:
    Py_DECREF(cc);
error:
    Py_XDECREF(flow);
    Py_XDECREF(seq_obj);
    Py_XDECREF(packet);
    Py_DECREF(now_obj);
    return NULL;
}

static PyObject *Nic_probe_flow(NicObject *self, PyObject *flow_id);
static PyObject *Nic_build_data_packet(NicObject *self, PyObject *fstate);

/* NicScheduler.dequeue. */
static PyObject *
nic_dequeue(NicObject *self)
{
    PyObject *probe, *picked, *fstate, *build;
    int rc, failed;
    if (nic_bound(self) < 0)
        return NULL;
    self->now = self->sim->now;
    self->has_wake_at = 0;
    probe = instance_attr((PyObject *)self, str_probe, &failed);
    if (failed)
        return NULL;
    if (probe != NULL && !own_method(self, probe, (void *)Nic_probe_flow)) {
        Py_INCREF(probe);
        rc = drr_select((DrrObject *)self->drr, drr_call_probe, probe, &picked);
        Py_DECREF(probe);
    }
    else {
        rc = drr_select((DrrObject *)self->drr, nic_probe, self, &picked);
    }
    if (rc < 0)
        return NULL;
    if (rc == 0) {
        if (self->has_wake_at && nic_arm_wakeup(self, self->wake_at) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    fstate = PyDict_GetItemWithError(self->flows, picked);
    if (fstate == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, picked);
        return NULL;
    }
    Py_INCREF(fstate);
    build = PyDict_GetItemWithError(self->host_dict, str_build_data_packet);
    if (build == NULL && PyErr_Occurred()) {
        Py_DECREF(fstate);
        return NULL;
    }
    if (build != NULL && own_method(self, build, (void *)Nic_build_data_packet)) {
        picked = nic_build(self, fstate);
    }
    else {
        picked = PyObject_CallMethodOneArg(self->host, str_build_data_packet, fstate);
    }
    Py_DECREF(fstate);
    return picked;
}

/* -- The receive path -------------------------------------------------- */

/* The reverse key of a packet's flow key (FlowKey.reversed, memoized). */
static PyObject *
reversed_key(PyObject *packet)
{
    PyObject *key = pkt_get(packet, P_KEY), *rev;
    if (key == NULL)
        return NULL;
    rev = PyObject_GetAttr(key, str_reversed_slot);
    if (rev == Py_None) {
        Py_DECREF(rev);
        rev = PyObject_CallMethodNoArgs(key, str_reversed);
    }
    Py_DECREF(key);
    return rev;
}

static int
host_queue_control(NicObject *self, PyObject *frame)
{
    return PyList_Append(self->pending, frame);
}

/* A control frame answering a data packet: kind, size, ack_seq. */
static PyObject *
answer_frame(NicObject *self, PyObject *packet, PyObject *kind, long long size,
             PyObject *ack_seq)
{
    PyObject *flow_id = pkt_get(packet, P_FLOW_ID), *rev, *frame, *now;
    if (flow_id == NULL)
        return NULL;
    rev = reversed_key(packet);
    if (rev == NULL) {
        Py_DECREF(flow_id);
        return NULL;
    }
    frame = packet_new(kind, flow_id, rev, size);
    Py_DECREF(flow_id);
    Py_DECREF(rev);
    if (frame == NULL)
        return NULL;
    now = heap_now_obj(self->sim);
    if (now == NULL) {
        Py_DECREF(frame);
        return NULL;
    }
    pkt_set(frame, P_ACK_SEQ, ack_seq);
    pkt_set(frame, P_CREATED_NS, now);
    Py_DECREF(now);
    return frame;
}

/* Host._send_ack. */
static int
nic_send_ack(NicObject *self, PyObject *packet, PyObject *ack_seq)
{
    PyObject *ack = answer_frame(self, packet, kind_ack, ack_size, ack_seq), *value;
    int rc;
    if (ack == NULL)
        return -1;
    value = pkt_get(packet, P_ECN_MARKED);
    if (value == NULL)
        goto error;
    pkt_set(ack, P_ECN_ECHO, value);
    Py_DECREF(value);
    rc = pkt_truth(packet, P_INT_ENABLED);
    if (rc < 0)
        goto error;
    if (rc) {
        PyObject *stack = pkt_get(packet, P_INT_STACK), *copy;
        if (stack == NULL)
            goto error;
        copy = PySequence_List(stack);
        Py_DECREF(stack);
        if (copy == NULL)
            goto error;
        pkt_set(ack, P_INT_ENABLED, Py_False);
        pkt_set(ack, P_INT_STACK, copy);
        Py_DECREF(copy);
    }
    rc = host_queue_control(self, ack);
    Py_DECREF(ack);
    if (rc < 0)
        return -1;
    count(self->cv_counters, C_ACKS_SENT, 1);
    return 0;
error:
    Py_DECREF(ack);
    return -1;
}

/* Host._send_nack. */
static int
nic_send_nack(NicObject *self, PyObject *packet, PyObject *rstate, PyObject *expected)
{
    PyObject *last = rs_get(rstate, R_LAST_NACK_SEQ), *nack;
    int same, rc;
    if (last == NULL)
        return -1;
    same = PyObject_RichCompareBool(last, expected, Py_EQ);
    Py_DECREF(last);
    if (same)
        return same < 0 ? -1 : 0; /* already asked for this packet */
    if (rs_set(rstate, R_LAST_NACK_SEQ, expected) < 0)
        return -1;
    nack = answer_frame(self, packet, kind_nack, nack_size, expected);
    if (nack == NULL)
        return -1;
    rc = host_queue_control(self, nack);
    Py_DECREF(nack);
    if (rc < 0)
        return -1;
    count(self->counters, C_NACKS_SENT, 1);
    return 0;
}

/* Is the host's method name replaced on the instance?  1, 0 or -1. */
static int
host_replaces(NicObject *self, PyObject *name)
{
    if (PyDict_GetItemWithError(self->host_dict, name) != NULL)
        return 1;
    return PyErr_Occurred() ? -1 : 0;
}

/* Host._maybe_send_cnp: at most one CNP per flow per CNP_INTERVAL_NS. */
static int
nic_maybe_send_cnp(NicObject *self, PyObject *packet, PyObject *rstate)
{
    PyObject *cnp, *now_obj, *res;
    long long last;
    int rc = self->own_send_cnp ? host_replaces(self, str_maybe_send_cnp) : 1;
    if (rc < 0)
        return -1;
    if (rc) {
        res = call_method2(self->host, str_maybe_send_cnp, packet, rstate);
        Py_XDECREF(res);
        return res == NULL ? -1 : 0;
    }
    if (rs_ll(rstate, R_LAST_CNP_NS, &last) < 0)
        return -1;
    if (self->sim->now - last < cnp_interval_ns)
        return 0;
    now_obj = heap_now_obj(self->sim);
    rc = now_obj == NULL ? -1 : rs_set(rstate, R_LAST_CNP_NS, now_obj);
    Py_XDECREF(now_obj);
    if (rc < 0)
        return -1;
    cnp = answer_frame(self, packet, kind_cnp, cnp_size, int_zero);
    if (cnp == NULL)
        return -1;
    rc = host_queue_control(self, cnp);
    Py_DECREF(cnp);
    if (rc < 0)
        return -1;
    count(self->counters, C_CNPS_SENT, 1);
    return 0;
}

/* Host._handle_data for a go-back-N receiver that is not a tombstone. */
static int
nic_receive_data(NicObject *self, PyObject *packet, PyObject *rstate)
{
    PyObject *expected = NULL, *res;
    long long seq, expected_seq, size, bytes, num_packets;
    int rc;
    count(self->cv_counters, C_DATA_PACKETS_RECEIVED, 1);
    if (rstate == NULL) {
        PyObject *receivers = self->receivers, *flow_id, *flow_size, *key, *src, *mtu;
        flow_id = pkt_get(packet, P_FLOW_ID);
        flow_size = pkt_get(packet, P_FLOW_SIZE);
        key = pkt_get(packet, P_KEY);
        src = key == NULL ? NULL : PyObject_GetAttr(key, str_src);
        mtu = PyObject_GetAttr(self->config, str_mtu);
        if (flow_id != NULL && flow_size != NULL && src != NULL && mtu != NULL)
            rstate = PyObject_CallFunctionObjArgs((PyObject *)receiver_class.type, flow_id,
                                                  flow_size, mtu, src, NULL);
        rc = rstate == NULL ? -1 : PyDict_SetItem(receivers, flow_id, rstate);
        Py_XDECREF(flow_id);
        Py_XDECREF(flow_size);
        Py_XDECREF(key);
        Py_XDECREF(src);
        Py_XDECREF(mtu);
        if (rc < 0) {
            Py_XDECREF(rstate);
            return -1;
        }
    }
    else {
        Py_INCREF(rstate);
    }
    rc = pkt_truth(packet, P_ECN_MARKED);
    if (rc < 0 || (rc && nic_maybe_send_cnp(self, packet, rstate) < 0))
        goto error;
    if (pkt_ll(packet, P_SEQ, &seq) < 0 || rs_ll(rstate, R_EXPECTED_SEQ, &expected_seq) < 0)
        goto error;
    if (seq == expected_seq) {
        int completed;
        if (cls_set_ll(&receiver_class, rstate, R_EXPECTED_SEQ, expected_seq + 1) < 0 ||
            pkt_ll(packet, P_SIZE, &size) < 0 ||
            rs_ll(rstate, R_BYTES_RECEIVED, &bytes) < 0)
            goto error;
        /* packet.payload_bytes() of a data packet */
        size -= header_size;
        if (cls_set_ll(&receiver_class, rstate, R_BYTES_RECEIVED, bytes + (size > 0 ? size : 0)) < 0 ||
            rs_set(rstate, R_LAST_NACK_SEQ, int_minus_one) < 0 ||
            rs_ll(rstate, R_NUM_PACKETS, &num_packets) < 0)
            goto error;
        completed = cls_truth(&receiver_class, rstate, R_COMPLETED);
        if (completed < 0)
            goto error;
        if (expected_seq + 1 >= num_packets && !completed) {
            if (rs_set(rstate, R_COMPLETED, Py_True) < 0)
                goto error;
            res = call_method2(self->host, str_record_completion, packet, rstate);
            if (res == NULL)
                goto error;
            Py_DECREF(res);
        }
        expected = rs_get(rstate, R_EXPECTED_SEQ);
        if (expected == NULL || nic_send_ack(self, packet, expected) < 0)
            goto error;
    }
    else if (seq > expected_seq) {
        count(self->counters, C_OUT_OF_ORDER_PACKETS, 1);
        expected = rs_get(rstate, R_EXPECTED_SEQ);
        if (expected == NULL || nic_send_nack(self, packet, rstate, expected) < 0)
            goto error;
    }
    else {
        count(self->counters, C_DUPLICATE_PACKETS, 1);
        expected = rs_get(rstate, R_EXPECTED_SEQ);
        if (expected == NULL || nic_send_ack(self, packet, expected) < 0)
            goto error;
    }
    Py_XDECREF(expected);
    Py_DECREF(rstate);
    return 0;
error:
    Py_XDECREF(expected);
    Py_DECREF(rstate);
    return -1;
}

/* Host._handle_ack for a flow with no queued retransmissions. */
static int
nic_receive_ack(NicObject *self, PyObject *packet, PyObject *fstate)
{
    PyObject *now, *cc, *hook, *res;
    long long ack_seq, una, num_packets;
    int has_cc, failed, completed;
    if (pkt_ll(packet, P_ACK_SEQ, &ack_seq) < 0 || fs_ll(fstate, S_UNA, &una) < 0)
        return -1;
    if (ack_seq > una) {
        PyObject *value = pkt_get(packet, P_ACK_SEQ);
        int rc;
        if (value == NULL)
            return -1;
        rc = fs_set(fstate, S_UNA, value);
        Py_DECREF(value);
        now = rc < 0 ? NULL : heap_now_obj(self->sim);
        if (now == NULL)
            return -1;
        rc = fs_set(fstate, S_LAST_PROGRESS_NS, now);
        Py_DECREF(now);
        if (rc < 0)
            return -1;
    }
    cc = self->cc;
    has_cc = nic_has_cc(self);
    if (has_cc < 0)
        return -1;
    hook = has_cc ? cc_hook(cc, str_on_ack, cc_noop_on_ack, &failed) : NULL;
    if (hook != NULL) {
        PyObject *stack[3] = {fstate, packet, NULL};
        stack[2] = now = heap_now_obj(self->sim);
        res = now == NULL ? NULL : PyObject_Vectorcall(hook, stack, 3, NULL);
        Py_DECREF(hook);
        Py_XDECREF(now);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
    }
    else if (has_cc && failed) {
        return -1;
    }
    if (fs_ll(fstate, S_UNA, &una) < 0 || fs_ll(fstate, S_NUM_PACKETS, &num_packets) < 0)
        return -1;
    completed = cls_truth(&sender_class, fstate, S_COMPLETED);
    if (completed < 0)
        return -1;
    if (una >= num_packets && !completed) {
        if (fs_set(fstate, S_COMPLETED, Py_True) < 0)
            return -1;
        res = call_method2(self->host, str_finish_sender, fstate, NULL);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
    }
    return 0;
}

static int
kick_port(PyObject *port)
{
    PyObject *res;
    if (Port_Check(port))
        return port_kick((PortObject *)port);
    res = PyObject_CallMethodNoArgs(port, str_kick);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* The end of Host.handle_packet: the control frames generated go to the
 * port in one burst, with at most one port kick, which an ACK always asks
 * for (Host._needs_kick: on this path it never outlives the packet, so it
 * is the caller's flag, and the host's attribute stays False). */
static int
host_flush(NicObject *self, int needs_kick)
{
    PyObject *pending = self->pending, *port, *res;
    int has_pending = PyList_GET_SIZE(pending) > 0, rc;
    if (!has_pending && !needs_kick)
        return 0;
    port = Py_NewRef(self->uplink_port);
    if (has_pending) {
        if (Port_Check(port)) {
            rc = port_queue_control((PortObject *)port, pending);
        }
        else {
            res = PyObject_CallMethodOneArg(port, str_queue_control, pending);
            Py_XDECREF(res);
            rc = res == NULL ? -1 : 0;
        }
        if (rc < 0 || PyList_SetSlice(pending, 0, PY_SSIZE_T_MAX, NULL) < 0)
            goto error;
    }
    if (kick_port(port) < 0)
        goto error;
    Py_DECREF(port);
    return 0;
error:
    Py_DECREF(port);
    return -1;
}

/* Host._handle_cnp: a compiled DCQCN reacts C to C, any other module in
 * Python. */
static int
nic_receive_cnp(NicObject *self, PyObject *packet)
{
    PyObject *flow_id = pkt_get(packet, P_FLOW_ID), *fstate, *cc;
    DcqcnObject *dcqcn;
    int has_cc, failed, rc = -1;
    if (flow_id == NULL)
        return -1;
    fstate = PyDict_GetItemWithError(self->flows, flow_id);
    Py_DECREF(flow_id);
    if (fstate == NULL)
        return PyErr_Occurred() ? -1 : 0;
    Py_INCREF(fstate);
    cc = Py_NewRef(self->cc);
    has_cc = nic_has_cc(self);
    if (has_cc > 0) {
        dcqcn = dcqcn_direct(cc, &failed);
        if (dcqcn != NULL) {
            has_cc = dcqcn_on_cnp(dcqcn, fstate, self->sim->now);
        }
        else if (failed) {
            has_cc = -1;
        }
        else {
            PyObject *now = heap_now_obj(self->sim);
            PyObject *res = now == NULL ? NULL : call_method2(cc, str_on_cnp, fstate, now);
            Py_XDECREF(now);
            Py_XDECREF(res);
            has_cc = res == NULL ? -1 : 0;
        }
    }
    Py_DECREF(cc);
    if (has_cc < 0)
        goto done;
    count(self->counters, C_CNPS_RECEIVED, 1);
    rc = 0;
done:
    Py_DECREF(fstate);
    return rc;
}

/* Host.handle_packet: DATA to a go-back-N receiver, ACK of a flow with no
 * queued retransmissions and CNP here, everything else in Python. */
static int
nic_receive(NicObject *self, PyObject *packet, PyObject *iface_index)
{
    PyObject *kind, *flow_id, *res, *stack[3];
    int handled = 0, rc = 0;
    if (nic_bound(self) < 0)
        return -1;
    kind = pkt_get(packet, P_KIND);
    if (kind == NULL)
        return -1;
    Py_DECREF(kind); /* the enum member lives on */
    if (kind == kind_data || kind == kind_ack) {
        flow_id = pkt_get(packet, P_FLOW_ID);
        if (flow_id == NULL)
            return -1;
        if (kind == kind_data) {
            if (!self->selective) {
                PyObject *rstate = PyDict_GetItemWithError(self->receivers, flow_id);
                if (rstate == NULL && PyErr_Occurred())
                    rc = -1;
                else if (rstate == NULL || Py_TYPE(rstate) == receiver_class.type) {
                    handled = 1;
                    rc = nic_receive_data(self, packet, rstate);
                }
            }
        }
        else {
            PyObject *fstate = PyDict_GetItemWithError(self->flows, flow_id);
            if (fstate == NULL && PyErr_Occurred())
                rc = -1;
            else if (fstate != NULL && Py_TYPE(fstate) == sender_class.type) {
                Py_ssize_t retransmits = fs_retransmits(fstate, NULL);
                if (retransmits < 0)
                    rc = -1;
                else if (retransmits == 0) {
                    handled = 1;
                    Py_INCREF(fstate);
                    rc = nic_receive_ack(self, packet, fstate);
                    Py_DECREF(fstate);
                }
            }
        }
        Py_DECREF(flow_id);
        if (rc < 0)
            return -1;
        if (handled)
            return host_flush(self, kind == kind_ack);
    }
    else if (kind == kind_cnp && self->own_handle_cnp) {
        rc = host_replaces(self, str_handle_cnp);
        if (rc < 0)
            return -1;
        if (rc == 0)
            return nic_receive_cnp(self, packet) < 0 ? -1 : host_flush(self, 0);
    }
    stack[0] = self->host;
    stack[1] = packet;
    stack[2] = iface_index;
    res = PyObject_Vectorcall(self->py_handle, stack, 3, NULL);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* -- The Python face ------------------------------------------------------ */

static PyObject *
Nic_dequeue(NicObject *self, PyObject *Py_UNUSED(ignored))
{
    return nic_dequeue(self);
}

static PyObject *
Nic_probe_flow(NicObject *self, PyObject *flow_id)
{
    long long size;
    int rc;
    if (nic_bound(self) < 0)
        return NULL;
    rc = nic_probe(self, flow_id, &size);
    if (rc < 0)
        return NULL;
    if (rc == PROBE_NONE)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(size);
}

static PyObject *
Nic_has_work_at(NicObject *self, PyObject *horizon)
{
    long long at = PyLong_AsLongLong(horizon);
    int rc;
    if (at == -1 && PyErr_Occurred())
        return NULL;
    rc = nic_has_work_at(self, at);
    if (rc < 0)
        return NULL;
    return PyBool_FromLong(rc);
}

static PyObject *
Nic_arm_wakeup(NicObject *self, PyObject *earliest)
{
    long long at = PyLong_AsLongLong(earliest);
    if (at == -1 && PyErr_Occurred())
        return NULL;
    if (self->sim == NULL) {
        PyErr_SetString(PyExc_AttributeError, "the NIC has no host");
        return NULL;
    }
    if (nic_arm_wakeup(self, at) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Nic_build_data_packet(NicObject *self, PyObject *fstate)
{
    return nic_build(self, fstate);
}

static PyObject *
Nic_receive(NicObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_args2(nargs, "receive") < 0 || nic_receive(self, args[0], args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Nic_get_host(NicObject *self, void *closure)
{
    return Py_NewRef(self->host != NULL ? self->host : Py_None);
}

/* Binding the host also reads what the hot paths use of it. */
static int
Nic_set_host(NicObject *self, PyObject *host, void *closure)
{
    PyObject *host_dict, *sim, *handle, *own[2];
    if (host == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete host");
        return -1;
    }
    host_dict = PyObject_GetAttr(host, str_dict);
    if (host_dict == NULL)
        return -1;
    sim = PyObject_GetAttr(host, str_sim);
    handle = PyObject_GetAttr((PyObject *)Py_TYPE(host), str_handle_packet);
    if (sim == NULL || handle == NULL || !PyDict_Check(host_dict) ||
        !PyObject_TypeCheck(sim, &EventHeapType)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "a compiled NIC needs a host with a __dict__ "
                                             "on the compiled engine's simulator");
        Py_DECREF(host_dict);
        Py_XDECREF(sim);
        Py_XDECREF(handle);
        return -1;
    }
    own[0] = PyObject_GetAttr((PyObject *)Py_TYPE(host), str_handle_cnp);
    own[1] = PyObject_GetAttr((PyObject *)Py_TYPE(host), str_maybe_send_cnp);
    Py_XDECREF(own[0]);
    Py_XDECREF(own[1]);
    if (own[0] == NULL || own[1] == NULL) {
        Py_DECREF(host_dict);
        Py_DECREF(sim);
        Py_DECREF(handle);
        return -1;
    }
    Py_XSETREF(self->host, Py_NewRef(host));
    Py_XSETREF(self->host_dict, host_dict);
    Py_XSETREF(self->sim, (EventHeapObject *)sim);
    Py_XSETREF(self->py_handle, handle);
    self->own_handle_cnp = own[0] == host_handle_cnp;
    self->own_send_cnp = own[1] == host_maybe_send_cnp;
    return nic_rebind(self);
}

static PyObject *
Nic_bind_host(NicObject *self, PyObject *Py_UNUSED(ignored))
{
    if (nic_rebind(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Nic_get_wake_at(NicObject *self, void *closure)
{
    if (!self->has_wake_at)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(self->wake_at);
}

static int
Nic_set_wake_at(NicObject *self, PyObject *value, void *closure)
{
    if (value == NULL || value == Py_None) {
        self->has_wake_at = 0;
        return 0;
    }
    self->wake_at = PyLong_AsLongLong(value);
    if (self->wake_at == -1 && PyErr_Occurred())
        return -1;
    self->has_wake_at = 1;
    return 0;
}

static int
Nic_traverse(NicObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->host);
    Py_VISIT(self->flows);
    Py_VISIT(self->drr);
    Py_VISIT(self->wakeup_event);
    Py_VISIT(self->host_dict);
    Py_VISIT(self->sim);
    Py_VISIT(self->py_handle);
    Py_VISIT(self->config);
    Py_VISIT(self->cfg_int_enabled);
    Py_VISIT(self->cfg_mark_first);
    Py_VISIT(self->cc);
    Py_VISIT(self->receivers);
    Py_VISIT(self->pending);
    Py_VISIT(self->counters);
    Py_VISIT(self->cv_counters);
    Py_VISIT(self->uplink_port);
    return 0;
}

static int
Nic_clear(NicObject *self)
{
    Py_CLEAR(self->host);
    Py_CLEAR(self->flows);
    Py_CLEAR(self->drr);
    Py_CLEAR(self->wakeup_event);
    Py_CLEAR(self->host_dict);
    Py_CLEAR(self->sim);
    Py_CLEAR(self->py_handle);
    self->bound = 0;
    Py_CLEAR(self->config);
    Py_CLEAR(self->cfg_int_enabled);
    Py_CLEAR(self->cfg_mark_first);
    Py_CLEAR(self->cc);
    Py_CLEAR(self->receivers);
    Py_CLEAR(self->pending);
    Py_CLEAR(self->counters);
    Py_CLEAR(self->cv_counters);
    Py_CLEAR(self->uplink_port);
    return 0;
}

static void
Nic_dealloc(NicObject *self)
{
    PyObject_GC_UnTrack(self);
    Nic_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef Nic_methods[] = {
    {"dequeue", (PyCFunction)Nic_dequeue, METH_NOARGS,
     "Pick the next flow (deficit round robin) and build its packet."},
    {"_probe_flow", (PyCFunction)Nic_probe_flow, METH_O,
     "The DRR probe: a flow's next packet size if it may send now."},
    {"has_work_at", (PyCFunction)Nic_has_work_at, METH_O,
     "Could a wake-up at the commit horizon find transmittable work?"},
    {"_arm_wakeup", (PyCFunction)Nic_arm_wakeup, METH_O,
     "Arm (or tighten) the pacing wake-up kick at earliest."},
    {"build_data_packet", (PyCFunction)Nic_build_data_packet, METH_O,
     "Host.build_data_packet for the compiled plane."},
    {"receive", (PyCFunction)(void (*)(void))Nic_receive, METH_FASTCALL,
     "Host.handle_packet for the compiled plane."},
    {"_bind_host", (PyCFunction)Nic_bind_host, METH_NOARGS,
     "Read the host's containers and settings again (after one is assigned)."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef Nic_members[] = {
    {"_flows", T_OBJECT, offsetof(NicObject, flows), 0, NULL},
    {"_drr", T_OBJECT, offsetof(NicObject, drr), 0, NULL},
    {"_wakeup_event", T_OBJECT, offsetof(NicObject, wakeup_event), 0, NULL},
    {"_now", T_LONGLONG, offsetof(NicObject, now), 0, NULL},
    {NULL},
};

static PyGetSetDef Nic_getset[] = {
    {"host", (getter)Nic_get_host, (setter)Nic_set_host, "The host this NIC serves.", NULL},
    {"_wake_at", (getter)Nic_get_wake_at, (setter)Nic_set_wake_at,
     "The earliest pacing timer the last dequeue's probe saw, or None.", NULL},
    {NULL},
};

static PyTypeObject NicType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_accelcore.NicScheduler",
    .tp_basicsize = sizeof(NicObject),
    .tp_dealloc = (destructor)Nic_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "The host NIC's transmit and receive fast paths (compiled plane); "
              "the Python NicScheduler it is mixed into initialises it.",
    .tp_traverse = (traverseproc)Nic_traverse,
    .tp_clear = (inquiry)Nic_clear,
    .tp_methods = Nic_methods,
    .tp_members = Nic_members,
    .tp_getset = Nic_getset,
    .tp_new = PyType_GenericNew,
};

/* -- The engine's direct dispatch ---------------------------------------- */

/* Run an inline entry's callback.  The bound C methods the plane posts most
 * -- a port's kick, a switch's and a NIC's receive -- are entered directly;
 * any other callback is called with the arguments on the stack. */
static int
entry_fire(entry_t *e)
{
    PyObject *callback = e->callback, *stack[2] = {e->a0, e->a1}, *res;
    Py_ssize_t nargs = e->a0 == NULL ? 0 : e->a1 == NULL ? 1 : 2;
    if (Py_IS_TYPE(callback, &PyCFunction_Type)) {
        PyCFunction fn = PyCFunction_GET_FUNCTION(callback);
        PyObject *owner = PyCFunction_GET_SELF(callback);
        if (fn == (PyCFunction)Port_kick && nargs == 0)
            return port_kick((PortObject *)owner);
        if (fn == (PyCFunction)(void (*)(void))SwitchPlane_handle_packet && nargs == 2)
            return plane_handle((SwitchPlaneObject *)owner, e->a0, e->a1);
        if (fn == (PyCFunction)(void (*)(void))Nic_receive && nargs == 2)
            return nic_receive((NicObject *)owner, e->a0, e->a1);
    }
    res = PyObject_Vectorcall(callback, stack, nargs, NULL);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

static PyMethodDef module_methods[] = {
    {"bind_engine", (PyCFunction)(void (*)(void))bind_engine, METH_FASTCALL,
     "bind_engine(Event, SimulationError, compact_min_cancelled): the handle "
     "schedule() returns, the error a refused scheduling call raises, and "
     "when cancellations compact the heap."},
    {"bind", (PyCFunction)(void (*)(void))bind, METH_FASTCALL,
     "bind(Packet, FlowKey, PacketKind.PFC, PacketKind.BLOOM, PauseMeter, "
     "ByteMeter): cache the packet and key slots' member offsets and the types "
     "a compiled port builds."},
    {"bind_host", (PyCFunction)(void (*)(void))bind_host, METH_FASTCALL,
     "bind_host(repro.sim.host, repro.sim.packet): what the compiled NIC "
     "reads and builds."},
    {"bind_bfc", (PyCFunction)(void (*)(void))bind_bfc, METH_FASTCALL,
     "bind_bfc(FlowTableStats, QueueAssignmentStats, BfcEgressStats): the "
     "stats classes the compiled BFC plane builds."},
    {"packet_vfid", (PyCFunction)(void (*)(void))module_packet_vfid, METH_FASTCALL,
     "packet_vfid(packet, space): repro.core.vfid.packet_vfid in C."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef accelcore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_accelcore",
    .m_doc = "C event engine and forwarding plane for the accel backend.",
    .m_size = -1,
    .m_methods = module_methods,
};

static int
intern_names(void)
{
    struct {
        PyObject **slot;
        const char *text;
    } names[] = {
        {&str_dict, "__dict__"},
        {&str_popleft, "popleft"},
        {&str_dequeue, "dequeue"},
        {&str_enqueue, "enqueue"},
        {&str_has_backlog, "has_backlog"},
        {&str_backlog_bytes, "backlog_bytes"},
        {&str_set_paused, "set_paused"},
        {&str_paused, "paused"},
        {&str_kick, "kick"},
        {&str_ecmp_pick, "_ecmp_pick"},
        {&str_maybe_mark_ecn, "_maybe_mark_ecn"},
        {&str_send_pfc, "_send_pfc"},
        {&str_stamp_int, "_stamp_int"},
        {&str_handle_pfc, "_handle_pfc"},
        {&str_handle_bloom, "handle_bloom"},
        {&str_data_bytes, "data_bytes"},
        {&str_data_packets, "data_packets"},
        {&str_control_bytes, "control_bytes"},
        {&str_control_packets, "control_packets"},
        {&str_post, "post"},
        {&str_name, "name"},
        {&str_tx_memo, "tx_memo"},
        {&str_random, "random"},
        {&str_receivers, "receivers"},
        {&str_selective, "_selective"},
        {&str_pending_control, "_pending_control"},
        {&str_uplink_port, "_uplink_port"},
        {&str_cc, "cc"},
        {&str_uplink_rate, "_uplink_rate"},
        {&str_config, "config"},
        {&str_counters, "counters"},
        {&str_cv, "_cv"},
        {&str_mtu, "mtu"},
        {&str_mark_first_packet, "mark_first_packet"},
        {&str_no_window, "_no_window"},
        {&str_effective_window, "effective_window"},
        {&str_build_data_packet, "build_data_packet"},
        {&str_probe, "_probe"},
        {&str_maybe_send_cnp, "_maybe_send_cnp"},
        {&str_record_completion, "_record_completion"},
        {&str_finish_sender, "_finish_sender"},
        {&str_on_ack, "on_ack"},
        {&str_rate_bps, "rate_bps"},
        {&str_on_packet_sent, "on_packet_sent"},
        {&str_line_rate_bps, "line_rate_bps"},
        {&str_cancel, "cancel"},
        {&str_sim, "sim"},
        {&str_handle_packet, "handle_packet"},
        {&str_queue_control, "queue_control"},
        {&str_size, "size"},
        {&str_first_tx_ns, "first_tx_ns"},
        {&str_retransmitted_packets, "retransmitted_packets"},
        {&str_reversed_slot, "_reversed"},
        {&str_reversed, "reversed"},
        {&str_src, "src"},
        {&str_handle_cnp, "_handle_cnp"},
        {&str_dcqcn, "dcqcn"},
        {&str_on_cnp, "on_cnp"},
        {&str_pause_flow, "pause_flow"},
        {&str_resume_flow, "resume_flow"},
        {&str_randrange, "randrange"},
        {&str_digest, "_digest"},
        {&str_masks, "_masks"},
        {&str_mask, "mask"},
        {&str_bits, "bits"},
        {&str_flow_table, "flow_table"},
        {&str_by_count, "by_count"},
    };
    size_t i;
    for (i = 0; i < sizeof(names) / sizeof(names[0]); i++) {
        *names[i].slot = PyUnicode_InternFromString(names[i].text);
        if (*names[i].slot == NULL)
            return -1;
    }
    for (i = 0; i < C_NCOUNTERS; i++) {
        counter_strs[i] = PyUnicode_InternFromString(counter_names[i]);
        if (counter_strs[i] == NULL)
            return -1;
    }
    for (i = 0; i < E_NSLOTS; i++) {
        event_slot_strs[i] = PyUnicode_InternFromString(event_slot_names[i]);
        if (event_slot_strs[i] == NULL)
            return -1;
    }
    for (i = 0; i < P_NSLOTS; i++) {
        packet_slot_strs[i] = PyUnicode_InternFromString(packet_slot_names[i]);
        if (packet_slot_strs[i] == NULL)
            return -1;
    }
    for (i = 0; i < K_NSLOTS; i++) {
        flowkey_slot_strs[i] = PyUnicode_InternFromString(flowkey_slot_names[i]);
        if (flowkey_slot_strs[i] == NULL)
            return -1;
    }
    for (i = 0; i < S_NSLOTS; i++) {
        sender_slot_strs[i] = PyUnicode_InternFromString(sender_slot_names[i]);
        if (sender_slot_strs[i] == NULL)
            return -1;
    }
    for (i = 0; i < R_NSLOTS; i++) {
        receiver_slot_strs[i] = PyUnicode_InternFromString(receiver_slot_names[i]);
        if (receiver_slot_strs[i] == NULL)
            return -1;
    }
    int_zero = PyLong_FromLong(0);
    int_minus_one = PyLong_FromLong(-1);
    empty_tuple = PyTuple_New(0);
    return (empty_tuple == NULL || int_zero == NULL || int_minus_one == NULL) ? -1 : 0;
}

PyMODINIT_FUNC
PyInit__accelcore(void)
{
    PyObject *module;
    struct {
        const char *name;
        PyTypeObject *type;
    } types[] = {
        {"EventHeap", &EventHeapType},
        {"Counters", &CountersType},
        {"FifoDiscipline", &FifoType},
        {"ByteCounts", &ByteCountsType},
        {"PauseState", &PauseStateType},
        {"BufferStats", &BufferStatsType},
        {"SharedBuffer", &BufferType},
        {"EgressPort", &PortType},
        {"SwitchPlane", &SwitchPlaneType},
        {"DeficitRoundRobin", &DrrType},
        {"NicScheduler", &NicType},
        {"DcqcnControl", &DcqcnType},
        {"DcqcnFlow", &DcqcnFlowType},
        {"FlowTableStats", &TableStatsType},
        {"QueueAssignmentStats", &PoolStatsType},
        {"BfcEgressStats", &EgressStatsType},
        {"FlowEntry", &FlowEntryType},
        {"FlowTable", &FlowTableType},
        {"PhysicalQueuePool", &PoolType},
        {"BfcScheduler", &SchedType},
        {"BfcEgressDiscipline", &BfcDiscType},
    };
    size_t i;
    if (intern_names() < 0)
        return NULL;
    for (i = 0; i < sizeof(types) / sizeof(types[0]); i++) {
        if (PyType_Ready(types[i].type) < 0)
            return NULL;
    }
    module = PyModule_Create(&accelcore_module);
    if (module == NULL)
        return NULL;
    for (i = 0; i < sizeof(types) / sizeof(types[0]); i++) {
        if (PyModule_AddObjectRef(module, types[i].name,
                                  (PyObject *)types[i].type) < 0) {
            Py_DECREF(module);
            return NULL;
        }
    }
    return module;
}
