/* Compiled level scan for the exact dom, 2dom and 2-SDS solvers.

   `least(masks, kind, first, last)` is `_pykernel.least` on uint64
   closed-neighbourhood masks, so it takes at most 64 vertices.  It reads
   the masks once, into the tables that depend only on the graph (`dead`,
   the packing, `widest`, `wider`, `above`, `final`), then searches the
   levels k in turn, from the larger of `first` and the least size the
   bounds below allow, up to min(last, n), each with an empty list of
   failed pairs, and returns the first witness.  Each level is:

   - a depth-first search over k-subsets in lex order, where `need[j]` holds
     the vertices the first j picks leave uncovered and `dead[p]` the
     vertices whose closed neighbourhood lies within 0..p; a pick p that
     leaves a vertex of `dead[p]` uncovered ends its prefix and every later
     sibling;
   - per depth, next to `chosen[j]` (the mask of the first j picks), the
     vertices with at least two (`two[j]`) and at least three (`three[j]`)
     picks in their closed neighbourhood, updated on each push; the
     at-least-one layer is `~need[j]`, so a dominating candidate S gets its
     layers (exactly one and exactly two members of S) in O(1), shared by
     every attack pair;
   - at a dominating leaf, the test of `kind`: none for dom; for 2dom,
     whether every vertex outside S has two picks in its closed
     neighbourhood, as N[v] & S = N(v) & S for v outside S; for 2-SDS the
     2-SDS test, which first applies the shared-sole-defender rule, then
     retries, most recent first, every attack pair that a full scan of this
     level found undefended, moving a pair that defeats the candidate to the
     front, then scans every pair in lex order.  Only a full scan adds a
     pair, and never one of the list, so the list holds at most C(64, 2)
     distinct pairs;
   - the shared-sole-defender rule: a dominating S fails when two vertices
     u1, u2 have N[u1] & S = N[u2] & S = {v}, since the attack (u1, u2)
     needs two distinct defenders from {v}.  At a leaf: N[v] & ex1 has two
     bits for some v in S.  For 2-SDS it also runs at each interior push of
     a pick p, on fin1 = dead[p] & ~(need | two) after the push, the
     vertices whose count of picks is final (N[u] lies within 0..p) and
     equal to 1.  If two of them share their sole pick v, the prefix ends
     with every later sibling q > p, as the dead rule does: q and every
     later pick lie outside N[u1] and N[u2], so with v picked before p both
     stay private to v, and with v = p both stay undominated.  Only the
     vertices of fin1 outside dead[picks[j - 1]] are looked up; the parent
     checked the older ones, whose count p did not change.  The proof is in
     full in `_pykernel.least`;
   - two lower bounds, as in `_pykernel.least`, where they are proved.
     The loop that reads the masks runs from vertex n - 1 down to 0 and
     takes a greedy 2-packing, vertices whose closed neighbourhoods are
     pairwise disjoint, each vertex whose neighbourhood misses those taken
     so far; it also finds `widest`, the largest |N[v]|.  No pick covers two
     packing vertices, so no level below the packing's size is searched,
     and a pushed node, but not its later siblings, is skipped
     when it leaves more packing vertices uncovered than picks remain (only
     tested when the packing has two or more).  A set of k vertices covers
     at most k * widest incidences, so the search starts at
     ceil(n / widest) or above for dom, and for 2dom and 2-SDS, where all
     but at most k vertices need two members of the set, at
     ceil(2n / (widest + 1)) or above;
   - for 2dom and 2-SDS, the private-vertex counts, proved in
     `_pykernel.least`.  After the push of pick p at depth j, left =
     top - j picks remain, all above p, and unc = need[j + 1].  A vertex of
     unc with one later pick q in its closed neighbourhood is private to q
     (2-SDS, at most one per pick) or is q (2dom), so unc holds at most
     `left` such vertices and every other one needs two later picks.  The
     node, not its later siblings, is skipped when left = 1 and unc has two
     bits (1, the last pick), or when 2|unc| > left * (wider[p] + 1), with
     wider[p] the largest |N[q]| over q > p (2, the prefix count; skipped
     when left * (wider[p] + 1) >= 2n, where it cannot cut).  For 2dom,
     every vertex of degree <= 1 (`forced`) lies in the set: the search
     starts at their number or above, and the node is skipped when more
     than `left` lie above p (4).  And a prefix ends with every later
     sibling, as with the dead rule, when a vertex u outside it has fewer
     than two picks in N[u] and lies in dead[p] or is a forced vertex below
     p (3, `final[p]`): u stays outside every completion, and no later pick
     of the prefix or of a later sibling enters N[u] or adds to it.  Rules
     1, 2 and 4 run after the dead rule, rule 3, the shared-sole-defender
     rule and the packing bound of the push, so they take none of their
     sibling cuts away.  wider, above and final come from the loop that
     reads the masks.

   `kernel.solve_level` picks this module or `_pykernel` and computes the
   count of combinations examined for either (`kernel.examined`), so it has
   one definition. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef uint64_t u64;

enum { DOM, TWO_DOM, TWO_SDS }; /* the kinds of `_pykernel.least` */

#define MAX_N 64
#define LOW(m) __builtin_ctzll(m)
#define HIGH(m) (63 - __builtin_clzll(m))
#define BIT(v) ((u64)1 << (v))

/* The bits of m.  `__builtin_popcountll` compiles to a libgcc call unless
   the target has a popcount instruction (-mpopcnt); this runs inline. */
static inline int popcount(u64 m)
{
    m -= (m >> 1) & 0x5555555555555555ULL;
    m = (m & 0x3333333333333333ULL) + ((m >> 2) & 0x3333333333333333ULL);
    m = (m + (m >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (int)((m * 0x0101010101010101ULL) >> 56);
}

/* A dominating set S, with the layers of the swap test. */
typedef struct {
    const u64 *masks;
    u64 full, smask, ex1, ex2;
} Set;

/* Whether S defends the attack (u1, u2): some v1 in N[u1] & S and distinct
   v2 in N[u2] & S leave no vertex of out = V - (N[u1] | N[u2]) whose members
   of S are among v1 and v2 (proof in `_pykernel.defenders`).  S dominates,
   so no vertex has none. */
static int defended(const Set *s, int u1, int u2)
{
    const u64 *masks = s->masks;
    u64 out = s->full & ~(masks[u1] | masks[u2]);
    u64 cand2 = masks[u2] & s->smask;
    for (u64 cand1 = masks[u1] & s->smask; cand1; cand1 &= cand1 - 1) {
        int v1 = LOW(cand1);
        u64 n1 = masks[v1];
        if (n1 & s->ex1 & out)
            continue; /* a private neighbour of v1 in out: no v2 helps */
        u64 bad = (s->ex1 | (n1 & s->ex2)) & out; /* what N[v2] must miss */
        for (u64 c2 = cand2 & ~BIT(v1); c2; c2 &= c2 - 1)
            if (!(masks[LOW(c2)] & bad))
                return 1;
    }
    return 0;
}

/* The attack pairs a full scan of this level found undefended, most recent
   first. */
typedef struct {
    int len;
    unsigned char u[MAX_N * (MAX_N - 1) / 2][2];
} Failed;

/* Whether the dominating set S is a 2-SDS: first the shared-sole-defender
   rule (no v in S has two vertices of `ex1` in N[v]), then the pairs of
   `failed`, then every pair in lex order.  A full scan's failing pair is
   added in front. */
static int is_2sds(const Set *s, int n, Failed *failed)
{
    for (u64 m = s->smask; m; m &= m - 1) {
        u64 private = s->masks[LOW(m)] & s->ex1;
        if (private & (private - 1))
            return 0;
    }
    for (int i = 0; i < failed->len; i++) {
        unsigned char u1 = failed->u[i][0], u2 = failed->u[i][1];
        if (!defended(s, u1, u2)) {
            memmove(failed->u[1], failed->u[0], (size_t)i * sizeof failed->u[0]);
            failed->u[0][0] = u1;
            failed->u[0][1] = u2;
            return 0;
        }
    }
    for (int u1 = 0; u1 < n; u1++)
        for (int u2 = u1 + 1; u2 < n; u2++)
            if (!defended(s, u1, u2)) {
                memmove(failed->u[1], failed->u[0],
                        (size_t)failed->len * sizeof failed->u[0]);
                failed->u[0][0] = (unsigned char)u1;
                failed->u[0][1] = (unsigned char)u2;
                failed->len++;
                return 0;
            }
    return 1;
}

/* Whether a vertex of `fresh` shares its sole pick with another vertex of
   `fin1`, the vertices u with N[u] & S = {v} for one v of S = `smask`:
   `fresh` is a subset of `fin1`, and v has two of them iff N[v] & fin1 has
   two bits. */
static int shares_sole_pick(const u64 *masks, u64 smask, u64 fin1, u64 fresh)
{
    for (; fresh; fresh &= fresh - 1) {
        u64 shared = masks[LOW(masks[LOW(fresh)] & smask)] & fin1;
        if (shared & (shared - 1))
            return 1;
    }
    return 0;
}

static PyObject *picks_tuple(const int *picks, int k)
{
    PyObject *t = PyTuple_New(k);
    if (t == NULL)
        return NULL;
    for (int i = 0; i < k; i++) {
        PyObject *v = PyLong_FromLong(picks[i]);
        if (v == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, v);
    }
    return t;
}

/* Every 2^16 nodes of the search, run pending signal handlers (Ctrl-C), and
   return their exception if one raised. */
#define TICK()                                                          \
    do {                                                                \
        if ((++nodes & 0xFFFF) == 0 && PyErr_CheckSignals() < 0)        \
            return NULL;                                                \
    } while (0)

static PyObject *least(PyObject *self, PyObject *args)
{
    PyObject *arg, *seq;
    Py_ssize_t size, first, last;
    int kind;
    u64 masks[MAX_N], dead[MAX_N] = {0}, need[MAX_N], chosen[MAX_N];
    u64 two[MAX_N], three[MAX_N], final[MAX_N];
    int picks[MAX_N], wider[MAX_N], above[MAX_N];
    Failed failed;

    (void)self;
    if (!PyArg_ParseTuple(args, "Oinn:least", &arg, &kind, &first, &last))
        return NULL;
    if (kind < DOM || kind > TWO_SDS)
        return PyErr_Format(PyExc_ValueError, "unknown level-scan kind %d", kind);
    seq = PySequence_Fast(arg, "masks must be a sequence");
    if (seq == NULL)
        return NULL;
    size = PySequence_Fast_GET_SIZE(seq);
    if (size > MAX_N) {
        Py_DECREF(seq);
        PyErr_Format(PyExc_ValueError, "at most %d masks, got %zd", MAX_N, size);
        return NULL;
    }
    int n = (int)size, widest = 0, nforced = 0;
    u64 full = n == MAX_N ? ~(u64)0 : BIT(n) - 1, packing = 0, covered = 0;
    u64 forced = 0; /* the vertices of degree <= 1 */
    for (int v = n - 1; v >= 0; v--) {
        u64 m = PyLong_AsUnsignedLongLong(PySequence_Fast_GET_ITEM(seq, v));
        if (m == (u64)-1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return NULL;
        }
        if (m & ~full) {
            Py_DECREF(seq);
            PyErr_Format(PyExc_ValueError, "mask %d has a bit at or above %d", v, n);
            return NULL;
        }
        masks[v] = m;
        dead[HIGH(m | 1)] |= BIT(v); /* a vertex no pick covers is dead anywhere */
        if (!(m & covered)) {
            packing |= BIT(v);
            covered |= m;
        }
        int size = popcount(m);
        wider[v] = widest; /* the largest |N[q]| over q > v */
        above[v] = nforced; /* the vertices of degree <= 1 above v */
        if (size <= 2) {
            forced |= BIT(v);
            nforced++;
        }
        if (size > widest)
            widest = size;
    }
    Py_DECREF(seq);
    if (n == 0) {
        if (first <= 0 && last >= 0)
            return PyTuple_New(0); /* the empty graph: no vertex to cover or attack */
        Py_RETURN_NONE;
    }
    /* the first level searched: `first`, or the least size the packing,
       degree and forced-vertex bounds allow, whichever is larger */
    Py_ssize_t start = kind == DOM ? (n + widest - 1) / widest
                                   : (2 * n + widest) / (widest + 1);
    if (start < popcount(packing))
        start = popcount(packing);
    if (kind == TWO_DOM && start < nforced)
        start = nforced;
    if (start < first)
        start = first;
    for (int p = 1; p < n; p++)
        dead[p] |= dead[p - 1];
    for (int p = 0; p < n; p++) /* the final count of 2dom */
        final[p] = dead[p] | (forced & (BIT(p) - 1));

    unsigned long nodes = 0;
    int packed = popcount(packing) > 1; /* the packing bound can cut */
    need[0] = full;
    chosen[0] = two[0] = three[0] = 0;
    for (Py_ssize_t k = start; k <= last && k <= n; k++) {
        int top = (int)k - 1, j = 0, p = 0; /* the depth of the last pick */
        failed.len = 0;
        while (j >= 0) {
            TICK();
            u64 rest = need[j];
            if (j == top) {
                for (int q = p; q < n; q++) {
                    TICK();
                    u64 unc = rest & ~masks[q];
                    if (!unc) {
                        u64 nb = masks[q], at2 = two[j] | (~rest & nb);
                        Set s = {masks, full, chosen[j] | BIT(q), full & ~at2,
                                 at2 & ~(three[j] | (two[j] & nb))};
                        picks[j] = q;
                        if (kind == DOM || (kind == TWO_DOM ? (s.smask | at2) == full
                                                            : is_2sds(&s, n, &failed)))
                            return picks_tuple(picks, (int)k);
                    } else if (unc & dead[q]) {
                        break;
                    }
                }
            } else if (p < n - top + j) {
                u64 unc = rest & ~masks[p];
                u64 smask = chosen[j] | BIT(p), at2 = two[j] | (~rest & masks[p]);
                u64 fin1 = dead[p] & ~(unc | at2);
                /* the dead rule, then for 2-SDS the shared-sole-defender rule on
                   the vertices that p makes final, and for 2dom the final count:
                   each ends the prefix and every later sibling */
                if (!(unc & dead[p]) &&
                    !(kind == TWO_SDS &&
                      shares_sole_pick(masks, smask, fin1,
                                       j ? fin1 & ~dead[picks[j - 1]] : fin1)) &&
                    !(kind == TWO_DOM && (final[p] & ~(at2 | smask)))) {
                    if (packed && popcount(unc & packing) > top - j) {
                        p++; /* the packing bound: this node only */
                        continue;
                    }
                    if (kind != DOM) { /* the private-vertex counts: this node only */
                        int left = top - j, cap = left * (wider[p] + 1);
                        if ((left == 1 ? (unc & (unc - 1)) != 0
                                       : cap < 2 * n && 2 * popcount(unc) > cap) ||
                            (kind == TWO_DOM && above[p] > left)) {
                            p++;
                            continue;
                        }
                    }
                    picks[j] = p;
                    need[j + 1] = unc;
                    chosen[j + 1] = smask;
                    two[j + 1] = at2;
                    three[j + 1] = three[j] | (two[j] & masks[p]);
                    j++;
                    p++;
                    continue;
                }
            }
            /* depth j holds no live pick from p on: advance the parent's pick */
            if (--j >= 0)
                p = picks[j] + 1;
        }
    }
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"least", least, METH_VARARGS,
     "least(masks, kind, first, last)\n--\n\n"
     "Lex-least smallest subset of range(len(masks)) whose size lies in\n"
     "first..last and that is a set of `kind` (0 dominating, 1\n"
     "2-dominating, 2 2-secure dominating) of the graph with\n"
     "closed-neighbourhood bitmasks `masks`, or None.  At most 64 masks."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernel",
    "Compiled level scan of the exact solvers; see secdom.kernel.", -1,
    methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    return PyModule_Create(&module);
}
