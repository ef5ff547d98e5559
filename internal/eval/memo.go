package eval

import (
	"strings"

	"repro/internal/cq"
	"repro/internal/db"
)

// Result, ResultUnion, Witnesses and Holds are served by exactly one layer
// per call: the Maintainer carried in the call (see Maintained) if it
// accepts, else the store's generation-stamped memo (db.Reader.Memo), else
// cold enumeration, whose result the memo then keeps. QOCO's cleaning loop
// re-evaluates Q(D) and re-enumerates witnesses between crowd questions, and
// each oracle round changes at most a handful of facts, so most evaluations
// hit an unchanged store. Any edit bumps the store's generation and thereby
// invalidates its whole memo, so a stale result is never served. The memo
// belongs to the store: it lives exactly as long as the store object and no
// other store can read or evict it.

// fingerprint renders the query's canonical memo identity. Query.String is
// a parseable, deterministic rendering, so distinct queries cannot collide;
// its cost is proportional to the query size (a handful of atoms), not the
// database, keeping warm lookups O(|Q|).
func fingerprint(q *cq.Query) string { return q.String() }

// unionFingerprint is the canonical identity of a UCQ.
func unionFingerprint(u *cq.Union) string {
	var b strings.Builder
	for i, q := range u.Disjuncts {
		if i > 0 {
			b.WriteByte('\x01')
		}
		b.WriteString(q.String())
	}
	return b.String()
}

// Memo key namespaces. Each class of memoized call prefixes its key so a
// boolean Holds can never alias a Result of the same query.
func resultKey(fp string) string           { return "r\x00" + fp }
func unionResultKey(fp string) string      { return "u\x00" + fp }
func witnessCacheKey(fp, tk string) string { return "w\x00" + fp + "\x00" + tk }
func holdsKey(fp, seed string) string      { return "h\x00" + fp + "\x00" + seed }

// memoized returns the value memoized under key in d's memo, or computes it
// cold and memoizes it. dup copies a value on its way into and out of the
// memo, so callers may mutate what they get back. Readers without a memo
// (snapshots, overlays) always evaluate cold.
func memoized[T any](d db.Reader, key string, cold func() T, dup func(T) T) T {
	m := d.Memo()
	if m == nil {
		return cold()
	}
	if v, ok := m.Get(key); ok {
		rec().Inc(MetricCacheHits)
		return dup(v.(T))
	}
	rec().Inc(MetricCacheMisses)
	gen := d.Generation()
	out := cold()
	if m.Put(gen, key, dup(out)) {
		rec().Inc(MetricCacheInvalidations)
	}
	return out
}

// spine copies a slice's spine; the elements (tuples, facts) are shared and
// treated as immutable, as everywhere in the engine.
func spine[E any](s []E) []E { return append([]E(nil), s...) }

func same[T any](v T) T { return v }

// InvalidateDB does nothing. Evaluation results are memoized on the store
// object itself (db.Reader.Memo), so they are released with the store and
// never need dropping by ID. It is kept because the end-to-end benchmark
// module (e2ebench) still calls it.
func InvalidateDB(uint64) {}
