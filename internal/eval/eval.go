package eval

import (
	"sort"
	"strings"
	"time"

	"repro/internal/cq"
	"repro/internal/db"
)

// Eval returns all valid total assignments A(Q,D) in deterministic order.
func Eval(q *cq.Query, d db.Reader, opts ...Option) []Assignment {
	out := collect(q, d, Assignment{}, resolve(opts))
	sortAssignments(out)
	return out
}

// Result returns Q(D): the distinct answer tuples α(head(Q)) over all valid
// assignments, in deterministic (lexicographic) order. Results are memoized
// per store generation, so re-evaluating an unchanged store is an O(1)
// lookup (plus a copy of the answer spine).
func Result(q *cq.Query, d db.Reader, opts ...Option) []db.Tuple {
	if r := rec(); r != nil {
		defer r.Timer(MetricResultSeconds)()
	}
	cfg := resolve(opts)
	cold := func() []db.Tuple { return sortTuples(collectResult(q, d, cfg)) }
	if cfg.noCache {
		return cold()
	}
	if m := cfg.maint; m != nil {
		if out, ok := served(m.MaintainedResult(d, q)); ok {
			return out
		}
	}
	return memoized(d, resultKey(fingerprint(q)), cold, spine[db.Tuple])
}

// ResultUnion returns the union of Result over the disjuncts of a UCQ.
func ResultUnion(u *cq.Union, d db.Reader, opts ...Option) []db.Tuple {
	if r := rec(); r != nil {
		defer r.Timer(MetricResultUnionSeconds)()
	}
	cold := func() []db.Tuple {
		seen := make(map[string]db.Tuple)
		for _, q := range u.Disjuncts {
			for _, t := range Result(q, d, opts...) {
				seen[t.Key()] = t
			}
		}
		return sortTuples(seen)
	}
	if resolve(opts).noCache {
		return cold()
	}
	return memoized(d, unionResultKey(unionFingerprint(u)), cold, spine[db.Tuple])
}

// Extensions returns all valid total assignments extending the partial
// assignment seed, in deterministic order.
func Extensions(q *cq.Query, d db.Reader, seed Assignment, opts ...Option) []Assignment {
	out := collect(q, d, seed, resolve(opts))
	sortAssignments(out)
	return out
}

// AssignmentsFor returns A(t,Q,D): the valid assignments of Q w.r.t. D that
// yield answer t. It returns nil when t conflicts with the head shape.
func AssignmentsFor(q *cq.Query, d db.Reader, t db.Tuple, opts ...Option) []Assignment {
	seed, ok := PartialFromAnswer(q, t)
	if !ok {
		return nil
	}
	out := collect(q, d, seed, resolve(opts))
	sortAssignments(out)
	return out
}

// Witnesses returns the witness sets for answer t: one set of facts per valid
// assignment in A(t,Q,D), deduplicated (distinct assignments can induce the
// same witness, e.g. by permuting symmetric atoms) and sorted canonically by
// witness key, so the maintained (IVM) path and cold enumeration produce
// byte-identical output. Witness sets are memoized per store generation —
// the question-selection loop of Algorithm 1 re-enumerates the same answer's
// witnesses between crowd questions.
func Witnesses(q *cq.Query, d db.Reader, t db.Tuple, opts ...Option) [][]db.Fact {
	start := time.Now()
	out := witnesses(q, d, t, opts)
	observeWitnesses(start, out)
	return out
}

func witnesses(q *cq.Query, d db.Reader, t db.Tuple, opts []Option) [][]db.Fact {
	cfg := resolve(opts)
	cold := func() [][]db.Fact {
		seen := make(map[string]bool)
		var out [][]db.Fact
		var keys []string
		for _, a := range AssignmentsFor(q, d, t, opts...) {
			w := a.Witness(q)
			k := witnessKey(w)
			if !seen[k] {
				seen[k] = true
				out = append(out, w)
				keys = append(keys, k)
			}
		}
		sortWitnessSets(out, keys)
		return out
	}
	if cfg.noCache {
		return cold()
	}
	if m := cfg.maint; m != nil {
		if out, ok := served(m.MaintainedWitnesses(d, q, t)); ok {
			return out
		}
	}
	return memoized(d, witnessCacheKey(fingerprint(q), t.Key()), cold, spine[[]db.Fact])
}

// sortWitnessSets orders witness sets by their precomputed canonical keys.
func sortWitnessSets(out [][]db.Fact, keys []string) {
	if len(out) < 2 {
		return
	}
	sort.Sort(&witnessesByKey{sets: out, keys: keys})
}

type witnessesByKey struct {
	sets [][]db.Fact
	keys []string
}

func (s *witnessesByKey) Len() int           { return len(s.sets) }
func (s *witnessesByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *witnessesByKey) Swap(i, j int) {
	s.sets[i], s.sets[j] = s.sets[j], s.sets[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// WitnessSetKey returns the canonical identity of one witness set — the
// dedup and sort key Witnesses uses. The view engine keys its maintained
// witness counts by it so the incremental path reproduces Witnesses' output
// exactly.
func WitnessSetKey(w []db.Fact) string { return witnessKey(w) }

// witnessKey builds the dedup key of one witness set with a single
// allocation (the sets are sorted, so concatenated fact keys are canonical).
func witnessKey(w []db.Fact) string {
	var b strings.Builder
	n := 0
	for _, f := range w {
		n += len(f.Rel) + len(f.Args)*8 + 2
	}
	b.Grow(n)
	for _, f := range w {
		b.WriteString(f.Key())
		b.WriteByte('\x1e')
	}
	return b.String()
}

// Holds reports whether the boolean query (or the body of q under the given
// seed) has at least one valid extension w.r.t. D — i.e. whether the partial
// assignment is satisfiable (§2). Outcomes are memoized per store generation
// and seed.
func Holds(q *cq.Query, d db.Reader, seed Assignment, opts ...Option) bool {
	cfg := resolve(opts)
	cold := func() bool {
		found := false
		search(q, d, seed, func(Assignment) bool {
			found = true
			return false // stop at first
		})
		return found
	}
	if cfg.noCache {
		return cold()
	}
	if m := cfg.maint; m != nil {
		if v, ok := served(m.MaintainedHolds(d, q, seed)); ok {
			return v
		}
	}
	return memoized(d, holdsKey(fingerprint(q), seed.Key()), cold, same[bool])
}

// Satisfiable reports whether the partial assignment α for Q is satisfiable
// w.r.t. D: some extension to a total assignment is valid (§2).
func Satisfiable(q *cq.Query, d db.Reader, partial Assignment, opts ...Option) bool {
	return Holds(q, d, partial, opts...)
}

// AnswerHolds reports whether tuple t ∈ Q(D).
func AnswerHolds(q *cq.Query, d db.Reader, t db.Tuple, opts ...Option) bool {
	seed, ok := PartialFromAnswer(q, t)
	if !ok {
		return false
	}
	if cfg := resolve(opts); cfg.maint != nil && !cfg.noCache {
		if v, ok := served(cfg.maint.MaintainedAnswerHolds(d, q, t)); ok {
			return v
		}
	}
	return Holds(q, d, seed, opts...)
}

// AnswerHoldsUnion reports whether t is an answer of the union over D.
func AnswerHoldsUnion(u *cq.Union, d db.Reader, t db.Tuple, opts ...Option) bool {
	if r := rec(); r != nil {
		defer r.Timer(MetricAnswerHoldsUnionSeconds)()
	}
	for _, q := range u.Disjuncts {
		if AnswerHolds(q, d, t, opts...) {
			return true
		}
	}
	return false
}

// sortAssignments orders assignments by their canonical key. Keys are
// precomputed once per assignment — Assignment.Key sorts and concatenates the
// variable bindings, so rebuilding it inside the comparator would cost
// O(n log n) key constructions per sort.
func sortAssignments(out []Assignment) {
	if len(out) < 2 {
		return
	}
	keys := make([]string, len(out))
	for i, a := range out {
		keys[i] = a.Key()
	}
	sort.Sort(&assignmentsByKey{asgs: out, keys: keys})
}

type assignmentsByKey struct {
	asgs []Assignment
	keys []string
}

func (s *assignmentsByKey) Len() int           { return len(s.asgs) }
func (s *assignmentsByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *assignmentsByKey) Swap(i, j int) {
	s.asgs[i], s.asgs[j] = s.asgs[j], s.asgs[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// validateSeed checks the seeded inequalities and ground atoms of q under a:
// an inequality already violated, or an atom fully grounded by the seed whose
// fact is absent from D, prunes the whole enumeration. It reports false when
// the seed is contradictory.
func validateSeed(q *cq.Query, d db.Reader, a Assignment) bool {
	for _, e := range q.Ineqs {
		if !a.IneqHolds(e) {
			return false
		}
	}
	for _, atom := range q.Atoms {
		f, ok := a.AtomFact(atom)
		if !ok {
			continue // not ground under the seed; recursion binds it
		}
		if !d.Has(f) {
			return false
		}
	}
	return true
}

// search enumerates all valid total assignments extending seed, invoking
// yield for each; yield returns false to stop the enumeration. It uses
// index-nested-loop joins with a greedy "fewest matching tuples first" atom
// order, re-planned at every step against the current bindings.
func search(q *cq.Query, d db.Reader, seed Assignment, yield func(Assignment) bool) {
	// Validate seeded inequalities and ground atoms up front.
	a := seed.Clone()
	if !validateSeed(q, d, a) {
		return
	}
	remaining := make([]int, 0, len(q.Atoms))
	for i := range q.Atoms {
		remaining = append(remaining, i)
	}
	searchRec(q, d, a, remaining, yield)
}

// searchRec extends a over the remaining atoms. Returns false if the caller
// should stop enumerating.
func searchRec(q *cq.Query, d db.Reader, a Assignment, remaining []int, yield func(Assignment) bool) bool {
	if len(remaining) == 0 {
		if !negsHold(q, d, a) {
			return true // blocked by a negated atom; keep enumerating
		}
		return yield(a)
	}
	// Pick the most selective remaining atom under current bindings.
	bestPos := -1
	bestCount := -1
	var bestBindings []db.Binding
	for pos, ai := range remaining {
		atom := q.Atoms[ai]
		rel := d.Rel(atom.Rel)
		if rel == nil {
			return true // unknown relation: no matches, prune this branch
		}
		bindings := bindingsFor(atom, a)
		n := rel.MatchCount(bindings)
		if bestPos == -1 || n < bestCount {
			bestPos, bestCount, bestBindings = pos, n, bindings
		}
		if n == 0 {
			break // cannot do better than an empty atom
		}
	}
	ai := remaining[bestPos]
	atom := q.Atoms[ai]
	rel := d.Rel(atom.Rel)
	rest := make([]int, 0, len(remaining)-1)
	rest = append(rest, remaining[:bestPos]...)
	rest = append(rest, remaining[bestPos+1:]...)

	for _, tuple := range rel.Scan(bestBindings) {
		bound, ok := bind(a, atom, tuple)
		if !ok {
			continue // bind rolled back already
		}
		okIneq := true
		for _, e := range q.Ineqs {
			if !a.IneqHolds(e) {
				okIneq = false
				break
			}
		}
		if okIneq && !searchRec(q, d, a, rest, yield) {
			rollback(a, bound)
			return false
		}
		rollback(a, bound)
	}
	return true
}

// negsHold checks the query's negated atoms under a total assignment: none
// may resolve to a fact present in D. Unbound variables in a negated atom
// (possible only for unsafe queries) make the check vacuously true for that
// atom.
func negsHold(q *cq.Query, d db.Reader, a Assignment) bool {
	for _, atom := range q.Negs {
		f, ok := a.AtomFact(atom)
		if !ok {
			continue
		}
		if d.Has(f) {
			return false
		}
	}
	return true
}

// BlockingFacts returns the facts of D that ground the query's negated atoms
// under the assignment — the tuples whose presence blocks the assignment from
// being valid. Used by the cleaner to repair answers of queries with
// negation.
func BlockingFacts(q *cq.Query, d db.Reader, a Assignment) []db.Fact {
	var out []db.Fact
	for _, atom := range q.Negs {
		f, ok := a.AtomFact(atom)
		if !ok {
			continue
		}
		if d.Has(f) {
			out = append(out, f)
		}
	}
	return out
}

// bindingsFor computes the index bindings an atom imposes given current
// variable bindings and its constants. Repeated variables are checked during
// extend; only the first occurrence produces a binding here (subsequent ones
// are equal-by-construction when bound).
func bindingsFor(atom cq.Atom, a Assignment) []db.Binding {
	var out []db.Binding
	for col, t := range atom.Args {
		if v, ok := a.Resolve(t); ok {
			out = append(out, db.Binding{Col: col, Value: v})
		}
	}
	return out
}

// bind unifies the atom with the tuple, mutating a in place. On success it
// returns the names of the variables it newly bound (to be rolled back by the
// caller after recursion); on conflict it rolls back itself and reports
// ok = false.
func bind(a Assignment, atom cq.Atom, tuple db.Tuple) (bound []string, ok bool) {
	for col, t := range atom.Args {
		if !t.IsVar {
			if t.Name != tuple[col] {
				rollback(a, bound)
				return nil, false
			}
			continue
		}
		if v, exists := a[t.Name]; exists {
			if v != tuple[col] {
				rollback(a, bound)
				return nil, false
			}
			continue
		}
		a[t.Name] = tuple[col]
		bound = append(bound, t.Name)
	}
	return bound, true
}

func rollback(a Assignment, bound []string) {
	for _, v := range bound {
		delete(a, v)
	}
}
