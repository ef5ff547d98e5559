// Package view implements materialized views with incremental maintenance
// and the view-monitoring workflow of the paper's introduction: "materialized
// views (views which are defined through user queries) are used as a trigger
// for identifying incorrect or missing information ... QOCO can be activated
// to monitor the views that are served to users/applications. Whenever an
// error is reported in a view, QOCO can take over to clean the underlying
// database."
//
// A View materializes the answers of a CQ≠ over a database and keeps, per
// answer, the number of valid assignments supporting it; edits flowing
// through the Monitor update that support incrementally (delta evaluation)
// instead of recomputing the view. A maintained View additionally keeps the
// witness sets of every answer with per-witness assignment counts, and the
// Engine aggregates maintained views into an eval.Maintainer that serves the
// cleaner's Result/Witnesses/AnswerHolds/Holds calls in place of cold
// re-evaluation (counting-based incremental view maintenance).
package view

import (
	"fmt"
	"sort"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eval"
)

// View is a materialized CQ≠ view: the current answer tuples plus the number
// of valid assignments supporting each. With witness tracking enabled it also
// maintains, per answer, the distinct witness sets with the number of valid
// assignments inducing each.
type View struct {
	Name  string
	Query *cq.Query

	rows    map[string]db.Tuple
	support map[string]int // answer key -> |A(t, Q, D)|

	trackWits bool
	wits      map[string]map[string]*witnessEntry // answer key -> witness key -> entry
}

// witnessEntry counts the valid assignments inducing one witness set of one
// answer. The witness disappears when the count drops to zero.
type witnessEntry struct {
	facts []db.Fact
	count int
}

// New materializes the query over the database.
func New(name string, q *cq.Query, d db.Reader) *View {
	v := &View{Name: name, Query: q}
	v.Refresh(d)
	return v
}

// NewMaintained materializes the query with witness tracking: the view keeps
// every answer's witness sets up to date under Apply, which is what lets the
// Engine serve eval.Witnesses (and the hitting-set instance built from it)
// without re-enumeration.
func NewMaintained(name string, q *cq.Query, d db.Reader) *View {
	v := &View{Name: name, Query: q, trackWits: true}
	v.Refresh(d)
	return v
}

// Refresh recomputes the materialization from scratch.
func (v *View) Refresh(d db.Reader) {
	v.rows = make(map[string]db.Tuple)
	v.support = make(map[string]int)
	if v.trackWits {
		v.wits = make(map[string]map[string]*witnessEntry)
	}
	for _, a := range eval.Eval(v.Query, d) {
		t, ok := a.HeadTuple(v.Query)
		if !ok {
			continue
		}
		k := t.Key()
		v.rows[k] = t
		v.support[k]++
		if v.trackWits {
			v.addWitness(k, a)
		}
	}
}

// Rows returns the materialized answers in deterministic order.
func (v *View) Rows() []db.Tuple {
	out := make([]db.Tuple, 0, len(v.rows))
	for _, t := range v.rows {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Len returns the number of materialized answers.
func (v *View) Len() int { return len(v.rows) }

// Has reports whether the answer is currently in the view.
func (v *View) Has(t db.Tuple) bool {
	_, ok := v.rows[t.Key()]
	return ok
}

// Support returns the number of valid assignments supporting the answer.
func (v *View) Support(t db.Tuple) int { return v.support[t.Key()] }

// WitnessSets returns the answer's maintained witness sets in the canonical
// order of eval.Witnesses (sorted by witness key). ok is false when the view
// does not track witnesses. The inner fact slices are shared and must be
// treated as immutable, as everywhere in the engine.
func (v *View) WitnessSets(t db.Tuple) (sets [][]db.Fact, ok bool) {
	if !v.trackWits {
		return nil, false
	}
	byW := v.wits[t.Key()]
	if len(byW) == 0 {
		return nil, true
	}
	keys := make([]string, 0, len(byW))
	for wk := range byW {
		keys = append(keys, wk)
	}
	sort.Strings(keys)
	sets = make([][]db.Fact, len(keys))
	for i, wk := range keys {
		sets[i] = byW[wk].facts
	}
	return sets, true
}

// Apply updates the materialization for a single edit. The database must
// already reflect the edit (for insertions the fact is present; for deletions
// it is absent). It returns the answers whose membership flipped.
//
// Negated atoms are handled symmetrically: an inserted fact can block
// previously valid assignments (support losses), and a deleted fact can
// unblock assignments (support gains).
//
// Apply only reads d: the pre-edit state its delta rules need is
// reconstructed through a db.Overlay, never by editing the store (which
// would bump the generation and, on journaled backends, append non-semantic
// records to the durable log).
func (v *View) Apply(d db.Reader, e db.Edit) (appeared, disappeared []db.Tuple) {
	f := e.Fact
	var gains, losses []deltaAsg
	if e.Op == db.Insert {
		gains = v.matchPositive(d, f, false)
		losses = v.matchNegative(d, f, true)
	} else {
		losses = v.matchPositive(d, f, true)
		gains = v.matchNegative(d, f, false)
	}
	for k, n := range countByAnswer(gains) {
		if v.support[k] == 0 {
			appeared = append(appeared, v.rows[k])
		}
		v.support[k] += n
	}
	if v.trackWits {
		for _, da := range gains {
			v.addWitness(da.key, da.asg)
		}
		for _, da := range losses {
			v.dropWitness(da.key, da.asg)
		}
	}
	for k, n := range countByAnswer(losses) {
		v.support[k] -= n
		if v.support[k] <= 0 {
			if t, ok := v.rows[k]; ok {
				disappeared = append(disappeared, t)
			}
			delete(v.support, k)
			delete(v.rows, k)
			delete(v.wits, k)
		}
	}
	sortTuples(appeared)
	sortTuples(disappeared)
	return appeared, disappeared
}

// addWitness counts one valid assignment into the answer's witness table.
func (v *View) addWitness(k string, a eval.Assignment) {
	w := a.Witness(v.Query)
	wk := eval.WitnessSetKey(w)
	byW := v.wits[k]
	if byW == nil {
		byW = make(map[string]*witnessEntry)
		v.wits[k] = byW
	}
	ent := byW[wk]
	if ent == nil {
		ent = &witnessEntry{facts: w}
		byW[wk] = ent
	}
	ent.count++
}

// dropWitness removes one no-longer-valid assignment from the witness table.
func (v *View) dropWitness(k string, a eval.Assignment) {
	byW := v.wits[k]
	if byW == nil {
		return
	}
	wk := eval.WitnessSetKey(a.Witness(v.Query))
	ent := byW[wk]
	if ent == nil {
		return
	}
	ent.count--
	if ent.count <= 0 {
		delete(byW, wk)
		if len(byW) == 0 {
			delete(v.wits, k)
		}
	}
}

// deltaAsg is one valid assignment gained or lost by an edit, with its
// answer key precomputed.
type deltaAsg struct {
	key string
	asg eval.Assignment
}

// countByAnswer folds delta assignments into per-answer counts.
func countByAnswer(deltas []deltaAsg) map[string]int {
	if len(deltas) == 0 {
		return nil
	}
	out := make(map[string]int)
	for _, da := range deltas {
		out[da.key]++
	}
	return out
}

// matchPositive enumerates, per answer key, the valid assignments that use
// the fact in at least one positive atom. With preDelete the fact is absent
// from d (a deletion happened) and the enumeration runs against a read-only
// overlay showing the pre-delete state — d itself is never mutated, so no
// generation bump and no journal traffic.
func (v *View) matchPositive(d db.Reader, f db.Fact, preDelete bool) []deltaAsg {
	r := d
	if preDelete {
		r = db.Overlay(d, db.Insertion(f))
	}
	return v.matchAtoms(r, v.Query.Atoms, f)
}

// matchNegative enumerates, per answer key, the assignments whose negated
// atom grounds to the fact and that are valid when the fact is absent. With
// preInsert the fact is present in d (an insertion happened) and the
// enumeration runs against a read-only overlay showing the pre-insert state.
func (v *View) matchNegative(d db.Reader, f db.Fact, preInsert bool) []deltaAsg {
	if len(v.Query.Negs) == 0 {
		return nil
	}
	r := d
	if preInsert {
		r = db.Overlay(d, db.Deletion(f))
	}
	return v.matchAtoms(r, v.Query.Negs, f)
}

// matchAtoms enumerates valid assignments (over d's current state) that
// ground one of the given atoms to the fact, deduplicated across atom
// positions. Answer tuples are cached in rows.
func (v *View) matchAtoms(d db.Reader, atoms []cq.Atom, f db.Fact) []deltaAsg {
	seen := make(map[string]bool)
	var deltas []deltaAsg
	for _, atom := range atoms {
		if atom.Rel != f.Rel {
			continue
		}
		seed, ok := unifyAtom(atom, f.Args)
		if !ok {
			continue
		}
		for _, a := range eval.Extensions(v.Query, d, seed) {
			ak := a.Key()
			if seen[ak] {
				continue
			}
			seen[ak] = true
			t, ok := a.HeadTuple(v.Query)
			if !ok {
				continue
			}
			k := t.Key()
			deltas = append(deltas, deltaAsg{key: k, asg: a})
			v.rows[k] = t
		}
	}
	return deltas
}

// unifyAtom binds the atom's variables against the fact, returning false on a
// constant mismatch or conflicting repeated-variable binding.
func unifyAtom(atom cq.Atom, args db.Tuple) (eval.Assignment, bool) {
	if len(atom.Args) != len(args) {
		return nil, false
	}
	seed := eval.Assignment{}
	for i, term := range atom.Args {
		if !term.IsVar {
			if term.Name != args[i] {
				return nil, false
			}
			continue
		}
		if prev, ok := seed[term.Name]; ok && prev != args[i] {
			return nil, false
		}
		seed[term.Name] = args[i]
	}
	return seed, true
}

func sortTuples(ts []db.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
}

// Monitor owns a database and a set of materialized views and keeps them
// consistent: every edit must flow through Apply. It is the "QOCO monitors
// the views served to users" deployment mode of §1.
type Monitor struct {
	d     db.Store
	views map[string]*View
	order []string
}

// NewMonitor creates a monitor over the store.
func NewMonitor(d db.Store) *Monitor {
	return &Monitor{d: d, views: make(map[string]*View)}
}

// Store returns the monitored store.
func (m *Monitor) Store() db.Store { return m.d }

// Register materializes a query as a named view.
func (m *Monitor) Register(name string, q *cq.Query) (*View, error) {
	if _, dup := m.views[name]; dup {
		return nil, fmt.Errorf("view: duplicate view %q", name)
	}
	if err := q.Validate(m.d.Schema()); err != nil {
		return nil, err
	}
	v := New(name, q, m.d)
	m.views[name] = v
	m.order = append(m.order, name)
	return v, nil
}

// View returns the named view, or nil.
func (m *Monitor) View(name string) *View { return m.views[name] }

// Names returns the registered view names in registration order.
func (m *Monitor) Names() []string {
	out := make([]string, len(m.order))
	copy(out, m.order)
	return out
}

// Apply applies an edit to the database and incrementally updates every
// view. It reports, per view, the answers that appeared or disappeared.
func (m *Monitor) Apply(e db.Edit) (map[string][]db.Tuple, map[string][]db.Tuple, error) {
	changed, err := m.d.Apply(e)
	if err != nil {
		return nil, nil, err
	}
	appeared := make(map[string][]db.Tuple)
	disappeared := make(map[string][]db.Tuple)
	if !changed {
		return appeared, disappeared, nil
	}
	for _, name := range m.order {
		a, dis := m.views[name].Apply(m.d, e)
		if len(a) > 0 {
			appeared[name] = a
		}
		if len(dis) > 0 {
			disappeared[name] = dis
		}
	}
	return appeared, disappeared, nil
}

// EditHook returns a function suitable for core.Config.OnEdit: the cleaner
// applies edits to the monitor's database itself, so the hook only refreshes
// the views incrementally.
func (m *Monitor) EditHook() func(db.Edit) {
	return func(e db.Edit) {
		for _, name := range m.order {
			m.views[name].Apply(m.d, e)
		}
	}
}
