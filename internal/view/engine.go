package view

import (
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eval"
)

// Engine maintains a set of witness-tracking views over one store and serves
// them through the eval.Maintainer interface: for calls that carry the engine
// (eval.Maintained) while it is in sync with the store, eval.Result,
// eval.Witnesses, eval.AnswerHolds and eval.Holds on a maintained query are
// answered from the views in O(answer) instead of re-enumerating the join —
// the counting-IVM mode. The engine belongs to the job that built it; no
// other caller can reach it.
//
// The engine mirrors the store's edit generation: Apply must be called with
// every semantically-changing edit, after the store itself applied it. If the
// store moves without the engine seeing the edit (a direct InsertFact, an
// ApplyAll, a recovery replay), the generation check fails, the engine marks
// itself stale, every maintained lookup declines, and evaluation falls back
// to the cold path until Sync rebuilds the views. Correctness therefore never
// depends on the caller's discipline — only performance does.
//
// View maintenance itself only reads the store: pre-state matches evaluate
// through a db.Overlay, so Apply never moves the generation beyond the edit
// it was told about and never writes to a journaled backend.
//
// Concurrency: Ensure/Release/Apply/Sync mutate and must be serialized with
// each other and with store edits by the caller (the cleaner and the server's
// job lock already do); the Maintained* reads are safe to run concurrently
// with each other, like store reads.
type Engine struct {
	d      db.Store
	id     uint64
	views  map[string]*View // query fingerprint -> maintained view
	synced uint64           // store generation the views reflect
	stale  bool             // an unseen edit moved the store; views unusable
}

// NewEngine creates an engine over the store with no maintained queries.
func NewEngine(d db.Store) *Engine {
	return &Engine{
		d:      d,
		id:     d.ID(),
		views:  make(map[string]*View),
		synced: d.Generation(),
	}
}

// fingerprint is the query's registry identity — the same canonical rendering
// the eval memo keys on, so a maintained lookup matches exactly the queries
// that were ensured.
func fingerprint(q *cq.Query) string { return q.String() }

// Ensure materializes the query as a maintained view (a no-op if it already
// is one). A stale engine resyncs first, so Ensure doubles as the recovery
// point after out-of-band edits. The query must validate against the store's
// schema; Ensure refuses unsafe queries because maintained satisfiability
// (Holds) equates "has answers" with "has valid assignments", which needs
// every head variable bound.
func (e *Engine) Ensure(q *cq.Query) error {
	if err := q.Validate(e.d.Schema()); err != nil {
		return err
	}
	e.Sync()
	fp := fingerprint(q)
	if _, ok := e.views[fp]; ok {
		return nil
	}
	e.views[fp] = NewMaintained(fp, q, e.d)
	// Materializing evaluates the query, which cannot edit the store — but
	// record the generation anyway in case a future reader is added between
	// Sync and here.
	e.synced = e.d.Generation()
	return nil
}

// EnsureUnion materializes every disjunct of a union; eval.ResultUnion and
// eval.AnswerHoldsUnion iterate per-disjunct calls, so maintaining the
// disjuncts maintains the union.
func (e *Engine) EnsureUnion(u *cq.Union) error {
	for _, q := range u.Disjuncts {
		if err := e.Ensure(q); err != nil {
			return err
		}
	}
	return nil
}

// Release drops the maintained view of q (a no-op if not maintained). The
// cleaner uses it for the transient Q|t views of the insertion loop.
func (e *Engine) Release(q *cq.Query) { delete(e.views, fingerprint(q)) }

// Covers reports whether q is currently maintained and in sync.
func (e *Engine) Covers(q *cq.Query) bool {
	if e.stale || e.d.Generation() != e.synced {
		return false
	}
	_, ok := e.views[fingerprint(q)]
	return ok
}

// Queries returns the number of maintained queries.
func (e *Engine) Queries() int { return len(e.views) }

// Apply propagates one already-applied, semantically-changing edit through
// every maintained view. Callers must skip no-op edits (Apply on the store
// reported changed == false): counting a no-op would corrupt the support
// counts. If the engine is out of sync with the store the delta base is
// unknown; the edit is ignored and the engine goes stale until Sync.
func (e *Engine) Apply(ed db.Edit) {
	if e.stale || e.d.Generation() != e.synced+1 {
		e.stale = true
		return
	}
	for _, v := range e.views {
		v.Apply(e.d, ed)
	}
	// View maintenance is read-only, so the store is still at synced+1. Record
	// exactly that (not Generation()) — if anything did move the store during
	// the loop, the next Apply sees the mismatch and degrades to stale instead
	// of silently absorbing an unseen edit.
	e.synced++
}

// Maintains reports whether q is registered with the engine, synced or not
// (compare Covers). The cleaner uses it to avoid releasing a permanent view
// when a transient query turns out identical to it.
func (e *Engine) Maintains(q *cq.Query) bool {
	_, ok := e.views[fingerprint(q)]
	return ok
}

// Sync rebuilds every maintained view from scratch if the engine is stale or
// the store moved without Apply. It reports whether a rebuild happened.
func (e *Engine) Sync() bool {
	if !e.stale && e.d.Generation() == e.synced {
		return false
	}
	for _, v := range e.views {
		v.Refresh(e.d)
	}
	e.synced = e.d.Generation()
	e.stale = false
	return true
}

// lookup returns the maintained view serving the reader and query, or nil:
// the reader must be the engine's store (snapshots share the ID but freeze an
// older generation, which the generation check rejects), the engine must be
// in sync, and the query must be maintained.
func (e *Engine) lookup(d db.Reader, q *cq.Query) *View {
	if e.stale || d.ID() != e.id || d.Generation() != e.synced {
		return nil
	}
	return e.views[fingerprint(q)]
}

// MaintainedResult implements eval.Maintainer.
func (e *Engine) MaintainedResult(d db.Reader, q *cq.Query) ([]db.Tuple, bool) {
	v := e.lookup(d, q)
	if v == nil {
		return nil, false
	}
	return v.Rows(), true
}

// MaintainedWitnesses implements eval.Maintainer.
func (e *Engine) MaintainedWitnesses(d db.Reader, q *cq.Query, t db.Tuple) ([][]db.Fact, bool) {
	v := e.lookup(d, q)
	if v == nil {
		return nil, false
	}
	sets, ok := v.WitnessSets(t)
	if !ok {
		return nil, false
	}
	return sets, true
}

// MaintainedAnswerHolds implements eval.Maintainer.
func (e *Engine) MaintainedAnswerHolds(d db.Reader, q *cq.Query, t db.Tuple) (bool, bool) {
	v := e.lookup(d, q)
	if v == nil {
		return false, false
	}
	return v.Has(t), true
}

// MaintainedHolds implements eval.Maintainer. Only the empty seed — "does the
// query have any valid assignment?", the cleaner's insertion-loop probe — is
// served; seeded satisfiability still enumerates.
func (e *Engine) MaintainedHolds(d db.Reader, q *cq.Query, seed eval.Assignment) (bool, bool) {
	if len(seed) != 0 {
		return false, false
	}
	v := e.lookup(d, q)
	if v == nil {
		return false, false
	}
	return v.Len() > 0, true
}
