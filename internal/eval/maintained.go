package eval

import (
	"repro/internal/cq"
	"repro/internal/db"
)

// A Maintainer serves evaluation results from incrementally maintained state
// instead of enumeration. The view engine (internal/view) implements it; a
// caller that owns an engine passes it with every evaluation call (see
// Maintained), and Result, Witnesses, AnswerHolds and Holds consult it before
// the store's memo and cold evaluation.
//
// Every method returns (value, ok). ok == false means the maintainer cannot
// serve this call — the reader is not the maintained store, the query is not
// maintained, the reader's generation does not match the maintained state
// (someone edited the store without propagating the delta), or the call
// shape is unsupported — and the caller falls back to the memo or cold
// evaluation. A maintainer must never return ok == true with a value that
// differs from what cold evaluation would produce: the differential harness
// (internal/check) enforces byte-identity against NaiveResult.
//
// Concurrency contract: maintained reads follow the same rules as the store
// they mirror — edits (and maintainer updates) must be serialized against
// reads by the caller. Concurrent read-only calls are safe.
type Maintainer interface {
	// MaintainedResult returns Q(D) for a maintained query.
	MaintainedResult(d db.Reader, q *cq.Query) ([]db.Tuple, bool)
	// MaintainedWitnesses returns the witness sets of answer t, in the same
	// canonical order Witnesses produces (sorted by witness key).
	MaintainedWitnesses(d db.Reader, q *cq.Query, t db.Tuple) ([][]db.Fact, bool)
	// MaintainedAnswerHolds reports whether t ∈ Q(D).
	MaintainedAnswerHolds(d db.Reader, q *cq.Query, t db.Tuple) (bool, bool)
	// MaintainedHolds reports whether the query body is satisfiable under the
	// seed. Implementations typically support only the empty seed (the
	// cleaner's insertion loop asks exactly that) and decline the rest.
	MaintainedHolds(d db.Reader, q *cq.Query, seed Assignment) (bool, bool)
}

// served counts one maintainer consultation and passes its answer through.
// Hits and misses are counted only for calls that carry a maintainer, so the
// counters measure maintained-mode coverage, not unrelated traffic.
func served[T any](v T, ok bool) (T, bool) {
	if ok {
		rec().Inc(MetricMaintainedHits)
	} else {
		rec().Inc(MetricMaintainedMisses)
	}
	return v, ok
}
