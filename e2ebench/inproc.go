package main

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/crowd"
	"repro/internal/db"
	"repro/internal/split"
	"repro/internal/sqlfe"
)

// runInproc runs one in-process job through the library's entry points:
// SQL text through sqlfe.Parse, then core.New(...).Clean over a mem store
// with a perfect crowd and maintained evaluation on. The dirty database is copied
// before the clock starts. tr is nil in untraced runs.
func runInproc(ctx context.Context, in *inputs, b *batch, o runOpts, tr *tracing, seq int) jobStat {
	j := b.jobs[0]
	d := db.DeepCopy(b.dirty)
	st := jobStat{job: j, run: seq}

	var store db.Store = d
	var strategy split.Strategy = split.Provenance{}
	t := tr.tracer()
	var scope *jobScope
	if tr != nil {
		scope = newScope(tr, seq)
	}
	if tr != nil && !o.bare {
		get := func() *jobScope { return scope }
		store = tracedStore{Store: d, scope: get}
		strategy = tracedSplit{inner: strategy, scope: get}
	}
	oracle := &clock{inner: o.oracle(in.dg), scope: scope}
	cfg := core.Config{
		Incremental: true,
		Deletion:    core.PolicyQOCO,
		Split:       strategy,
		RNG:         rand.New(rand.NewSource(j.seed)),
	}
	if tr != nil {
		cfg.Obs = tr.obs
	}

	before := tr.mark()
	root := t.begin(spanJob, seq, 0)
	start := time.Now()
	pid := t.begin(spanParse, seq, root)
	q, err := sqlfe.Parse(in.dg.Schema(), j.sql)
	t.end(pid)
	parsed := time.Now()
	var rep *core.Report
	if err == nil {
		cl := core.New(store, oracle, cfg)
		cid := t.begin(spanClean, seq, root)
		if scope != nil {
			scope.parent = cid
		}
		rep, err = cl.Clean(ctx, q)
		t.end(cid)
	}
	wall := time.Since(start)
	t.end(root)

	st.wallMs = ms(wall)
	st.crowdMs = ms(oracle.crowd)
	st.jobMs = ms(wall - oracle.crowd)
	st.parseUs = float64(parsed.Sub(start).Nanoseconds()) / 1e3
	st.gaps = oracle.gaps
	st.report = rep
	if err != nil {
		st.fail("job %d (%s): %v", j.id, j.query, err)
		return st
	}
	st.questions = rep.Crowd.Total()
	if tr != nil {
		st.trace = traceOf(t, seq, scope, "bench", before, tr.mark())
	}
	st.failures = append(st.failures, gate(j, d, rep.Edits, in.dg)...)
	return st
}

// runOpts are the knobs a run shares across workloads.
type runOpts struct {
	// lie makes the crowd answer one question wrongly; the self-test uses it
	// to prove the correctness gate fires.
	lie bool
	// bare leaves the store and split strategy unwrapped in traced
	// in-process runs; the self-test compares it with the wrapped run.
	bare bool
}

// oracle returns the crowd every job of the run consults.
func (o runOpts) oracle(dg *db.Database) crowd.Oracle {
	if o.lie {
		return &liar{Oracle: crowd.NewPerfect(dg)}
	}
	return crowd.NewPerfect(dg)
}

// liar is a perfect crowd that, once, calls a true fact or answer false.
type liar struct {
	crowd.Oracle
	lied bool
}

func (l *liar) VerifyFact(ctx context.Context, f db.Fact) bool {
	return l.flip(l.Oracle.VerifyFact(ctx, f))
}

func (l *liar) VerifyAnswer(ctx context.Context, q *cq.Query, t db.Tuple) bool {
	return l.flip(l.Oracle.VerifyAnswer(ctx, q, t))
}

// flip turns the first true answer into false.
func (l *liar) flip(ans bool) bool {
	if ans && !l.lied {
		l.lied = true
		return false
	}
	return ans
}
