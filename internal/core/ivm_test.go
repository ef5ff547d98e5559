package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/obs"
)

// memoProbe is a perfect oracle that tallies the memo lookups of its own
// evaluations over DG. The cleaner runs serially here, so the evaluator's
// counters move during an oracle call only for DG.
type memoProbe struct {
	*crowd.Perfect
	rec          *obs.Recorder
	hits, misses int64
}

func (p *memoProbe) tally() func() {
	h, m := p.rec.Counter(eval.MetricCacheHits), p.rec.Counter(eval.MetricCacheMisses)
	return func() {
		p.hits += p.rec.Counter(eval.MetricCacheHits) - h
		p.misses += p.rec.Counter(eval.MetricCacheMisses) - m
	}
}

func (p *memoProbe) VerifyAnswer(ctx context.Context, q *cq.Query, t db.Tuple) bool {
	defer p.tally()()
	return p.Perfect.VerifyAnswer(ctx, q, t)
}

func (p *memoProbe) CompleteResult(ctx context.Context, q *cq.Query, current []db.Tuple) (db.Tuple, bool) {
	defer p.tally()()
	return p.Perfect.CompleteResult(ctx, q, current)
}

// TestGroundTruthMemoOutlivesJobs: the simulated crowd of §7 builds a fresh
// perfect oracle per job over the one shared DG, and DG's memo must serve
// every job, not just the one that filled it. Two identical jobs run in
// turn; every DG evaluation of the second is a memo hit. Scoping the memo
// to a job (or to an oracle) again makes the second job miss.
func TestGroundTruthMemoOutlivesJobs(t *testing.T) {
	rec := obs.New()
	eval.Instrument(rec)
	defer eval.Instrument(nil)

	dirty, dg := dataset.Figure1()
	q := dataset.IntroQ1()
	var probes []*memoProbe
	for job := 0; job < 2; job++ {
		p := &memoProbe{Perfect: crowd.NewPerfect(dg), rec: rec}
		c := New(dirty.Clone(), p, Config{RNG: rand.New(rand.NewSource(3)), Incremental: true})
		if _, err := c.Clean(context.Background(), q); err != nil {
			t.Fatalf("job %d: Clean: %v", job, err)
		}
		probes = append(probes, p)
	}
	if first := probes[0]; first.misses == 0 {
		t.Fatalf("first job never evaluated DG cold (%d hits)", first.hits)
	}
	if second := probes[1]; second.hits == 0 || second.misses != 0 {
		t.Errorf("second job: %d hits and %d misses on DG's memo, want only hits", second.hits, second.misses)
	}
}

// TestMaintainerEndsWithRun: the view engine of an Incremental run travels
// in that run's eval calls only. A second, non-incremental cleaner on the
// same (now clean, unedited) store must not be served by it.
func TestMaintainerEndsWithRun(t *testing.T) {
	rec := obs.New()
	eval.Instrument(rec)
	defer eval.Instrument(nil)

	c, d, dg := newTestCleaner(t, Config{RNG: rand.New(rand.NewSource(11)), Incremental: true})
	q := dataset.IntroQ1()
	if _, err := c.Clean(context.Background(), q); err != nil {
		t.Fatalf("incremental Clean: %v", err)
	}
	if hits := rec.Counter(eval.MetricMaintainedHits); hits == 0 {
		t.Fatal("maintained mode never served a lookup (hits = 0)")
	}
	hits, misses := rec.Counter(eval.MetricMaintainedHits), rec.Counter(eval.MetricMaintainedMisses)
	cold := New(d, crowd.NewPerfect(dg), Config{RNG: rand.New(rand.NewSource(11))})
	if _, err := cold.Clean(context.Background(), q); err != nil {
		t.Fatalf("second Clean: %v", err)
	}
	if n := rec.Counter(eval.MetricMaintainedHits) - hits; n != 0 {
		t.Errorf("non-incremental cleaner recorded %d maintained hits", n)
	}
	if n := rec.Counter(eval.MetricMaintainedMisses) - misses; n != 0 {
		t.Errorf("non-incremental cleaner consulted a maintainer %d times", n)
	}
}

// TestUpperBoundOptions: the question upper bounds accept eval options and
// actually honor them — the bound value is option-independent, and NoCache
// demonstrably bypasses the witness cache while the default path hits it.
func TestUpperBoundOptions(t *testing.T) {
	d, _ := dataset.Figure1()
	q := dataset.IntroQ1()
	esp := db.Tuple{"ESP"}

	base := WrongAnswerUpperBound(q, d, esp)
	if base != 5 {
		t.Fatalf("WrongAnswerUpperBound = %d, want 5", base)
	}
	for _, opts := range [][]eval.Option{
		{eval.NoCache()},
		{eval.Parallel(2)},
		{eval.Parallel(4), eval.NoCache()},
	} {
		if got := WrongAnswerUpperBound(q, d, esp, opts...); got != base {
			t.Errorf("WrongAnswerUpperBound(%v) = %d, want %d", opts, got, base)
		}
	}

	rec := obs.New()
	eval.Instrument(rec)
	defer eval.Instrument(nil)
	WrongAnswerUpperBound(q, d, esp) // warm the witness cache entry
	before := rec.Counter(eval.MetricCacheHits)
	WrongAnswerUpperBound(q, d, esp)
	if after := rec.Counter(eval.MetricCacheHits); after <= before {
		t.Errorf("default options did not hit the witness cache (%d -> %d)", before, after)
	}
	before = rec.Counter(eval.MetricCacheHits)
	WrongAnswerUpperBound(q, d, esp, eval.NoCache())
	if after := rec.Counter(eval.MetricCacheHits); after != before {
		t.Errorf("NoCache still hit the cache (%d -> %d)", before, after)
	}

	q2 := dataset.IntroQ2()
	missing := MissingAnswerUpperBound(q2, db.Tuple{"Andrea Pirlo"})
	if got := MissingAnswerUpperBound(q2, db.Tuple{"Andrea Pirlo"}, eval.NoCache()); got != missing {
		t.Errorf("MissingAnswerUpperBound with options = %d, want %d", got, missing)
	}
}
