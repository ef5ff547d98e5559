package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/cq"
	"repro/internal/crowd"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/split"
)

// span is one timed call across a layer boundary. Spans of one job share
// its ID; Parent is the span that caused this one (0 for a job's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	jobs  map[int][]int // job -> indexes into spans
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), jobs: make(map[int][]int)} }

// add appends s under t.mu and returns its ID.
func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.jobs[s.Job] = append(t.jobs[s.Job], s.ID-1)
	return s.ID
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, job, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.add(span{Parent: parent, Job: job, Name: name, Start: now, End: -1})
}

// end closes the span begun with ID id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-finished span.
func (t *tracer) record(name string, job, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.add(span{Parent: parent, Job: job, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// spansOf returns the job's finished spans.
func (t *tracer) spansOf(job int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, i := range t.jobs[job] {
		if t.spans[i].End >= 0 {
			out = append(out, t.spans[i])
		}
	}
	return out
}

// writeFile writes every span, plus the per-job metric deltas, as JSON.
func (t *tracer) writeFile(path string, jobs []jobStat) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type jobOut struct {
		ID      int                `json:"id"`
		Query   string             `json:"query"`
		SelfMs  map[string]float64 `json:"self_ms"`
		Metrics map[string]float64 `json:"metrics"`
	}
	out := struct {
		Spans []span   `json:"spans"`
		Jobs  []jobOut `json:"jobs"`
	}{Spans: t.spans}
	for _, js := range jobs {
		if js.trace == nil {
			continue
		}
		out.Jobs = append(out.Jobs, jobOut{ID: js.run, Query: js.job.query, SelfMs: js.trace.self, Metrics: js.trace.delta})
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracing is a traced pass's recording state; nil in untraced passes.
type tracing struct {
	spans *tracer
	obs   *obs.Recorder // core, crowd and server metrics (Config.Obs)
	// eval receives the evaluator's metrics (eval.Instrument). It is kept
	// apart from obs so the probes around every crowd call stay cheap.
	eval *obs.Recorder
}

func newTracing() *tracing {
	return &tracing{spans: newTracer(), obs: obs.New(), eval: obs.New()}
}

// tracer returns the span recorder, nil when untraced.
func (tr *tracing) tracer() *tracer {
	if tr == nil {
		return nil
	}
	return tr.spans
}

// mark is the metric state at one instant of a traced job.
type mark struct {
	snap obs.Snapshot
	eval evalProbe
}

// mark snapshots both recorders; the zero mark when untraced.
func (tr *tracing) mark() mark {
	if tr == nil {
		return mark{}
	}
	m := mark{snap: tr.obs.Snapshot(), eval: probe(tr.eval)}
	e := tr.eval.Snapshot()
	for k, v := range e.Counters {
		m.snap.Counters[k] = v
	}
	for k, v := range e.Histograms {
		m.snap.Histograms[k] = v
	}
	return m
}

// Span names. The layer of a span is the part before the first dot.
const (
	spanJob         = "job"
	spanParse       = "sqlfe.parse"
	spanClean       = "core.clean"
	spanCrowd       = "crowd.call"   // one oracle call as the cleaner sees it
	spanCrowdAnswer = "crowd.answer" // the simulated crowd computing an answer (service-disk)
	spanSplit       = "split.split"
	spanStore       = "db.apply"
	spanSubmit      = "http.submit"
	spanQuestions   = "http.questions_get"
	spanAnswer      = "http.answer_post"
	spanStatus      = "http.status_get"
)

// priority ranks spans for exclusive-time attribution: at each instant of a
// job, the active span with the highest priority (then the latest start)
// owns the time. Nested calls rank above their callers; the service-disk
// crowd connection's requests rank above the server-side wait they end.
// Status polls are observers, not steps of the job, and own no time.
var priority = map[string]int{
	spanJob:         0,
	spanClean:       1,
	spanParse:       2,
	spanSubmit:      2,
	spanCrowd:       2,
	spanSplit:       3,
	spanStore:       3,
	spanQuestions:   3,
	spanCrowdAnswer: 3,
	spanAnswer:      3,
}

// layerOf maps a span name to the layer its time is charged to.
func layerOf(name string) string {
	switch name {
	case spanCrowd, spanCrowdAnswer:
		return "crowd"
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// selfTimes partitions the root span's interval among the job's spans: every
// instant goes to exactly one span, so the per-layer totals sum to the root
// duration. Time the root itself owns is charged to rootLayer. The result is
// in milliseconds, keyed by layer.
func selfTimes(spans []span, root span, rootLayer string) map[string]float64 {
	type edge struct {
		at    int64
		open  bool
		index int
	}
	var edges []edge
	for i, s := range spans {
		if _, ok := priority[s.Name]; !ok {
			continue
		}
		start, end := max(s.Start, root.Start), min(s.End, root.End)
		if start >= end {
			continue
		}
		edges = append(edges, edge{start, true, i}, edge{end, false, i})
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].at < edges[b].at })
	out := make(map[string]float64)
	active := make(map[int]bool)
	prev := root.Start
	for k := 0; k < len(edges); {
		at := edges[k].at
		if at > prev && len(active) > 0 {
			owner := -1
			for i := range active {
				if owner < 0 || outranks(spans[i], spans[owner]) {
					owner = i
				}
			}
			layer := layerOf(spans[owner].Name)
			if spans[owner].ID == root.ID {
				layer = rootLayer
			}
			out[layer] += float64(at-prev) / 1e6
		}
		prev = at
		for ; k < len(edges) && edges[k].at == at; k++ {
			if edges[k].open {
				active[edges[k].index] = true
			} else {
				delete(active, edges[k].index)
			}
		}
	}
	return out
}

func outranks(a, b span) bool {
	if pa, pb := priority[a.Name], priority[b.Name]; pa != pb {
		return pa > pb
	}
	if a.Start != b.Start {
		return a.Start > b.Start
	}
	return a.ID > b.ID
}

// evalProbe reads the evaluator's cumulative time, call and lookup
// counters, so a span can take the delta that accrued inside it. The cleaner
// is serial, so evaluation inside a crowd or split span belongs to that
// layer.
type evalProbe struct {
	resultMs, witnessMs       float64
	resultCalls, witnessCalls int64
	cacheHits, cacheMisses    int64
	maintHits, maintMisses    int64
}

func probe(r *obs.Recorder) evalProbe {
	if r == nil {
		return evalProbe{}
	}
	s := r.Snapshot()
	res, wit := s.Histograms[eval.MetricResultSeconds], s.Histograms[eval.MetricWitnessSeconds]
	return evalProbe{
		resultMs: 1e3 * res.Sum, witnessMs: 1e3 * wit.Sum,
		resultCalls: res.Count, witnessCalls: wit.Count,
		cacheHits: s.Counters[eval.MetricCacheHits], cacheMisses: s.Counters[eval.MetricCacheMisses],
		maintHits: s.Counters[eval.MetricMaintainedHits], maintMisses: s.Counters[eval.MetricMaintainedMisses],
	}
}

func (a evalProbe) sub(b evalProbe) evalProbe {
	return evalProbe{a.resultMs - b.resultMs, a.witnessMs - b.witnessMs,
		a.resultCalls - b.resultCalls, a.witnessCalls - b.witnessCalls,
		a.cacheHits - b.cacheHits, a.cacheMisses - b.cacheMisses,
		a.maintHits - b.maintHits, a.maintMisses - b.maintMisses}
}

func (a evalProbe) plus(b evalProbe) evalProbe {
	return evalProbe{a.resultMs + b.resultMs, a.witnessMs + b.witnessMs,
		a.resultCalls + b.resultCalls, a.witnessCalls + b.witnessCalls,
		a.cacheHits + b.cacheHits, a.cacheMisses + b.cacheMisses,
		a.maintHits + b.maintHits, a.maintMisses + b.maintMisses}
}

// jobScope carries one job's tracing state into the wrappers. In
// service-disk the server's goroutine and the crowd connection both write
// it, one at a time, so mu guards the counters.
type jobScope struct {
	t      *tracer
	rec    *obs.Recorder // the evaluator's metrics, for probes
	job    int
	parent int // span the wrappers' spans hang under; set before they run

	mu               sync.Mutex
	evalIn           map[string]evalProbe // evaluation inside crowd, split and store spans
	splits, splitsOK int
	applies          int
	applyNs          int64

	// service-disk client side
	http                     map[string][]float64 // request latencies (ms) by span name
	rtt                      []float64            // answer POST -> next question seen (ms)
	requests, failedRequests int
}

func newScope(tr *tracing, job int) *jobScope {
	sc := &jobScope{job: job, evalIn: make(map[string]evalProbe)}
	if tr != nil {
		sc.t, sc.rec = tr.spans, tr.eval
	}
	return sc
}

// around times f as a span of name and charges the evaluator work inside it
// to the span's layer.
func (s *jobScope) around(name string, f func()) {
	if s == nil || s.t == nil {
		f()
		return
	}
	before := probe(s.rec)
	s.span(name, f)
	d := probe(s.rec).sub(before)
	layer := layerOf(name)
	s.mu.Lock()
	s.evalIn[layer] = s.evalIn[layer].plus(d)
	s.mu.Unlock()
}

// span times f as a span of name.
func (s *jobScope) span(name string, f func()) {
	if s == nil || s.t == nil {
		f()
		return
	}
	id := s.t.begin(name, s.job, s.parent)
	f()
	s.t.end(id)
}

// clock wraps the job's oracle: it measures crowd time (excluded from
// job_ms) and the gaps between an answer and the next question in every run,
// and records crowd spans in traced runs.
type clock struct {
	inner crowd.Oracle
	scope *jobScope
	// remote is set when the crowd answers on another goroutine (the
	// service-disk crowd connection), whose own spans take the evaluation
	// deltas.
	remote bool

	crowd   time.Duration
	lastEnd time.Time
	gaps    []float64 // ms from one answer to the next question
}

func (c *clock) call(f func()) {
	start := time.Now()
	if !c.lastEnd.IsZero() {
		c.gaps = append(c.gaps, ms(start.Sub(c.lastEnd)))
	}
	if c.remote {
		c.scope.span(spanCrowd, f)
	} else {
		c.scope.around(spanCrowd, f)
	}
	c.lastEnd = time.Now()
	c.crowd += c.lastEnd.Sub(start)
}

func (c *clock) VerifyFact(ctx context.Context, f db.Fact) (ans bool) {
	c.call(func() { ans = c.inner.VerifyFact(ctx, f) })
	return ans
}

func (c *clock) VerifyAnswer(ctx context.Context, q *cq.Query, t db.Tuple) (ans bool) {
	c.call(func() { ans = c.inner.VerifyAnswer(ctx, q, t) })
	return ans
}

func (c *clock) Complete(ctx context.Context, q *cq.Query, partial eval.Assignment) (full eval.Assignment, ok bool) {
	c.call(func() { full, ok = c.inner.Complete(ctx, q, partial) })
	return full, ok
}

func (c *clock) CompleteResult(ctx context.Context, q *cq.Query, current []db.Tuple) (t db.Tuple, ok bool) {
	c.call(func() { t, ok = c.inner.CompleteResult(ctx, q, current) })
	return t, ok
}

// tracedSplit wraps the Algorithm 2 split strategy.
type tracedSplit struct {
	inner split.Strategy
	scope func() *jobScope
}

func (s tracedSplit) Name() string { return s.inner.Name() }

func (s tracedSplit) Split(q *cq.Query, d db.Reader) (left, right *cq.Query, ok bool) {
	sc := s.scope()
	sc.around(spanSplit, func() { left, right, ok = s.inner.Split(q, d) })
	sc.mu.Lock()
	sc.splits++
	if ok {
		sc.splitsOK++
	}
	sc.mu.Unlock()
	return left, right, ok
}

// tracedStore is a pass-through db.Store that times the write side. Reads go
// straight to the wrapped store, and ID and Generation are the wrapped
// store's, so the evaluation cache and maintained views see the same store.
type tracedStore struct {
	db.Store
	scope func() *jobScope
}

func (s tracedStore) write(f func()) {
	sc := s.scope()
	start := time.Now()
	sc.around(spanStore, f)
	sc.mu.Lock()
	sc.applies++
	sc.applyNs += time.Since(start).Nanoseconds()
	sc.mu.Unlock()
}

func (s tracedStore) InsertFact(f db.Fact) (changed bool, err error) {
	s.write(func() { changed, err = s.Store.InsertFact(f) })
	return changed, err
}

func (s tracedStore) DeleteFact(f db.Fact) (changed bool, err error) {
	s.write(func() { changed, err = s.Store.DeleteFact(f) })
	return changed, err
}

func (s tracedStore) Apply(e db.Edit) (changed bool, err error) {
	s.write(func() { changed, err = s.Store.Apply(e) })
	return changed, err
}

func (s tracedStore) ApplyAll(edits []db.Edit) (changed int, err error) {
	s.write(func() { changed, err = s.Store.ApplyAll(edits) })
	return changed, err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
