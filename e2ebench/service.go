package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/db"
	"repro/internal/server"
	"repro/internal/split"
	"repro/internal/wal"
)

// Client poll intervals of service-disk.
const (
	crowdPoll  = 250 * time.Microsecond // crowd connection: wait after an empty question poll
	statusPoll = 2 * time.Millisecond   // submitter: wait between job-status polls
	jobTimeout = 30 * time.Second       // a job still running after this fails
)

// service runs service-disk: per batch, an in-process server over a fresh
// disk store and job journal, served on loopback, with one submitter and one
// crowd connection.
type service struct {
	dir     string
	lie     bool
	batches []*svcBatch // prepared for the next pass, in pool order
	next    int
}

// svcBatch is one batch's server and everything it owns.
type svcBatch struct {
	dir     string
	store   *db.DiskStore
	journal string // journal path
	jl      *wal.JobLog
	srv     *server.Server
	hs      *httptest.Server
	cur     atomic.Pointer[jobScope] // the job now running
}

// prepare materializes a fresh disk store and journal per batch and opens a
// server over each. A traced pass wraps the store, split strategy and
// oracle, and records into tr.
func (s *service) prepare(in *inputs, tr *tracing) error {
	s.next = 0
	for k, b := range in.batches {
		sb := &svcBatch{dir: filepath.Join(s.dir, fmt.Sprintf("batch-%d-%d", os.Getpid(), k))}
		s.batches = append(s.batches, sb)
		if err := os.RemoveAll(sb.dir); err != nil {
			return err
		}
		ds, err := db.OpenDisk(filepath.Join(sb.dir, "store"), in.dg.Schema(), db.DefaultShards)
		if err != nil {
			return err
		}
		sb.store = ds
		if _, err := db.Copy(ds, b.dirty); err != nil {
			return err
		}
		if err := ds.Sync(); err != nil {
			return err
		}
		sb.journal = filepath.Join(sb.dir, "journal.log")
		jl, recs, err := wal.OpenJobLog(sb.journal)
		if err != nil {
			return err
		}
		sb.jl = jl
		if len(recs) != 0 {
			return fmt.Errorf("fresh journal %s holds %d jobs", sb.journal, len(recs))
		}
		cfg := core.Config{Incremental: true, Deletion: core.PolicyQOCO, Split: split.Provenance{}}
		var store db.Store = ds
		if tr != nil {
			get := func() *jobScope { return sb.cur.Load() }
			store = tracedStore{Store: ds, scope: get}
			cfg.Split = tracedSplit{inner: cfg.Split, scope: get}
			cfg.Obs = tr.obs
		}
		sb.srv = server.New(store, cfg)
		// qocoserver's default admission control.
		sb.srv.SetAdmission(admission.NewController(admission.Options{Obs: sb.srv.Obs()}))
		if tr != nil {
			sb.srv.SetOracleWrapper(func(o crowd.Oracle) crowd.Oracle {
				return &clock{inner: o, scope: sb.cur.Load(), remote: true}
			})
		}
		sb.srv.SetJobLog(jl)
		sb.hs = httptest.NewServer(sb.srv.Handler())
	}
	return nil
}

// finish shuts every prepared server down and removes its files.
func (s *service) finish() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	for _, sb := range s.batches {
		sb.close(keep)
	}
	s.batches = nil
	return first
}

func (sb *svcBatch) close(keep func(error)) {
	if sb.hs != nil {
		sb.hs.Close()
		sb.srv.Close()
		sb.hs = nil
	}
	if sb.jl != nil {
		if err := sb.jl.Close(); err != nil {
			keep(err)
		}
		sb.jl = nil
	}
	if sb.store != nil {
		if err := sb.store.Close(); err != nil {
			keep(err)
		}
		sb.store = nil
	}
	if err := os.RemoveAll(sb.dir); err != nil {
		keep(err)
	}
}

// runBatch submits the batch's jobs one at a time on the submitter
// connection while the crowd connection answers their questions.
func (s *service) runBatch(ctx context.Context, in *inputs, b *batch, tr *tracing, seq *int) []jobStat {
	t := tr.tracer()
	sb := s.batches[s.next]
	s.next++
	ctx, cancel := context.WithCancel(ctx)
	sb.cur.Store(newScope(nil, 0)) // polls before the first submission
	cc := &crowdConn{base: sb.hs.URL, client: newClient(), cur: &sb.cur, t: t, dg: in.dg, lie: s.lie}
	sub := &submitter{base: sb.hs.URL, client: newClient(), t: t}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cc.loop(ctx)
	}()

	diskBefore := sb.store.Stats().DiskBytes
	type pending struct {
		st            jobStat
		sc            *jobScope
		before, after mark
	}
	var runs []pending
	for _, j := range b.jobs {
		*seq++
		p := pending{st: jobStat{job: j, run: *seq}, sc: newScope(tr, *seq)}
		// The root span exists before the crowd connection and the server's
		// wrappers can see the scope.
		p.sc.parent = t.begin(spanJob, *seq, 0)
		sb.cur.Store(p.sc)
		p.before = tr.mark()
		askedBefore := sb.srv.Obs().Counter(server.MetricQuestionsAsked)
		done, err := sub.run(ctx, j, p.sc, &p.st)
		p.after = tr.mark()
		p.st.serverAsked = sb.srv.Obs().Counter(server.MetricQuestionsAsked) - askedBefore
		switch {
		case err != nil:
			p.st.fail("job %d (%s): %v", j.id, j.query, err)
		case done.State != server.JobDone || done.Report == nil:
			p.st.fail("job %d (%s): ended %s (%s), want done", j.id, j.query, done.State, done.Error)
		default:
			rep := done.Report
			p.st.report = rep
			p.st.questions = rep.Crowd.Total()
			asked := rep.Crowd.VerifyFactQs + rep.Crowd.VerifyAnswerQs + rep.Crowd.CompleteQs + rep.Crowd.CompleteResultQs
			if int64(asked) != p.st.serverAsked {
				p.st.fail("job %d (%s): server.questions.asked grew by %d, the report counts %d questions",
					j.id, j.query, p.st.serverAsked, asked)
			}
			// The job is terminal, so the server no longer touches the store.
			p.st.failures = append(p.st.failures, gate(j, sb.store, rep.Edits, in.dg)...)
		}
		runs = append(runs, p)
	}
	cancel()
	wg.Wait()
	sub.client.CloseIdleConnections()
	cc.client.CloseIdleConnections()

	out := make([]jobStat, len(runs))
	for i, p := range runs {
		st := p.st
		p.sc.mu.Lock()
		st.gaps = p.sc.rtt
		st.http = p.sc.http
		st.requests += p.sc.requests
		st.failedRequests += p.sc.failedRequests
		p.sc.mu.Unlock()
		if t != nil {
			st.trace = traceOf(t, p.st.run, p.sc, "core", p.before, p.after)
			st.crowdMs = st.trace.crowdMs
		}
		out[i] = st
	}
	// Store and journal growth are batch totals, carried on the last job;
	// per-job means divide them over all jobs.
	last := &out[len(out)-1]
	last.diskBytes = sb.store.Stats().DiskBytes - diskBefore
	if n, size, err := journalGrowth(sb.journal, len(b.jobs)); err != nil {
		last.fail("reading journal: %v", err)
	} else {
		last.walRecords, last.walBytes = n, size
	}
	if cc.err != nil {
		last.fail("crowd connection: %v", cc.err)
	}
	return out
}

// journalGrowth waits until the journal holds the end records of all of
// the batch's jobs (the server appends a job's end record just after it
// publishes the terminal state) and returns its records and bytes.
func journalGrowth(path string, jobs int) (records, size int, err error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		data, err := os.ReadFile(path)
		if err != nil {
			return 0, 0, err
		}
		ends := 0
		for _, line := range bytes.Split(data, []byte("\n")) {
			var ev wal.JobEvent
			if len(line) == 0 {
				continue
			}
			if err := json.Unmarshal(line, &ev); err != nil {
				return 0, 0, fmt.Errorf("journal record %q: %w", line, err)
			}
			records++
			if ev.Ev == "end" {
				ends++
			}
		}
		if ends == jobs {
			return records, len(data), nil
		}
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("journal holds %d end records, want %d", ends, jobs)
		}
		records = 0
		time.Sleep(time.Millisecond)
	}
}

// newClient is one client connection: a keep-alive transport limited to a
// single connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}
}

// call sends one request, records its latency under name in the scope, and
// decodes a 2xx JSON reply into v. It returns when the request started and
// ended.
func call(ctx context.Context, c *http.Client, sc *jobScope, name, method, url string, body, v interface{}) (time.Time, time.Time, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return time.Time{}, time.Time{}, err
		}
		rd = bytes.NewReader(b)
	}
	start := time.Now()
	err := func() error {
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return err
		}
		resp, err := c.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
		}
		return json.Unmarshal(data, v)
	}()
	end := time.Now()
	if ctx.Err() != nil {
		return start, end, ctx.Err() // shutting down: not a request failure
	}
	sc.mu.Lock()
	sc.requests++
	if err != nil {
		sc.failedRequests++
	}
	if sc.http == nil {
		sc.http = make(map[string][]float64)
	}
	sc.http[name] = append(sc.http[name], ms(end.Sub(start)))
	sc.mu.Unlock()
	return start, end, err
}

// submitter is the connection a user submits jobs on and polls them with.
type submitter struct {
	base   string
	client *http.Client
	t      *tracer
}

// run submits the job as SQL and polls its status until it leaves running,
// recording the wall time and ending the job's root span, sc.parent.
func (s *submitter) run(ctx context.Context, j *job, sc *jobScope, st *jobStat) (server.Job, error) {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	root := sc.parent
	start := time.Now()
	var accepted, status server.Job
	t0, t1, err := call(ctx, s.client, sc, spanSubmit, http.MethodPost, s.base+"/api/v1/clean",
		map[string]string{"sql": j.sql}, &accepted)
	s.t.record(spanSubmit, st.run, root, t0, t1)
	for err == nil {
		time.Sleep(statusPoll)
		t0, t1, err = call(ctx, s.client, sc, spanStatus, http.MethodGet,
			fmt.Sprintf("%s/api/v1/jobs/%d", s.base, accepted.ID), nil, &status)
		s.t.record(spanStatus, st.run, root, t0, t1)
		if err == nil && status.State != server.JobRunning {
			break
		}
	}
	end := time.Now()
	s.t.end(root)
	st.wallMs = ms(end.Sub(start))
	st.jobMs = st.wallMs
	return status, err
}

// crowdConn is the crowd worker's connection: it polls the pending
// questions and answers each from DG.
type crowdConn struct {
	base   string
	client *http.Client
	cur    *atomic.Pointer[jobScope]
	t      *tracer
	dg     *db.Database
	lie    bool
	err    error // first failure; read after loop returns

	oracles  map[int]crowd.Oracle // per server job, so a liar lies once per job
	lastPost map[int]time.Time    // server job -> start of its latest answer POST
	answered map[int]int          // server job -> highest question ID answered
}

func (c *crowdConn) oracleFor(job int) crowd.Oracle {
	if c.oracles[job] == nil {
		c.oracles[job] = runOpts{lie: c.lie}.oracle(c.dg)
	}
	return c.oracles[job]
}

func (c *crowdConn) loop(ctx context.Context) {
	c.oracles, c.lastPost, c.answered = make(map[int]crowd.Oracle), make(map[int]time.Time), make(map[int]int)
	for ctx.Err() == nil {
		var qs []*server.Question
		asked, seen, err := call(ctx, c.client, c.cur.Load(), spanQuestions, http.MethodGet, c.base+"/api/v1/questions", nil, &qs)
		if err != nil {
			if ctx.Err() == nil && c.err == nil {
				c.err = err
			}
			return
		}
		if len(qs) == 0 {
			time.Sleep(crowdPoll)
			continue
		}
		// Jobs run one at a time, and the submitter switches cur before it
		// submits, so the questions belong to the job cur names now.
		sc := c.cur.Load()
		c.t.record(spanQuestions, sc.job, sc.parent, asked, seen)
		for _, qu := range qs {
			if qu.ID <= c.answered[qu.Job] {
				continue // answered; the server has not dropped it yet
			}
			if posted, ok := c.lastPost[qu.Job]; ok {
				sc.mu.Lock()
				sc.rtt = append(sc.rtt, ms(seen.Sub(posted)))
				sc.mu.Unlock()
				delete(c.lastPost, qu.Job)
			}
			if err := c.answer(ctx, sc, qu); err != nil {
				if ctx.Err() == nil && c.err == nil {
					c.err = err
				}
				return
			}
		}
	}
}

// answer computes the crowd's reply to one question and posts it.
func (c *crowdConn) answer(ctx context.Context, sc *jobScope, qu *server.Question) error {
	var a server.Answer
	var err error
	sc.around(spanCrowdAnswer, func() { a, err = cluster.AnswerQuestion(ctx, qu, c.oracleFor(qu.Job)) })
	if err != nil {
		return err
	}
	var ok map[string]bool
	t0, t1, err := call(ctx, c.client, sc, spanAnswer, http.MethodPost,
		fmt.Sprintf("%s/api/v1/questions/%d/answer", c.base, qu.ID), a, &ok)
	c.t.record(spanAnswer, sc.job, sc.parent, t0, t1)
	if err != nil {
		return err
	}
	c.lastPost[qu.Job] = t0
	c.answered[qu.Job] = qu.ID
	return nil
}
