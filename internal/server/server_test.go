package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
)

// httpCrowd is a simulated crowd member that polls the question API and
// answers from the ground truth — exercising the full HTTP round trip a
// human would take through the web console.
type httpCrowd struct {
	base   string
	oracle *crowd.Perfect
	t      *testing.T
	stop   chan struct{}
}

func (c *httpCrowd) run() {
	for {
		select {
		case <-c.stop:
			return
		default:
		}
		res, err := http.Get(c.base + "/questions")
		if err != nil {
			return
		}
		var qs []Question
		if err := json.NewDecoder(res.Body).Decode(&qs); err != nil {
			res.Body.Close()
			return
		}
		res.Body.Close()
		if len(qs) == 0 {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		for i := range qs {
			c.answer(&qs[i])
		}
	}
}

func (c *httpCrowd) answer(q *Question) {
	var a Answer
	switch q.Kind {
	case KindVerifyFact:
		v := c.oracle.VerifyFact(context.Background(), db.NewFact(q.Fact[0], q.Fact[1:]...))
		a.Bool = &v
	case KindVerifyAnswer:
		query := cq.MustParse(q.Query)
		v := c.oracle.VerifyAnswer(context.Background(), query, db.Tuple(q.Tuple))
		a.Bool = &v
	case KindComplete:
		query := cq.MustParse(q.Query)
		partial := eval.Assignment{}
		for k, v := range q.Partial {
			partial[k] = v
		}
		full, ok := c.oracle.Complete(context.Background(), query, partial)
		if !ok {
			a.None = true
		} else {
			a.Bindings = map[string]string{}
			for _, v := range q.Unbound {
				a.Bindings[v] = full[v]
			}
		}
	case KindCompleteResult:
		query := cq.MustParse(q.Query)
		cur := make([]db.Tuple, len(q.Current))
		for i, r := range q.Current {
			cur[i] = db.Tuple(r)
		}
		t, ok := c.oracle.CompleteResult(context.Background(), query, cur)
		if !ok {
			a.None = true
		} else {
			a.Tuple = t
		}
	}
	body, _ := json.Marshal(a)
	res, err := http.Post(fmt.Sprintf("%s/questions/%d", c.base, q.ID), "application/json", bytes.NewReader(body))
	if err == nil {
		res.Body.Close()
	}
}

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	raw, _ := json.Marshal(body)
	res, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return res
}

// TestServerEndToEnd runs the whole Figure 5 loop over HTTP: a clean job on
// the Figure 1 database, answered by a simulated crowd member hitting the
// question API, must converge to the ground-truth result.
func TestServerEndToEnd(t *testing.T) {
	d, dg := dataset.Figure1()
	srv := New(d, core.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	member := &httpCrowd{base: ts.URL, oracle: crowd.NewPerfect(dg), t: t, stop: make(chan struct{})}
	go member.run()
	defer close(member.stop)

	res := postJSON(t, ts.URL+"/clean", map[string]string{"query": dataset.IntroQ1().String()})
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /clean status = %d", res.StatusCode)
	}
	var job Job
	json.NewDecoder(res.Body).Decode(&job)
	res.Body.Close()

	deadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %d did not finish", job.ID)
		}
		r, err := http.Get(fmt.Sprintf("%s/jobs/%d", ts.URL, job.ID))
		if err != nil {
			t.Fatal(err)
		}
		var cur Job
		json.NewDecoder(r.Body).Decode(&cur)
		r.Body.Close()
		if cur.State == JobDone {
			if cur.Report == nil || cur.Report.WrongAnswers != 1 || cur.Report.MissingAnswers != 1 {
				t.Fatalf("report = %+v", cur.Report)
			}
			break
		}
		if cur.State == JobFailed {
			t.Fatalf("job failed: %s", cur.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The database now matches the ground truth on the query.
	want := eval.Result(dataset.IntroQ1(), dg)
	got := eval.Result(dataset.IntroQ1(), d)
	if len(got) != len(want) {
		t.Fatalf("cleaned result %v, want %v", got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("cleaned result %v, want %v", got, want)
		}
	}
}

func TestServerQueryEndpoint(t *testing.T) {
	d, _ := dataset.Figure1()
	srv := New(d, core.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res, err := http.Get(ts.URL + "/query?q=" + strings.ReplaceAll("(x) :- Teams(x, EU)", " ", "%20"))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var out struct {
		Rows [][]string `json:"rows"`
	}
	json.NewDecoder(res.Body).Decode(&out)
	if len(out.Rows) != 3 {
		t.Errorf("rows = %v, want 3 EU teams in D", out.Rows)
	}

	// SQL flavor of the same endpoint.
	res2, err := http.Get(ts.URL + "/query?sql=" + strings.ReplaceAll("SELECT name FROM Teams WHERE continent = 'EU'", " ", "%20"))
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	var out2 struct {
		Rows [][]string `json:"rows"`
	}
	json.NewDecoder(res2.Body).Decode(&out2)
	if len(out2.Rows) != 3 {
		t.Errorf("sql rows = %v, want 3", out2.Rows)
	}
}

func TestServerBadRequests(t *testing.T) {
	d, _ := dataset.Figure1()
	srv := New(d, core.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		method, path string
		body         interface{}
		wantStatus   int
	}{
		{"POST", "/clean", map[string]string{}, http.StatusBadRequest},
		{"POST", "/clean", map[string]string{"query": "not a query"}, http.StatusBadRequest},
		{"POST", "/clean", map[string]string{"query": "(x) :- Teams(x, EU)", "sql": "SELECT 1"}, http.StatusBadRequest},
		{"POST", "/questions/999", Answer{None: true}, http.StatusNotFound},
		{"POST", "/questions/abc", Answer{}, http.StatusBadRequest},
		{"GET", "/jobs/999", nil, http.StatusNotFound},
		{"GET", "/jobs/abc", nil, http.StatusBadRequest},
		{"GET", "/query", nil, http.StatusBadRequest},
	}
	for _, c := range cases {
		var res *http.Response
		var err error
		if c.method == "POST" {
			res = postJSON(t, ts.URL+c.path, c.body)
		} else {
			res, err = http.Get(ts.URL + c.path)
			if err != nil {
				t.Fatal(err)
			}
		}
		if res.StatusCode != c.wantStatus {
			t.Errorf("%s %s: status = %d, want %d", c.method, c.path, res.StatusCode, c.wantStatus)
		}
		res.Body.Close()
	}
}

func TestServerMethodChecks(t *testing.T) {
	d, _ := dataset.Figure1()
	srv := New(d, core.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res := postJSON(t, ts.URL+"/questions", nil)
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /questions status = %d", res.StatusCode)
	}
	res.Body.Close()
	res2, _ := http.Get(ts.URL + "/clean")
	if res2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /clean status = %d", res2.StatusCode)
	}
	res2.Body.Close()
}

func TestServerIndexPage(t *testing.T) {
	d, _ := dataset.Figure1()
	srv := New(d, core.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	buf := new(bytes.Buffer)
	buf.ReadFrom(res.Body)
	if !strings.Contains(buf.String(), "QOCO crowd console") {
		t.Errorf("index page missing console markup")
	}
	res404, _ := http.Get(ts.URL + "/nope")
	if res404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", res404.StatusCode)
	}
	res404.Body.Close()
}

func TestQueueCloseUnblocks(t *testing.T) {
	q := NewQueue()
	done := make(chan bool)
	go func() {
		done <- q.VerifyFact(context.Background(), db.NewFact("Teams", "GER", "EU"))
	}()
	// Wait for the question to register, then close.
	deadline := time.Now().Add(5 * time.Second)
	for len(q.Pending()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("question never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	q.Close()
	select {
	case v := <-done:
		if !v {
			t.Errorf("closed queue answered false; the edit-free shutdown answer is true")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("VerifyFact did not unblock on Close")
	}
	// Questions after Close resolve immediately with the same edit-free
	// answer.
	if !q.VerifyFact(context.Background(), db.NewFact("Teams", "GER", "EU")) {
		t.Errorf("post-Close question answered false")
	}
}

func TestQueueDoubleAnswerRejected(t *testing.T) {
	q := NewQueue()
	go q.VerifyFact(context.Background(), db.NewFact("Teams", "GER", "EU"))
	deadline := time.Now().Add(5 * time.Second)
	for len(q.Pending()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("question never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	id := q.Pending()[0].ID
	yes := true
	if err := q.Answer(id, Answer{Bool: &yes}); err != nil {
		t.Fatalf("first Answer: %v", err)
	}
	if err := q.Answer(id, Answer{Bool: &yes}); err == nil {
		t.Errorf("second Answer accepted; want error")
	}
}
