// Command e2ebench is QOCO's end-to-end benchmark: it runs seeded sets of
// cleaning jobs (Algorithm 3 until Q(D) = Q(DG)) through the system's public
// entry points, checks that every job really cleaned its input, and prints
// every metric by name with its unit. See README.md for the workloads, the
// metrics and how they relate.
//
// Usage:
//
//	e2ebench --workload soccer-delete --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the line before it holds the run's
// metadata. With --trace 1 the run alternates untraced and traced passes,
// prints per-layer metrics, and writes the spans to --out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/wal"
)

// Workload names.
const (
	soccerDelete = "soccer-delete"
	soccerInsert = "soccer-insert"
	serviceDisk  = "service-disk"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for spans and the service-disk stores
	setups   int    // set-up repetitions; set-up time is their median
	shape    shape
	opts     runOpts
}

// shapeOf returns the full-size job pool of a workload.
//
// soccer-delete has no Q4: every team is an answer of Q4 over DG, so no
// wrong answer can be injected. Its job times cluster by query (Q1 < Q2 <
// Q3 < Q5); with Q3 and Q5 twice per round, job_ms.p50 falls in the middle
// of the Q3 cluster and p90 inside the Q5 cluster instead of in a gap
// between clusters, where it would jump from seed to seed. The same holds
// for Q4 and Q3/Q5 in soccer-insert, and for Q4 in service-disk.
func shapeOf(workload string) (shape, bool) {
	switch workload {
	case soccerDelete:
		return shape{queries: []string{"Q1", "Q2", "Q3", "Q3", "Q5", "Q5"}, rounds: 10, perBatch: 1, noise: noiseWrong, errors: 5}, true
	case soccerInsert:
		return shape{queries: []string{"Q1", "Q2", "Q3", "Q4", "Q5"}, rounds: 20, perBatch: 1, noise: noiseMissing, errors: 5}, true
	case serviceDisk:
		return shape{queries: []string{"Q1", "Q2", "Q4"}, rounds: 12, perBatch: 3, noise: noiseMixed, errors: 2}, true
	}
	return shape{}, false
}

func main() {
	var c config
	var seed int64
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload: soccer-delete, soccer-insert or service-disk")
	flag.Int64Var(&seed, "seed", 1, "workload seed: the same seed makes the same inputs")
	flag.Float64Var(&c.seconds, "seconds", 15, "seconds of job time to measure")
	flag.IntVar(&trace, "trace", 0, "1 runs traced passes and prints per-layer metrics")
	flag.StringVar(&c.out, "out", filepath.Join(".bench_build", "e2ebench"), "directory for span files and service-disk stores")
	flag.Parse()
	sh, ok := shapeOf(c.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", c.workload)
		os.Exit(2)
	}
	c.seed, c.trace, c.shape, c.setups = seed, trace == 1, sh, 3

	res, err := run(context.Background(), c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	meta, _ := json.Marshal(map[string]interface{}{"meta": res.meta})
	fmt.Println(string(meta))
	line, _ := json.Marshal(res.out)
	fmt.Println(string(line))
	if !res.out.Correct {
		for _, f := range res.failures {
			fmt.Fprintln(os.Stderr, "e2ebench: FAILED:", f)
		}
		os.Exit(1)
	}
}

// output is the final line the benchmark prints.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	out      output
	meta     map[string]interface{}
	failures []string
}

// pass is one run over the whole job pool.
type pass struct {
	jobs    []jobStat
	wallS   float64 // job time: Σ wall, the timed region
	allocMB float64 // heap allocated while jobs ran
}

func (p pass) jobsPerS() float64 { return ratio(float64(len(p.jobs)), p.wallS) }

// driver runs a workload's passes.
type driver interface {
	// prepare readies one pass (service-disk materializes fresh stores).
	// A traced pass gets its tracing state.
	prepare(in *inputs, tr *tracing) error
	// runBatch runs one batch of the pool.
	runBatch(ctx context.Context, in *inputs, b *batch, tr *tracing, seq *int) []jobStat
	// finish releases what prepare made.
	finish() error
}

func newDriver(c config) driver {
	if c.workload == serviceDisk {
		return &service{dir: c.out, lie: c.opts.lie}
	}
	return inproc{opts: c.opts}
}

type inproc struct{ opts runOpts }

func (inproc) prepare(*inputs, *tracing) error { return nil }
func (inproc) finish() error                   { return nil }
func (p inproc) runBatch(ctx context.Context, in *inputs, b *batch, tr *tracing, seq *int) []jobStat {
	*seq++
	return []jobStat{runInproc(ctx, in, b, p.opts, tr, *seq)}
}

// run sets up, warms up, and measures whole passes until the timed region
// reaches c.seconds. Traced runs alternate untraced and traced passes.
func run(ctx context.Context, c config) (*result, error) {
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return nil, err
	}
	drv := newDriver(c)
	defer drv.finish() // error paths; finish is a no-op after a pass's own
	var in *inputs
	var setupTimes []float64
	for i := 0; i < c.setups; i++ {
		start := time.Now()
		var err error
		if in, err = generate(c.shape, c.seed); err != nil {
			return nil, err
		}
		if err := drv.prepare(in, nil); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i < c.setups-1 {
			if err := drv.finish(); err != nil {
				return nil, err
			}
		}
	}

	seq := 0
	var tr *tracing
	if c.trace {
		tr = newTracing()
	}
	runPass := func(traced, prepared bool) (pass, error) {
		var ptr *tracing
		if traced {
			ptr = tr
		}
		if !prepared {
			if err := drv.prepare(in, ptr); err != nil {
				return pass{}, err
			}
		}
		var p pass
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		if traced {
			eval.Instrument(tr.eval)
			wal.Instrument(tr.obs)
			db.Instrument(tr.obs)
		}
		for _, b := range in.batches {
			for _, st := range drv.runBatch(ctx, in, b, ptr, &seq) {
				p.jobs = append(p.jobs, st)
				p.wallS += st.wallMs / 1e3
			}
		}
		eval.Instrument(nil)
		wal.Instrument(nil)
		db.Instrument(nil)
		runtime.ReadMemStats(&ms1)
		p.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		return p, drv.finish()
	}

	warmStart := time.Now()
	warm, err := runPass(false, true)
	if err != nil {
		return nil, err
	}
	warmS := time.Since(warmStart).Seconds()

	var untraced, traced []pass
	timed := 0.0
	for timed < c.seconds || len(untraced) == 0 || (c.trace && len(traced) == 0) {
		tracedPass := c.trace && len(traced) < len(untraced)
		p, err := runPass(tracedPass, false)
		if err != nil {
			return nil, err
		}
		if tracedPass {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
		timed += p.wallS
	}

	r := &result{meta: map[string]interface{}{}}
	all := append(append([]pass{warm}, untraced...), traced...)
	for _, p := range all {
		for _, st := range p.jobs {
			r.out.Attempted++
			r.out.Attempted += st.requests
			r.out.Failed += st.failedRequests
			if len(st.failures) > 0 {
				r.out.Failed++
				r.failures = append(r.failures, st.failures...)
			}
		}
	}
	r.out.Correct = r.out.Failed == 0
	if err := checkDeterminism(all); err != nil {
		r.out.Correct = false
		r.out.Failed++
		r.failures = append(r.failures, err.Error())
	}
	if c.trace {
		r.out.Metrics = layerMetrics(untraced, traced)
		path := filepath.Join(c.out, fmt.Sprintf("spans-%s-%d.json", c.workload, c.seed))
		if err := tr.spans.writeFile(path, jobsOf(traced)); err != nil {
			return nil, err
		}
		r.meta["spans_file"] = path
	} else {
		r.out.Metrics = endToEnd(untraced, setupTimes)
		r.meta["jobs_beyond_p90"] = beyond(jobsOf(untraced), r.out.Metrics["job_ms.p90"].Value)
	}
	r.meta["failed_ratio"] = metric{ratio(float64(r.out.Failed), float64(r.out.Attempted)), "ratio"}
	describe(r.meta, c, in, untraced, traced, setupTimes, warmS)
	return r, nil
}

// checkDeterminism requires every execution of a job to ask the same
// questions and apply the same edits: a perfect crowd and a seeded cleaner
// make a job deterministic, with or without tracing wrappers.
func checkDeterminism(passes []pass) error {
	type fingerprint struct {
		questions int
		edits     string
	}
	seen := make(map[int]fingerprint)
	for _, p := range passes {
		for _, st := range p.jobs {
			if st.report == nil {
				continue
			}
			fp := fingerprint{st.questions, fmt.Sprint(st.report.Edits)}
			if prev, ok := seen[st.job.id]; ok && prev != fp {
				return fmt.Errorf("job %d (%s) is not deterministic: %d questions vs %d earlier, or different edits",
					st.job.id, st.job.query, fp.questions, prev.questions)
			}
			seen[st.job.id] = fp
		}
	}
	return nil
}
