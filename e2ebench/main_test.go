package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/eval"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tiny is a workload at the smallest size that still runs every layer: one
// round of the query mix, one set-up, one pass of each kind.
func tiny(t *testing.T, workload string, trace bool) config {
	sh, ok := shapeOf(workload)
	if !ok {
		t.Fatalf("unknown workload %s", workload)
	}
	sh.rounds = 1
	return config{workload: workload, seed: 7, trace: trace, out: t.TempDir(), setups: 1, shape: sh}
}

func runTiny(t *testing.T, c config) *result {
	t.Helper()
	res, err := run(context.Background(), c)
	if err != nil {
		t.Fatalf("%s: %v", c.workload, err)
	}
	return res
}

// checkMetrics requires the printed metrics to be exactly the listed ones,
// each with its listed unit.
func checkMetrics(t *testing.T, workload string, got map[string]metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", workload, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", workload, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", workload, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: metric %s = %v", workload, m.Name, g.Value)
		}
	}
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			res := runTiny(t, tiny(t, w.Name, trace))
			if !res.out.Correct || res.out.Failed != 0 || res.out.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d: %v",
					w.Name, trace, res.out.Correct, res.out.Failed, res.out.Attempted, res.failures)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			checkMetrics(t, w.Name, res.out.Metrics, want)
			// End-to-end metrics are never 0; per-layer ones are 0 on a
			// layer the workload does not call.
			for _, m := range want {
				if v := res.out.Metrics[m.Name].Value; v <= 0 && (!trace || m.Name == "trace.job_ms") {
					t.Errorf("%s: %s = %v", w.Name, m.Name, v)
				}
			}
		}
	}
}

// TestGateFires runs every workload with a crowd that lies once per job:
// the correctness gate must fail the run.
func TestGateFires(t *testing.T) {
	for _, w := range []string{soccerDelete, soccerInsert, serviceDisk} {
		c := tiny(t, w, false)
		c.opts.lie = true
		res := runTiny(t, c)
		if res.out.Correct || res.out.Failed == 0 {
			t.Errorf("%s: a lying crowd passed the gate (failed=%d)", w, res.out.Failed)
		}
	}
}

// TestSelfTimesSumToJobSpan checks the traced runs' attribution: per job,
// the layers' exclusive times add up to the job's root span.
func TestSelfTimesSumToJobSpan(t *testing.T) {
	for _, w := range []string{soccerDelete, serviceDisk} {
		res := runTiny(t, tiny(t, w, true))
		m := res.out.Metrics
		sum := 0.0
		for _, layer := range layers {
			sum += m[layer+".self_ms"].Value
		}
		if job := m["trace.job_ms"].Value; math.Abs(sum-job) > 1e-6*job || job <= 0 {
			t.Errorf("%s: layer self times sum to %v ms, job span is %v ms", w, sum, job)
		}
	}
}

// TestStoreWrapperIsTransparent runs the same jobs traced with and without
// the store and split wrappers: answers, questions and the evaluator's
// cache and maintained-view counters must not change.
func TestStoreWrapperIsTransparent(t *testing.T) {
	for _, w := range []string{soccerDelete, soccerInsert} {
		c := tiny(t, w, true)
		in, err := generate(c.shape, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		seq := 0
		runAll := func(o runOpts, traced bool) []jobStat {
			var tr *tracing
			if traced {
				tr = newTracing()
				eval.Instrument(tr.eval)
				defer eval.Instrument(nil)
			}
			var out []jobStat
			for _, b := range in.batches {
				seq++
				out = append(out, runInproc(context.Background(), in, b, o, tr, seq))
			}
			return out
		}
		runAll(runOpts{}, false) // warm DG's cache section
		bare := runAll(runOpts{bare: true}, true)
		wrapped := runAll(runOpts{}, true)
		for i := range bare {
			b, w := bare[i], wrapped[i]
			if len(b.failures)+len(w.failures) > 0 {
				t.Fatalf("job %d failed: %v %v", b.job.id, b.failures, w.failures)
			}
			if b.report.Crowd != w.report.Crowd {
				t.Errorf("job %d: questions %+v unwrapped, %+v wrapped", b.job.id, b.report.Crowd, w.report.Crowd)
			}
			if be, we := fmt.Sprint(b.report.Edits), fmt.Sprint(w.report.Edits); be != we {
				t.Errorf("job %d: edits %s unwrapped, %s wrapped", b.job.id, be, we)
			}
			for _, name := range []string{eval.MetricCacheHits, eval.MetricCacheMisses, eval.MetricMaintainedHits, eval.MetricMaintainedMisses} {
				if b.trace.delta[name] != w.trace.delta[name] {
					t.Errorf("job %d: %s = %v unwrapped, %v wrapped", b.job.id, name, b.trace.delta[name], w.trace.delta[name])
				}
			}
			if w.trace.applies == 0 {
				t.Errorf("job %d: the store wrapper saw no writes", w.job.id)
			}
		}
	}
}

// TestSQLMatchesDatalog checks the benchmark's SQL against the Datalog
// phrasing of §7.2's queries over the ground truth.
func TestSQLMatchesDatalog(t *testing.T) {
	qs, _, err := parsedSQL()
	if err != nil {
		t.Fatal(err)
	}
	dg := dataset.Soccer(dataset.SoccerOpts{})
	for i, want := range []*cq.Query{dataset.SoccerQ1(), dataset.SoccerQ2(), dataset.SoccerQ3(), dataset.SoccerQ4(), dataset.SoccerQ5()} {
		name := soccerSQL[i].name
		got := eval.Result(qs[name], dg, eval.NoCache())
		if exp := eval.Result(want, dg, eval.NoCache()); !sameTuples(got, exp) {
			t.Errorf("%s: SQL gives %d answers, Datalog %d", name, len(got), len(exp))
		}
	}
}
