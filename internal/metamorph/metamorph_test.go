package metamorph

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

// sweepWidth mirrors internal/check's trials: full width normally, a fast
// slice under -short so tier-1 stays quick.
func sweepWidth(t *testing.T, full int) int {
	if testing.Short() && full > 60 {
		return 60
	}
	return full
}

// TestMetamorphSweep is the main acceptance sweep: every oracle over seeded
// workloads, zero divergences. On failure the report carries the shrunk
// reproduction for each divergence.
func TestMetamorphSweep(t *testing.T) {
	rep, err := Run(Options{Seeds: sweepWidth(t, 600), KeepGoing: true})
	if err != nil {
		t.Fatalf("metamorphic sweep diverged:\n%s", rep.Render())
	}
	// Guardrails must not void an oracle: every oracle has to actually run on
	// a healthy share of the workloads (an over-broad skip would silently
	// turn an oracle off while the sweep stays green).
	for _, o := range Oracles() {
		if rep.OracleRuns[o.Name] == 0 {
			t.Errorf("oracle %s never ran (%d skips) — guardrail too broad", o.Name, rep.OracleSkips[o.Name])
		}
	}
}

// TestSweepCountsInstrumented asserts the obs counters line up with the
// report: workloads, per-oracle runs and skips.
func TestSweepCountsInstrumented(t *testing.T) {
	r := obs.New()
	Instrument(r)
	defer Instrument(nil)
	rep, err := Run(Options{Seeds: 40, KeepGoing: true})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	snap := r.Snapshot()
	if got := snap.Counters[MetricWorkloads]; got != int64(rep.Workloads) {
		t.Errorf("%s = %d, report says %d", MetricWorkloads, got, rep.Workloads)
	}
	for _, o := range Oracles() {
		if got := snap.Counters[MetricRunPrefix+o.Name]; got != int64(rep.OracleRuns[o.Name]) {
			t.Errorf("%s%s = %d, report says %d", MetricRunPrefix, o.Name, got, rep.OracleRuns[o.Name])
		}
		if got := snap.Counters[MetricSkipPrefix+o.Name]; got != int64(rep.OracleSkips[o.Name]) {
			t.Errorf("%s%s = %d, report says %d", MetricSkipPrefix, o.Name, got, rep.OracleSkips[o.Name])
		}
	}
	if got := snap.Counters[MetricDivergences]; got != 0 {
		t.Errorf("%s = %d on a clean sweep", MetricDivergences, got)
	}
}

// brokenRewrite is a deliberately unsound "equivalence": it claims deleting
// the first fact of D preserves the result. TestForcedDivergence uses it to
// prove the harness end to end — a bad rewrite must surface as a divergence
// with a re-runnable seed and a minimized reproduction.
func brokenRewrite(w *Workload) error {
	if err := skipIfRejected(w); err != nil {
		return err
	}
	base, err := plainLeg(w)
	if err != nil {
		return err
	}
	mut := w.Clone()
	facts := mut.Ins.D.Facts()
	if len(facts) == 0 {
		return skipf("no facts to drop")
	}
	mut.Ins.D.DeleteFact(facts[0])
	got, err := plainLeg(mut)
	if err != nil {
		return err
	}
	return compareLegs(base, got, "original", "fact-dropped")
}

// TestForcedDivergence is the harness's own acceptance test (the ISSUE's
// forced-divergence criterion): an intentionally broken rewrite must produce
// a divergence whose seed re-runs and whose shrunk reproduction still fails
// and is no larger than the original.
func TestForcedDivergence(t *testing.T) {
	var failed *Workload
	var seed int64
	for seed = 1; seed <= 200; seed++ {
		w := Generate(seed)
		if err := runOracleErr(brokenRewrite, w); err != nil {
			failed = w
			break
		}
	}
	if failed == nil {
		t.Fatal("broken rewrite never diverged in 200 seeds — the battery has no teeth")
	}
	// The seed alone re-runs the failure.
	if err := runOracleErr(brokenRewrite, Generate(seed)); err == nil {
		t.Fatalf("seed %d did not reproduce the forced divergence", seed)
	}
	min := Shrink(failed, brokenRewrite)
	if err := runOracleErr(brokenRewrite, min); err == nil {
		t.Fatal("shrunk workload no longer fails the broken rewrite")
	}
	if min.Ins.D.Len() > failed.Ins.D.Len() || len(min.Ins.Edits) > len(failed.Ins.Edits) {
		t.Errorf("shrinking grew the instance: %d->%d facts, %d->%d edits",
			failed.Ins.D.Len(), min.Ins.D.Len(), len(failed.Ins.Edits), len(min.Ins.Edits))
	}
	repro := min.Repro()
	if !strings.Contains(repro, fmt.Sprintf("seed=%d", seed)) {
		t.Errorf("reproduction does not carry the seed:\n%s", repro)
	}
	if min.Kind != KindDatalog && !strings.Contains(repro, "sql:") {
		t.Errorf("reproduction of a SQL workload carries no SQL text:\n%s", repro)
	}
	t.Logf("forced divergence at seed %d, minimized to:\n%s", seed, repro)
}

// runOracleErr runs a check treating ErrSkip as success.
func runOracleErr(check func(*Workload) error, w *Workload) error {
	err := check(w)
	if err != nil && errors.Is(err, ErrSkip) {
		return nil
	}
	return err
}

// TestAggregateIVMBoundary encodes the documented oracle boundary for
// aggregates (docs/oracles/ivm.md): the IVM oracle must skip them — agg.Eval
// enumerates assignments, which the maintainer does not serve, so a
// maintained leg would compare cold against cold and assert nothing — while
// the cache, parallel, and store oracles must still cover them.
func TestAggregateIVMBoundary(t *testing.T) {
	covered := 0
	for seed := int64(1); seed <= 300 && covered < 5; seed++ {
		w := Generate(seed)
		if w.Kind != KindAggregate || w.ParseErr != nil {
			continue
		}
		covered++
		if err := checkIVM(w); !errors.Is(err, ErrSkip) {
			t.Errorf("seed %d: ivm oracle did not skip an aggregate workload: %v", seed, err)
		}
		for name, check := range map[string]func(*Workload) error{
			"cache": checkCache, "parallel": checkParallel, "store": checkStore,
		} {
			if err := check(w); err != nil && errors.Is(err, ErrSkip) {
				t.Errorf("seed %d: %s oracle skipped an aggregate workload it must cover: %v", seed, name, err)
			} else if err != nil {
				t.Errorf("seed %d: %s oracle diverged on aggregate: %v", seed, name, err)
			}
		}
	}
	if covered == 0 {
		t.Fatal("no aggregate workloads in 300 seeds — generator mix broken")
	}
}

// TestGeneratedWorkloadsParse asserts the generator's own contract: every
// SQL-kind workload either parses or is rejected with an expected, typed
// error — and the mix covers all four kinds.
func TestGeneratedWorkloadsParse(t *testing.T) {
	kinds := map[Kind]int{}
	for seed := int64(1); seed <= int64(sweepWidth(t, 500)); seed++ {
		w := Generate(seed)
		kinds[w.Kind]++
		if w.Kind == KindDatalog {
			continue
		}
		if w.ParseErr != nil && !w.expectedParseErr() {
			t.Errorf("seed %d: unexpected rejection: %v\nsql: %s", seed, w.ParseErr, w.SQL)
		}
		if w.ParseErr == nil && w.Ins.Query == nil {
			t.Errorf("seed %d: parsed but no query", seed)
		}
	}
	for _, k := range []Kind{KindSelect, KindUnion, KindAggregate, KindDatalog} {
		if kinds[k] == 0 {
			t.Errorf("generator produced no %s workloads", k)
		}
	}
}

// TestAggregateDistinctRegression pins the first bug this harness caught:
// ParseAggregate rejected SELECT DISTINCT (plain Parse accepted it), so the
// generated aggregate workloads failed the parse oracle. Minimized from seed
// 30 of the initial sweep.
func TestAggregateDistinctRegression(t *testing.T) {
	w := Generate(30)
	if w.Kind != KindAggregate {
		t.Skipf("seed 30 no longer generates an aggregate workload (kind %s)", w.Kind)
	}
	if err := checkParse(w); err != nil {
		t.Fatalf("parse oracle on seed 30: %v", err)
	}
}

// FuzzMetamorphWorkload drives the whole battery from a fuzzed seed: any
// divergence or panic the fuzzer finds is a new bug with a one-integer
// reproduction.
func FuzzMetamorphWorkload(f *testing.F) {
	for _, s := range []int64{1, 2, 30, 85, 99, 106, 1234, 99999} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		w := Generate(seed)
		if err := CheckWorkload(w); err != nil {
			t.Fatalf("seed %d: %v\n\nreproduction:\n%s", seed, err, w.Repro())
		}
	})
}
