package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// jobStat is what one execution of a job measured.
type jobStat struct {
	job *job
	run int // execution sequence number within the process

	wallMs    float64   // harness wall time: parse+Clean in-process, submit→terminal for service-disk
	jobMs     float64   // system time: wallMs minus simulated-crowd time in-process
	crowdMs   float64   // time inside simulated-crowd calls
	parseUs   float64   // sqlfe.Parse (in-process only)
	gaps      []float64 // ms from an answer to the job's next question
	questions int       // closed questions plus variables filled
	report    *core.Report

	// service-disk only
	requests, failedRequests int
	diskBytes                int64 // growth of the store's on-disk footprint
	walRecords, walBytes     int   // journal growth
	serverAsked              int64 // server.questions.asked delta
	http                     map[string][]float64

	trace    *jobTrace
	failures []string
}

func (s *jobStat) fail(format string, args ...interface{}) {
	s.failures = append(s.failures, fmt.Sprintf(format, args...))
}

// jobTrace is what a traced execution adds.
type jobTrace struct {
	spanMs   float64            // the job's root span
	self     map[string]float64 // exclusive ms per layer; sums to spanMs
	delta    map[string]float64 // obs metric deltas over the job
	sys      evalProbe          // evaluator work outside simulated-crowd calls
	splits   int
	splitsOK int
	splitMs  float64
	crowdMs  float64 // crowd.call spans: the cleaner waiting on the crowd
	applies  int
	applyNs  int64
}

// traceOf summarizes a traced job: exclusive time per layer from its spans,
// with the root span's own time charged to rootLayer and evaluator time
// outside crowd, split and store spans carved out of core, plus the job's
// obs metric deltas between the two marks.
func traceOf(t *tracer, seq int, sc *jobScope, rootLayer string, before, after mark) *jobTrace {
	spans := t.spansOf(seq)
	var root span
	for _, s := range spans {
		if s.Parent == 0 && s.Name == spanJob {
			root = s
		}
	}
	jt := &jobTrace{spanMs: float64(root.End-root.Start) / 1e6}
	jt.self = selfTimes(spans, root, rootLayer)
	for _, s := range spans {
		switch s.Name {
		case spanSplit:
			jt.splitMs += float64(s.End-s.Start) / 1e6
		case spanCrowd:
			jt.crowdMs += float64(s.End-s.Start) / 1e6
		}
	}

	sc.mu.Lock()
	jt.sys = after.eval.sub(before.eval).sub(sc.evalIn["crowd"])
	own := jt.sys.sub(sc.evalIn["split"]).sub(sc.evalIn["db"])
	jt.splits, jt.splitsOK, jt.applies, jt.applyNs = sc.splits, sc.splitsOK, sc.applies, sc.applyNs
	sc.mu.Unlock()
	jt.self["eval"] = own.resultMs + own.witnessMs
	jt.self["core"] -= jt.self["eval"]

	jt.delta = make(map[string]float64)
	for k, v := range after.snap.Counters {
		if d := v - before.snap.Counters[k]; d != 0 {
			jt.delta[k] = float64(d)
		}
	}
	for k, h := range after.snap.Histograms {
		b := before.snap.Histograms[k]
		if h.Count != b.Count {
			jt.delta[k+".count"] = float64(h.Count - b.Count)
			jt.delta[k+".sum"] = h.Sum - b.Sum
		}
	}
	return jt
}

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is a metric's spread over the passes of a run.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	return summary{Median: quantile(xs, 0.5), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}
