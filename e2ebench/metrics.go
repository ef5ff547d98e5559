package main

import (
	"runtime"

	"repro/internal/db"
)

// jobsOf flattens the passes' job executions.
func jobsOf(passes []pass) []jobStat {
	var out []jobStat
	for _, p := range passes {
		out = append(out, p.jobs...)
	}
	return out
}

// e2eOf computes the end-to-end metrics over a set of passes, except
// set-up time.
func e2eOf(passes []pass) map[string]metric {
	var allocMB float64
	var jobMs []float64
	for _, p := range passes {
		allocMB += p.allocMB
	}
	jobs := jobsOf(passes)
	for _, st := range jobs {
		jobMs = append(jobMs, st.jobMs)
	}
	// Every execution of a job asks the same questions, so the first pass
	// alone gives the per-seed constant.
	var questions []float64
	if len(passes) > 0 {
		for _, st := range passes[0].jobs {
			questions = append(questions, float64(st.questions))
		}
	}
	n := float64(len(jobs))
	var rates []float64
	for _, p := range passes {
		rates = append(rates, p.jobsPerS())
	}
	return map[string]metric{
		"jobs_per_s":        {quantile(rates, 0.5), "1/s"},
		"job_ms.p50":        {quantile(jobMs, 0.5), "ms"},
		"job_ms.p90":        {quantile(jobMs, 0.9), "ms"},
		"questions_per_job": {mean(questions), "count"},
		"alloc_mb_per_job":  {ratio(allocMB, n), "MB"},
	}
}

// rttOf is the time from an answer to the job's next question: for
// service-disk from the answer POST until the crowd connection sees the next
// question, in-process from the oracle's return to its next call.
func rttOf(passes []pass) map[string]metric {
	var gaps []float64
	for _, st := range jobsOf(passes) {
		gaps = append(gaps, st.gaps...)
	}
	return map[string]metric{
		"answer_rtt_ms.p50": {quantile(gaps, 0.5), "ms"},
		"answer_rtt_ms.p99": {quantile(gaps, 0.99), "ms"},
	}
}

// beyond counts the jobs slower than the p90 job time, the sample behind
// job_ms.p90; it should be at least ten.
func beyond(jobs []jobStat, p90 float64) int {
	n := 0
	for _, st := range jobs {
		if st.jobMs > p90 {
			n++
		}
	}
	return n
}

// endToEnd is the --trace 0 result: every end-to-end metric of the run.
func endToEnd(untraced []pass, setupTimes []float64) map[string]metric {
	m := e2eOf(untraced)
	m["setup_s"] = metric{quantile(setupTimes, 0.5), "s"}
	return m
}

// layerMetrics is the --trace 1 result: per-layer metrics from the traced
// passes, and the tracing overhead against the untraced passes of the same
// run. Per-job values are means over the traced executions; a layer a
// workload never calls reads 0.
func layerMetrics(untraced, traced []pass) map[string]metric {
	jobs := jobsOf(traced)
	n := float64(len(jobs))
	var sum struct {
		parseUs, crowdMs, questionsAsked                 float64
		verify, del, insert, iterations, edits           float64
		vf, va, co, cr, filled                           float64
		splits, splitsOK, splitMs, applies, applyNs      float64
		diskBytes, walRecords, walBytes, editsForDisk    float64
		witnessSets, wrongAnswers                        float64
		resultCalls, resultMs, witnessCalls, witnessMs   float64
		cacheHits, cacheLookups, maintHits, maintLookups float64
		spanMs                                           float64
	}
	self := make(map[string]float64)
	http := make(map[string][]float64)
	for _, st := range jobs {
		sum.parseUs += st.parseUs
		sum.crowdMs += st.crowdMs
		sum.questionsAsked += float64(st.serverAsked)
		sum.diskBytes += float64(st.diskBytes)
		sum.walRecords += float64(st.walRecords)
		sum.walBytes += float64(st.walBytes)
		for k, v := range st.http {
			http[k] = append(http[k], v...)
		}
		if r := st.report; r != nil {
			sum.verify += ms(r.Timings.Verify)
			sum.del += ms(r.Timings.Delete)
			sum.insert += ms(r.Timings.Insert)
			sum.iterations += float64(r.Iterations)
			sum.edits += float64(len(r.Edits))
			sum.vf += float64(r.Crowd.VerifyFactQs)
			sum.va += float64(r.Crowd.VerifyAnswerQs)
			sum.co += float64(r.Crowd.CompleteQs)
			sum.cr += float64(r.Crowd.CompleteResultQs)
			sum.filled += float64(r.Crowd.VariablesFilled)
		}
		tr := st.trace
		if tr == nil {
			continue
		}
		sum.spanMs += tr.spanMs
		for k, v := range tr.self {
			self[k] += v
		}
		sum.splits += float64(tr.splits)
		sum.splitsOK += float64(tr.splitsOK)
		sum.splitMs += tr.splitMs
		sum.applies += float64(tr.applies)
		sum.applyNs += float64(tr.applyNs)
		sum.witnessSets += tr.delta["clean.witness_sets.sum"]
		sum.wrongAnswers += tr.delta["clean.witness_sets.count"]
		sum.resultCalls += float64(tr.sys.resultCalls)
		sum.resultMs += tr.sys.resultMs
		sum.witnessCalls += float64(tr.sys.witnessCalls)
		sum.witnessMs += tr.sys.witnessMs
		sum.cacheHits += float64(tr.sys.cacheHits)
		sum.cacheLookups += float64(tr.sys.cacheHits + tr.sys.cacheMisses)
		sum.maintHits += float64(tr.sys.maintHits)
		sum.maintLookups += float64(tr.sys.maintHits + tr.sys.maintMisses)
		if st.report != nil {
			sum.editsForDisk += float64(len(st.report.Edits))
		}
	}
	per := func(v float64) float64 { return ratio(v, n) }
	untracedRate := e2eOf(untraced)["jobs_per_s"].Value
	tracedRate := e2eOf(traced)["jobs_per_s"].Value
	m := map[string]metric{
		"sqlfe.parse_us":                        {per(sum.parseUs), "us"},
		"core.verify_ms":                        {per(sum.verify), "ms"},
		"core.delete_ms":                        {per(sum.del), "ms"},
		"core.insert_ms":                        {per(sum.insert), "ms"},
		"core.iterations":                       {per(sum.iterations), "count"},
		"core.edits":                            {per(sum.edits), "count"},
		"eval.result.calls":                     {per(sum.resultCalls), "count"},
		"eval.result.ms":                        {per(sum.resultMs), "ms"},
		"eval.witnesses.calls":                  {per(sum.witnessCalls), "count"},
		"eval.witnesses.ms":                     {per(sum.witnessMs), "ms"},
		"eval.cache.hit_ratio":                  {ratio(sum.cacheHits, sum.cacheLookups), "ratio"},
		"eval.cache.lookups":                    {per(sum.cacheLookups), "count"},
		"eval.maintained.hit_ratio":             {ratio(sum.maintHits, sum.maintLookups), "ratio"},
		"eval.maintained.lookups":               {per(sum.maintLookups), "count"},
		"hitting.witness_sets_per_wrong_answer": {ratio(sum.witnessSets, sum.wrongAnswers), "count"},
		"split.calls":                           {per(sum.splits), "count"},
		"split.ms":                              {per(sum.splitMs), "ms"},
		"split.success_ratio":                   {ratio(sum.splitsOK, sum.splits), "ratio"},
		"crowd.verify_fact":                     {per(sum.vf), "count"},
		"crowd.verify_answer":                   {per(sum.va), "count"},
		"crowd.complete":                        {per(sum.co), "count"},
		"crowd.complete_result":                 {per(sum.cr), "count"},
		"crowd.variables_filled":                {per(sum.filled), "count"},
		"crowd.ms":                              {per(sum.crowdMs), "ms"},
		"db.apply.calls":                        {per(sum.applies), "count"},
		"db.apply.us":                           {ratio(sum.applyNs/1e3, sum.applies), "us"},
		"db.disk_bytes_per_edit":                {ratio(sum.diskBytes, sum.editsForDisk), "bytes"},
		"wal.records_per_job":                   {per(sum.walRecords), "count"},
		"wal.bytes_per_job":                     {per(sum.walBytes), "bytes"},
		"http.submit_ms.p50":                    {quantile(http[spanSubmit], 0.5), "ms"},
		"http.questions_get_ms.p50":             {quantile(http[spanQuestions], 0.5), "ms"},
		"http.answer_post_ms.p50":               {quantile(http[spanAnswer], 0.5), "ms"},
		"http.status_get_ms.p50":                {quantile(http[spanStatus], 0.5), "ms"},
		"http.status_get_ms.p99":                {quantile(http[spanStatus], 0.99), "ms"},
		"server.questions.asked":                {per(sum.questionsAsked), "count"},
		"trace.job_ms":                          {per(sum.spanMs), "ms"},
		"trace.jobs_per_s.untraced":             {untracedRate, "1/s"},
		"trace.jobs_per_s.traced":               {tracedRate, "1/s"},
		"trace.overhead_pct":                    {100 * (ratio(untracedRate, tracedRate) - 1), "%"},
	}
	for _, layer := range layers {
		m[layer+".self_ms"] = metric{per(self[layer]), "ms"}
	}
	for k, v := range rttOf(untraced) {
		m[k] = v
	}
	return m
}

// layers are the layers exclusive time is charged to. bench is the harness
// between parse and Clean in-process; in service-disk, core holds the
// server's time outside crowd waits, store writes and splits.
var layers = []string{"bench", "sqlfe", "core", "eval", "crowd", "split", "db", "http"}

// describe fills the run metadata.
func describe(meta map[string]interface{}, c config, in *inputs, untraced, traced []pass, setupTimes []float64, warmS float64) {
	meta["workload"] = c.workload
	meta["seed"] = c.seed
	meta["run_seconds"] = c.seconds
	meta["trace"] = c.trace
	meta["passes_untraced"] = len(untraced)
	meta["passes_traced"] = len(traced)
	meta["pool_jobs"] = in.jobs
	meta["jobs_measured"] = len(jobsOf(untraced)) + len(jobsOf(traced))
	meta["setup_repetitions"] = len(setupTimes)
	meta["setup_s"] = summarize(setupTimes)
	meta["warmup_s"] = warmS
	meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	meta["nproc"] = runtime.NumCPU()
	meta["go_version"] = runtime.Version()
	meta["facts_dg"] = in.dg.Len()
	meta["ivm"] = true
	meta["queries"] = c.shape.queries
	meta["errors_per_job"] = c.shape.errors
	if c.workload == serviceDisk {
		meta["store"] = map[string]interface{}{"backend": "disk", "shards": db.DefaultShards}
		meta["poll_ms"] = map[string]float64{"crowd": ms(crowdPoll), "status": ms(statusPoll)}
		meta["client_connections"] = 2
	} else {
		meta["store"] = map[string]interface{}{"backend": "mem", "shards": 1}
	}
	// Spread over passes: each pass's value, summarized.
	perPass := make(map[string][]float64)
	for _, p := range untraced {
		for k, v := range e2eOf([]pass{p}) {
			perPass[k] = append(perPass[k], v.Value)
		}
	}
	spread := make(map[string]summary)
	for k, v := range perPass {
		spread[k] = summarize(v)
	}
	meta["per_pass"] = spread
	byQuery := make(map[string][]float64)
	for _, st := range jobsOf(untraced) {
		byQuery[st.job.query] = append(byQuery[st.job.query], st.jobMs)
	}
	medians := make(map[string]float64)
	for q, v := range byQuery {
		medians[q] = quantile(v, 0.5)
	}
	meta["job_ms_p50_by_query"] = medians
	meta["answer_rtt"] = rttOf(untraced)
}
