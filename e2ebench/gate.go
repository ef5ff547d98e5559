package main

import (
	"fmt"

	"repro/internal/db"
	"repro/internal/eval"
)

// gate checks that a finished job really cleaned its input: Q(D) equals
// Q(DG) when evaluated without the evaluation cache, and every applied edit
// moved D toward DG (Prop 3.3: inserts are in DG, deletes are not). It
// returns one message per violation.
func gate(j *job, d db.Reader, edits []db.Edit, dg *db.Database) []string {
	var out []string
	got := eval.Result(j.q, d, eval.NoCache())
	if !sameTuples(got, j.truth) {
		out = append(out, fmt.Sprintf("job %d (%s): Q(D) has %d answers, Q(DG) has %d, or they differ",
			j.id, j.query, len(got), len(j.truth)))
	}
	for _, e := range edits {
		if in := dg.Has(e.Fact); in != (e.Op == db.Insert) {
			out = append(out, fmt.Sprintf("job %d (%s): edit %s violates Prop 3.3", j.id, j.query, e))
		}
	}
	return out
}

func sameTuples(a, b []db.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
