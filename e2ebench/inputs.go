package main

import (
	"fmt"
	"math/rand"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/noise"
	"repro/internal/sqlfe"
)

// soccerSQL is §7.2's Soccer queries Q1–Q5 written as the SQL a user
// submits. The self-test checks each against its Datalog phrasing in
// internal/dataset.
var soccerSQL = []struct{ name, sql string }{
	{"Q1", `SELECT g1.loser FROM Games g1, Games g2, Teams t
		WHERE g1.loser = g2.loser AND t.name = g1.loser
		AND g1.stage = 'Final' AND g2.stage = 'Final'
		AND t.continent = 'EU' AND g1.date <> g2.date`},
	{"Q2", `SELECT g1.winner, g1.loser FROM Games g1, Games g2, Teams t1, Teams t2
		WHERE g1.winner = g2.winner AND g1.loser = g2.loser
		AND t1.name = g1.winner AND t2.name = g1.loser
		AND t1.continent = t2.continent AND g1.date <> g2.date`},
	{"Q3", `SELECT g1.winner FROM Games g1, Games g2, Teams t
		WHERE g1.winner = g2.winner AND g2.stage = 'R16'
		AND t.name = g1.winner AND t.continent <> 'AS' AND g1.date <> g2.date`},
	{"Q4", `SELECT g1.loser FROM Games g1, Games g2
		WHERE g1.loser = g2.loser AND g1.result = g2.result AND g1.date <> g2.date`},
	{"Q5", `SELECT g1.winner FROM Games g1, Games g2, Teams t
		WHERE g1.winner = g2.winner AND t.name = g2.loser
		AND t.continent = 'SA' AND g1.date <> g2.date`},
}

// noiseKind selects how a job's dirty database departs from DG.
type noiseKind int

const (
	noiseWrong   noiseKind = iota // wrong answers only (noise.InjectWrong)
	noiseMissing                  // missing answers only (noise.InjectMissing)
	noiseMixed                    // both
)

// shape is a workload's job pool: rounds repetitions of the query mix, so
// every seed runs the same mix.
type shape struct {
	queries  []string  // one round of the mix; a query may repeat
	rounds   int       // rounds in one pass
	perBatch int       // jobs sharing one store: 1, or len(queries) for service-disk
	noise    noiseKind // injected errors
	errors   int       // wrong and/or missing answers injected per job
}

// job is one cleaning job: the SQL text the user submits plus everything the
// correctness gate needs, all made before timing starts.
type job struct {
	id             int
	query          string // Q1..Q5
	sql            string
	q              *cq.Query  // sql parsed at set-up, used only by noise and the gate
	truth          []db.Tuple // Q(DG), computed once without the cache
	seed           int64      // the cleaner's RNG seed
	wrong, missing int        // errors actually injected
}

// batch is the unit that owns one dirty database: a single job in-process,
// several jobs against one freshly materialized store for service-disk.
type batch struct {
	dirty *db.Database
	jobs  []*job
}

// inputs is everything a run works on, generated from the workload seed.
type inputs struct {
	dg      *db.Database
	batches []*batch
	jobs    int
}

// parsedSQL parses the Soccer SQL queries over the Soccer schema.
func parsedSQL() (map[string]*cq.Query, map[string]string, error) {
	s := dataset.SoccerSchema()
	qs := make(map[string]*cq.Query, len(soccerSQL))
	texts := make(map[string]string, len(soccerSQL))
	for _, e := range soccerSQL {
		q, err := sqlfe.Parse(s, e.sql)
		if err != nil {
			return nil, nil, fmt.Errorf("parsing %s: %w", e.name, err)
		}
		qs[e.name] = q
		texts[e.name] = e.sql
	}
	return qs, texts, nil
}

// generate builds the ground truth and the job pool for one seed: the pool's
// query order is a seeded shuffle of the fixed mix, and each batch's dirty
// database is DG with seeded noise for its jobs' queries.
func generate(sh shape, seed int64) (*inputs, error) {
	qs, texts, err := parsedSQL()
	if err != nil {
		return nil, err
	}
	dg := dataset.Soccer(dataset.SoccerOpts{})
	rng := rand.New(rand.NewSource(seed))
	// Each round is a seeded shuffle of the query set, so a service-disk
	// batch (one round) never holds the same query twice: one job would
	// clean the other's errors away.
	var order []string
	for i := 0; i < sh.rounds; i++ {
		round := append([]string(nil), sh.queries...)
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		order = append(order, round...)
	}

	in := &inputs{dg: dg}
	truths := make(map[string][]db.Tuple)
	for start := 0; start < len(order); start += sh.perBatch {
		end := start + sh.perBatch
		if end > len(order) {
			end = len(order)
		}
		b := &batch{dirty: dg.Clone()}
		for _, name := range order[start:end] {
			j := &job{id: in.jobs + 1, query: name, sql: texts[name], q: qs[name], seed: rng.Int63()}
			if truths[name] == nil {
				truths[name] = eval.Result(j.q, dg, eval.NoCache())
			}
			j.truth = truths[name]
			switch sh.noise {
			case noiseWrong:
				j.wrong = noise.InjectWrong(b.dirty, dg, j.q, sh.errors, rng)
			case noiseMissing:
				j.missing = noise.InjectMissing(b.dirty, dg, j.q, sh.errors, rng)
			case noiseMixed:
				j.wrong = noise.InjectWrong(b.dirty, dg, j.q, sh.errors, rng)
				j.missing = noise.InjectMissing(b.dirty, dg, j.q, sh.errors, rng)
			}
			if j.wrong+j.missing == 0 {
				return nil, fmt.Errorf("seed %d: no noise injected for job %d (%s)", seed, j.id, name)
			}
			b.jobs = append(b.jobs, j)
			in.jobs++
		}
		// Injection evaluated over the dirty database; its cache sections
		// would only crowd DG's out of the evaluator's bounded cache.
		eval.InvalidateDB(b.dirty.ID())
		in.batches = append(in.batches, b)
	}
	return in, nil
}
