package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/schema"
)

func fuzzSchema() *schema.Schema {
	return schema.New(
		schema.Relation{Name: "R", Attrs: []string{"a", "b"}},
		schema.Relation{Name: "S", Attrs: []string{"a"}},
	)
}

// FuzzWALReplay feeds arbitrary bytes to the journal replayer. Invariants:
// Open never panics; it either succeeds or returns an error; a success with a
// replayed journal must be re-openable to the same database (replay is
// deterministic and its effects are re-journalable); and any failure on
// journal content matches ErrCorrupt or reports an I/O condition, never a
// silent half-replay.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"op":"+","rel":"R","args":["a","b"]}` + "\n"))
	f.Add([]byte(`{"op":"+","rel":"R","args":["a","b"]}` + "\n" + `{"op":"-","rel":"R","args":["a","b"]}` + "\n"))
	f.Add([]byte(`{"op":"+","rel":"R","args":["a","b"]}` + "\n" + `{"op":"+","rel":"R","ar`))
	f.Add([]byte(`{"op":"?","rel":"R","args":["a","b"]}` + "\n"))
	f.Add([]byte(`{"op":"+","rel":"Bogus","args":["x"]}` + "\n"))
	f.Add([]byte(`{"op":"+","rel":"R","args":["x"]}` + "\n")) // arity mismatch
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`garbage`))
	f.Fuzz(func(t *testing.T, journal []byte) {
		if strings.Contains(string(journal), "\x00") {
			// NUL bytes cannot be journaled by the writer and only exercise
			// the scanner; still must not panic.
			dir := t.TempDir()
			os.WriteFile(filepath.Join(dir, "journal.log"), journal, 0o644)
			st, err := Open(dir, fuzzSchema())
			if err == nil {
				st.Close()
			}
			return
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.log"), journal, 0o644); err != nil {
			t.Skip()
		}
		st, err := Open(dir, fuzzSchema())
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !strings.Contains(err.Error(), "wal:") {
				t.Fatalf("unclassified replay error: %v", err)
			}
			return
		}
		first := st.Target().Facts()
		if err := st.Close(); err != nil {
			t.Fatalf("close after replay: %v", err)
		}
		// Reopening replays the same journal; the database must be identical.
		st2, err := Open(dir, fuzzSchema())
		if err != nil {
			t.Fatalf("reopen after successful replay failed: %v", err)
		}
		defer st2.Close()
		second := st2.Target().Facts()
		if len(first) != len(second) {
			t.Fatalf("replay not deterministic: %d vs %d facts", len(first), len(second))
		}
		for i := range first {
			if first[i].Key() != second[i].Key() {
				t.Fatalf("replay not deterministic at fact %d: %v vs %v", i, first[i], second[i])
			}
		}
	})
}

// FuzzJobLogReplay does the same for the job journal: OpenJobLog must never
// panic, failures must be typed, and a successful open must be stable across
// a reopen (the returned records are identical).
func FuzzJobLogReplay(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"ev":"start","job":1,"query":"(x) :- R(x)"}` + "\n"))
	f.Add([]byte(`{"ev":"start","job":1,"query":"q"}` + "\n" + `{"ev":"answer","job":1,"key":"k","answer":{"none":true}}` + "\n"))
	f.Add([]byte(`{"ev":"start","job":1,"query":"q"}` + "\n" + `{"ev":"end","job":1,"state":"done"}` + "\n"))
	f.Add([]byte(`{"ev":"answer","job":9,"key":"k","answer":{}}` + "\n"))
	f.Add([]byte(`{"ev":"seq","job":7}` + "\n"))
	f.Add([]byte(`{"ev":"start","job":1,"qu`))
	f.Fuzz(func(t *testing.T, journal []byte) {
		path := filepath.Join(t.TempDir(), "jobs.log")
		if err := os.WriteFile(path, journal, 0o644); err != nil {
			t.Skip()
		}
		l, recs, err := OpenJobLog(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !strings.Contains(err.Error(), "wal:") {
				t.Fatalf("unclassified job log error: %v", err)
			}
			return
		}
		l.Close()
		l2, recs2, err := OpenJobLog(path)
		if err != nil {
			t.Fatalf("reopen after successful open failed: %v", err)
		}
		defer l2.Close()
		if len(recs) != len(recs2) {
			t.Fatalf("job log replay not deterministic: %d vs %d records", len(recs), len(recs2))
		}
		for i := range recs {
			if recs[i].ID != recs2[i].ID || recs[i].Done != recs2[i].Done ||
				recs[i].State != recs2[i].State || recs[i].Query != recs2[i].Query ||
				len(recs[i].Answers) != len(recs2[i].Answers) {
				t.Fatalf("job record %d differs across reopen: %+v vs %+v", i, recs[i], recs2[i])
			}
		}
	})
}

// TestWALReplayEquivalence: a journal written by the Store itself replays to
// exactly the database produced by applying the same edits directly — the
// no-crash differential baseline the check harness extends with interrupted
// runs.
func TestWALReplayEquivalence(t *testing.T) {
	s := fuzzSchema()
	dir := t.TempDir()
	st, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	direct := db.New(s)
	edits := []db.Edit{
		db.Insertion(db.NewFact("R", "a", "b")),
		db.Insertion(db.NewFact("R", "a", "c")),
		db.Deletion(db.NewFact("R", "a", "b")),
		db.Insertion(db.NewFact("S", "a")),
		db.Deletion(db.NewFact("S", "zzz")),     // no-op: not journaled
		db.Insertion(db.NewFact("R", "a", "c")), // no-op: duplicate
	}
	for _, e := range edits {
		if _, err := st.Apply(e); err != nil {
			t.Fatal(err)
		}
		if _, err := direct.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !db.Equal(st2.Target(), direct) {
		t.Fatalf("replayed database differs from direct application:\nreplayed: %v\ndirect:   %v",
			st2.Target().Facts(), direct.Facts())
	}
}
