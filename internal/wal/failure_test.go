package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/db"
)

// failWriter refuses every write, standing in for a full or yanked disk.
type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, fmt.Errorf("disk gone") }

// hugeFact is large enough to overflow the journal's write buffer, forcing
// the append to hit the underlying writer immediately.
func hugeFact() db.Fact {
	return db.NewFact("Teams", strings.Repeat("x", 1<<16), "EU")
}

// TestAppendErrorSticky: once a journal append fails, the store must stop
// accepting edits — silently running ahead in memory would let a restart
// lose acknowledged repairs.
func TestAppendErrorSticky(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, dataset.WorldCupSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer st.journal.Close()
	st.w.Reset(failWriter{})

	if _, err := st.Apply(db.Insertion(hugeFact())); err == nil {
		t.Fatal("Apply over a dead journal succeeded")
	}
	first := st.AppendErr()
	if first == nil {
		t.Fatal("append failure not recorded")
	}
	// Later applies fail fast with the first error, before touching the
	// database.
	if _, err := st.Apply(db.Insertion(db.NewFact("Teams", "ITA", "EU"))); err != first {
		t.Errorf("second Apply error = %v, want sticky %v", err, first)
	}
	if st.Target().Has(db.NewFact("Teams", "ITA", "EU")) {
		t.Errorf("poisoned store still applied the edit in memory")
	}
	if err := st.Sync(); err != first {
		t.Errorf("Sync error = %v, want sticky %v", err, first)
	}
}

// TestEditHookErrorSurfaces: the fire-and-forget EditHook cannot return its
// error, so a failure there must surface from the next Apply/Sync instead of
// vanishing.
func TestEditHookErrorSurfaces(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, dataset.WorldCupSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer st.journal.Close()
	st.w.Reset(failWriter{})

	st.EditHook()(db.Insertion(hugeFact()))
	if st.AppendErr() == nil {
		t.Fatal("EditHook swallowed the append failure")
	}
	if err := st.Sync(); err == nil {
		t.Errorf("Sync succeeded after a failed hook append")
	}
	if _, err := st.Apply(db.Insertion(db.NewFact("Teams", "ITA", "EU"))); err == nil {
		t.Errorf("Apply succeeded after a failed hook append")
	}
}

// TestCrashAtEveryPrefix is the torn-write property test: for a journal
// truncated at every possible byte offset — any crash point during an append
// — reopening must recover exactly the edits whose lines survived intact and
// treat at most one trailing partial line as a torn tail. No offset may
// produce an error or a state outside the clean-prefix family.
func TestCrashAtEveryPrefix(t *testing.T) {
	edits := []db.Edit{
		db.Insertion(db.NewFact("Teams", "GER", "EU")),
		db.Insertion(db.NewFact("Teams", "ITA", "EU")),
		db.Deletion(db.NewFact("Teams", "GER", "EU")),
		db.Insertion(db.NewFact("Goals", "Pirlo", "09.07.06")),
		db.Insertion(db.NewFact("Teams", "ESP", "EU")),
	}
	// Produce the journal bytes through the store itself.
	src := t.TempDir()
	st, err := Open(src, dataset.WorldCupSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edits {
		if _, err := st.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(src, journalFile))
	if err != nil {
		t.Fatal(err)
	}

	// Expected database after each count of surviving whole lines.
	states := make([]*db.Database, len(edits)+1)
	states[0] = db.New(dataset.WorldCupSchema())
	cur := db.New(dataset.WorldCupSchema())
	for i, e := range edits {
		if _, err := cur.Apply(e); err != nil {
			t.Fatal(err)
		}
		states[i+1] = cur.Clone()
	}

	dir := t.TempDir()
	for cut := 0; cut <= len(journal); cut++ {
		prefix := journal[:cut]
		whole := 0
		for _, b := range prefix {
			if b == '\n' {
				whole++
			}
		}
		sub := filepath.Join(dir, fmt.Sprintf("cut%d", cut))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, journalFile), prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(sub, dataset.WorldCupSchema())
		if err != nil {
			t.Fatalf("cut at byte %d: Open failed: %v", cut, err)
		}
		// A cut just before a newline leaves the final record complete except
		// for its line terminator; recovering it too is a (one longer) clean
		// prefix, not corruption.
		ok := db.Distance(st.Target(), states[whole]) == 0
		if !ok && cut < len(journal) && journal[cut] == '\n' {
			ok = db.Distance(st.Target(), states[whole+1]) == 0
		}
		if !ok {
			t.Fatalf("cut at byte %d: recovered state is not a clean %d- or %d-edit prefix", cut, whole, whole+1)
		}
		st.Close()
	}
}
