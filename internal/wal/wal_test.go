package wal

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
)

func TestOpenEmptyStore(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, dataset.WorldCupSchema())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	if st.Target().Len() != 0 {
		t.Errorf("fresh store not empty")
	}
}

func TestApplyAndReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, dataset.WorldCupSchema())
	if err != nil {
		t.Fatal(err)
	}
	edits := []db.Edit{
		db.Insertion(db.NewFact("Teams", "GER", "EU")),
		db.Insertion(db.NewFact("Teams", "ITA", "EU")),
		db.Deletion(db.NewFact("Teams", "GER", "EU")),
		db.Insertion(db.NewFact("Goals", "Pirlo", "09.07.06")),
	}
	for _, e := range edits {
		if _, err := st.Apply(e); err != nil {
			t.Fatalf("Apply(%v): %v", e, err)
		}
	}
	// Idempotent edit: not journaled, not applied.
	if ch, err := st.Apply(db.Insertion(db.NewFact("Teams", "ITA", "EU"))); err != nil || ch {
		t.Errorf("idempotent Apply = %v, %v", ch, err)
	}
	want := st.Target().Facts()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, dataset.WorldCupSchema())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	got := st2.Target().Facts()
	if len(got) != len(want) {
		t.Fatalf("replayed %d facts, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("fact %d: %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCompactAndReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, dataset.WorldCupSchema())
	if err != nil {
		t.Fatal(err)
	}
	st.Apply(db.Insertion(db.NewFact("Teams", "GER", "EU")))
	st.Apply(db.Insertion(db.NewFact("Teams", "ESP", "EU")))
	if err := st.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Journal must be empty after compaction.
	info, err := os.Stat(filepath.Join(dir, "journal.log"))
	if err != nil || info.Size() != 0 {
		t.Errorf("journal size after Compact = %v, %v; want 0", info, err)
	}
	// Post-compaction edits land in the journal.
	st.Apply(db.Insertion(db.NewFact("Teams", "ITA", "EU")))
	st.Close()

	st2, err := Open(dir, dataset.WorldCupSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Target().Len() != 3 {
		t.Errorf("reopened store has %d facts, want 3", st2.Target().Len())
	}
	if !st2.Target().Has(db.NewFact("Teams", "ITA", "EU")) {
		t.Errorf("post-compaction edit lost")
	}
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir, dataset.WorldCupSchema())
	st.Apply(db.Insertion(db.NewFact("Teams", "GER", "EU")))
	st.Close()
	// Simulate a crash mid-append: a torn, non-JSON final line.
	f, err := os.OpenFile(filepath.Join(dir, "journal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"+","rel":"Te`)
	f.Close()

	st2, err := Open(dir, dataset.WorldCupSchema())
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	defer st2.Close()
	if st2.Target().Len() != 1 {
		t.Errorf("facts = %d, want 1", st2.Target().Len())
	}
}

func TestCorruptMiddleRejected(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "journal.log"),
		[]byte("garbage not json\n{\"op\":\"+\",\"rel\":\"Teams\",\"args\":[\"GER\",\"EU\"]}\n"), 0o644)
	if _, err := Open(dir, dataset.WorldCupSchema()); err == nil {
		t.Errorf("corrupt journal middle should be rejected")
	}
}

func TestBadOpRejected(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "journal.log"),
		[]byte("{\"op\":\"?\",\"rel\":\"Teams\",\"args\":[\"GER\",\"EU\"]}\n{\"op\":\"+\",\"rel\":\"Teams\",\"args\":[\"ESP\",\"EU\"]}\n"), 0o644)
	if _, err := Open(dir, dataset.WorldCupSchema()); err == nil {
		t.Errorf("bad op followed by more records should be rejected")
	}
}

func TestUnknownRelationInJournal(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "journal.log"),
		[]byte("{\"op\":\"+\",\"rel\":\"Bogus\",\"args\":[\"x\"]}\n"), 0o644)
	if _, err := Open(dir, dataset.WorldCupSchema()); err == nil {
		t.Errorf("journal referencing unknown relation should fail")
	}
}

// TestDurableCleaningSession wires the store's EditHook into a cleaning run:
// after a restart, the repaired database is recovered from disk.
func TestDurableCleaningSession(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, dataset.WorldCupSchema())
	if err != nil {
		t.Fatal(err)
	}
	// Seed the store with the dirty Figure 1 database.
	d0, dg := dataset.Figure1()
	for _, f := range d0.Facts() {
		if _, err := st.Apply(db.Insertion(f)); err != nil {
			t.Fatal(err)
		}
	}
	cl := core.New(st.Target(), crowd.NewPerfect(dg), core.Config{
		RNG:    rand.New(rand.NewSource(2)),
		OnEdit: st.EditHook(),
	})
	q := dataset.IntroQ1()
	if _, err := cl.Clean(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	want := eval.Result(q, st.Target())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": recover and compare.
	st2, err := Open(dir, dataset.WorldCupSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got := eval.Result(q, st2.Target())
	if len(got) != len(want) {
		t.Fatalf("recovered result %v, want %v", got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("recovered result %v, want %v", got, want)
		}
	}
	// Not necessarily equal to DG (cleaning stops at Q(D) = Q(DG)), but the
	// recovered database must match the pre-restart one exactly.
	if db.Distance(st2.Target(), cl.Store()) != 0 {
		t.Errorf("recovered database differs from the cleaned one")
	}
}

// TestSnapshotQuotedValues: values with commas/newlines survive the CSV
// snapshot round trip.
func TestSnapshotQuotedValues(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir, dataset.WorldCupSchema())
	weird := db.NewFact("Teams", "has,comma", "has\nnewline")
	st.Apply(db.Insertion(weird))
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, err := Open(dir, dataset.WorldCupSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !st2.Target().Has(weird) {
		t.Errorf("weird value lost in snapshot round trip")
	}
}

func TestOpenBadDir(t *testing.T) {
	// A file where the directory should be.
	dir := t.TempDir()
	path := filepath.Join(dir, "occupied")
	os.WriteFile(path, []byte("file"), 0o644)
	if _, err := Open(path, dataset.WorldCupSchema()); err == nil {
		t.Errorf("Open over a plain file should fail")
	}
	if _, err := Open(strings.Repeat("x", 5)+"\x00bad", dataset.WorldCupSchema()); err == nil {
		t.Errorf("Open with invalid path should fail")
	}
}
