package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
)

func writeJournal(t *testing.T, dir, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "journal.log"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptErrorTyped: corruption anywhere in the journal surfaces as a
// *CorruptError matching ErrCorrupt, carrying the offending line number.
func TestCorruptErrorTyped(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir,
		`{"op":"+","rel":"Teams","args":["GER","EU"]}`+"\n"+
			`{"op":"+","rel":"Te`+"\n"+ // truncated mid-file record
			`{"op":"+","rel":"Teams","args":["ESP","EU"]}`+"\n")
	_, err := Open(dir, dataset.WorldCupSchema())
	if err == nil {
		t.Fatal("mid-file truncation should fail replay")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v (%T) does not match ErrCorrupt", err, err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v (%T) is not a *CorruptError", err, err)
	}
	if ce.Line != 2 {
		t.Errorf("CorruptError.Line = %d, want 2", ce.Line)
	}
}

// TestDecodableBadRecordInTailIsCorruption is the regression for the silent
// tail-drop bug: a record that decodes as complete JSON but carries an
// invalid payload cannot be the prefix left by a torn write (no prefix of a
// JSON object is valid JSON), so it must fail replay even as the last line.
// It used to be misclassified as a torn tail and silently discarded.
func TestDecodableBadRecordInTailIsCorruption(t *testing.T) {
	cases := []struct {
		name string
		tail string
	}{
		{"bad-op", `{"op":"?","rel":"Teams","args":["GER","EU"]}`},
		{"wrong-op-type", `{"op":5,"rel":"Teams","args":["GER","EU"]}`},
		{"wrong-args-type", `{"op":"+","rel":"Teams","args":"GER"}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			writeJournal(t, dir,
				`{"op":"+","rel":"Teams","args":["ESP","EU"]}`+"\n"+c.tail+"\n")
			_, err := Open(dir, dataset.WorldCupSchema())
			if err == nil {
				t.Fatal("decodable bad record in tail position silently dropped")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not match ErrCorrupt", err)
			}
		})
	}
}

// TestSyntacticTornTailStillTolerated: the flip side — a strict JSON-syntax
// failure on the last line remains a tolerated torn tail.
func TestSyntacticTornTailStillTolerated(t *testing.T) {
	for _, tail := range []string{
		`{"op":"+","rel":"Te`,
		`{"op":"+"`,
		`{`,
		`garbage`,
	} {
		dir := t.TempDir()
		writeJournal(t, dir,
			`{"op":"+","rel":"Teams","args":["GER","EU"]}`+"\n"+tail)
		st, err := Open(dir, dataset.WorldCupSchema())
		if err != nil {
			t.Fatalf("torn tail %q should be tolerated: %v", tail, err)
		}
		if st.Target().Len() != 1 {
			t.Errorf("torn tail %q: facts = %d, want 1", tail, st.Target().Len())
		}
		st.Close()
	}
}

// TestJobLogBadEventInTailIsCorruption: same fix for the job journal — an
// intact event with an unknown "ev" in last position is corruption, not a
// torn tail.
func TestJobLogBadEventInTailIsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	content := `{"ev":"start","job":1,"query":"(x) :- R(x)"}` + "\n" +
		`{"ev":"bogus","job":1}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenJobLog(path)
	if err == nil {
		t.Fatal("bad job event in tail position silently dropped")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v does not match ErrCorrupt", err)
	}
}
