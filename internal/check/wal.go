package check

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/db"
	"repro/internal/wal"
)

// CheckWALReplay replays the instance's edit script through a WAL store and
// compares every recovery path against direct edit application:
//
//   - an uninterrupted journaled run reopens to exactly the database that
//     direct application produces
//   - truncating the journal at any byte (a simulated crash mid-write)
//     still opens, and the recovered state equals direct application of
//     some prefix of the journaled edits — never a mix, never an invented
//     fact
//   - replacing a complete mid-journal record with a structurally invalid
//     one surfaces wal.ErrCorrupt rather than silently dropping data
func CheckWALReplay(ins *Instance) error {
	dir, err := os.MkdirTemp("", "check-wal-*")
	if err != nil {
		return fmt.Errorf("wal: temp dir: %w", err)
	}
	defer os.RemoveAll(dir)

	st, err := wal.Open(dir, ins.Schema)
	if err != nil {
		return fmt.Errorf("wal: open: %w", err)
	}
	// Seed the store with D's facts, then apply the edit script; mirror
	// everything on a plain database. Prefix states are recorded after
	// every journaled (database-changing) edit for the truncation check.
	direct := db.New(ins.Schema)
	prefixes := []*db.Database{direct.Clone()}
	apply := func(e db.Edit) error {
		changedStore, err := st.Apply(e)
		if err != nil {
			return fmt.Errorf("wal: apply %v: %w", e, err)
		}
		changedDirect, err := direct.Apply(e)
		if err != nil {
			return fmt.Errorf("wal: direct apply %v: %w", e, err)
		}
		if changedStore != changedDirect {
			return fmt.Errorf("wal: Apply(%v) changed=%v on the store, %v directly", e, changedStore, changedDirect)
		}
		if changedDirect {
			prefixes = append(prefixes, direct.Clone())
		}
		return nil
	}
	for _, f := range ins.D.Facts() {
		if err := apply(db.Insertion(f)); err != nil {
			st.Close()
			return err
		}
	}
	for _, e := range ins.Edits {
		if err := apply(e); err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}

	// Uninterrupted replay.
	st2, err := wal.Open(dir, ins.Schema)
	if err != nil {
		return fmt.Errorf("wal: reopen: %w", err)
	}
	equal := db.Equal(st2.Target(), direct)
	st2.Close()
	if !equal {
		return fmt.Errorf("wal: replayed database differs from direct application of %d edits", len(ins.Edits))
	}

	journalPath := filepath.Join(dir, "journal.log")
	journal, err := os.ReadFile(journalPath)
	if err != nil {
		return fmt.Errorf("wal: read journal: %w", err)
	}
	if len(journal) == 0 {
		return nil // no database-changing edits; nothing left to corrupt
	}

	// Truncation at every prefix length derived from the seed-independent
	// structure: cut at each newline boundary and a byte inside each record.
	cuts := []int{0, len(journal) - 1}
	for i, b := range journal {
		if b == '\n' {
			cuts = append(cuts, i, i+1)
		}
	}
	for _, cut := range cuts {
		if cut < 0 || cut > len(journal) {
			continue
		}
		if err := checkTruncation(dir, journalPath, journal[:cut], ins, prefixes); err != nil {
			return err
		}
	}
	if err := os.WriteFile(journalPath, journal, 0o644); err != nil {
		return fmt.Errorf("wal: restore journal: %w", err)
	}

	// Structural mid-journal corruption must surface ErrCorrupt.
	lines := bytes.Split(bytes.TrimSuffix(journal, []byte("\n")), []byte("\n"))
	if len(lines) >= 2 {
		corrupted := append([][]byte(nil), lines...)
		corrupted[0] = []byte(`{"op":"?"}`)
		content := append(bytes.Join(corrupted, []byte("\n")), '\n')
		if err := os.WriteFile(journalPath, content, 0o644); err != nil {
			return fmt.Errorf("wal: write corrupted journal: %w", err)
		}
		st3, err := wal.Open(dir, ins.Schema)
		if err == nil {
			st3.Close()
			return fmt.Errorf("wal: structurally corrupt mid-journal record opened without error")
		}
		if !errors.Is(err, wal.ErrCorrupt) {
			return fmt.Errorf("wal: corrupt journal error %v does not match wal.ErrCorrupt", err)
		}
	}
	return nil
}

// checkTruncation writes a truncated journal and verifies recovery lands on
// exactly one of the recorded prefix states.
func checkTruncation(dir, journalPath string, truncated []byte, ins *Instance, prefixes []*db.Database) error {
	if err := os.WriteFile(journalPath, truncated, 0o644); err != nil {
		return fmt.Errorf("wal: write truncated journal: %w", err)
	}
	st, err := wal.Open(dir, ins.Schema)
	if err != nil {
		return fmt.Errorf("wal: truncation to %d bytes failed to open: %w", len(truncated), err)
	}
	got := st.Target()
	ok := false
	for _, p := range prefixes {
		if db.Equal(got, p) {
			ok = true
			break
		}
	}
	st.Close()
	if !ok {
		return fmt.Errorf("wal: truncation to %d bytes recovered %d facts matching no edit prefix",
			len(truncated), got.Len())
	}
	return nil
}
