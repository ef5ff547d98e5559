// Package wal persists a database as a CSV snapshot plus an append-only edit
// journal (write-ahead log). The paper's prototype kept its data in MySQL;
// this package gives the Go reproduction durable cleaning sessions: every
// oracle-derived edit is journaled as it is applied, a crashed or restarted
// process replays the journal over the last snapshot, and Compact folds the
// journal into a fresh snapshot. A JobLog (joblog.go) journals cleaning-job
// specs and crowd answers the same way, so in-flight jobs survive a crash.
package wal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/db"
	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/schema"
)

const (
	snapshotFile = "snapshot.csv"
	journalFile  = "journal.log"
)

// Metric names recorded when the package is instrumented.
const (
	// MetricTornTails counts journal recoveries that found (and discarded) a
	// torn trailing record from a crash mid-append.
	MetricTornTails = "wal.replay.torn_tails"
	// MetricAppendErrors counts journal append failures (the first of which
	// also poisons the store — see Store.Apply).
	MetricAppendErrors = "wal.append.errors"
	// MetricCompactions counts job-journal compaction runs at open (see
	// WithCompaction); MetricCompactedJobs the terminal jobs they dropped.
	MetricCompactions   = "wal.compact.runs"
	MetricCompactedJobs = "wal.compact.dropped_jobs"
)

// recorder holds the process recorder the package reports into; an atomic
// pointer keeps Instrument safe to call concurrently with running stores.
var recorder atomic.Pointer[obs.Recorder]

// Instrument directs wal metrics (torn-tail recoveries, append errors) into
// r (nil disables). Typically called once at process start.
func Instrument(r *obs.Recorder) { recorder.Store(r) }

// rec returns the active recorder; nil is valid, obs methods are nil-safe.
func rec() *obs.Recorder { return recorder.Load() }

// record is one journaled edit, one JSON object per line.
type record struct {
	Op   string   `json:"op"` // "+" or "-"
	Rel  string   `json:"rel"`
	Args []string `json:"args"`
}

func recordOf(e db.Edit) record {
	return record{Op: e.Op.String(), Rel: e.Fact.Rel, Args: e.Fact.Args}
}

func (r record) edit() (db.Edit, error) {
	f := db.Fact{Rel: r.Rel, Args: db.Tuple(r.Args)}
	switch r.Op {
	case "+":
		return db.Insertion(f), nil
	case "-":
		return db.Deletion(f), nil
	default:
		return db.Edit{}, fmt.Errorf("wal: bad op %q", r.Op)
	}
}

// Option configures Open/OpenWith.
type Option func(*options)

type options struct {
	fs faultfs.FS
}

// WithFS routes every file operation through fsys — the fault-injection
// seam shared with internal/db. Production opens use faultfs.OS().
func WithFS(fsys faultfs.FS) Option {
	return func(o *options) { o.fs = fsys }
}

// Store is a directory holding a snapshot and a journal, together with the
// live fact store they encode.
type Store struct {
	dir     string
	fs      faultfs.FS
	d       db.Store
	journal faultfs.File
	w       *bufio.Writer

	mu        sync.Mutex
	appendErr error // first journal write failure; poisons Apply and Sync
}

// Open loads the store in dir (creating it if empty): the snapshot is read
// first, then the journal is replayed over it. The schema must match the one
// the store was created with.
func Open(dir string, s *schema.Schema, opts ...Option) (*Store, error) {
	return OpenWith(dir, s, nil, opts...)
}

// OpenWith is Open with an explicit target store for the decoded facts: the
// snapshot and journal replay into target, and subsequent edits journal on
// top of it. A nil target means a fresh in-memory db.New(s). The target must
// be empty and share the schema.
func OpenWith(dir string, s *schema.Schema, target db.Store, opts ...Option) (*Store, error) {
	o := options{fs: faultfs.OS()}
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	var d db.Store
	if target != nil {
		d = target
	} else {
		d = db.New(s)
	}
	// Snapshot (optional).
	snap, err := o.fs.Open(filepath.Join(dir, snapshotFile))
	if err == nil {
		loadErr := db.LoadCSV(d, snap)
		snap.Close()
		if loadErr != nil {
			return nil, fmt.Errorf("wal: loading snapshot: %w", loadErr)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("wal: opening snapshot: %w", err)
	}
	// Journal replay (optional).
	if err := replay(o.fs, filepath.Join(dir, journalFile), d); err != nil {
		return nil, err
	}
	// Open the journal for appending.
	j, err := o.fs.OpenFile(filepath.Join(dir, journalFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening journal: %w", err)
	}
	return &Store{dir: dir, fs: o.fs, d: d, journal: j, w: bufio.NewWriter(j)}, nil
}

// ErrCorrupt is the sentinel matched (via errors.Is) by every journal
// corruption error: a record that cannot be the result of a crash mid-append
// and must not be silently dropped. Callers distinguish it from I/O errors to
// decide between "restore from backup" and "retry".
var ErrCorrupt = errors.New("wal: corrupt journal")

// CorruptError reports a corrupt journal record: where it sits and why it was
// rejected. It matches ErrCorrupt under errors.Is and unwraps to the decode
// or replay failure.
type CorruptError struct {
	Path string // journal file
	Line int    // 1-based line number of the rejected record
	Err  error  // the underlying decode/replay failure
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt journal record at %s:%d: %v", e.Path, e.Line, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrCorrupt) succeed for CorruptError values.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// tornCandidate reports whether a record decode failure could have been
// produced by a crash mid-append. A torn write leaves a strict prefix of one
// JSON line, and no prefix of a JSON object is itself valid JSON — so only
// JSON syntax errors qualify. A record that decodes as JSON but carries an
// invalid payload (unknown op, wrong field types) is corruption wherever it
// sits, including the last line.
func tornCandidate(err error) bool {
	var syn *json.SyntaxError
	return errors.As(err, &syn)
}

// scanJournal streams the JSONL journal at path into fn, tolerating a torn
// final line (crash mid-append): a record that fails to decode with a JSON
// syntax error is held back one iteration, and only if more records follow is
// it corruption — a syntactically malformed last line is reported as a torn
// tail instead, counted under MetricTornTails, and otherwise ignored. Decode
// failures that cannot result from tearing (valid JSON with an invalid
// payload, or a fatalReplayError from fn) surface as *CorruptError in any
// position. A missing file is an empty journal.
func scanJournal(fsys faultfs.FS, path string, fn func(line []byte) error) (torn bool, err error) {
	f, err := fsys.Open(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("wal: opening journal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var lastErr error
	lastLine := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if lastErr != nil {
			// A malformed record followed by more records is corruption, not
			// a torn tail.
			return false, &CorruptError{Path: path, Line: lastLine, Err: lastErr}
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if err := fn(line); err != nil {
			var fatal *fatalReplayError
			if errors.As(err, &fatal) {
				// The record itself was intact; the failure is not a torn
				// tail even in last position.
				return false, &CorruptError{Path: path, Line: lineNo, Err: fatal.err}
			}
			if !tornCandidate(err) {
				return false, &CorruptError{Path: path, Line: lineNo, Err: err}
			}
			lastErr = err
			lastLine = lineNo
		}
	}
	if err := sc.Err(); err != nil {
		return false, fmt.Errorf("wal: reading journal: %w", err)
	}
	if lastErr != nil {
		rec().Inc(MetricTornTails)
		return true, nil
	}
	return false, nil
}

// replay applies the journal at path to d.
func replay(fsys faultfs.FS, path string, d db.Store) error {
	_, err := scanJournal(fsys, path, func(line []byte) error {
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		e, err := r.edit()
		if err != nil {
			return err
		}
		if _, err := d.Apply(e); err != nil {
			// A decoded record the database rejects is corruption wherever it
			// sits, not a torn tail.
			return &fatalReplayError{fmt.Errorf("wal: replaying %v: %w", e, err)}
		}
		return nil
	})
	return err
}

// fatalReplayError marks a scan callback failure that must fail the whole
// replay even in tail position (the record itself was intact).
type fatalReplayError struct{ err error }

func (e *fatalReplayError) Error() string { return e.err.Error() }

// Target returns the live fact store. Mutations must flow through Apply (or
// the EditHook) to be durable.
func (s *Store) Target() db.Store { return s.d }

// Apply journals and applies an edit. No-op edits (inserting a present fact,
// deleting an absent one) are not journaled. Once a journal append has
// failed, Apply refuses further edits with that first error: the in-memory
// database must not silently run ahead of what a restart can recover.
func (s *Store) Apply(e db.Edit) (changed bool, err error) {
	if err := s.AppendErr(); err != nil {
		return false, err
	}
	changed, err = s.d.Apply(e)
	if err != nil || !changed {
		return changed, err
	}
	return true, s.append(e)
}

// AppendErr returns the first journal append failure, nil if none.
func (s *Store) AppendErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendErr
}

// setAppendErr records the first append failure.
func (s *Store) setAppendErr(err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.appendErr == nil {
		s.appendErr = err
		rec().Inc(MetricAppendErrors)
	}
	return s.appendErr
}

func (s *Store) append(e db.Edit) error {
	raw, err := json.Marshal(recordOf(e))
	if err != nil {
		return s.setAppendErr(fmt.Errorf("wal: encoding edit: %w", err))
	}
	if _, err := s.w.Write(raw); err != nil {
		return s.setAppendErr(fmt.Errorf("wal: writing journal: %w", err))
	}
	if err := s.w.WriteByte('\n'); err != nil {
		return s.setAppendErr(fmt.Errorf("wal: writing journal: %w", err))
	}
	return nil
}

// EditHook returns a function for core.Config.OnEdit: the cleaner applies
// edits to the store's database itself, so the hook only journals them. A
// write failure is recorded and surfaces from the next Apply, Sync or Close.
func (s *Store) EditHook() func(db.Edit) {
	return func(e db.Edit) {
		_ = s.append(e) // the first error is sticky; see AppendErr
	}
}

// Sync flushes buffered journal records to stable storage. It fails if any
// earlier append failed: those records never reached the buffer, so the
// journal on disk is already missing edits.
func (s *Store) Sync() error {
	if err := s.AppendErr(); err != nil {
		return err
	}
	if err := s.w.Flush(); err != nil {
		return s.setAppendErr(fmt.Errorf("wal: flushing journal: %w", err))
	}
	if err := s.journal.Sync(); err != nil {
		return fmt.Errorf("wal: syncing journal: %w", err)
	}
	return nil
}

// Compact writes a fresh snapshot of the live database and truncates the
// journal. The snapshot is written to a temporary file, fsynced, atomically
// renamed, and the directory fsynced (rename alone is not durable on ext4),
// so a crash mid-compaction leaves either the previous snapshot+journal or
// the new snapshot — never a torn one.
func (s *Store) Compact() error {
	if err := s.Sync(); err != nil {
		return err
	}
	tmp, err := s.fs.CreateTemp(s.dir, "snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("wal: creating snapshot: %w", err)
	}
	if err := db.WriteCSV(tmp, s.d); err != nil {
		tmp.Close()
		s.fs.Remove(tmp.Name())
		return fmt.Errorf("wal: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		s.fs.Remove(tmp.Name())
		return fmt.Errorf("wal: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		s.fs.Remove(tmp.Name())
		return fmt.Errorf("wal: closing snapshot: %w", err)
	}
	if err := faultfs.RenameAndSyncDir(s.fs, tmp.Name(), filepath.Join(s.dir, snapshotFile)); err != nil {
		s.fs.Remove(tmp.Name())
		return fmt.Errorf("wal: installing snapshot: %w", err)
	}
	// Truncate the journal now that its effects are in the snapshot.
	if err := s.journal.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncating journal: %w", err)
	}
	if _, err := s.journal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: rewinding journal: %w", err)
	}
	s.w.Reset(s.journal)
	return nil
}

// Close flushes and closes the journal. The Store must not be used after.
func (s *Store) Close() error {
	if err := s.Sync(); err != nil {
		s.journal.Close()
		return err
	}
	return s.journal.Close()
}
