package db

import "sync"

// memoMaxEntries bounds the entries a Memo keeps. Reaching it discards every
// entry, which costs re-evaluation only, never correctness.
const memoMaxEntries = 16384

// Memo is a store's generation-stamped memo of evaluation results. The
// evaluator keys entries by query (and answer or seed) and the memo stamps
// them with the store's edit generation: once an edit moves the generation,
// every entry reads as absent and the next Put discards them. A memo lives
// exactly as long as its store, so nothing it holds can outlive the store or
// be seen by another one. Get and Put are safe for concurrent use; edits to
// the store must still be serialized against reads, as for every Reader.
type Memo struct {
	mu      sync.Mutex
	cur     *uint64 // the owning store's live generation counter
	gen     uint64  // the generation the entries were computed at
	entries map[string]any
}

func newMemo(gen *uint64) *Memo { return &Memo{cur: gen} }

// Get returns the value memoized under key at the store's current
// generation.
func (m *Memo) Get(key string) (any, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.gen != *m.cur {
		return nil, false
	}
	v, ok := m.entries[key]
	return v, ok
}

// Put memoizes v under key as computed at generation gen. A value computed at
// a generation the store has since left is dropped. Entries of an older
// generation are discarded first, and Put reports whether any were (an
// invalidation).
func (m *Memo) Put(gen uint64, key string, v any) (invalidated bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if gen != *m.cur {
		return false
	}
	if m.gen != gen || m.entries == nil || len(m.entries) >= memoMaxEntries {
		invalidated = m.gen != gen && len(m.entries) > 0
		m.gen, m.entries = gen, make(map[string]any)
	}
	m.entries[key] = v
	return invalidated
}
