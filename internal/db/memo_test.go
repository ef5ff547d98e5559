package db

import "testing"

// TestMemoOwnedByStore: a memo entry is visible only through the store that
// memoized it. Clones, deep copies and forks start with an empty memo of
// their own, snapshots and overlays have none, and an edit invalidates the
// store's memo — on both backends.
func TestMemoOwnedByStore(t *testing.T) {
	ds, _ := openTestDisk(t, 2)
	for _, s := range []Store{New(testSchema()), ds} {
		name := s.Stats().Backend
		seedFacts(t, s, 1, 8)
		m := s.Memo()
		if m == nil {
			t.Fatalf("%s: live store has no memo", name)
		}
		m.Put(s.Generation(), "k", 1)
		if v, ok := m.Get("k"); !ok || v != 1 {
			t.Fatalf("%s: Get after Put = %v, %v", name, v, ok)
		}

		others := map[string]Reader{"fork": s.Fork(), "deep copy": DeepCopy(s)}
		if d, ok := s.(*Database); ok {
			others["clone"] = d.Clone()
		}
		for what, o := range others {
			om := o.Memo()
			if om == nil || om == m {
				t.Fatalf("%s: %s does not own a memo of its own", name, what)
			}
			if _, ok := om.Get("k"); ok {
				t.Errorf("%s: %s sees the original's memo entry", name, what)
			}
		}
		if s.Snapshot().Memo() != nil {
			t.Errorf("%s: snapshot has a memo", name)
		}
		f := NewFact("Teams", "memo-test", "EU")
		if Overlay(s, Insertion(f)).Memo() != nil {
			t.Errorf("%s: overlay has a memo", name)
		}
		if _, ok := m.Get("k"); !ok {
			t.Fatalf("%s: copies or views disturbed the original's entry", name)
		}

		stale := s.Generation()
		if _, err := s.InsertFact(f); err != nil {
			t.Fatal(err)
		}
		if _, ok := m.Get("k"); ok {
			t.Errorf("%s: entry survived an edit", name)
		}
		if m.Put(stale, "late", 2) {
			t.Errorf("%s: Put at a stale generation reported an invalidation", name)
		}
		if _, ok := m.Get("late"); ok {
			t.Errorf("%s: value computed at a left generation was kept", name)
		}
		if !m.Put(s.Generation(), "k", 3) {
			t.Errorf("%s: first Put after an edit did not report the invalidation", name)
		}
		if v, ok := m.Get("k"); !ok || v != 3 {
			t.Errorf("%s: Get after re-Put = %v, %v", name, v, ok)
		}
	}
}
