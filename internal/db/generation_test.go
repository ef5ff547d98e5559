package db

import "testing"

// TestGenerationBumpsOnRealEdits: the edit-generation counter moves exactly
// when the database changes — no-op inserts of present facts and deletes of
// absent facts leave it alone. The evaluation memo's soundness rests on
// this: an entry stamped at generation g is valid iff the counter still
// reads g.
func TestGenerationBumpsOnRealEdits(t *testing.T) {
	d := New(testSchema())
	if d.Generation() != 0 {
		t.Fatalf("fresh database at generation %d, want 0", d.Generation())
	}
	f := NewFact("Teams", "GER", "EU")

	if _, err := d.InsertFact(f); err != nil {
		t.Fatal(err)
	}
	if d.Generation() != 1 {
		t.Errorf("after insert: generation %d, want 1", d.Generation())
	}
	if _, err := d.InsertFact(f); err != nil {
		t.Fatal(err)
	}
	if d.Generation() != 1 {
		t.Errorf("after duplicate insert: generation %d, want 1 (no-op must not bump)", d.Generation())
	}
	if _, err := d.DeleteFact(f); err != nil {
		t.Fatal(err)
	}
	if d.Generation() != 2 {
		t.Errorf("after delete: generation %d, want 2", d.Generation())
	}
	if _, err := d.DeleteFact(f); err != nil {
		t.Fatal(err)
	}
	if d.Generation() != 2 {
		t.Errorf("after deleting absent fact: generation %d, want 2 (no-op must not bump)", d.Generation())
	}

	// Apply and ApplyAll route through the same counters.
	if _, err := d.Apply(Insertion(f)); err != nil {
		t.Fatal(err)
	}
	if d.Generation() != 3 {
		t.Errorf("after Apply(insert): generation %d, want 3", d.Generation())
	}
	changed, err := d.ApplyAll([]Edit{
		Deletion(f), // changes
		Deletion(f), // no-op
		Insertion(NewFact("Goals", "Pirlo", "09.07.2006")), // changes
	})
	if err != nil || changed != 2 {
		t.Fatalf("ApplyAll = %d, %v; want 2, nil", changed, err)
	}
	if d.Generation() != 5 {
		t.Errorf("after ApplyAll: generation %d, want 5", d.Generation())
	}

	// Failed edits (unknown relation) must not bump either.
	if _, err := d.InsertFact(NewFact("Nope", "x")); err == nil {
		t.Fatal("insert into unknown relation: want error")
	}
	if d.Generation() != 5 {
		t.Errorf("after failed insert: generation %d, want 5", d.Generation())
	}
}

// TestCloneFreshIdentityAndGeneration: clones carry a new process-unique ID
// and restart at generation zero, so cache entries of the original can never
// be served for the clone (and vice versa).
func TestCloneFreshIdentityAndGeneration(t *testing.T) {
	d := New(testSchema())
	if _, err := d.InsertFact(NewFact("Teams", "GER", "EU")); err != nil {
		t.Fatal(err)
	}
	c := d.Clone()
	if c.ID() == d.ID() {
		t.Errorf("clone shares ID %d with original", c.ID())
	}
	if c.Generation() != 0 {
		t.Errorf("clone at generation %d, want 0", c.Generation())
	}
	// Editing the clone moves only the clone's counter.
	before := d.Generation()
	if _, err := c.InsertFact(NewFact("Teams", "ESP", "EU")); err != nil {
		t.Fatal(err)
	}
	if d.Generation() != before {
		t.Errorf("editing clone moved original's generation %d -> %d", before, d.Generation())
	}
	if c.Generation() != 1 {
		t.Errorf("clone at generation %d after one edit, want 1", c.Generation())
	}

	// New databases get distinct IDs too.
	if New(testSchema()).ID() == New(testSchema()).ID() {
		t.Error("two fresh databases share an ID")
	}
}
