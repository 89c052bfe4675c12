package kvdb

import (
	"errors"
	"fmt"
	"testing"
)

// TestLookupAgreesWithGet: Lookup is the allocation-light point read —
// present keys return the value, absent keys return (nil, false, nil)
// with no error, and both must agree with Get across puts, overwrites,
// deletes and a reopen (where no sorted key snapshot exists yet).
func TestLookupAgreesWithGet(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := db.Put(fmt.Sprintf("k/%02d", i), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Put("k/05", []byte("v-5-new")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("k/07"); err != nil {
		t.Fatal(err)
	}

	check := func(db *DB, phase string) {
		t.Helper()
		for _, probe := range []string{"k/00", "k/05", "k/07", "k/19", "k/99", "absent", ""} {
			lv, lok, lerr := db.Lookup(probe)
			if lerr != nil {
				t.Fatalf("%s: Lookup(%q) error: %v", phase, probe, lerr)
			}
			gv, gerr := db.Get(probe)
			if gok := gerr == nil; gok != lok {
				t.Fatalf("%s: Lookup(%q) ok=%v but Get err=%v", phase, probe, lok, gerr)
			}
			if !lok && !errors.Is(gerr, ErrNotFound) && gerr != nil {
				t.Fatalf("%s: Get(%q) unexpected error: %v", phase, probe, gerr)
			}
			if lok && string(lv) != string(gv) {
				t.Fatalf("%s: Lookup(%q) = %q, Get = %q", phase, probe, lv, gv)
			}
		}
	}
	check(db, "live")

	// Build the sorted key snapshot (Scan does), then probe again: point
	// reads answer the same with and without one.
	if err := db.Scan("k/", func(string, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	check(db, "warm")

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re, "reopened")

	if _, ok, err := re.Lookup("k/07"); ok || err != nil {
		t.Fatalf("deleted key after reopen: ok=%v err=%v", ok, err)
	}
}
