package kvdb

import (
	"fmt"
	"testing"
)

// TestGetReportsPresence: Get is the one point read — a present key
// returns its value, an absent one (nil, false, nil) with no error,
// across puts, an overwrite, a delete, a built key snapshot and a reopen
// (where no sorted key snapshot exists yet).
func TestGetReportsPresence(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 20; i++ {
		k, v := fmt.Sprintf("k/%02d", i), fmt.Sprintf("v-%d", i)
		if err := db.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	if err := db.Put("k/05", []byte("v-5-new")); err != nil {
		t.Fatal(err)
	}
	want["k/05"] = "v-5-new"
	if err := db.Delete("k/07"); err != nil {
		t.Fatal(err)
	}
	delete(want, "k/07")

	check := func(db *DB, phase string) {
		t.Helper()
		for _, probe := range []string{"k/00", "k/05", "k/07", "k/19", "k/99", "absent", ""} {
			v, ok, err := db.Get(probe)
			if err != nil {
				t.Fatalf("%s: Get(%q) error: %v", phase, probe, err)
			}
			w, present := want[probe]
			switch {
			case ok != present:
				t.Fatalf("%s: Get(%q) ok=%v, want %v", phase, probe, ok, present)
			case !ok && v != nil:
				t.Fatalf("%s: Get(%q) of an absent key = %q, want nil", phase, probe, v)
			case ok && string(v) != w:
				t.Fatalf("%s: Get(%q) = %q, want %q", phase, probe, v, w)
			}
		}
	}
	check(db, "live")

	// Build the sorted key snapshot (a scan does), then probe again: point
	// reads answer the same with and without one.
	if err := db.ScanFrom("k/", "", func(string, []byte) error { return nil }); err != nil {
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

	if v, ok, err := re.Get("k/07"); v != nil || ok || err != nil {
		t.Fatalf("deleted key after reopen: %q, ok=%v err=%v", v, ok, err)
	}
}
