package kvdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"preserv/internal/kv"
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

// TestGetBatchMatchesGet is GetBatch's property test: over a log holding
// one PutBatch's values side by side, values scattered between filler
// wider than coalesceGap, one value longer than coalesceSpan,
// overwrites, deletes and empty-valued (key-batch) keys, every random
// batch — duplicates and absent keys included — reads exactly what
// per-key Get reads, live, after a reopen and after Compact. Appending
// to any returned value must leave every other value intact.
func TestGetBatchMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	val := func(n int) []byte { return bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, n) }

	var keys []string
	var batch []kv.Pair
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("b/%02d", i)
		batch = append(batch, kv.Pair{Key: k, Value: val(1 + rng.Intn(600))})
		keys = append(keys, k)
	}
	for i := 0; i < 10; i++ { // one key-batch entry among the values
		k := fmt.Sprintf("e/%02d", i)
		batch = append(batch, kv.Pair{Key: k})
		keys = append(keys, k)
	}
	if err := db.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("s/%02d", i)
		if err := db.Put(k, val(1+rng.Intn(300))); err != nil {
			t.Fatal(err)
		}
		if err := db.Put(fmt.Sprintf("filler/%02d", i), val(coalesceGap+1+rng.Intn(coalesceGap))); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if err := db.Put("huge", val(coalesceSpan+100)); err != nil {
		t.Fatal(err)
	}
	keys = append(keys, "huge")
	for _, k := range []string{"b/03", "b/17", "s/05"} {
		if err := db.Put(k, val(50)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"b/04", "e/02", "s/06"} {
		if err := db.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	keys = append(keys, "absent/1", "absent/2")

	check := func(phase string) {
		t.Helper()
		for round := 0; round < 50; round++ {
			probe := make([]string, 1+rng.Intn(40))
			for i := range probe {
				probe[i] = keys[rng.Intn(len(keys))]
			}
			values, present, err := db.GetBatch(probe)
			if err != nil {
				t.Fatalf("%s: GetBatch: %v", phase, err)
			}
			want := make([][]byte, len(probe))
			for i, k := range probe {
				v, ok, err := db.Get(k)
				if err != nil {
					t.Fatalf("%s: Get(%q): %v", phase, k, err)
				}
				if present[i] != ok || !bytes.Equal(values[i], v) {
					t.Fatalf("%s: GetBatch[%d] (%q) = %d bytes, present %v; Get = %d bytes, present %v",
						phase, i, k, len(values[i]), present[i], len(v), ok)
				}
				want[i] = v
			}
			// An append long enough to reach the next value, whether the
			// bytes between them are an entry's header and key or none.
			tail := bytes.Repeat([]byte{'!'}, 256)
			for i := range values {
				if present[i] {
					values[i] = append(values[i], tail...)
				}
			}
			for i := range values {
				if present[i] && !bytes.Equal(values[i][:len(want[i])], want[i]) {
					t.Fatalf("%s: appending to one value changed %q", phase, probe[i])
				}
			}
		}
	}
	check("live")

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	check("reopened")

	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compacted")
}
