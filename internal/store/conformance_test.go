package store

// Conformance test for the Backend contract, run against every backend
// flavour. The secondary-index subsystem (internal/index) depends on
// exactly these properties: sorted prefix Scan order (posting lists come
// out merge-ready), Put idempotency for identical content (rebuild
// re-puts postings), and Count agreeing with Scan (index consistency
// checks compare posting counts to record counts).

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"preserv/internal/kvdb"
)

// backendUnderTest names one flavour and how to open it fresh; openAt
// (nil for memory) attaches to a directory, for cases that reopen.
type backendUnderTest struct {
	name   string
	open   func(t *testing.T) Backend
	openAt func(t *testing.T, dir string) Backend
}

func allBackends() []backendUnderTest {
	all := []backendUnderTest{
		{name: "memory", open: func(t *testing.T) Backend { return NewMemoryBackend() }},
	}
	for _, pb := range persistentBackends() {
		all = append(all, backendUnderTest{
			name: pb.name,
			open: func(t *testing.T) Backend {
				b := pb.open(t, t.TempDir())
				t.Cleanup(func() { b.Close() })
				return b
			},
			openAt: pb.open,
		})
	}
	return all
}

func TestBackendConformance(t *testing.T) {
	for _, but := range allBackends() {
		t.Run(but.name, func(t *testing.T) {
			t.Run("GetRoundTrip", func(t *testing.T) { conformGetRoundTrip(t, but.open(t)) })
			t.Run("ScanSortedOrder", func(t *testing.T) { conformScanSorted(t, but.open(t)) })
			t.Run("ScanPrefixScoped", func(t *testing.T) { conformScanPrefix(t, but.open(t)) })
			t.Run("PutIdempotentRePut", func(t *testing.T) { conformRePut(t, but.open(t)) })
			t.Run("PutOverwriteLastWins", func(t *testing.T) { conformOverwrite(t, but.open(t)) })
			t.Run("CountMatchesScan", func(t *testing.T) { conformCount(t, but.open(t)) })
			t.Run("EmptyValueRoundTrips", func(t *testing.T) { conformEmptyValue(t, but.open(t)) })
			t.Run("ScanErrorPropagates", func(t *testing.T) { conformScanError(t, but.open(t)) })
			t.Run("PutBatchRoundTrip", func(t *testing.T) { conformPutBatch(t, but.open(t)) })
			t.Run("PutBatchSortedScan", func(t *testing.T) { conformPutBatchSortedScan(t, but.open(t)) })
			t.Run("PutBatchWriteOnceRePut", func(t *testing.T) { conformPutBatchRePut(t, but.open(t)) })
			t.Run("PutBatchCountConsistency", func(t *testing.T) { conformPutBatchCount(t, but.open(t)) })
			t.Run("PutBatchEmptyAndInvalid", func(t *testing.T) { conformPutBatchEdge(t, but.open(t)) })
			t.Run("GetBatchRoundTrip", func(t *testing.T) { conformGetBatch(t, but.open(t)) })
			t.Run("GetBatchEmptyValues", func(t *testing.T) { conformGetBatchEmpty(t, but.open(t)) })
			t.Run("ScanFromResumesMidList", func(t *testing.T) { conformScanFrom(t, but.open(t)) })
			t.Run("ScanFromEqualsScan", func(t *testing.T) { conformScanFromUnbounded(t, but.open(t)) })
			t.Run("WriteAfterScanVisible", func(t *testing.T) { conformWriteAfterScan(t, but.open(t)) })
			t.Run("CompactKeepsContents", func(t *testing.T) { conformCompact(t, but) })
			t.Run("ClosedRefuses", func(t *testing.T) { conformClosed(t, but.open(t)) })
		})
	}
}

func conformClosed(t *testing.T, b Backend) {
	// A closed backend refuses every operation with
	// kvdb.ErrClosed, as kvdb itself does: no read answers from state the
	// backend no longer owns, and no write lands after Close.
	if err := b.PutBatch([]KV{{Key: "i/1", Value: []byte("one")}, {Key: "x/1"}}); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	check := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, kvdb.ErrClosed) {
			t.Errorf("%s after Close = %v, want kvdb.ErrClosed", op, err)
		}
	}
	_, _, err := b.Get("i/1")
	check("Get", err)
	_, _, err = b.GetBatch([]string{"i/1", "x/1"})
	check("GetBatch", err)
	check("PutBatch", b.PutBatch([]KV{{Key: "i/2", Value: []byte("two")}}))
	check("DeleteBatch", b.DeleteBatch([]string{"i/1"}))
	check("Compact", b.Compact())
	_, err = b.Count("")
	check("Count", err)
	check("ScanFrom", b.ScanFrom("", "", func(string, []byte) error { return nil }))
}

// backendContents is everything a reader can ask a backend about a key
// set: the full sorted Scan, Count per prefix, and a Get per probe key
// (live, overwritten, deleted and never-written ones).
type backendContents struct {
	scan   []string
	counts map[string]int
	gets   map[string]string
}

func snapshotContents(t *testing.T, b Backend, prefixes, probes []string) backendContents {
	t.Helper()
	c := backendContents{counts: map[string]int{}, gets: map[string]string{}}
	if err := b.ScanFrom("", "", func(k string, v []byte) error {
		c.scan = append(c.scan, k+"="+string(v))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, p := range prefixes {
		n, err := b.Count(p)
		if err != nil {
			t.Fatal(err)
		}
		c.counts[p] = n
	}
	for _, k := range probes {
		v, ok, err := b.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		c.gets[k] = fmt.Sprintf("%v:%s", ok, v)
	}
	return c
}

func conformCompact(t *testing.T, but backendUnderTest) {
	// Compact changes no logical content: after puts, overwrites and
	// deletes, every read answers the same before and after — and after
	// a reopen, when only the compacted layout is left to replay.
	dir := t.TempDir()
	open := func() Backend {
		if but.openAt == nil {
			return but.open(t)
		}
		return but.openAt(t, dir)
	}
	b := open()
	for round := 0; round < 3; round++ {
		var batch []KV
		for i := 0; i < 8; i++ {
			// Rounds overlap on half their keys: later rounds overwrite.
			k := fmt.Sprintf("i/c/%02d", round*4+i)
			batch = append(batch, KV{Key: k, Value: []byte(fmt.Sprintf("r%d-%s", round, k))})
		}
		batch = append(batch, KV{Key: fmt.Sprintf("x/c/%d", round), Value: nil})
		if err := b.PutBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Put("s/c/single", []byte("per-put layout")); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteBatch([]string{"i/c/00", "i/c/05", "i/c/15", "x/c/1", "i/absent"}); err != nil {
		t.Fatal(err)
	}
	if err := b.PutBatch([]KV{{Key: "i/c/05", Value: []byte("re-put after delete")}}); err != nil {
		t.Fatal(err)
	}

	prefixes := []string{"", "i/", "i/c/0", "x/", "s/", "zz"}
	probes := []string{"i/c/00", "i/c/04", "i/c/05", "i/c/15", "i/c/12", "x/c/0", "x/c/1", "s/c/single", "i/absent"}
	want := snapshotContents(t, b, prefixes, probes)
	if len(want.scan) != 16+3+1-4+1 {
		t.Fatalf("fixture holds %d keys: %v", len(want.scan), want.scan)
	}

	check := func(when string, b Backend) {
		t.Helper()
		if got := snapshotContents(t, b, prefixes, probes); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: contents changed:\n got %+v\nwant %+v", when, got, want)
		}
		if g := b.GarbageRatio(); g != 0 {
			t.Errorf("%s: GarbageRatio = %v, want 0", when, g)
		}
		if n := b.Tombstones(); n != 0 {
			t.Errorf("%s: Tombstones = %d, want 0", when, n)
		}
	}
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	check("after Compact", b)
	if err := b.Compact(); err != nil {
		t.Fatalf("second Compact: %v", err)
	}
	check("after a second Compact", b)
	if but.openAt == nil {
		return
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b = open()
	defer b.Close()
	check("after reopen", b)
}

func conformWriteAfterScan(t *testing.T, b Backend) {
	// Backends answer ScanFrom and Count off a sorted key snapshot that a
	// read builds and writes keep current. Every write made after it was
	// built — batched or single, put or delete, new key or overwrite, a
	// key deleted and re-put between two reads — must show in the next
	// read exactly as in a plain map.
	model := map[string]string{}
	modelScan := func(prefix, from string) []string {
		var want []string
		for k, v := range model {
			if strings.HasPrefix(k, prefix) && k >= from {
				want = append(want, k+"="+v)
			}
		}
		sort.Strings(want)
		return want
	}
	check := func(when string) {
		t.Helper()
		for _, prefix := range []string{"", "i/w/", "i/w/1", "x/w/", "zz"} {
			want := len(modelScan(prefix, ""))
			if n, err := b.Count(prefix); err != nil || n != want {
				t.Errorf("%s: Count(%q) = %d, %v; want %d", when, prefix, n, err, want)
			}
			for _, from := range []string{"", "i/w/07", "x"} {
				var got []string
				if err := b.ScanFrom(prefix, from, func(k string, v []byte) error {
					got = append(got, k+"="+string(v))
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if want := modelScan(prefix, from); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: ScanFrom(%q, %q) = %v, want %v", when, prefix, from, got, want)
				}
			}
		}
	}
	check("empty") // the snapshot exists from here on
	for round := 0; round < 6; round++ {
		var batch []KV
		for i := 0; i < 6; i++ {
			// Rounds overlap on half their keys: later rounds overwrite.
			k := fmt.Sprintf("i/w/%02d", round*3+i)
			v := fmt.Sprintf("r%d", round)
			batch = append(batch, KV{Key: k, Value: []byte(v)})
			model[k] = v
		}
		k := fmt.Sprintf("x/w/%d", round)
		batch = append(batch, KV{Key: k})
		model[k] = ""
		if err := b.PutBatch(batch); err != nil {
			t.Fatal(err)
		}
		if round%2 == 1 {
			check(fmt.Sprintf("round %d after PutBatch", round))
		}
		// Delete this round's first key, last round's marker and an
		// absent key; re-put the first key before the next read.
		doomed := []string{batch[0].Key, fmt.Sprintf("x/w/%d", round-1), "i/w/absent"}
		if err := b.DeleteBatch(doomed); err != nil {
			t.Fatal(err)
		}
		for _, k := range doomed {
			delete(model, k)
		}
		if round%3 == 0 {
			if err := b.PutBatch(batch[:1]); err != nil {
				t.Fatal(err)
			}
			model[batch[0].Key] = string(batch[0].Value)
		}
		single := fmt.Sprintf("s/w/%d", round)
		if err := b.Put(single, []byte("single")); err != nil {
			t.Fatal(err)
		}
		model[single] = "single"
		if round > 0 {
			gone := fmt.Sprintf("s/w/%d", round-1)
			if err := b.Delete(gone); err != nil {
				t.Fatal(err)
			}
			delete(model, gone)
		}
		check(fmt.Sprintf("round %d", round))
	}
}

func conformGetBatch(t *testing.T, b Backend) {
	// GetBatch must agree with per-key Gets: values align with the key
	// slice, absent keys read as present=false, duplicates allowed.
	if err := b.PutBatch([]KV{
		{Key: "i/1", Value: []byte("one")},
		{Key: "i/2", Value: []byte("two")},
		{Key: "s/9", Value: []byte("nine")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("i/3", []byte("three")); err != nil {
		t.Fatal(err)
	}
	keys := []string{"i/2", "absent", "i/3", "s/9", "i/2"}
	values, present, err := b.GetBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != len(keys) || len(present) != len(keys) {
		t.Fatalf("result lengths %d/%d, want %d", len(values), len(present), len(keys))
	}
	want := []struct {
		ok  bool
		val string
	}{{true, "two"}, {false, ""}, {true, "three"}, {true, "nine"}, {true, "two"}}
	for i, w := range want {
		if present[i] != w.ok || (w.ok && string(values[i]) != w.val) {
			t.Errorf("GetBatch[%d] (%s) = %q present=%v, want %q present=%v",
				i, keys[i], values[i], present[i], w.val, w.ok)
		}
		if !w.ok && values[i] != nil {
			t.Errorf("GetBatch[%d] absent key carries value %q", i, values[i])
		}
	}
	if _, _, err := b.GetBatch(nil); err != nil {
		t.Errorf("empty batch get errored: %v", err)
	}
}

func conformGetBatchEmpty(t *testing.T, b Backend) {
	// Index postings are empty-valued; batched reads must report them
	// present.
	if err := b.PutBatch([]KV{{Key: "x/p/1", Value: nil}, {Key: "x/p/2", Value: []byte{}}}); err != nil {
		t.Fatal(err)
	}
	values, present, err := b.GetBatch([]string{"x/p/1", "x/p/2"})
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if !present[i] || len(values[i]) != 0 {
			t.Errorf("empty value [%d]: present=%v len=%d", i, present[i], len(values[i]))
		}
	}
}

func conformScanFrom(t *testing.T, b Backend) {
	keys := []string{"x/a/1", "x/a/3", "x/a/5", "x/a/7", "x/b/1"}
	for _, k := range keys {
		if err := b.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		from string
		want []string
	}{
		// Resume at an existing key: inclusive.
		{"x/a/3", []string{"x/a/3", "x/a/5", "x/a/7"}},
		// Resume between keys: lands on the next one.
		{"x/a/4", []string{"x/a/5", "x/a/7"}},
		// The successor-string cursor form skips the consumed key.
		{"x/a/3\x00", []string{"x/a/5", "x/a/7"}},
		// Past the prefix range: nothing.
		{"x/a/9", nil},
		// Before the prefix: everything (prefix still bounds below).
		{"a", []string{"x/a/1", "x/a/3", "x/a/5", "x/a/7"}},
	}
	for _, c := range cases {
		var got []string
		if err := b.ScanFrom("x/a/", c.from, func(k string, v []byte) error {
			if string(v) != k {
				t.Errorf("value mismatch at %s", k)
			}
			got = append(got, k)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !sort.StringsAreSorted(got) {
			t.Errorf("ScanFrom(%q) order not sorted: %v", c.from, got)
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("ScanFrom(%q) = %v, want %v", c.from, got, c.want)
		}
	}
}

func conformScanFromUnbounded(t *testing.T, b Backend) {
	for _, k := range []string{"p/1", "p/2", "p/3"} {
		if err := b.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	// An empty from, or one at or below the prefix, scans the whole prefix.
	for _, from := range []string{"", "a", "p/"} {
		var got []string
		if err := b.ScanFrom("p/", from, func(k string, _ []byte) error { got = append(got, k); return nil }); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != "[p/1 p/2 p/3]" {
			t.Errorf("ScanFrom(p/, %q) = %v, want the whole prefix", from, got)
		}
	}
}

func conformPutBatch(t *testing.T, b Backend) {
	// A batch must be equivalent to the same sequence of Puts: every
	// pair Get-able afterwards, empty values (postings) included.
	batch := []KV{
		{Key: "x/kind/i/abc", Value: nil},
		{Key: "i/1", Value: []byte("record-one")},
		{Key: "x/sess/s1/abc", Value: []byte{}},
		{Key: "s/2", Value: []byte("record-two")},
	}
	if err := b.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, p := range batch {
		v, ok, err := b.Get(p.Key)
		if err != nil || !ok {
			t.Fatalf("Get(%s) after batch: ok=%v err=%v", p.Key, ok, err)
		}
		if string(v) != string(p.Value) {
			t.Errorf("Get(%s) = %q, want %q", p.Key, v, p.Value)
		}
	}
}

func conformPutBatchSortedScan(t *testing.T, b Backend) {
	// Keys written out of order, split across Put and PutBatch, must
	// still scan in sorted order — posting lists stay merge-ready
	// however they were written.
	if err := b.Put("x/a/5", []byte("x/a/5")); err != nil {
		t.Fatal(err)
	}
	if err := b.PutBatch([]KV{
		{Key: "x/b/2", Value: []byte("x/b/2")},
		{Key: "x/a/9", Value: []byte("x/a/9")},
		{Key: "x/a/1", Value: []byte("x/a/1")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.PutBatch([]KV{{Key: "x/a/3", Value: []byte("x/a/3")}}); err != nil {
		t.Fatal(err)
	}
	var visited []string
	if err := b.ScanFrom("x/", "", func(k string, v []byte) error {
		if string(v) != k {
			t.Errorf("value mismatch at %s: %q", k, v)
		}
		visited = append(visited, k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(visited) {
		t.Errorf("scan order not sorted after batch writes: %v", visited)
	}
	if len(visited) != 5 {
		t.Errorf("scan visited %d keys, want 5: %v", len(visited), visited)
	}
}

func conformPutBatchRePut(t *testing.T, b Backend) {
	// Re-putting identical content through a batch must be accepted
	// (idempotent client retries flush the same postings again), and a
	// batch overlapping existing keys must behave per key like Put.
	batch := []KV{{Key: "k", Value: []byte("same")}, {Key: "x/p/k", Value: nil}}
	if err := b.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := b.PutBatch(batch); err != nil {
		t.Fatalf("idempotent batch re-put rejected: %v", err)
	}
	v, ok, err := b.Get("k")
	if err != nil || !ok || string(v) != "same" {
		t.Fatalf("after batch re-put: %q ok=%v err=%v", v, ok, err)
	}
	if n, err := b.Count(""); err != nil || n != 2 {
		t.Fatalf("Count after duplicate batches = %d err=%v, want 2", n, err)
	}
}

func conformPutBatchCount(t *testing.T, b Backend) {
	var batch []KV
	for i := 0; i < 9; i++ {
		batch = append(batch, KV{Key: fmt.Sprintf("p/%d", i), Value: []byte("v")})
	}
	batch = append(batch, KV{Key: "q/0", Value: []byte("v")})
	if err := b.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"p/", "q/", "r/", ""} {
		scanned := 0
		if err := b.ScanFrom(prefix, "", func(string, []byte) error { scanned++; return nil }); err != nil {
			t.Fatal(err)
		}
		counted, err := b.Count(prefix)
		if err != nil {
			t.Fatal(err)
		}
		if counted != scanned {
			t.Errorf("Count(%q) = %d but Scan visited %d", prefix, counted, scanned)
		}
	}
}

func conformPutBatchEdge(t *testing.T, b Backend) {
	if err := b.PutBatch(nil); err != nil {
		t.Fatalf("empty batch must be a no-op, got %v", err)
	}
	if err := b.PutBatch([]KV{{Key: "ok", Value: nil}, {Key: "", Value: nil}}); err == nil {
		t.Fatal("batch containing an empty key must be rejected")
	}
	if n, err := b.Count(""); err != nil || n != 0 {
		t.Fatalf("store not empty after rejected/empty batches: n=%d err=%v", n, err)
	}
}

func conformGetRoundTrip(t *testing.T, b Backend) {
	if _, ok, err := b.Get("absent"); err != nil || ok {
		t.Fatalf("Get(absent) = ok=%v err=%v, want miss without error", ok, err)
	}
	if err := b.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := b.Get("k1")
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get(k1) = %q ok=%v err=%v", v, ok, err)
	}
}

func conformScanSorted(t *testing.T, b Backend) {
	// Insert out of order; Scan must visit in sorted key order.
	keys := []string{"x/b/2", "x/a/9", "x/b/1", "x/a/10", "x/c/0"}
	for _, k := range keys {
		if err := b.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	var visited []string
	if err := b.ScanFrom("x/", "", func(k string, v []byte) error {
		if string(v) != k {
			t.Errorf("value mismatch at %s: %q", k, v)
		}
		visited = append(visited, k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(visited) {
		t.Errorf("scan order not sorted: %v", visited)
	}
	if len(visited) != len(keys) {
		t.Errorf("scan visited %d keys, want %d", len(visited), len(keys))
	}
}

func conformScanPrefix(t *testing.T, b Backend) {
	for _, k := range []string{"i/1", "i/2", "i0", "ij/3", "s/1"} {
		if err := b.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var visited []string
	if err := b.ScanFrom("i/", "", func(k string, _ []byte) error {
		visited = append(visited, k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, k := range visited {
		if !strings.HasPrefix(k, "i/") {
			t.Errorf("scan leaked key %q outside prefix", k)
		}
	}
	if len(visited) != 2 {
		t.Errorf("prefix scan visited %v, want exactly i/1 i/2", visited)
	}
}

func conformRePut(t *testing.T, b Backend) {
	// Keys are write-once at the Store layer, but backends must accept
	// re-putting identical content: index rebuild re-derives postings
	// over existing entries.
	if err := b.Put("k", []byte("same")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("k", []byte("same")); err != nil {
		t.Fatalf("idempotent re-put rejected: %v", err)
	}
	v, ok, err := b.Get("k")
	if err != nil || !ok || string(v) != "same" {
		t.Fatalf("after re-put: %q ok=%v err=%v", v, ok, err)
	}
}

func conformOverwrite(t *testing.T, b Backend) {
	// The contract allows a backend to reject overwrites with different
	// content; a backend that accepts them must be last-write-wins.
	if err := b.Put("k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	err := b.Put("k", []byte("new"))
	v, ok, gerr := b.Get("k")
	if gerr != nil || !ok {
		t.Fatalf("Get after overwrite: ok=%v err=%v", ok, gerr)
	}
	if err != nil {
		if string(v) != "old" {
			t.Fatalf("overwrite rejected but value changed to %q", v)
		}
		return
	}
	if string(v) != "new" {
		t.Fatalf("overwrite accepted but Get = %q, want last write", v)
	}
}

func conformCount(t *testing.T, b Backend) {
	for i := 0; i < 7; i++ {
		if err := b.Put(fmt.Sprintf("p/%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Put("q/0", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"p/", "q/", "r/", ""} {
		scanned := 0
		if err := b.ScanFrom(prefix, "", func(string, []byte) error { scanned++; return nil }); err != nil {
			t.Fatal(err)
		}
		counted, err := b.Count(prefix)
		if err != nil {
			t.Fatal(err)
		}
		if counted != scanned {
			t.Errorf("Count(%q) = %d but Scan visited %d", prefix, counted, scanned)
		}
	}
}

func conformEmptyValue(t *testing.T, b Backend) {
	// Index postings are empty-valued keys; they must round-trip.
	if err := b.Put("empty", nil); err != nil {
		t.Fatalf("empty value rejected: %v", err)
	}
	v, ok, err := b.Get("empty")
	if err != nil || !ok || len(v) != 0 {
		t.Fatalf("empty value round-trip: %q ok=%v err=%v", v, ok, err)
	}
}

func conformScanError(t *testing.T, b Backend) {
	for _, k := range []string{"e/1", "e/2", "e/3"} {
		if err := b.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	sentinel := fmt.Errorf("stop here")
	visited := 0
	err := b.ScanFrom("e/", "", func(string, []byte) error {
		visited++
		return sentinel
	})
	if err != sentinel {
		t.Errorf("scan error = %v, want the callback's error", err)
	}
	if visited != 1 {
		t.Errorf("scan continued after error: visited %d", visited)
	}
}
