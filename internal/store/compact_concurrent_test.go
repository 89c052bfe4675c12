package store

import (
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
)

// TestCompactDuringConcurrentWrites hammers the incremental compactors
// with writes and deletes racing repeated Compact calls, then checks
// the surviving state — live, and again after a reopen — against a
// deterministic model. Each writer owns a disjoint key range, so the
// final state does not depend on interleaving; what the test pins is
// that no concurrent write is lost to the swap and no compaction
// resurrects a deleted key. A reader probes the store the whole time:
// absent keys — never written, and each writer's already-deleted ones —
// must read absent, and the live seed keys no writer touches again must
// read present with their exact values, through Get, GetBatch and
// ScanFrom alike, while segments land and are swapped away underneath.
func TestCompactDuringConcurrentWrites(t *testing.T) {
	open := map[string]func(t *testing.T, dir string) Backend{
		"file": func(t *testing.T, dir string) Backend {
			b, err := NewFileBackend(dir)
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
		"kvdb": func(t *testing.T, dir string) Backend {
			b, err := NewKVBackend(dir)
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
	}
	for name, openFn := range open {
		name, openFn := name, openFn
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			b := openFn(t, dir)

			const writers = 4
			const perWriter = 200
			// Seed some garbage so the first Compact has work.
			for i := 0; i < 50; i++ {
				if err := b.Put(fmt.Sprintf("seed/%03d", i), []byte(fmt.Sprintf("s%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 25; i++ {
				if err := b.Delete(fmt.Sprintf("seed/%03d", i)); err != nil {
					t.Fatal(err)
				}
			}

			// deletedBelow[w] is writer w's delete frontier: its keys at
			// multiples of three below that index are deleted for good.
			var deletedBelow [writers]atomic.Int64
			errCh := make(chan error, writers+2)
			done := make(chan struct{})
			var cwg sync.WaitGroup
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				for {
					if err := b.(interface{ Compact() error }).Compact(); err != nil {
						errCh <- fmt.Errorf("compact: %w", err)
						return
					}
					select {
					case <-done:
						return
					default:
					}
				}
			}()
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				for round := 0; ; round++ {
					if err := probeAbsent(b, round, perWriter, deletedBelow[:]); err != nil {
						errCh <- err
						return
					}
					if err := probeLiveSeed(b); err != nil {
						errCh <- err
						return
					}
					select {
					case <-done:
						return
					default:
					}
				}
			}()
			var wwg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wwg.Add(1)
				go func(w int) {
					defer wwg.Done()
					for i := 0; i < perWriter; i++ {
						key := fmt.Sprintf("w%d/%04d", w, i)
						if err := b.Put(key, []byte(fmt.Sprintf("v%d-%d", w, i))); err != nil {
							errCh <- fmt.Errorf("put %s: %w", key, err)
							return
						}
						// Delete every third of this writer's own keys a
						// little behind the write frontier, so deletions
						// race the compactor's snapshot window too.
						if i >= 3 && i%3 == 0 {
							dk := fmt.Sprintf("w%d/%04d", w, i-3)
							if err := b.Delete(dk); err != nil {
								errCh <- fmt.Errorf("delete %s: %w", dk, err)
								return
							}
							deletedBelow[w].Store(int64(i - 2))
						}
					}
				}(w)
			}
			wwg.Wait()
			close(done)
			cwg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}

			// One final compaction on the quiescent store.
			if err := b.(interface{ Compact() error }).Compact(); err != nil {
				t.Fatal(err)
			}

			model := make(map[string]string)
			for i := 25; i < 50; i++ {
				model[fmt.Sprintf("seed/%03d", i)] = fmt.Sprintf("s%d", i)
			}
			for w := 0; w < writers; w++ {
				for i := 0; i < perWriter; i++ {
					if i%3 == 0 && i+3 <= perWriter-1 {
						continue // deleted by its writer three steps later
					}
					model[fmt.Sprintf("w%d/%04d", w, i)] = fmt.Sprintf("v%d-%d", w, i)
				}
			}

			check := func(stage string, b Backend) {
				got := make(map[string]string)
				if err := b.ScanFrom("", "", func(k string, v []byte) error {
					got[k] = string(v)
					return nil
				}); err != nil {
					t.Fatalf("%s scan: %v", stage, err)
				}
				if !reflect.DeepEqual(got, model) {
					t.Fatalf("%s: %d keys survive, want %d (state diverged)", stage, len(got), len(model))
				}
			}
			check("live", b)
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			b2 := openFn(t, dir)
			defer b2.Close()
			check("reopened", b2)
		})
	}
}

// probeAbsent checks that never-written keys and each writer's deleted
// ones (below its frontier in deletedBelow) read absent without error.
func probeAbsent(b Backend, round, perWriter int, deletedBelow []atomic.Int64) error {
	absent := []string{fmt.Sprintf("never/%06d", round), fmt.Sprintf("w0/%04d.5", round%perWriter)}
	for w := range deletedBelow {
		if n := int(deletedBelow[w].Load()); n > 0 {
			newest := (n - 1) / 3 * 3
			absent = append(absent, fmt.Sprintf("w%d/%04d", w, newest), fmt.Sprintf("w%d/%04d", w, round*3%(newest+3)))
		}
	}
	for _, k := range absent {
		if _, ok, err := b.Get(k); err != nil || ok {
			return fmt.Errorf("get absent %s: present=%v err=%v", k, ok, err)
		}
	}
	_, present, err := b.GetBatch(absent)
	if err != nil {
		return fmt.Errorf("getbatch absent %v: %w", absent, err)
	}
	for i, ok := range present {
		if ok {
			return fmt.Errorf("getbatch reports absent %s present", absent[i])
		}
	}
	return nil
}

// probeLiveSeed checks that the surviving seed keys, seed/025–seed/049,
// which no writer touches after the seeding, read present with their
// exact values through Get, GetBatch and ScanFrom.
func probeLiveSeed(b Backend) error {
	var keys, want []string
	for i := 25; i < 50; i++ {
		keys = append(keys, fmt.Sprintf("seed/%03d", i))
		want = append(want, fmt.Sprintf("s%d", i))
	}
	for i, k := range keys {
		if v, ok, err := b.Get(k); err != nil || !ok || string(v) != want[i] {
			return fmt.Errorf("get live %s = %q present=%v err=%v, want %q", k, v, ok, err, want[i])
		}
	}
	values, present, err := b.GetBatch(keys)
	if err != nil {
		return fmt.Errorf("getbatch live: %w", err)
	}
	for i, k := range keys {
		if !present[i] || string(values[i]) != want[i] {
			return fmt.Errorf("getbatch live %s = %q present=%v, want %q", k, values[i], present[i], want[i])
		}
	}
	var scanned []string
	if err := b.ScanFrom("seed/", "", func(k string, v []byte) error {
		scanned = append(scanned, k+"="+string(v))
		return nil
	}); err != nil {
		return fmt.Errorf("scanfrom live: %w", err)
	}
	for i, k := range keys {
		if i >= len(scanned) || scanned[i] != k+"="+want[i] {
			return fmt.Errorf("scanfrom live = %v, want %d seed keys from %s", scanned, len(keys), keys[0])
		}
	}
	if len(scanned) != len(keys) {
		return fmt.Errorf("scanfrom live = %v, want %d seed keys", scanned, len(keys))
	}
	return nil
}

// TestConcurrentDeletesCompactOnce races deletes across CompactRatio
// while readers scan. A delete that leaves the store at the ratio
// compacts it, after checking the ratio again under the store's
// compaction lock: every compaction a delete triggered found at least
// CompactRatio garbage, so none rewrote a log that a concurrent delete's
// compaction had just reclaimed. No reader ever misses a live record.
func TestConcurrentDeletesCompactOnce(t *testing.T) {
	for _, but := range allBackends() {
		t.Run(but.name, func(t *testing.T) {
			s := New(but.open(t))
			keep := seq.NewID()
			var kept []core.Record
			for i := 0; i < 16; i++ {
				kept = append(kept, mkInteraction(keep, "svc:gzip", "compress"))
			}
			if _, _, err := s.Record("svc:enactor", kept); err != nil {
				t.Fatal(err)
			}
			const deleters, perDeleter, perSession, readers = 4, 6, 4, 2
			var doomed [deleters][]ids.ID
			for d := range doomed {
				for i := 0; i < perDeleter; i++ {
					session := seq.NewID()
					var recs []core.Record
					for j := 0; j < perSession; j++ {
						recs = append(recs, mkInteraction(session, "svc:ppmz", "compress"))
					}
					if _, _, err := s.Record("svc:enactor", recs); err != nil {
						t.Fatal(err)
					}
					doomed[d] = append(doomed[d], session)
				}
			}

			errCh := make(chan error, deleters+readers)
			done := make(chan struct{})
			var rwg sync.WaitGroup
			for r := 0; r < readers; r++ {
				rwg.Add(1)
				go func() {
					defer rwg.Done()
					for {
						recs, total, err := s.Query(&prep.Query{SessionID: keep})
						if err == nil && (total != len(kept) || len(recs) != len(kept)) {
							err = fmt.Errorf("a scan found %d of the %d kept records (total %d)", len(recs), len(kept), total)
						}
						if err != nil {
							errCh <- err
							return
						}
						select {
						case <-done:
							return
						default:
						}
					}
				}()
			}
			var dwg sync.WaitGroup
			for d := range doomed {
				dwg.Add(1)
				go func(sessions []ids.ID) {
					defer dwg.Done()
					for _, session := range sessions {
						if n, err := s.DeleteSession(session); err != nil || n != perSession {
							errCh <- fmt.Errorf("DeleteSession = %d, %v, want %d", n, err, perSession)
							return
						}
					}
				}(doomed[d])
			}
			dwg.Wait()
			close(done)
			rwg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}

			c := compactions(s)
			if len(c) == 0 {
				t.Fatal("no delete compacted the store")
			}
			for _, sp := range c {
				g, err := strconv.ParseFloat(spanAttr(sp, "garbage_before"), 64)
				if spanAttr(sp, "trigger") != "delete" || sp.Err() != "" || err != nil || g < CompactRatio {
					t.Errorf("compaction %v found garbage ratio %v: it rewrote a log below CompactRatio", sp.Attrs(), g)
				}
			}
			if got, total := recordsByScan(t, s, &prep.Query{}); total != len(kept) || len(got) != len(kept) {
				t.Fatalf("%d records after the deletes, want the %d kept", total, len(kept))
			}
		})
	}
}
