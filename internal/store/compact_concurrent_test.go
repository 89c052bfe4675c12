package store

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCompactDuringConcurrentWrites hammers the incremental compactors
// with writes and deletes racing repeated Compact calls, then checks
// the surviving state — live, and again after a reopen — against a
// deterministic model. Each writer owns a disjoint key range, so the
// final state does not depend on interleaving; what the test pins is
// that no concurrent write is lost to the swap and no compaction
// resurrects a deleted key. A reader probes absent keys — never written,
// and each writer's already-deleted ones — through Get and GetBatch the
// whole time: a lookup must answer "absent" without error while segments
// land and are swapped away underneath it.
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
					absent := []string{fmt.Sprintf("never/%06d", round), fmt.Sprintf("w0/%04d.5", round%perWriter)}
					for w := range deletedBelow {
						if n := int(deletedBelow[w].Load()); n > 0 {
							newest := (n - 1) / 3 * 3
							absent = append(absent, fmt.Sprintf("w%d/%04d", w, newest), fmt.Sprintf("w%d/%04d", w, round*3%(newest+3)))
						}
					}
					for _, k := range absent {
						if _, ok, err := b.Get(k); err != nil || ok {
							errCh <- fmt.Errorf("get absent %s: present=%v err=%v", k, ok, err)
							return
						}
					}
					_, present, err := b.GetBatch(absent)
					if err != nil {
						errCh <- fmt.Errorf("getbatch absent %v: %w", absent, err)
						return
					}
					for i, ok := range present {
						if ok {
							errCh <- fmt.Errorf("getbatch reports absent %s present", absent[i])
							return
						}
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
				if err := b.Scan("", func(k string, v []byte) error {
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
