package kv

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
)

// seqID renders identifier number n the way the repository benchmark
// mints identifiers: in sequence.
func seqID(n int) string { return fmt.Sprintf("urn:pasoa:%032x", n) }

// randID renders identifier number n at random, the way ids.New mints
// identifiers in production; the same n renders the same identifier.
func randID(n int) string {
	r := rand.New(rand.NewPCG(uint64(n), 0x9e3779b97f4a7c15))
	return fmt.Sprintf("urn:pasoa:%016x%016x", r.Uint64(), r.Uint64())
}

// storeLogKeys lists, in the order a replay meets them, the keys of a
// provenance store's log after a run shaped like the repository
// benchmark's sync-small workload: 84 Record calls of 1,000 records (the
// populate), then 16,000 calls of one record with a call of 100 (an
// async ship) after every 166th, 109,600 records in all. A call logs its
// records' ≈ 80-byte storage keys in call order, then their 4 or 5
// (4.67 on average) ≈ 130-byte posting keys sorted, as one key batch:
// ≈ 621k keys, laid out in memory in that order.
func storeLogKeys(id func(int) string) []string {
	dims := []string{"sess", "svc", "data", "time", "state"}
	var keys, postings []string
	r := 0
	call := func(records int) {
		postings = postings[:0]
		for range records {
			skey := fmt.Sprintf("i/%s/sender/urn:actor:collate-sample/%08d", id(r/2), r)
			keys = append(keys, skey)
			for d, dim := range dims[:4+(r%3+1)/2] {
				postings = append(postings, fmt.Sprintf("x/%s/%s/%s", dim, id(r/(d+1)), skey))
			}
			r++
		}
		keys = append(keys, SortKeys(postings)...)
	}
	for range 84 {
		call(1000)
	}
	for i := range 16_000 {
		call(1)
		if i%166 == 165 {
			call(100)
		}
	}
	// A replay cuts the keys from shared buffers in log order, so keys
	// that follow one another in the log lie side by side in memory.
	var all strings.Builder
	for _, k := range keys {
		all.WriteString(k)
	}
	at := 0
	for i, k := range keys {
		keys[i] = all.String()[at : at+len(k)]
		at += len(k)
	}
	return keys
}

// BenchmarkOrderedBuild is the sort an owner's open pays: one Fold that
// builds the key set from scratch out of storeLogKeys' ≈ 621k writes,
// in log order, with identifiers minted in sequence and at random.
// ns/op is the Fold alone; the writes are appended off the clock.
func BenchmarkOrderedBuild(b *testing.B) {
	for _, ids := range []struct {
		name string
		id   func(int) string
	}{{"sequential", seqID}, {"random", randID}} {
		b.Run(ids.name, func(b *testing.B) {
			keys := storeLogKeys(ids.id)
			b.ReportAllocs()
			for b.Loop() {
				b.StopTimer()
				var o Ordered[int]
				o.Reserve(len(keys))
				for i, k := range keys {
					o.Put(k, i)
				}
				b.StartTimer()
				if n := o.Fold(nil).Len(); n != len(keys) {
					b.Fatalf("built %d keys from %d distinct writes", n, len(keys))
				}
			}
			b.ReportMetric(float64(len(keys))*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
		})
	}
}
