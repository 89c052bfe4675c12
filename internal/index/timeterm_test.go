package index

import (
	"testing"
	"time"
)

// wantTimeTerm is the time term as the layout renders it: the bytes on
// disk that appendTimeTerm must reproduce.
func wantTimeTerm(ts time.Time) string { return ts.UTC().Format(timeLayout) }

// The time posting term is written digit by digit, byte for byte what
// the layout writes: the first and last instants of four-digit years,
// nanoseconds with trailing zeros, another zone, and the years the
// layout does not hold to four digits.
func TestTimeTermMatchesLayout(t *testing.T) {
	for _, ts := range []time.Time{
		time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2005, 6, 1, 12, 0, 0, 100, time.UTC),
		time.Date(2005, 6, 1, 12, 0, 0, 120000000, time.UTC),
		time.Date(2005, 6, 1, 12, 0, 0, 1, time.UTC),
		time.Date(2000, 2, 29, 9, 8, 7, 6050, time.FixedZone("x", -5*3600-30*60)),
		time.Date(-1, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		{},
	} {
		if got, want := TimeTerm(ts), wantTimeTerm(ts); got != want {
			t.Errorf("TimeTerm(%v) = %q, want %q", ts, got, want)
		}
	}
}

// FuzzTimeTerm: for any instant of the years 0–9999, in any zone, and
// any nanosecond, the term is the layout's.
func FuzzTimeTerm(f *testing.F) {
	f.Add(int64(0), int64(0), int32(0))
	f.Add(int64(1117627200), int64(123456789), int32(3600))
	f.Add(int64(-62167219200), int64(0), int32(0))         // 0000-01-01
	f.Add(int64(253402300799), int64(999999999), int32(0)) // 9999-12-31T23:59:59
	f.Fuzz(func(t *testing.T, sec, nsec int64, offset int32) {
		const first, last = -62167219200, 253402300799 // 0000-01-01 and 9999-12-31T23:59:59, UTC
		if sec < first || sec > last {
			sec = first + (sec%(last-first+1)+(last-first+1))%(last-first+1)
		}
		ts := time.Unix(sec, nsec%1e9).In(time.FixedZone("z", int(offset%(18*3600))))
		if got, want := string(appendTimeTerm([]byte("x/"), ts)), "x/"+wantTimeTerm(ts); got != want {
			t.Fatalf("appendTimeTerm(%v) = %q, want %q", ts, got, want)
		}
	})
}
