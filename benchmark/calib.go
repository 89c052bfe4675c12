package main

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The speed reference. The reference sandbox gives the benchmark cores
// of a shared host whose speed for ordinary Go code — decoding XML,
// filling maps, sorting, allocating — moves between levels up to 2x
// apart and stays at one for 0.1 to 30 s (README, "Reference speed").
// A run of twenty seconds reads whatever levels it met, and ten runs of
// unchanged code spread by a quarter. So the timed loops interleave a
// fixed piece of standard-library work, the burst, with the requests —
// one whenever calEvery has passed since the last, between requests,
// never inside one — and every measured time is reported at reference
// speed: multiplied by calRefUS over the median duration of the bursts
// within calWindow of it. A burst uses nothing of this repository, so no
// change to the program can move the reference.

const (
	// calEvery is how long after a burst the next one is due.
	calEvery = 8 * time.Millisecond
	// calWindow is how near a burst must be to a timed interval to judge
	// its speed.
	calWindow = 40 * time.Millisecond
	// calRefUS is the burst duration every time is scaled to: what a burst
	// takes on the reference box at the level it is at most often.
	calRefUS = 200.0
)

// calDoc is what a burst decodes: an envelope of the size and nesting of
// a small PReP message.
type calDoc struct {
	XMLName xml.Name  `xml:"envelope"`
	Items   []calItem `xml:"body>item"`
}

type calItem struct {
	ID    string   `xml:"id,attr"`
	Kind  string   `xml:"kind"`
	Links []string `xml:"links>link"`
	Text  string   `xml:"text"`
}

var (
	calXML  []byte
	calKeys []string
	calSink int
)

func init() {
	var d calDoc
	for i := 0; i < 12; i++ {
		d.Items = append(d.Items, calItem{
			ID:    fmt.Sprintf("urn:cal:%04d", i),
			Kind:  "interaction",
			Links: []string{"urn:cal:a", "urn:cal:b", "urn:cal:c"},
			Text:  "the quick brown fox jumps over the lazy dog",
		})
	}
	calXML, _ = xml.Marshal(d)
	calKeys = make([]string, 4096)
	for i := range calKeys {
		calKeys[i] = fmt.Sprintf("cal/%08d", (i*7919)%len(calKeys))
	}
}

// calWork is one burst: decode the envelope, marshal it again, fill a map
// and sort its keys.
func calWork(round int) {
	var d calDoc
	if err := xml.NewDecoder(bytes.NewReader(calXML)).Decode(&d); err != nil {
		panic(err)
	}
	out, err := xml.Marshal(&d)
	if err != nil {
		panic(err)
	}
	m := make(map[string]int, 64)
	for i := 0; i < 400; i++ {
		m[calKeys[(i*31+round)%len(calKeys)]] += i
	}
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	calSink += len(out) + len(ks)
}

// sample is one timed call: when it started and how long it took.
type sample struct {
	at time.Time
	d  time.Duration
}

func (s sample) end() time.Time { return s.at.Add(s.d) }

// calibrator runs the bursts and scales samples by them. Only the
// goroutine that drives the run calls tick; the scaling is done after a
// section has ended. A nil calibrator never bursts and scales by one.
type calibrator struct {
	at   []time.Time     // when each burst started, ascending
	d    []time.Duration // how long it took
	cum  []time.Duration // cum[i] is the first i bursts' durations summed
	last time.Time       // when the last burst ended
	// mallocs and bytes are what one burst allocates, measured once.
	mallocs, bytes float64
}

func newCalibrator() *calibrator {
	c := &calibrator{cum: []time.Duration{0}}
	const n = 200
	for i := 0; i < 20; i++ {
		calWork(i)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		calWork(i)
	}
	runtime.ReadMemStats(&m1)
	c.mallocs = float64(m1.Mallocs-m0.Mallocs) / n
	c.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	return c
}

// burst runs one burst now.
func (c *calibrator) burst() {
	if c == nil {
		return
	}
	t0 := time.Now()
	calWork(len(c.at))
	c.last = time.Now()
	d := c.last.Sub(t0)
	c.at = append(c.at, t0)
	c.d = append(c.d, d)
	c.cum = append(c.cum, c.cum[len(c.cum)-1]+d)
}

// tick runs a burst if one is due.
func (c *calibrator) tick() {
	if c != nil && time.Since(c.last) >= calEvery {
		c.burst()
	}
}

// background runs the bursts from a goroutine of its own until the
// returned function is called: for the stretches in which the driving
// goroutine is inside one long call (opening a store) or waits for others
// (a live window, a flush). On one processor such a burst runs when the
// scheduler next switches goroutines, at the latest when it preempts the
// running one (10 ms), and what runs meanwhile waits: scale takes the
// burst out of the interval it fell into. The caller does not tick until
// it has called the function (calling it again does nothing).
func (c *calibrator) background() (stop func()) {
	if c == nil {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(calEvery)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				c.burst()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(quit); <-done }) }
}

// spent is the time and the number of bursts so far.
func (c *calibrator) spent() (time.Duration, int) {
	if c == nil {
		return 0, 0
	}
	return c.cum[len(c.cum)-1], len(c.at)
}

// span returns the indices [lo, hi) of the bursts that started in
// [from, to).
func (c *calibrator) span(from, to time.Time) (lo, hi int) {
	lo = sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(from) })
	hi = sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(to) })
	return lo, hi
}

// scale returns s's duration less the bursts that ran inside it, as
// measured and at reference speed (ms): multiplied by calRefUS over the
// median burst near it (the nearest on either side too, when the window
// holds fewer than three).
func (c *calibrator) scale(s sample) (raw time.Duration, ref float64) {
	if c == nil || len(c.at) == 0 {
		return s.d, ms(s.d)
	}
	lo, hi := c.span(s.at, s.end())
	raw = s.d - (c.cum[hi] - c.cum[lo])
	lo, hi = c.span(s.at.Add(-calWindow), s.end().Add(calWindow))
	if hi-lo < 3 {
		lo, hi = max(0, lo-1), min(len(c.at), hi+1)
	}
	near := append([]time.Duration(nil), c.d[lo:hi]...)
	sort.Slice(near, func(i, j int) bool { return near[i] < near[j] })
	med := near[len(near)/2]
	if len(near)%2 == 0 {
		med = (med + near[len(near)/2-1]) / 2
	}
	return raw, ms(raw) * calRefUS / us(med)
}

// ms is s at reference speed, in milliseconds.
func (c *calibrator) ms(s sample) float64 {
	_, ref := c.scale(s)
	return ref
}

// all is every sample at reference speed, in milliseconds.
func (c *calibrator) all(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = c.ms(s)
	}
	return out
}

// summary says how many bursts ran and what they read.
func (c *calibrator) summary() string {
	if c == nil || len(c.d) == 0 {
		return "no bursts: times are as measured"
	}
	d := append([]time.Duration(nil), c.d...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	q := func(p float64) float64 { return us(d[int(p*float64(len(d)-1))]) }
	return fmt.Sprintf("%d bursts, %.1f s in all; a burst took %.0f / %.0f / %.0f / %.0f / %.0f us (min, q1, median, q3, max); times are scaled to a burst of %g us",
		len(d), c.cum[len(c.cum)-1].Seconds(), q(0), q(0.25), q(0.5), q(0.75), q(1), calRefUS)
}
