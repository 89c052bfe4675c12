package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/shard"
	"preserv/internal/store"
)

// Seam spans. The traced run decorates the four seams the shipped stack
// already has — the http.RoundTripper handed to preserv.NewClient, the
// http.Handler around svc.Handler(), every shard.Shard handed to
// shard.NewRouter and the store.Backend handed to store.New — and the
// harness opens a client.call span around each request. Nothing inside
// the program is touched.

// Span names, outermost first.
const (
	spanClient    = "client.call"
	spanTransport = "transport.roundtrip"
	spanHandle    = "preserv.handle"
	spanShard     = "shard.child"
	spanBackend   = "backend.op"
)

// span is one timed interval at a seam.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Seq    uint64 `json:"seq"` // the request's sequence number, shared by its whole tree
	Name   string `json:"name"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"` // backend ops: key+value bytes moved

	gid uint64 // goroutine that opened it, when the scope needed to know
}

// tracer collects spans in memory; it records nothing while off, so one
// topology serves both the traced and the untraced halves of a run.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Uint64
	t0     time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// scope is the set of spans currently open at one seam instance; the
// seam below it asks the scope which span caused a call. The store API
// carries no context, so causality is recovered from the goroutine: a
// request is served synchronously from the handler down to the backend,
// and the router's fan-out goroutines each run one child call whose
// own scope then holds exactly one span.
//
// Telling goroutines apart costs a stack header parse (~10 us), so it
// is done only when it has to be: a span entering an empty scope is
// not tagged — while it is the only one open every call is its — and
// only spans that join others are. At most one untagged span is open
// at a time, so with several open a caller is either a tagged span's
// goroutine or the untagged one's.
type scope struct {
	mu   sync.Mutex
	open []*span
}

func newScope() *scope { return &scope{} }

func (sc *scope) enter(sp *span) {
	sc.mu.Lock()
	if len(sc.open) > 0 {
		sp.gid = goid()
	}
	sc.open = append(sc.open, sp)
	sc.mu.Unlock()
}

func (sc *scope) exit(sp *span) {
	sc.mu.Lock()
	for i, o := range sc.open {
		if o == sp {
			sc.open = append(sc.open[:i], sc.open[i+1:]...)
			break
		}
	}
	sc.mu.Unlock()
}

// current returns the span a call made now belongs to, nil when none is
// open.
func (sc *scope) current() *span {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	switch len(sc.open) {
	case 0:
		return nil
	case 1:
		return sc.open[0]
	}
	g := goid()
	var untagged *span
	for _, sp := range sc.open {
		if sp.gid == g {
			return sp
		}
		if sp.gid == 0 {
			untagged = sp
		}
	}
	return untagged
}

// goid parses the calling goroutine's id off its stack header
// ("goroutine 123 [running]:"); the runtime offers nothing cheaper.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// seam is one decorated boundary: spans it opens are children of
// whatever is open in parent, and are themselves registered in own (nil
// for the backend, which has nothing below it).
type seam struct {
	t      *tracer
	name   string
	parent *scope
	own    *scope
}

func (s *seam) start(op string) *span {
	if s == nil || !s.t.on.Load() {
		return nil
	}
	sp := &span{ID: s.t.nextID.Add(1), Name: s.name, Op: op}
	if s.parent != nil {
		if p := s.parent.current(); p != nil {
			sp.Parent, sp.Seq = p.ID, p.Seq
		}
	}
	if s.own != nil {
		s.own.enter(sp)
	}
	sp.Start = s.t.now()
	return sp
}

func (s *seam) finish(sp *span) {
	if sp == nil {
		return
	}
	sp.End = s.t.now()
	if s.own != nil {
		s.own.exit(sp)
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, *sp)
	s.t.mu.Unlock()
}

// take removes and returns the spans collected so far.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// ---- client seam -----------------------------------------------------

// The parent span crosses the wire in these request headers, set by the
// transport decorator and read by the handler decorator.
const (
	hdrParent = "X-Bench-Span"
	hdrSeq    = "X-Bench-Seq"
)

type tracedTransport struct {
	inner http.RoundTripper
	seam  *seam
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := tt.seam.start("")
	if sp == nil {
		return tt.inner.RoundTrip(req)
	}
	// A round tripper must not modify the caller's request: send a copy
	// with its own header map.
	out := *req
	out.Header = req.Header.Clone()
	req = &out
	req.Header.Set(hdrParent, strconv.FormatUint(sp.ID, 10))
	req.Header.Set(hdrSeq, strconv.FormatUint(sp.Seq, 10))
	resp, err := tt.inner.RoundTrip(req)
	if err != nil {
		tt.seam.finish(sp)
		return nil, err
	}
	// The round trip ends when the reply body has been read, not when
	// its headers arrive.
	resp.Body = &tracedBody{ReadCloser: resp.Body, done: func() { tt.seam.finish(sp) }}
	return resp, nil
}

type tracedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// ---- service seam ----------------------------------------------------

type tracedHandler struct {
	inner http.Handler
	seam  *seam
}

func (th *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sp := th.seam.start("")
	if sp != nil {
		sp.Parent, _ = strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
		sp.Seq, _ = strconv.ParseUint(r.Header.Get(hdrSeq), 10, 64)
	}
	th.inner.ServeHTTP(w, r)
	th.seam.finish(sp)
}

// ---- shard seam ------------------------------------------------------

// fullShard is what every child the benchmark builds offers (both
// shard.Local and preserv.RemoteShard do); the decorator forwards all of
// it so the router behaves exactly as over the bare child.
type fullShard interface {
	shard.Shard
	shard.GenerationProber
	shard.ShardStatser
	shard.EngineStatser
}

type tracedShard struct {
	inner fullShard
	seam  *seam
}

var _ fullShard = (*tracedShard)(nil)

func (ts *tracedShard) Record(a core.ActorID, records []core.Record) (int, []prep.Reject, error) {
	sp := ts.seam.start("record")
	defer ts.seam.finish(sp)
	return ts.inner.Record(a, records)
}

func (ts *tracedShard) Query(q *prep.Query) ([]core.Record, int, error) {
	sp := ts.seam.start("query")
	defer ts.seam.finish(sp)
	return ts.inner.Query(q)
}

func (ts *tracedShard) QueryPlanned(q *prep.Query) ([]core.Record, int, *prep.QueryPlan, error) {
	sp := ts.seam.start("query-planned")
	defer ts.seam.finish(sp)
	return ts.inner.QueryPlanned(q)
}

func (ts *tracedShard) QueryPage(q *prep.Query, after string, n int) ([]core.Record, string, bool, *prep.QueryPlan, error) {
	sp := ts.seam.start("query-page")
	defer ts.seam.finish(sp)
	return ts.inner.QueryPage(q, after, n)
}

func (ts *tracedShard) Sessions() ([]ids.ID, error) {
	sp := ts.seam.start("sessions")
	defer ts.seam.finish(sp)
	return ts.inner.Sessions()
}

func (ts *tracedShard) Count() (prep.CountResponse, error) {
	sp := ts.seam.start("count")
	defer ts.seam.finish(sp)
	return ts.inner.Count()
}

func (ts *tracedShard) DeleteRecords(keys []string) (int, error) {
	sp := ts.seam.start("delete")
	defer ts.seam.finish(sp)
	return ts.inner.DeleteRecords(keys)
}

func (ts *tracedShard) DeleteSession(s ids.ID) (int, error) {
	sp := ts.seam.start("delete")
	defer ts.seam.finish(sp)
	return ts.inner.DeleteSession(s)
}

func (ts *tracedShard) Compact() error {
	sp := ts.seam.start("compact")
	defer ts.seam.finish(sp)
	return ts.inner.Compact()
}

// Generation is a span too: over a remote child it can cost a stats
// round trip, which belongs to the request that probed it.
func (ts *tracedShard) Generation() (uint64, bool) {
	sp := ts.seam.start("generation")
	defer ts.seam.finish(sp)
	return ts.inner.Generation()
}

func (ts *tracedShard) GarbageRatio() float64                { return ts.inner.GarbageRatio() }
func (ts *tracedShard) Tombstones() int64                    { return ts.inner.Tombstones() }
func (ts *tracedShard) Close() error                         { return ts.inner.Close() }
func (ts *tracedShard) ShardStats() (prep.ShardStats, error) { return ts.inner.ShardStats() }
func (ts *tracedShard) EngineStats() shard.EngineStats       { return ts.inner.EngineStats() }

// ---- backend seam ----------------------------------------------------

// tracedBackend times every Backend call and forwards the optional
// interfaces store.Store probes for (each reports zero when the inner
// backend lacks it, which is what the store does itself).
type tracedBackend struct {
	store.Backend
	seam *seam
}

func (tb *tracedBackend) op(name string, fn func() int64) {
	sp := tb.seam.start(name)
	n := fn()
	if sp != nil {
		sp.Bytes = n
	}
	tb.seam.finish(sp)
}

func (tb *tracedBackend) Put(key string, value []byte) (err error) {
	tb.op("put", func() int64 { err = tb.Backend.Put(key, value); return int64(len(key) + len(value)) })
	return err
}

func (tb *tracedBackend) PutBatch(kvs []store.KV) (err error) {
	tb.op("put-batch", func() int64 {
		err = tb.Backend.PutBatch(kvs)
		var n int64
		for i := range kvs {
			n += int64(len(kvs[i].Key) + len(kvs[i].Value))
		}
		return n
	})
	return err
}

func (tb *tracedBackend) Get(key string) (v []byte, ok bool, err error) {
	tb.op("get", func() int64 { v, ok, err = tb.Backend.Get(key); return int64(len(v)) })
	return v, ok, err
}

func (tb *tracedBackend) GetBatch(keys []string) (vs [][]byte, present []bool, err error) {
	tb.op("get-batch", func() int64 {
		vs, present, err = tb.Backend.GetBatch(keys)
		var n int64
		for _, v := range vs {
			n += int64(len(v))
		}
		return n
	})
	return vs, present, err
}

func (tb *tracedBackend) Delete(key string) (err error) {
	tb.op("delete", func() int64 { err = tb.Backend.Delete(key); return 0 })
	return err
}

func (tb *tracedBackend) DeleteBatch(keys []string) (err error) {
	tb.op("delete-batch", func() int64 { err = tb.Backend.DeleteBatch(keys); return 0 })
	return err
}

func (tb *tracedBackend) Scan(prefix string, fn func(string, []byte) error) error {
	return tb.ScanFrom(prefix, "", fn)
}

func (tb *tracedBackend) ScanFrom(prefix, from string, fn func(string, []byte) error) (err error) {
	tb.op("scan", func() int64 {
		var n int64
		err = tb.Backend.ScanFrom(prefix, from, func(k string, v []byte) error {
			n += int64(len(k) + len(v))
			return fn(k, v)
		})
		return n
	})
	return err
}

func (tb *tracedBackend) Count(prefix string) (n int, err error) {
	tb.op("count", func() int64 { n, err = tb.Backend.Count(prefix); return 0 })
	return n, err
}

func (tb *tracedBackend) Compact() error {
	if c, ok := tb.Backend.(store.Compacter); ok {
		return c.Compact()
	}
	return nil
}

func (tb *tracedBackend) GarbageRatio() float64 {
	if g, ok := tb.Backend.(store.GarbageReporter); ok {
		return g.GarbageRatio()
	}
	return 0
}

func (tb *tracedBackend) Tombstones() int64 {
	if t, ok := tb.Backend.(store.TombstoneReporter); ok {
		return t.Tombstones()
	}
	return 0
}

func (tb *tracedBackend) BloomStats() (skips, falsePositives, hits int64) {
	if b, ok := tb.Backend.(store.BloomStatser); ok {
		return b.BloomStats()
	}
	return 0, 0, 0
}

func (tb *tracedBackend) MappedBytes() int64 {
	if m, ok := tb.Backend.(interface{ MappedBytes() int64 }); ok {
		return m.MappedBytes()
	}
	return 0
}

// ---- analysis ----------------------------------------------------------

// requestTrace is the span tree of one request, reduced to what the
// per-layer metrics need.
type requestTrace struct {
	Op       string           // the client.call span's op
	Total    int64            // client.call duration, ns
	Self     map[string]int64 // span name -> ns during which it was the deepest open span
	Leak     int64            // ns of descendant spans lying outside the root interval
	ChildMax int64            // longest shard.child span (fan-out legs only)
	Fanout   int              // shard.child spans (fan-out legs only)
	Backend  int              // backend.op spans
	Written  int64            // bytes put
	Read     int64            // bytes got or scanned
}

// analyse groups spans into request trees and attributes every instant
// of a request to the deepest span open at that instant — self time as
// duration minus the union of child cover, which stays exact when the
// router's fan-out legs run concurrently. Spans whose request cannot be
// told (seq 0) are left out.
func analyse(spans []span) []requestTrace {
	byID := make(map[uint64]*span, len(spans))
	bySeq := make(map[uint64][]*span)
	for i := range spans {
		sp := &spans[i]
		byID[sp.ID] = sp
		if sp.Seq != 0 {
			bySeq[sp.Seq] = append(bySeq[sp.Seq], sp)
		}
	}
	depth := func(sp *span) int {
		d := 0
		for p := byID[sp.Parent]; p != nil; p = byID[p.Parent] {
			d++
		}
		return d
	}
	seqs := make([]uint64, 0, len(bySeq))
	for seq := range bySeq {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	type event struct {
		at    int64
		depth int
		open  bool
	}
	var out []requestTrace
	for _, seq := range seqs {
		var root *span
		for _, sp := range bySeq[seq] {
			if sp.Name == spanClient {
				root = sp
			}
		}
		if root == nil {
			continue
		}
		rt := requestTrace{Op: root.Op, Total: root.End - root.Start, Self: make(map[string]int64)}
		var events []event
		var names []string // span name by depth
		for _, sp := range bySeq[seq] {
			d := depth(sp)
			for len(names) <= d {
				names = append(names, "")
			}
			names[d] = sp.Name
			start, end := sp.Start, sp.End
			if start < root.Start {
				rt.Leak += root.Start - start
				start = root.Start
			}
			if end > root.End {
				rt.Leak += end - root.End
				end = root.End
			}
			if end > start {
				events = append(events, event{start, d, true}, event{end, d, false})
			}
			switch sp.Name {
			case spanShard:
				if sp.Op != "generation" {
					rt.Fanout++
					if dur := sp.End - sp.Start; dur > rt.ChildMax {
						rt.ChildMax = dur
					}
				}
			case spanBackend:
				rt.Backend++
				switch sp.Op {
				case "put", "put-batch":
					rt.Written += sp.Bytes
				case "get", "get-batch", "scan":
					rt.Read += sp.Bytes
				}
			}
		}
		sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })
		openAt := make([]int, len(names))
		last := root.Start
		for _, ev := range events {
			if ev.at > last {
				for d := len(openAt) - 1; d >= 0; d-- {
					if openAt[d] > 0 {
						rt.Self[names[d]] += ev.at - last
						break
					}
				}
				last = ev.at
			}
			if ev.open {
				openAt[ev.depth]++
			} else {
				openAt[ev.depth]--
			}
		}
		out = append(out, rt)
	}
	return out
}
