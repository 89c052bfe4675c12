package obs

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"preserv/internal/reuse"
)

// DefaultSpanRing is the default capacity of a tracer's ring, its
// component's history.
const DefaultSpanRing = 128

// DefaultSlowThreshold is the duration above which a finished span is
// kept in the ring.
const DefaultSlowThreshold = 100 * time.Millisecond

// Attr is one span attribute. Values are pre-rendered strings so the
// ring holds no live references into the operation that produced it.
type Attr struct {
	Key   string
	Value string
}

// Span records one operation: name, start, duration, error tag,
// attributes, and linkage to a parent span. All methods are nil-safe —
// a disabled tracer returns nil spans and the instrumented code runs
// with zero timing overhead (no time.Now, no allocation).
//
// A span from StartSpan or StartChild comes from a pool, and End hands
// it back unless the ring keeps it: once it has ended, its caller does
// not touch it again. Its numeric attributes (SetInt, SetInts,
// SetStrings) are rendered to strings only when the ring keeps it.
type Span struct {
	tracer   *Tracer
	id       uint64
	parentID uint64
	op       string
	start    time.Time
	duration time.Duration
	errMsg   string
	attrs    []Attr
	lazy     []lazyAttr // attributes whose values render when the ring keeps the span
	done     bool
	event    bool // made by StartEvent: the ring keeps it whatever its duration
}

// lazyAttr is an attribute held as it was set, attrs[at]'s value once
// rendered: n, or ints or strs joined by commas, as list says.
type lazyAttr struct {
	at   int
	list byte // 0, 'i' or 's'
	n    int64
	ints []int
	strs []string
}

// spans recycles the spans the ring does not keep.
var spans = sync.Pool{New: func() any { return new(Span) }}

// Op returns the operation name ("" on a nil span).
func (s *Span) Op() string {
	if s == nil {
		return ""
	}
	return s.op
}

// ID returns the span's tracer-unique id (0 on a nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// ParentID returns the parent span's id, or 0 for a root span.
func (s *Span) ParentID() uint64 {
	if s == nil {
		return 0
	}
	return s.parentID
}

// Start returns the span's start time (zero on a nil span).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns the measured duration; before End it returns the
// elapsed time so far.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	if s.done {
		return s.duration
	}
	return time.Since(s.start)
}

// Err returns the error message recorded at End ("" if none).
func (s *Span) Err() string {
	if s == nil {
		return ""
	}
	return s.errMsg
}

// Attrs returns the span's attributes, rendered (nil on a nil span).
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.render()
	return s.attrs
}

// SetAttr appends one attribute. Spans are operation-local (owned by
// one goroutine until End), so this needs no locking. The value is
// kept as it is: one that aliases memory the operation reuses (a
// request's decoded strings) is copied first.
func (s *Span) SetAttr(key, value string) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	return s
}

// SetInt appends an integer attribute, rendered only if the ring keeps
// the span.
func (s *Span) SetInt(key string, v int64) *Span {
	return s.setLazy(key, lazyAttr{n: v})
}

// SetInts appends an attribute of integers, rendered joined by commas
// only if the ring keeps the span; vs stays unchanged until End.
func (s *Span) SetInts(key string, vs []int) *Span {
	return s.setLazy(key, lazyAttr{list: 'i', ints: vs})
}

// SetStrings is SetInts for strings.
func (s *Span) SetStrings(key string, vs []string) *Span {
	return s.setLazy(key, lazyAttr{list: 's', strs: vs})
}

func (s *Span) setLazy(key string, u lazyAttr) *Span {
	if s == nil {
		return nil
	}
	u.at = len(s.attrs)
	s.attrs = append(s.attrs, Attr{Key: key})
	s.lazy = append(s.lazy, u)
	return s
}

// render renders the attributes set unrendered. With none it writes
// nothing, so readers of a span the ring keeps, rendered when it was
// kept, may call it at once.
func (s *Span) render() {
	if len(s.lazy) == 0 {
		return
	}
	for _, u := range s.lazy {
		var v []byte
		switch u.list {
		case 'i':
			for i, n := range u.ints {
				if i > 0 {
					v = append(v, ',')
				}
				v = strconv.AppendInt(v, int64(n), 10)
			}
		case 's':
			for i, str := range u.strs {
				if i > 0 {
					v = append(v, ',')
				}
				v = append(v, str...)
			}
		default:
			v = strconv.AppendInt(v, u.n, 10)
		}
		s.attrs[u.at].Value = string(v)
	}
	clear(s.lazy)
	s.lazy = s.lazy[:0]
}

// End finishes the span, tagging it with err (may be nil), and
// publishes it to the tracer's ring if it is an event, failed or is slow
// enough; a span the ring does not keep goes back to the pool.
func (s *Span) End(err error) {
	s.end(err)
}

// end is End, returning the span's duration.
func (s *Span) end(err error) time.Duration {
	if s == nil || s.done {
		return 0
	}
	s.done = true
	d := time.Since(s.start)
	s.duration = d
	if err != nil {
		s.errMsg = err.Error()
	}
	s.tracer.record(s)
	return d
}

// Observe is a convenience for the span-plus-histogram idiom: it Ends
// the span and records its duration in seconds into h. Both the span
// and h may be nil.
func (s *Span) Observe(h *Histogram, err error) {
	if s != nil {
		d := s.end(err)
		if h != nil {
			h.Observe(d.Seconds())
		}
		return
	}
	// Span disabled: nothing was timed, so there is nothing to observe.
}

// Tracer keeps a bounded ring of finished spans, the component's
// history: every event, every span that failed and every slow span.
// Such a span is copied in under a mutex, which keeps snapshotting
// trivial; any other span takes no lock.
type Tracer struct {
	nextID atomic.Uint64
	slowNS atomic.Int64 // threshold in nanoseconds; <=0 disables slow capture

	mu      sync.Mutex
	slow    []*Span
	slowPos int
	slowLen int
}

// NewTracer returns a tracer whose ring holds up to cap spans
// (cap <= 0 selects DefaultSpanRing).
func NewTracer(cap int) *Tracer {
	if cap <= 0 {
		cap = DefaultSpanRing
	}
	t := &Tracer{slow: make([]*Span, cap)}
	t.slowNS.Store(int64(DefaultSlowThreshold))
	return t
}

// SetSlowThreshold sets the duration at or above which finished spans
// are kept in the ring; zero or negative disables slow capture.
func (t *Tracer) SetSlowThreshold(d time.Duration) { t.slowNS.Store(int64(d)) }

// StartSpan begins a span named op. It returns nil while
// instrumentation is disabled; all Span methods tolerate nil.
func (t *Tracer) StartSpan(op string) *Span {
	return t.StartChild(op, nil)
}

// StartChild begins a span linked to parent (which may be nil for a
// root span, or a nil span from a disabled period).
func (t *Tracer) StartChild(op string, parent *Span) *Span {
	if t == nil || !enabled.Load() {
		return nil
	}
	s := spans.Get().(*Span)
	*s = Span{tracer: t, id: t.nextID.Add(1), op: op, start: time.Now(), attrs: s.attrs, lazy: s.lazy}
	if parent != nil {
		s.parentID = parent.id
	}
	return s
}

// StartEvent begins a span for background work (a compaction, a
// store's open, a journal adoption). Unlike StartSpan it is made while
// timing instrumentation is off too, and End keeps it in the ring
// whatever its duration: the history does not depend on the switch.
func (t *Tracer) StartEvent(op string) *Span {
	return &Span{tracer: t, id: t.nextID.Add(1), op: op, start: time.Now(), event: true}
}

func (t *Tracer) record(s *Span) {
	if slowNS := t.slowNS.Load(); !s.event && s.errMsg == "" && (slowNS <= 0 || int64(s.duration) < slowNS) {
		clear(s.attrs)
		clear(s.lazy)
		s.attrs, s.lazy = reuse.Trim(s.attrs), reuse.Trim(s.lazy)
		spans.Put(s)
		return
	}
	s.render()
	t.mu.Lock()
	t.slow[t.slowPos] = s
	t.slowPos = (t.slowPos + 1) % len(t.slow)
	if t.slowLen < len(t.slow) {
		t.slowLen++
	}
	t.mu.Unlock()
}

// Slow returns the spans currently in the ring, oldest first. The
// returned slice is freshly allocated.
func (t *Tracer) Slow() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, 0, t.slowLen)
	start := t.slowPos - t.slowLen
	if start < 0 {
		start += len(t.slow)
	}
	for i := 0; i < t.slowLen; i++ {
		out = append(out, t.slow[(start+i)%len(t.slow)])
	}
	return out
}
