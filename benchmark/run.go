package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"preserv/internal/client"
	"preserv/internal/compare"
	"preserv/internal/core"
	"preserv/internal/obs"
	"preserv/internal/prep"
	"preserv/internal/preserv"
	"preserv/internal/soap"
	"preserv/internal/stats"
)

// config is what one run is given.
type config struct {
	seed     int64
	dir      string  // parent of the run's data directory
	baseMul  float64 // base-store multiplier (1 except in the smoke test)
	opsMul   float64 // operation-count multiplier (-seconds / refSeconds)
	setups   int     // how many times set-up runs (median reported)
	rounds   int     // how many interleaved rounds the timed phases are cut into
	traced   bool    // per-layer run: seam spans and direct probes
	traceOut string  // where the traced run writes its spans
}

// report is one run's outcome.
type report struct {
	Workload  string
	Seed      int64
	Traced    bool
	Attempted int
	Failed    int
	Failures  []string // the first few, verbatim
	Metrics   map[string]float64
	Samples   map[string]string // sample counts behind the timing metrics
	// Rounds holds, per metric reduced from per-round values, those values
	// in round order.
	Rounds map[string][]float64
	Phases []string // wall-clock seconds per phase, in order
	// Speed says what the bursts read over the run (calib.go).
	Speed string
}

// corruptOracle, set only by the smoke test, falsifies one predicted
// record so the test can show that a wrong reply fails the run.
var corruptOracle bool

// runner holds one run's state across its phases.
type runner struct {
	w     workload
	cfg   config
	rep   *report
	gen   *generator
	rng   *rand.Rand
	model *model
	root  string
	tp    *topology
	tr    *tracer
	cal   *calibrator // nil in the traced run: its times are as measured
	seq   atomic.Uint64
	// stored is how many records the store has acknowledged.
	stored int
	// faults counts replies that were soap faults.
	faults int
	// streams are the session-affine ingest streams; requests take their
	// batches from them round-robin.
	streams [4][]core.Record
	nextReq int
}

// phase notes how long a phase took since t0, generation included.
func (r *runner) phase(name string, t0 time.Time) {
	r.rep.Phases = append(r.rep.Phases, fmt.Sprintf("%s=%.1fs", name, time.Since(t0).Seconds()))
}

func (r *runner) fail(format string, args ...any) {
	r.rep.Failed++
	if len(r.rep.Failures) < 5 {
		r.rep.Failures = append(r.rep.Failures, fmt.Sprintf(format, args...))
	}
}

// check counts one verified operation.
func (r *runner) check(what string, err error) {
	r.rep.Attempted++
	if err != nil {
		var f *soap.Fault
		if errors.As(err, &f) {
			r.faults++
		}
		r.fail("%s: %v", what, err)
	}
}

// usage is what a timed section consumed.
type usage struct {
	cpu            time.Duration
	mallocs, bytes uint64
}

// segment is one timed section — one round's slice of a phase — and the
// work it did.
type segment struct {
	n   int           // records, or operations
	raw time.Duration // its timed calls as measured, summed
	ref float64       // the same at reference speed, ms
	use usage         // the whole section, the harness's share included
}

// timed sets what the section's timed calls took.
func (sg *segment) timed(c *calibrator, calls []sample) {
	for _, s := range calls {
		raw, ref := c.scale(s)
		sg.raw += raw
		sg.ref += ref
	}
}

func perSecond(sg segment) float64 { return ratio(float64(sg.n), sg.ref/1000) }

// cpuPerK is the section's processor time per thousand, at reference
// speed: scaled as its calls were.
func cpuPerK(sg segment) float64 {
	return ratio(ms(sg.use.cpu)*ratio(sg.ref, ms(sg.raw)), float64(sg.n)/1000)
}

// add folds o into sg.
func (sg *segment) add(o segment) {
	sg.n += o.n
	sg.raw += o.raw
	sg.ref += o.ref
	sg.use.cpu += o.use.cpu
	sg.use.mallocs += o.use.mallocs
	sg.use.bytes += o.use.bytes
}

// each applies f to every segment.
func each(segs []segment, f func(segment) float64) []float64 {
	vals := make([]float64, len(segs))
	for i, sg := range segs {
		vals[i] = f(sg)
	}
	return vals
}

// overRounds reduces a metric's per-round values to the one reported,
// their median. The rounds spread every metric's samples over the whole
// run, so a stretch of interference that the speed bursts do not see —
// a neighbour's memory traffic, the kernel writing pages back — costs
// every metric a round or two, which the median sets aside, instead of
// costing one metric its whole phase.
func (r *runner) overRounds(name string, vals []float64) {
	r.rep.Metrics[name] = stats.Median(vals)
	r.rep.Rounds[name] = vals
}

// measure runs fn as one section between two bursts and returns what it
// consumed, less what the bursts inside it did.
func (r *runner) measure(fn func()) usage {
	var m0, m1 runtime.MemStats
	r.cal.burst()
	runtime.ReadMemStats(&m0)
	b0, n0 := r.cal.spent()
	c0 := cpuTime()
	fn()
	c1 := cpuTime()
	b1, n1 := r.cal.spent()
	runtime.ReadMemStats(&m1)
	r.cal.burst()
	u := usage{cpu: c1 - c0 - (b1 - b0), mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc}
	if n := float64(n1 - n0); n > 0 {
		u.mallocs -= uint64(n*r.cal.mallocs + 0.5)
		u.bytes -= uint64(n*r.cal.bytes + 0.5)
	}
	return u
}

// conn is one client connection. Traced, every call is the root span of
// a request tree and takes the next sequence number.
type conn struct {
	c    *preserv.Client
	seam *seam
	seq  *atomic.Uint64
	// alt, when set, switches the tracer on for a random half of the
	// calls and keeps the two latency populations apart: the traced and
	// untraced p50s behind trace.overhead_ratio then come from
	// interleaved requests against the same store state. (Random, not
	// every other call: the mixes' shapes alternate too.)
	alt *alternation
}

type alternation struct {
	coin *rand.Rand
	lat  [2][]float64 // 0: tracer off, 1: tracer on
}

func newAlternation() *alternation { return &alternation{coin: rand.New(rand.NewSource(1))} }

// overhead is the traced p50 over the untraced p50.
func (a *alternation) overhead() float64 {
	return ratio(stats.Median(a.lat[1]), stats.Median(a.lat[0]))
}

func (r *runner) newConn() *conn {
	cn := &conn{seq: &r.seq}
	var sc *scope
	if r.tr != nil {
		sc = newScope()
		cn.seam = &seam{t: r.tr, name: spanClient, own: sc}
	}
	cn.c = r.tp.newClient(r.tp.url, sc)
	return cn
}

// call runs one request and returns when it started and how long it
// took.
func (cn *conn) call(op string, fn func()) sample {
	on := -1
	if cn.alt != nil {
		on = cn.alt.coin.Intn(2)
		cn.seam.t.on.Store(on == 1)
	}
	sp := cn.seam.start(op)
	if sp != nil {
		sp.Seq = cn.seq.Add(1)
	}
	t0 := time.Now()
	fn()
	s := sample{at: t0, d: time.Since(t0)}
	cn.seam.finish(sp)
	if on >= 0 {
		cn.alt.lat[on] = append(cn.alt.lat[on], ms(s.d))
	}
	return s
}

// ---- statistics ------------------------------------------------------

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank p-quantile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tails is the statistic behind the *_p99_ms metrics: the workload's
// frozen tail percentile (spec.go) of each round's samples. Taken per
// round and reduced like every other metric, a burst of interference
// costs the tail one round, not the run: pooled over the run, a burst
// longer than a hundredth of the samples would be the 99th percentile.
func tails(rounds [][]float64, pct float64) []float64 {
	var out []float64
	for _, xs := range rounds {
		if len(xs) > 0 { // a live window too short for its reader has none
			out = append(out, percentile(xs, pct))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ---- set-up ----------------------------------------------------------

// setUp builds the topology in a fresh directory and populates the base
// store; it returns how many seconds the stack spent on that (generation
// of the records is the harness's cost and is left out).
func (r *runner) setUp() (float64, error) {
	root, err := os.MkdirTemp(r.cfg.dir, r.w.Name+"-")
	if err != nil {
		return 0, err
	}
	r.root = root
	// The stores live in randomly named directories under one that
	// spreads its subdirectories over the disk (spreadSubdirs says why);
	// the placement follows the name.
	spreadSubdirs(root)
	data, err := os.MkdirTemp(root, "data-")
	if err != nil {
		return 0, err
	}
	r.cal.burst()
	stop := r.cal.background()
	defer stop()
	t0 := time.Now()
	tp, err := openTopology(r.w, data, r.tr)
	if err != nil {
		return 0, err
	}
	r.tp = tp
	calls := []sample{{at: t0, d: time.Since(t0)}}
	var batch []core.Record
	flush := func() error {
		t0 := time.Now()
		err := tp.populate(batch)
		calls = append(calls, sample{at: t0, d: time.Since(t0)})
		r.stored += len(batch)
		batch = batch[:0]
		return err
	}
	for _, s := range r.model.sessions() {
		for u := range s.units {
			batch = append(batch, unitRecords(s, u)...)
			if len(batch) >= 1000 {
				if err := flush(); err != nil {
					return 0, err
				}
			}
		}
	}
	if len(batch) > 0 {
		if err := flush(); err != nil {
			return 0, err
		}
	}
	stop()
	r.cal.burst()
	var spent segment
	spent.timed(r.cal, calls)
	return spent.ref / 1000, nil
}

// tearDown closes the topology and removes its directory.
func (r *runner) tearDown() error {
	var err error
	if r.tp != nil {
		err = r.tp.Close()
		r.tp = nil
	}
	if r.root != "" {
		if rerr := os.RemoveAll(r.root); err == nil {
			err = rerr
		}
		r.root = ""
	}
	r.stored = 0
	return err
}

// ---- ingest ----------------------------------------------------------

// nextBatch cuts the next request's records off the ingest streams:
// consecutive requests come from different sessions (and so, behind a
// router, different shards), each stream a succession of whole sessions.
func (r *runner) nextBatch() []core.Record {
	st := &r.streams[r.nextReq%len(r.streams)]
	r.nextReq++
	for len(*st) < r.w.Batch {
		*st = append(*st, sessionRecords(r.gen.newSession(r.w.SmallUnits))...)
	}
	n := r.w.Batch
	b := (*st)[:n:n]
	*st = (*st)[n:]
	return b
}

func (r *runner) nextBatches(n int) [][]core.Record {
	batches := make([][]core.Record, n)
	for i := range batches {
		batches[i] = r.nextBatch()
	}
	return batches
}

// ingestStats is what one ingest slice produced.
type ingestStats struct {
	calls []sample  // per Client.Record request
	lat   []float64 // the same at reference speed, ms
	seg   segment   // n counts records
}

func mallocsPer(sg segment) float64 { return ratio(float64(sg.use.mallocs), float64(sg.n)) }
func bytesPer(sg segment) float64   { return ratio(float64(sg.use.bytes), float64(sg.n)) }

// record sends one batch and checks the acknowledgement.
func (r *runner) record(cn *conn, batch []core.Record) sample {
	var resp *prep.RecordResponse
	var err error
	call := cn.call("record", func() { resp, err = cn.c.Record(asserter, batch) })
	switch {
	case err != nil:
	case resp.Accepted != len(batch) || len(resp.Rejects) > 0:
		err = fmt.Errorf("%d of %d accepted, %d rejects", resp.Accepted, len(batch), len(resp.Rejects))
	default:
		r.stored += len(batch)
	}
	r.check("record", err)
	return call
}

// ingest sends one Record request per batch, as one timed section.
func (r *runner) ingest(cn *conn, batches [][]core.Record) ingestStats {
	var st ingestStats
	st.seg.use = r.measure(func() {
		for _, b := range batches {
			r.cal.tick()
			st.calls = append(st.calls, r.record(cn, b))
			st.seg.n += len(b)
		}
	})
	st.lat = r.cal.all(st.calls)
	st.seg.timed(r.cal, st.calls)
	return st
}

// checkCount compares the store's record count with what was
// acknowledged.
func (r *runner) checkCount(cn *conn) {
	cnt, err := cn.c.Count()
	if err == nil && cnt.Records != r.stored {
		err = fmt.Errorf("store holds %d records, %d were acknowledged", cnt.Records, r.stored)
	}
	r.check("count", err)
}

// ---- async -------------------------------------------------------------

// shipper is the run's client.AsyncRecorder: Figure 4's asynchronous
// mode (batch 100, two batches in flight).
type shipper struct {
	r        *runner
	rec      *client.AsyncRecorder
	appendUS []float64 // per AsyncRecorder.Record call
	flush    time.Duration
	records  int
}

func (r *runner) newShipper(cn *conn) (*shipper, error) {
	rec, err := client.NewAsyncRecorder(asserter, filepath.Join(r.root, "journal"), 100, cn.c)
	if err != nil {
		return nil, err
	}
	rec.SetFlushConcurrency(2)
	return &shipper{r: r, rec: rec}, nil
}

// units generates the permutation units that make up n records.
func (r *runner) units(n int) [][]core.Record {
	var units [][]core.Record
	for n > 0 {
		s := r.gen.newSession(r.w.SmallUnits)
		for u := 0; u < len(s.units) && n > 0; u++ {
			units = append(units, unitRecords(s, u))
			n -= recordsPerUnit
		}
	}
	return units
}

// ship journals one permutation unit per Record call, then flushes; the
// section runs from the first Record until Flush returns.
func (sh *shipper) ship(units [][]core.Record) (segment, error) {
	sg := segment{}
	cal := sh.r.cal
	cal.burst()
	stop := cal.background()
	defer stop()
	t0 := time.Now()
	for _, u := range units {
		a0 := time.Now()
		if err := sh.rec.Record(u...); err != nil {
			return sg, err
		}
		sh.appendUS = append(sh.appendUS, us(time.Since(a0)))
		sg.n += len(u)
	}
	f0 := time.Now()
	if err := sh.rec.Flush(); err != nil {
		return sg, err
	}
	sh.flush += time.Since(f0)
	whole := sample{at: t0, d: time.Since(t0)}
	stop()
	cal.burst()
	sg.timed(cal, []sample{whole})
	sh.records += sg.n
	return sg, nil
}

// close checks that everything journalled was shipped and closes the
// recorder.
func (sh *shipper) close() error {
	var err error
	if shipped := int(sh.rec.Stats().Shipped); shipped != sh.records {
		err = fmt.Errorf("%d of %d records shipped", shipped, sh.records)
	} else {
		sh.r.stored += sh.records
	}
	sh.r.check("async flush", err)
	return sh.rec.Close()
}

// ---- reads -----------------------------------------------------------

// coldOps draws n operations of the workload's cold mix.
func (r *runner) coldOps(n int) []readOp {
	ops := r.model.drawReads(r.rng, r.w.Mix, n)
	if corruptOracle && len(ops) > 0 {
		ops[0].want[0].state = !ops[0].want[0].state
	}
	return ops
}

// read sends one planned query and checks the reply; plan is the plan
// the server reported.
func (r *runner) read(cn *conn, op *readOp) (call sample, n int, plan *prep.QueryPlan) {
	var recs []core.Record
	var total int
	var err error
	call = cn.call("query", func() { recs, total, plan, err = cn.c.QueryPlanned(&op.q) })
	if err == nil {
		err = checkReply(recs, total, op)
	}
	r.check("query", err)
	return call, len(recs), plan
}

// readStats is what one read slice produced.
type readStats struct {
	calls []sample
	lat   []float64 // the calls at reference speed, ms
	seg   segment   // n counts operations
	// Summed over uncached replies: what the planner examined per record
	// it returned.
	results, candidates, postings int
}

// reads sends ops as one timed section.
func (r *runner) reads(cn *conn, ops []readOp) readStats {
	st := readStats{seg: segment{n: len(ops)}}
	st.seg.use = r.measure(func() {
		for i := range ops {
			r.cal.tick()
			call, n, plan := r.read(cn, &ops[i])
			st.calls = append(st.calls, call)
			if plan != nil && !plan.Cached {
				st.results += n
				st.candidates += plan.Candidates
				st.postings += plan.Postings
			}
		}
	})
	st.lat = r.cal.all(st.calls)
	st.seg.timed(r.cal, st.calls)
	return st
}

// walkPage is the page size of the walk phase.
const walkPage = 200

// walks streams whole sessions as one timed section; n counts the
// records delivered.
func (r *runner) walks(cn *conn, sessions []*session) segment {
	wants := make([][]ref, len(sessions))
	for i, s := range sessions {
		wants[i] = sessionRefs(s)
	}
	sg := segment{}
	var calls []sample
	r.cal.burst()
	for i, s := range sessions {
		got, pos := 0, 0
		var err error
		r.cal.tick()
		calls = append(calls, cn.call("walk", func() {
			_, err = cn.c.QueryStream(&prep.Query{SessionID: s.id}, walkPage, func(rec *core.Record) error {
				if pos < len(wants[i]) && refOf(rec) == wants[i][pos] {
					pos++
				}
				if got++; got%walkPage == 0 {
					r.cal.tick() // between two pages of a long walk
				}
				return nil
			})
		}))
		if err == nil && (got != len(wants[i]) || pos != got) {
			err = fmt.Errorf("session %s: %d records delivered, %d in order, want %d", s.id.Short(), got, pos, len(wants[i]))
		}
		r.check("walk", err)
		sg.n += got
	}
	r.cal.burst()
	sg.timed(r.cal, calls)
	return sg
}

// scriptsPerSession is how many distinct scripts a generated session
// runs: one per service.
const scriptsPerSession = 4

// compares runs use case 1 on one session at a time and returns each
// run's duration at reference speed, in milliseconds.
func (r *runner) compares(cn *conn, sessions []*session) []float64 {
	var calls []sample
	cat := &compare.Categorizer{Store: cn.c}
	r.cal.burst()
	for _, s := range sessions {
		var c *compare.Categorization
		var err error
		r.cal.tick()
		calls = append(calls, cn.call("compare", func() { c, err = cat.CategorizeSessions(s.id) }))
		if err == nil && (len(c.Categories()) != scriptsPerSession || c.InteractionsScanned != len(s.units)*6) {
			err = fmt.Errorf("session %s: %d categories over %d interactions, want %d over %d",
				s.id.Short(), len(c.Categories()), c.InteractionsScanned, scriptsPerSession, len(s.units)*6)
		}
		r.check("compare", err)
	}
	r.cal.burst()
	return r.cal.all(calls)
}

// reopen closes the stack cleanly, reopens the same directories and
// times the way back to the first answered Count and query; seconds at
// reference speed.
func (r *runner) reopen() (float64, error) {
	if err := r.tp.Close(); err != nil {
		return 0, err
	}
	op := r.model.drawRead(r.rng, r.w.Mix, 0)
	runtime.GC() // a restarted process does not carry the closed stores' garbage
	r.cal.burst()
	stop := r.cal.background()
	defer stop()
	t0 := time.Now()
	tp, err := openTopology(r.w, r.tp.root, r.tr)
	if err != nil {
		return 0, err
	}
	r.tp = tp
	cn := r.newConn()
	r.checkCount(cn)
	r.read(cn, &op)
	whole := sample{at: t0, d: time.Since(t0)}
	stop()
	r.cal.burst()
	return r.cal.ms(whole) / 1000, nil
}

// ---- the end-to-end run ------------------------------------------------

// warmRequests is how many unmeasured requests precede the first ingest
// and query slices: they open the connection, the index and the
// planner's code paths, which a long-running service pays once.
const warmRequests = 10

func newRunner(w workload, cfg config) *runner {
	// Telemetry on, mmap on, default block cache: the cmd/preserv defaults.
	obs.SetEnabled(true)
	w = w.scaled(cfg.baseMul, cfg.opsMul)
	r := &runner{
		w:   w,
		cfg: cfg,
		rep: &report{
			Workload: w.Name, Seed: cfg.seed, Traced: cfg.traced,
			Metrics: map[string]float64{}, Samples: map[string]string{}, Rounds: map[string][]float64{},
		},
		gen: newGenerator(cfg.seed),
		rng: rand.New(rand.NewSource(cfg.seed)),
	}
	r.model = newModel(r.gen, w)
	if !cfg.traced {
		r.cal = newCalibrator()
	}
	return r
}

// slice returns round k's share [lo, hi) of n operations cut evenly
// into the run's rounds.
func (r *runner) slice(n, k int) (lo, hi int) {
	return n * k / r.cfg.rounds, n * (k + 1) / r.cfg.rounds
}

// runEndToEnd runs every phase untraced and reports the end-to-end
// metrics. After set-up the timed phases run as interleaved rounds —
// each round a slice of ingest, async, query-hot, query, walk and
// compare, in that order — so every metric samples the whole length of
// the run; see overRounds for how the rounds are reduced.
func runEndToEnd(w workload, cfg config) (rep *report, err error) {
	r := newRunner(w, cfg)
	defer func() {
		if terr := r.tearDown(); err == nil {
			err = terr
		}
	}()
	m := r.rep.Metrics
	// The collector runs only where the run calls it, between timed
	// sections (README, "The collector").
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// setup: several times over, median reported, the last one kept.
	t0 := time.Now()
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if err := r.tearDown(); err != nil {
			return nil, err
		}
		runtime.GC()
		spent, err := r.setUp()
		if err != nil {
			return nil, err
		}
		setups = append(setups, spent)
	}
	m["setup_s"] = stats.Median(setups)
	r.rep.Samples["setup_s"] = fmt.Sprintf("n=%d", len(setups))
	r.phase("setup", t0)

	t0 = time.Now()
	w = r.w
	cn := r.newConn()
	var reader *conn
	if w.Live {
		reader = r.newConn()
	}
	sh, err := r.newShipper(cn)
	if err != nil {
		return nil, err
	}
	// Every operation is drawn, with its predicted reply, before the first
	// round; the reads address the base store only, so the records the
	// rounds add do not change their answers.
	coldOps := r.coldOps(w.Queries)
	hotOps := r.model.drawHot(r.rng, w.Mix, w.HotOps)
	walkSessions := pick(r.rng, r.model.walkSessions(), w.Walks)
	compareSessions := pick(r.rng, r.model.small, w.Compares)
	var livePool *readPool
	var soloOps []readOp
	if w.Live {
		soloOps = r.model.drawReads(r.rng, w.Mix, w.SoloQueries)
		// Pools large enough that the reader rarely wraps around.
		livePool = &readPool{cold: r.coldOps(20 * w.IngestRequests)}
		livePool.hot = r.model.drawHot(r.rng, w.Mix, 20*w.IngestRequests)
	}
	r.ingest(cn, r.nextBatches(warmRequests))
	r.reads(cn, r.model.drawReads(r.rng, w.Mix, warmRequests))

	var ingest, solo, soloReads, async, cold, walked []segment
	var recordLat, coldLat, hotLat [][]float64 // per round
	var compareP50 []float64
	for k := 0; k < cfg.rounds; k++ {
		lo, hi := r.slice(w.SoloRequests, k)
		soloBatches := r.nextBatches(hi - lo)
		lo, hi = r.slice(w.IngestRequests, k)
		batches := r.nextBatches(hi - lo)
		lo, hi = r.slice(w.AsyncRecords/recordsPerUnit, k)
		units := r.units((hi - lo) * recordsPerUnit)

		// The round's one collection, off the clock.
		runtime.GC()
		if w.Live {
			// Alone first, for the CPU and allocation metrics.
			solo = append(solo, r.ingest(cn, soloBatches).seg)
			lo, hi = r.slice(len(soloOps), k)
			soloReads = append(soloReads, r.reads(cn, soloOps[lo:hi]).seg)
			ing, c, h := r.live(cn, reader, batches, livePool)
			ingest = append(ingest, ing.seg)
			recordLat = append(recordLat, ing.lat)
			coldLat = append(coldLat, c.lat)
			hotLat = append(hotLat, h.lat)
		} else {
			ing := r.ingest(cn, batches)
			ingest = append(ingest, ing.seg)
			recordLat = append(recordLat, ing.lat)
		}

		sg, err := sh.ship(units)
		if err != nil {
			return nil, err
		}
		async = append(async, sg)

		if !w.Live {
			// The round's writes invalidated every result cache (and kvdb's
			// sorted key snapshot, which the first read rebuilds): an untimed
			// pass over the hot slice's distinct queries refills them. The
			// hot slice goes first for that reason.
			lo, hi = r.slice(len(hotOps), k)
			r.reads(cn, distinct(hotOps[lo:hi]))
			hotLat = append(hotLat, r.reads(cn, hotOps[lo:hi]).lat)
			lo, hi = r.slice(len(coldOps), k)
			c := r.reads(cn, coldOps[lo:hi])
			cold = append(cold, c.seg)
			coldLat = append(coldLat, c.lat)
		}

		lo, hi = r.slice(len(walkSessions), k)
		walked = append(walked, r.walks(cn, walkSessions[lo:hi]))
		lo, hi = r.slice(len(compareSessions), k)
		compareP50 = append(compareP50, stats.Median(r.compares(cn, compareSessions[lo:hi])))
	}
	if err := sh.close(); err != nil {
		return nil, err
	}
	r.phase("rounds", t0)

	cpuFrom, readsFrom := ingest, cold
	if w.Live {
		cpuFrom, readsFrom = solo, soloReads
	}
	var all segment
	for _, sg := range cpuFrom {
		all.add(sg)
	}
	m["ingest_allocs_per_rec"] = mallocsPer(all)
	m["ingest_alloc_bytes_per_rec"] = bytesPer(all)
	r.overRounds("ingest_cpu_ms_per_krec", each(cpuFrom, cpuPerK))
	r.overRounds("query_cpu_ms_per_kop", each(readsFrom, cpuPerK))
	r.overRounds("async_ship_rps", each(async, perSecond))
	r.overRounds("walk_rps", each(walked, perSecond))
	r.overRounds("compare_ms", compareP50)
	r.overRounds("ingest_rps", each(ingest, perSecond))
	r.overRounds("record_p50_ms", tails(recordLat, 0.5))
	r.overRounds("query_p50_ms", tails(coldLat, 0.5))
	r.overRounds("query_hot_p50_ms", tails(hotLat, 0.5))
	r.overRounds("record_p99_ms", tails(recordLat, w.RecordTail))
	r.overRounds("query_p99_ms", tails(coldLat, w.QueryTail))
	if w.Live {
		// Every window is slower than the one before (the store grows under
		// a per-write re-sort of its keys): a median over windows is read
		// off the two middle ones, and a tail reduced that way sets the last
		// windows aside, which are the tail. So the writer's metrics — the
		// same number of requests in every window — and the reader's tail
		// are taken over all windows together; the reader's medians stay
		// per window, because how many reads a window holds varies. The
		// per-window values stay in the report.
		var whole segment
		for _, sg := range ingest {
			whole.add(sg)
		}
		m["ingest_rps"] = perSecond(whole)
		m["record_p50_ms"] = percentile(slices.Concat(recordLat...), 0.5)
		m["record_p99_ms"] = percentile(slices.Concat(recordLat...), w.RecordTail)
		m["query_p99_ms"] = percentile(slices.Concat(coldLat...), w.QueryTail)
	}
	r.rep.Samples["record_p99_ms"] = fmt.Sprintf("p%g", 100*w.RecordTail)
	r.rep.Samples["query_p99_ms"] = fmt.Sprintf("p%g", 100*w.QueryTail)
	for name, rounds := range map[string][][]float64{"record_p50_ms": recordLat, "query_p50_ms": coldLat, "query_hot_p50_ms": hotLat} {
		n := 0
		for _, xs := range rounds {
			n += len(xs)
		}
		r.rep.Samples[name] = fmt.Sprintf("n=%d", n)
	}
	r.rep.Samples["walk_rps"] = fmt.Sprintf("n=%d", len(walkSessions))
	r.rep.Samples["compare_ms"] = fmt.Sprintf("n=%d", len(compareSessions))

	r.checkCount(cn)
	disk, err := r.tp.diskBytes()
	if err != nil {
		return nil, err
	}
	m["disk_bytes_per_rec"] = ratio(float64(disk), float64(r.stored))

	t0 = time.Now()
	took, err := r.reopen()
	if err != nil {
		return nil, err
	}
	m["reopen_s"] = took
	r.phase("reopen", t0)
	r.rep.Speed = r.cal.summary()
	return r.rep, nil
}

// readPool is what a live window's reader draws from; the cursors carry
// over from one window to the next.
type readPool struct {
	cold, hot   []readOp
	ncold, nhot int
}

// live runs one ingest slice on one connection concurrently with the
// query mixes on another: the reader draws from the cold mix until the
// writer is half done, then from the hot mix until it finishes.
func (r *runner) live(writer, reader *conn, batches [][]core.Record, pool *readPool) (ing ingestStats, cold, hot readStats) {
	var sent atomic.Int64
	// The writer's checks run on its own runner view; fold them in after.
	wr := &runner{w: r.w, rep: &report{}}
	done := make(chan struct{})
	t0 := time.Now()
	var window sample
	r.cal.burst()
	stop := r.cal.background()
	go func() {
		defer close(done)
		for _, b := range batches {
			ing.calls = append(ing.calls, wr.record(writer, b))
			sent.Add(1)
		}
		window = sample{at: t0, d: time.Since(t0)}
	}()
	// Reader and writer spend the window inside requests tens of
	// milliseconds long: the bursts run beside them, and every call is
	// scaled once the window is over.
	half := int64(len(batches) / 2)
	for ; sent.Load() < half; pool.ncold++ {
		call, _, _ := r.read(reader, &pool.cold[pool.ncold%len(pool.cold)])
		cold.calls = append(cold.calls, call)
	}
	for ; ; pool.nhot++ {
		select {
		case <-done:
			stop()
			r.cal.burst()
			r.rep.Attempted += wr.rep.Attempted
			r.rep.Failed += wr.rep.Failed
			r.rep.Failures = append(r.rep.Failures, wr.rep.Failures...)
			r.stored += wr.stored
			ing.seg.n = wr.stored
			ing.seg.timed(r.cal, []sample{window})
			ing.lat, cold.lat, hot.lat = r.cal.all(ing.calls), r.cal.all(cold.calls), r.cal.all(hot.calls)
			return ing, cold, hot
		default:
		}
		call, _, _ := r.read(reader, &pool.hot[pool.nhot%len(pool.hot)])
		hot.calls = append(hot.calls, call)
	}
}
