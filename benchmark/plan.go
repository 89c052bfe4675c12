package main

import (
	"fmt"
	"math/rand"

	"preserv/internal/core"
	"preserv/internal/prep"
	"preserv/internal/query"
)

// The oracle. The generator's model predicts every reply: a read
// operation is drawn together with the exact records (and Total) the
// store must return, before the clock starts, so checking a reply in
// the timed loop is a comparison of identifiers, not a second query.

// model is everything set-up stored, in generation order.
type model struct {
	small []*session
	big   []*session
	// units flattens the base store's units in generation (= timestamp)
	// order, for time-window queries.
	units []unitAt
}

type unitAt struct {
	s *session
	u int
}

func newModel(g *generator, w workload) *model {
	m := &model{
		small: g.newSessions(w.SmallSessions, w.SmallUnits),
		big:   g.newSessions(w.BigSessions, w.BigUnits),
	}
	for _, s := range m.sessions() {
		for u := range s.units {
			m.units = append(m.units, unitAt{s, u})
		}
	}
	return m
}

// sessions lists the base sessions in generation order.
func (m *model) sessions() []*session {
	return append(append([]*session(nil), m.small...), m.big...)
}

// walkSessions are the sessions the walk phase streams: the big ones
// where the workload has them.
func (m *model) walkSessions() []*session {
	if len(m.big) > 0 {
		return m.big
	}
	return m.small
}

// readOp is one query and its predicted reply.
type readOp struct {
	q     prep.Query
	want  []ref // the records of the reply, in storage-key order
	total int   // the reply's Total (matches before Limit)
}

// limitPage is the Limit the bounded query shapes carry.
const limitPage = 50

// windowUnits is how many consecutive permutation units (in time order)
// a service+window query spans.
const windowUnits = 40

// queryServices are the receivers session+service queries pick from.
var queryServices = []core.ActorID{activityService[0], activityService[1], activityService[3], activityService[5]}

func (op *readOp) finish(limit int) {
	sortRefs(op.want)
	op.total = len(op.want)
	if limit > 0 {
		op.q.Limit = limit
		if len(op.want) > limit {
			op.want = op.want[:limit]
		}
	}
}

// serviceRefs appends both records of every activity of un received by
// svc.
func serviceRefs(dst []ref, un *unit, svc core.ActorID) []ref {
	for k, recv := range activityService {
		if recv == svc {
			dst = append(dst, ref{un.inter[k], false}, ref{un.inter[k], true})
		}
	}
	return dst
}

// drawRead draws the i-th operation of a mix. The shape of operation i
// — which kind of query, for which service or data item — is a fixed
// function of i, so every run of a workload sends the same composition
// of cheap and expensive queries; the seed only chooses which sessions,
// units and time windows they address.
func (m *model) drawRead(rng *rand.Rand, mix string, i int) readOp {
	var op readOp
	s := m.small[rng.Intn(len(m.small))]
	switch {
	case mix == mixPoint:
		un := &s.units[rng.Intn(len(s.units))]
		if i%2 == 0 {
			k := (i / 2) % 6
			op.q.InteractionID = un.inter[k]
			op.want = []ref{{un.inter[k], false}, {un.inter[k], true}}
		} else {
			d := (i / 2) % dataPerUnit
			op.q.DataID = un.data[d]
			for _, k := range dataActivities[d] {
				op.want = append(op.want, ref{un.inter[k], false})
			}
		}
		op.finish(0)

	case mix == mixSession && i%20 == 19:
		// Session-free: what one service did in a time window.
		op.q.Service = queryServices[(i/20)%len(queryServices)]
		n := min(windowUnits, len(m.units))
		a := rng.Intn(len(m.units) - n + 1)
		first, last := m.units[a], m.units[a+n-1]
		op.q.Since = stamp(first.s.units[first.u].rec0)
		op.q.Until = stamp(last.s.units[last.u].rec0 + recordsPerUnit - 1)
		for _, at := range m.units[a : a+n] {
			op.want = serviceRefs(op.want, &at.s.units[at.u], op.q.Service)
		}
		op.finish(limitPage)

	case i%2 == 0: // everything one service did in a session
		op.q.SessionID = s.id
		op.q.Service = queryServices[(i/2)%len(queryServices)]
		for u := range s.units {
			op.want = serviceRefs(op.want, &s.units[u], op.q.Service)
		}
		op.finish(0)

	default: // a session's scripts, first page
		op.q.SessionID = s.id
		op.q.StateKind = core.StateScript
		for u := range s.units {
			for k := range s.units[u].inter {
				op.want = append(op.want, ref{s.units[u].inter[k], true})
			}
		}
		op.finish(limitPage)
	}
	return op
}

// drawReads draws n cold-mix operations.
func (m *model) drawReads(rng *rand.Rand, mix string, n int) []readOp {
	ops := make([]readOp, n)
	for i := range ops {
		ops[i] = m.drawRead(rng, mix, i)
	}
	return ops
}

// hotDistinct is the hot mix's working set: small enough for every
// result cache (query: 256 entries, router: 128).
const hotDistinct = 64

// drawHot draws n operations over hotDistinct distinct queries with
// Zipf(1.1) popularity.
func (m *model) drawHot(rng *rand.Rand, mix string, n int) []readOp {
	seen := make(map[string]bool)
	var set []readOp
	for i := 0; len(set) < hotDistinct; i++ {
		// Shapes follow the cold mix's sequence, so (duplicates aside) the
		// k-th most popular query has the same shape in every run.
		op := m.drawRead(rng, mix, i)
		if key := query.CacheKey(&op.q); !seen[key] {
			seen[key] = true
			set = append(set, op)
		}
	}
	zipf := rand.NewZipf(rng, 1.1, 1, hotDistinct-1)
	ops := make([]readOp, n)
	for i := range ops {
		ops[i] = set[zipf.Uint64()]
	}
	return ops
}

// distinct returns the first occurrence of every distinct query in ops.
func distinct(ops []readOp) []readOp {
	seen := make(map[string]bool)
	var out []readOp
	for i := range ops {
		if key := query.CacheKey(&ops[i].q); !seen[key] {
			seen[key] = true
			out = append(out, ops[i])
		}
	}
	return out
}

// sessionRefs predicts a whole-session walk: every record, in
// storage-key order.
func sessionRefs(s *session) []ref {
	out := make([]ref, 0, s.records())
	for u := range s.units {
		for _, iid := range s.units[u].inter {
			out = append(out, ref{iid, false}, ref{iid, true})
		}
	}
	sortRefs(out)
	return out
}

// pick draws n sessions, distinct as long as there are enough (then it
// goes round again).
func pick(rng *rand.Rand, from []*session, n int) []*session {
	perm := rng.Perm(len(from))
	out := make([]*session, n)
	for i := range out {
		out[i] = from[perm[i%len(perm)]]
	}
	return out
}

// checkReply compares a reply with its prediction.
func checkReply(got []core.Record, total int, op *readOp) error {
	if total != op.total {
		return fmt.Errorf("total %d, want %d", total, op.total)
	}
	return checkRecords(got, op.want)
}

func checkRecords(got []core.Record, want []ref) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		if refOf(&got[i]) != want[i] {
			return fmt.Errorf("record %d is %s, want interaction %s (state=%v)",
				i, got[i].StorageKey(), want[i].iid, want[i].state)
		}
	}
	return nil
}
