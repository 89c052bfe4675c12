package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"time"

	"preserv/internal/core"
	"preserv/internal/experiment"
	"preserv/internal/ids"
)

// The generator emits the Measure workflow's documentation: per
// permutation unit, six activities (measure, gzip, measure, ppmz,
// measure, collate) with real data links, each documented by an
// interaction record and a script actor-state record in the enactor's
// view. Every identifier comes from one ids.SeqSource seeded by -seed
// and every timestamp is explicit, so storage keys, posting counts and
// encoded sizes are identical run to run.

// asserter is the actor every generated record is asserted by.
const asserter = experiment.SvcEnactor

// activity k of a unit is received by activityService[k].
var activityService = [6]core.ActorID{
	experiment.SvcMeasure,
	experiment.CompressorService("gzip"),
	experiment.SvcMeasure,
	experiment.CompressorService("ppmz"),
	experiment.SvcMeasure,
	experiment.SvcCollateSizes,
}

var activityOp = [6]string{"measure", "compress", "measure", "compress", "measure", "collate-permutation"}

// Data items of a unit, and the activities whose messages carry each —
// the unit's data-flow graph, which is also the oracle for DataID
// lookups.
const (
	dPermuted = iota
	dOrigSize
	dGzip
	dGzipSize
	dPpmz
	dPpmzSize
	dTable
	dataPerUnit
)

var dataActivities = [dataPerUnit][]int{
	dPermuted: {0, 1, 3},
	dOrigSize: {0, 5},
	dGzip:     {1, 2},
	dGzipSize: {2, 5},
	dPpmz:     {3, 4},
	dPpmzSize: {4, 5},
	dTable:    {5},
}

// part names one message part of an activity: its name and the unit
// data item flowing through it.
type part struct {
	name string
	data int
}

var activityIn = [6][]part{
	{{"data", dPermuted}},
	{{"sample", dPermuted}},
	{{"data", dGzip}},
	{{"sample", dPermuted}},
	{{"data", dPpmz}},
	{{"size-gzip", dGzipSize}, {"size-original", dOrigSize}, {"size-ppmz", dPpmzSize}},
}

var activityOut = [6][]part{
	{{"size", dOrigSize}},
	{{"compressed", dGzip}},
	{{"size", dGzipSize}},
	{{"compressed", dPpmz}},
	{{"size", dPpmzSize}},
	{{"sizes", dTable}},
}

// unit is the model of one permutation: everything needed to rebuild
// its twelve records, and to predict any query's answer, without
// keeping the records.
type unit struct {
	inter [6]ids.ID
	data  [dataPerUnit]ids.ID
	seq0  uint64 // session sequence number of activity 0
	rec0  int    // generation index of the unit's first record; fixes timestamps
}

// session is the model of one workflow run.
type session struct {
	id    ids.ID
	units []unit
}

func (s *session) records() int { return len(s.units) * recordsPerUnit }

// epoch is the timestamp of generation index 0; record n is stamped
// epoch + n ms, so generation order is time order.
var epoch = time.Date(2005, 7, 24, 9, 0, 0, 0, time.UTC)

func stamp(n int) time.Time { return epoch.Add(time.Duration(n) * time.Millisecond) }

type generator struct {
	src  *ids.SeqSource
	nrec int
}

func newGenerator(seed int64) *generator {
	return &generator{src: &ids.SeqSource{Prefix: uint64(seed)&0xFFFFFF | 0xB000000}}
}

// newSession allocates the identifiers of a session of n units.
func (g *generator) newSession(n int) *session {
	s := &session{id: g.src.NewID(), units: make([]unit, n)}
	for u := range s.units {
		un := &s.units[u]
		un.seq0 = uint64(u*6 + 1)
		un.rec0 = g.nrec
		g.nrec += recordsPerUnit
		for k := range un.inter {
			un.inter[k] = g.src.NewID()
		}
		for d := range un.data {
			un.data[d] = g.src.NewID()
		}
	}
	return s
}

func (g *generator) newSessions(count, units int) []*session {
	out := make([]*session, count)
	for i := range out {
		out[i] = g.newSession(units)
	}
	return out
}

// content documents data item d of a unit the way the enactor does
// with a 64-byte verbatim cap: sizes and the table verbatim, samples
// and compressed blobs by digest.
func content(id ids.ID, d int) (core.ContentStyle, core.Bytes) {
	switch d {
	case dOrigSize, dGzipSize, dPpmzSize:
		return core.StyleVerbatim, core.Bytes(fmt.Sprintf("%d", 1000+len(id.Short())*d))
	case dTable:
		return core.StyleVerbatim, core.Bytes("original=4096 gzip=1371 ppmz=1184")
	}
	sum := sha256.Sum256([]byte(id.String()))
	return core.StyleDigest, core.Bytes(sum[:])
}

func parts(un *unit, ps []part) []core.MessagePart {
	out := make([]core.MessagePart, len(ps))
	for i, p := range ps {
		style, c := content(un.data[p.data], p.data)
		out[i] = core.MessagePart{Name: p.name, DataID: un.data[p.data], Style: style, Content: c}
	}
	return out
}

// unitRecords rebuilds the twelve records of unit u of s, in generation
// order: per activity, the interaction record then its script record.
func unitRecords(s *session, u int) []core.Record {
	un := &s.units[u]
	out := make([]core.Record, 0, recordsPerUnit)
	for k := 0; k < 6; k++ {
		seq := un.seq0 + uint64(k)
		in := core.Interaction{ID: un.inter[k], Sender: asserter, Receiver: activityService[k], Operation: activityOp[k]}
		groups := []core.GroupRef{{Type: core.GroupSession, ID: s.id, Seq: seq}}
		out = append(out,
			*core.NewInteractionRecord(&core.InteractionPAssertion{
				LocalID:     fmt.Sprintf("exchange-%d", seq),
				Asserter:    asserter,
				Interaction: in,
				View:        core.SenderView,
				Request:     core.Message{Name: "invoke", Parts: parts(un, activityIn[k])},
				Response:    core.Message{Name: "result", Parts: parts(un, activityOut[k])},
				Groups:      groups,
				Timestamp:   stamp(un.rec0 + 2*k),
			}),
			*core.NewActorStateRecord(&core.ActorStatePAssertion{
				LocalID:     fmt.Sprintf("script-%d", seq),
				Asserter:    asserter,
				Interaction: in,
				View:        core.SenderView,
				StateKind:   core.StateScript,
				Content:     core.Bytes(experiment.DefaultScript(activityService[k], "")),
				Groups:      groups,
				Timestamp:   stamp(un.rec0 + 2*k + 1),
			}))
	}
	return out
}

// sessionRecords rebuilds every record of s in generation order.
func sessionRecords(s *session) []core.Record {
	out := make([]core.Record, 0, s.records())
	for u := range s.units {
		out = append(out, unitRecords(s, u)...)
	}
	return out
}

// ref identifies one stored record without building its storage key:
// an interaction has exactly one interaction record and one script
// record, so (interaction id, kind) is unique, and storage-key order is
// kind tag ("i" before "s") then interaction id.
type ref struct {
	iid   ids.ID
	state bool
}

func refOf(r *core.Record) ref {
	return ref{iid: r.InteractionID(), state: r.Kind == core.KindActorState}
}

func sortRefs(rs []ref) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].state != rs[j].state {
			return !rs[i].state
		}
		return rs[i].iid.Compare(rs[j].iid) < 0
	})
}
