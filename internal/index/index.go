// Package index maintains secondary indexes over the provenance store's
// records so that queries scoped by session, actor, interaction, data
// item, record kind or time range resolve without scanning the whole
// store — the leverage that keeps the paper's use cases (run comparison
// and semantic validation) fast as the store grows to many sessions.
//
// The index is a set of posting entries persisted in the same backend as
// the records themselves, under the reserved key prefixes "x/" (postings)
// and "xm/" (metadata), which never collide with the record prefixes "i/"
// and "s/". One posting entry is one key
//
//	x/<dim>/<escaped term>/<record storage key>
//
// with an empty value: the backend's sorted prefix scan over
// x/<dim>/<term>/ therefore yields the matching records' storage keys in
// sorted order, which is exactly a sorted posting list — intersections
// are sorted merges, and record fetches are point Gets. Because entries
// are write-once and content-free, index maintenance needs no
// read-modify-write and re-adding a record's postings (during rebuild,
// or after a crash between the record put and the index put) is
// idempotent under the Backend contract.
//
// Stores recorded before indexing existed are detected at Open time by a
// missing schema marker or by posting counts disagreeing with record
// counts, and are rebuilt with one full scan. See DESIGN.md for the full
// layout.
package index

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/kv"
)

// Index dimensions. Each names one secondary index over the records.
const (
	// DimInteraction indexes by interaction identifier.
	DimInteraction = "int"
	// DimSession indexes by session group identifier.
	DimSession = "sess"
	// DimGroup indexes by group identifier, of any group type
	// (sessions appear here too).
	DimGroup = "grp"
	// DimActor indexes by asserting actor.
	DimActor = "actor"
	// DimService indexes by the interaction's receiver (the service).
	DimService = "svc"
	// DimState indexes actor-state records by state kind.
	DimState = "state"
	// DimData indexes interaction records by the data identifiers their
	// message parts carry.
	DimData = "data"
	// DimKind indexes by record kind ("i" or "s").
	DimKind = "kind"
	// DimTime indexes by assertion timestamp, in a fixed-width sortable
	// form so the backend's sorted scan doubles as a range scan.
	DimTime = "time"
)

const (
	postingPrefix = "x/"
	metaPrefix    = "xm/"
	schemaKey     = metaPrefix + "schema"
	// deficitKeyPrefix + kind tag stores how many records of that kind
	// the last rebuild could not decode (and therefore not index), so
	// the Open-time consistency check can tell "corrupt, known and
	// skipped" apart from "postings missing, rebuild needed".
	deficitKeyPrefix = metaPrefix + "deficit/"
	schemaVersion    = "1"

	// timeLayout is fixed-width and zero-padded so lexicographic key
	// order equals chronological order.
	timeLayout = "20060102T150405.000000000"
)

// KV is the slice of the store Backend contract the index needs. It is
// satisfied by store.Backend (declared here to avoid an import cycle:
// the store maintains the index write-through on Record).
type KV interface {
	Put(key string, value []byte) error
	// PutBatch stores several pairs in one backend operation, preserving
	// slice order — the property AddBatch's commit-marker layout needs.
	PutBatch(kvs []kv.Pair) error
	Get(key string) (value []byte, ok bool, err error)
	// ScanFrom visits the keys with the prefix that are >= from (an empty
	// from is unconstrained), in order — what lets a posting iterator
	// resume a partially consumed list without re-reading its head.
	ScanFrom(prefix, from string, fn func(key string, value []byte) error) error
	Count(prefix string) (int, error)
	// DeleteBatch removes several keys in one backend operation (absent
	// keys are no-ops), preserving slice order — the property
	// RemoveBatch's commit-marker layout needs.
	DeleteBatch(keys []string) error
}

// Index is an open secondary index over a backend.
type Index struct {
	kv KV
}

// Open attaches to (creating or rebuilding as needed) the index stored
// in kv. A store recorded before indexing existed — no schema marker, or
// posting counts that disagree with record counts (the signature of a
// crash between a record put and its index puts) — is rebuilt by one
// full scan; rebuilding is idempotent.
func Open(kv KV) (*Index, error) {
	ix := &Index{kv: kv}
	_, haveSchema, err := kv.Get(schemaKey)
	if err != nil {
		return nil, fmt.Errorf("index: reading schema marker: %w", err)
	}
	ni, err := kv.Count("i/")
	if err != nil {
		return nil, fmt.Errorf("index: counting interaction records: %w", err)
	}
	ns, err := kv.Count("s/")
	if err != nil {
		return nil, fmt.Errorf("index: counting actor-state records: %w", err)
	}
	pi, err := kv.Count(postingKeyPrefix(DimKind, "i"))
	if err != nil {
		return nil, fmt.Errorf("index: counting postings: %w", err)
	}
	ps, err := kv.Count(postingKeyPrefix(DimKind, "s"))
	if err != nil {
		return nil, fmt.Errorf("index: counting postings: %w", err)
	}
	di, err := ix.deficit("i")
	if err != nil {
		return nil, err
	}
	ds, err := ix.deficit("s")
	if err != nil {
		return nil, err
	}
	if haveSchema && pi+di == ni && ps+ds == ns {
		return ix, nil
	}
	if err := ix.Rebuild(); err != nil {
		return nil, err
	}
	if err := kv.Put(schemaKey, []byte(schemaVersion)); err != nil {
		return nil, fmt.Errorf("index: writing schema marker: %w", err)
	}
	return ix, nil
}

func (ix *Index) deficit(kindTag string) (int, error) {
	v, ok, err := ix.kv.Get(deficitKeyPrefix + kindTag)
	if err != nil {
		return 0, fmt.Errorf("index: reading deficit marker: %w", err)
	}
	if !ok {
		return 0, nil
	}
	n, err := strconv.Atoi(string(v))
	if err != nil || n < 0 {
		// A mangled marker just forces a rebuild.
		return -1, nil
	}
	return n, nil
}

// Rebuild derives every posting entry from the records themselves. It is
// safe to run over a partially indexed store: existing postings are
// re-put with identical (empty) content, and postings whose record no
// longer exists (deleted, then a crash before RemoveBatch finished) are
// garbage-collected — without the GC sweep a kind-posting surplus would
// re-trigger a rebuild at every Open forever. A record that no longer
// decodes is skipped rather than failing the rebuild — recording must
// stay available over a store with one torn value (the same policy
// kvdb's recovery applies to a torn tail); the skip count is persisted so
// the Open-time consistency check does not re-trigger a rebuild forever.
func (ix *Index) Rebuild() error {
	skipped := map[string]int{"i": 0, "s": 0}
	// live collects every record storage key seen during the scan, so
	// the GC pass below can tell a re-puttable posting from a dangling
	// one.
	live := make(map[string]bool)
	// Postings are flushed in bounded chunks: one backend batch per
	// rebuildChunk records keeps rebuild memory flat while still
	// amortising the per-write cost.
	const rebuildChunk = 4096
	var pending []kv.Pair
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		if err := ix.kv.PutBatch(pending); err != nil {
			return fmt.Errorf("index: rebuilding postings: %w", err)
		}
		pending = pending[:0]
		return nil
	}
	for _, prefix := range []string{"i/", "s/"} {
		kindTag := prefix[:1]
		err := ix.kv.ScanFrom(prefix, "", func(key string, value []byte) error {
			live[key] = true
			r, err := core.DecodeRecord(value)
			if err != nil {
				skipped[kindTag]++
				return nil
			}
			for _, pk := range postingKeys(r) {
				pending = append(pending, kv.Pair{Key: pk})
			}
			if len(pending) >= rebuildChunk {
				return flush()
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if err := flush(); err != nil {
		return err
	}
	// GC pass: delete postings that reference a record the scan did not
	// see. Queries already skip dangling postings at fetch time, but
	// their counts corrupt the planner's cardinality estimates and the
	// Open-time consistency check, so a rebuild sweeps them out.
	var doomed []string
	err := ix.kv.ScanFrom(postingPrefix, "", func(key string, _ []byte) error {
		skey, ok := postingStorageKey(key)
		if ok && !live[skey] {
			doomed = append(doomed, key)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("index: sweeping dangling postings: %w", err)
	}
	for len(doomed) > 0 {
		n := len(doomed)
		if n > rebuildChunk {
			n = rebuildChunk
		}
		if err := ix.kv.DeleteBatch(doomed[:n]); err != nil {
			return fmt.Errorf("index: collecting dangling postings: %w", err)
		}
		doomed = doomed[n:]
	}
	for kindTag, n := range skipped {
		key := deficitKeyPrefix + kindTag
		want := strconv.Itoa(n)
		// Only write on change: a strictly write-once backend may reject
		// overwrites, and identical re-puts are always accepted.
		if cur, ok, err := ix.kv.Get(key); err == nil && ok && string(cur) == want {
			continue
		}
		if err := ix.kv.Put(key, []byte(want)); err != nil {
			return fmt.Errorf("index: writing deficit marker: %w", err)
		}
	}
	return nil
}

// Add writes the posting entries for one record.
func (ix *Index) Add(r *core.Record) error {
	return ix.AddBatch([]*core.Record{r})
}

// AddBatch writes the posting entries for a batch of records in ONE
// backend batch put — the store calls this once per accepted Record
// call, so a multi-record ingest batch costs one backend write for all
// its postings (~20 per record) instead of one write each.
//
// Ordering within the batch preserves the commit-marker property: each
// record's kind posting is last among its postings, and PutBatch
// implementations keep slice order, so a crash that durably keeps only a
// prefix of the batch leaves a kind-posting deficit for every
// incompletely indexed record — exactly what the Open-time consistency
// check counts.
func (ix *Index) AddBatch(records []*core.Record) error {
	if len(records) == 0 {
		return nil
	}
	pairs := make([]kv.Pair, 0, len(records)*16)
	for _, r := range records {
		for _, key := range postingKeys(r) {
			pairs = append(pairs, kv.Pair{Key: key})
		}
	}
	if err := ix.kv.PutBatch(pairs); err != nil {
		return fmt.Errorf("index: putting %d postings for %d records: %w", len(pairs), len(records), err)
	}
	return nil
}

// Remove deletes the posting entries of one record.
func (ix *Index) Remove(r *core.Record) error {
	return ix.RemoveBatch([]*core.Record{r})
}

// RemoveBatch deletes the posting entries for a batch of records in ONE
// backend batch delete — the store calls this once per delete chunk of
// a DeleteRecords / DeleteSession call, mirroring AddBatch on the write
// path.
//
// Ordering within the batch preserves the commit-marker property in the
// removal direction: each record's kind posting is deleted LAST among
// its postings (postingKeys already emits it last, and DeleteBatch
// keeps slice order), so a crash that durably keeps only a prefix of
// the batch leaves a kind-posting SURPLUS for every incompletely
// de-indexed record — record counts have already shrunk, posting counts
// have not — which is exactly what the Open-time consistency check
// detects, and Rebuild's dangling-posting sweep repairs.
func (ix *Index) RemoveBatch(records []*core.Record) error {
	if len(records) == 0 {
		return nil
	}
	keys := make([]string, 0, len(records)*16)
	for _, r := range records {
		keys = append(keys, postingKeys(r)...)
	}
	if err := ix.kv.DeleteBatch(keys); err != nil {
		return fmt.Errorf("index: deleting %d postings for %d records: %w", len(keys), len(records), err)
	}
	return nil
}

// postingKeys computes the full posting key set of a record. The kind
// posting comes LAST: it is the entry the Open-time consistency check
// counts, so writing it after every other posting makes it a commit
// marker — a crash anywhere mid-Add leaves a kind-posting deficit that
// triggers a rebuild.
func postingKeys(r *core.Record) []string {
	skey := r.StorageKey()
	kindTag := "s"
	if r.Kind == core.KindInteraction {
		kindTag = "i"
	}
	keys := []string{
		postingKey(DimInteraction, r.InteractionID().String(), skey),
		postingKey(DimActor, string(r.Asserter()), skey),
	}
	if recv := r.Receiver(); recv != "" {
		keys = append(keys, postingKey(DimService, string(recv), skey))
	}
	for _, g := range r.Groups() {
		keys = append(keys, postingKey(DimGroup, g.ID.String(), skey))
		if g.Type == core.GroupSession {
			keys = append(keys, postingKey(DimSession, g.ID.String(), skey))
		}
	}
	if r.Kind == core.KindActorState && r.ActorState != nil {
		keys = append(keys, postingKey(DimState, r.ActorState.StateKind, skey))
	}
	for _, d := range r.DataIDs() {
		keys = append(keys, postingKey(DimData, d.String(), skey))
	}
	if ts := r.Timestamp(); !ts.IsZero() {
		keys = append(keys, postingKey(DimTime, TimeTerm(ts), skey))
	}
	keys = append(keys, postingKey(DimKind, kindTag, skey))
	return keys
}

// TimeTerm renders a timestamp as its index term: fixed-width UTC so
// that key order is chronological order.
func TimeTerm(t time.Time) string { return t.UTC().Format(timeLayout) }

func postingKey(dim, term, skey string) string {
	return postingKeyPrefix(dim, term) + skey
}

// postingKeyPrefix is the scan prefix covering one term's posting list.
func postingKeyPrefix(dim, term string) string {
	return postingPrefix + dim + "/" + escapeTerm(term) + "/"
}

// postingStorageKey extracts the record storage key a posting entry
// points at: the tail after "x/<dim>/<escaped term>/". Terms are escaped
// so neither component can contain '/'; storage keys themselves do.
func postingStorageKey(key string) (string, bool) {
	rest := key[len(postingPrefix):]
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return "", false
	}
	rest = rest[slash+1:]
	slash = strings.IndexByte(rest, '/')
	if slash < 0 || slash+1 >= len(rest) {
		return "", false
	}
	return rest[slash+1:], true
}

// escapeTerm makes a term safe to embed between '/' separators: '/' and
// '%' are percent-encoded. Identifier terms (urn:pasoa:<hex>) pass
// through untouched; only free-form actor names and state kinds can need
// escaping.
func escapeTerm(s string) string {
	if !strings.ContainsAny(s, "/%") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 4)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '/':
			b.WriteString("%2F")
		case '%':
			b.WriteString("%25")
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func unescapeTerm(s string) string {
	if !strings.Contains(s, "%") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '%' && i+2 < len(s) {
			switch s[i+1 : i+3] {
			case "2F":
				b.WriteByte('/')
				i += 2
				continue
			case "25":
				b.WriteByte('%')
				i += 2
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// ScanPostings visits the storage keys of every record indexed under
// (dim, term), in sorted storage-key order.
func (ix *Index) ScanPostings(dim, term string, fn func(storageKey string) error) error {
	prefix := postingKeyPrefix(dim, term)
	return ix.kv.ScanFrom(prefix, "", func(key string, _ []byte) error {
		return fn(key[len(prefix):])
	})
}

// Postings materialises the sorted posting list of (dim, term).
// Streaming reads should prefer Iter: a materialised list costs memory
// proportional to the term's cardinality however few entries the caller
// consumes.
func (ix *Index) Postings(dim, term string) ([]string, error) {
	var out []string
	err := ix.ScanPostings(dim, term, func(skey string) error {
		out = append(out, skey)
		return nil
	})
	return out, err
}

// iterChunk is how many posting keys one buffer refill pulls from the
// backend. Large enough to amortise the seek (binary search + lock) over
// a run of sequential Next calls, small enough that a leapfrog
// intersection skipping most of a long list never drags whole sublists
// into memory.
const iterChunk = 64

// PostingIter is a seekable cursor over one term's sorted posting list.
// It streams the underlying key range in bounded chunks, so neither a
// long sequential read nor a sparse skip-heavy intersection ever
// materialises the full list. The zero value is not usable; call Iter.
//
// Iterators read the live index: postings added after a refill appear
// when the next chunk is pulled. That is the same read-uncommitted view
// a materialised Postings call has — one Record batch may be seen
// partially — and queries tolerate it the same way (a posting without a
// stored record is skipped at fetch time).
type PostingIter struct {
	kv     KV
	prefix string // full posting key prefix of (dim, term)
	buf    []string
	pos    int    // next unread entry of buf
	next   string // lower bound for the next refill ("" = list start)
	done   bool   // backend range exhausted
	read   int    // posting entries pulled from the backend (plan stats)
}

// Iter opens a cursor over the (dim, term) posting list.
func (ix *Index) Iter(dim, term string) *PostingIter {
	return &PostingIter{kv: ix.kv, prefix: postingKeyPrefix(dim, term)}
}

// Read reports how many posting entries the iterator has pulled from
// the backend — the actual read cost a query plan attributes to it.
func (it *PostingIter) Read() int { return it.read }

// refill pulls the next chunk of storage keys at or above `from`.
func (it *PostingIter) refill(from string) error {
	it.buf = it.buf[:0]
	it.pos = 0
	err := it.kv.ScanFrom(it.prefix, from, func(key string, _ []byte) error {
		it.buf = append(it.buf, key[len(it.prefix):])
		if len(it.buf) >= iterChunk {
			return errStop
		}
		return nil
	})
	if err != nil && err != errStop {
		return err
	}
	it.read += len(it.buf)
	if len(it.buf) < iterChunk {
		it.done = true // range exhausted; the buffer tail is all that is left
	} else {
		it.next = it.prefix + it.buf[len(it.buf)-1] + "\x00"
	}
	return nil
}

// Next returns the next storage key of the list, or ok=false at the end.
func (it *PostingIter) Next() (skey string, ok bool, err error) {
	if it.pos >= len(it.buf) {
		if it.done {
			return "", false, nil
		}
		if err := it.refill(it.next); err != nil {
			return "", false, err
		}
		if it.pos >= len(it.buf) {
			return "", false, nil
		}
	}
	skey = it.buf[it.pos]
	it.pos++
	return skey, true, nil
}

// Seek advances to the first storage key >= target and returns it (or
// ok=false if the list holds none). Seeking backwards is not supported:
// a target at or before the last returned key just yields the next
// entries in order.
func (it *PostingIter) Seek(target string) (skey string, ok bool, err error) {
	// Serve from the buffer when the target lies inside it.
	if it.pos < len(it.buf) {
		rest := it.buf[it.pos:]
		i := sort.SearchStrings(rest, target)
		if i < len(rest) {
			it.pos += i + 1
			return rest[i], true, nil
		}
		if it.done {
			return "", false, nil
		}
	} else if it.done {
		return "", false, nil
	}
	// Past the buffer: one backend seek directly to the target, skipping
	// the entries in between without reading them.
	from := it.prefix + target
	if from < it.next {
		from = it.next
	}
	if err := it.refill(from); err != nil {
		return "", false, err
	}
	if it.pos >= len(it.buf) {
		return "", false, nil
	}
	skey = it.buf[it.pos]
	it.pos++
	return skey, true, nil
}

// CountPostings reports the length of the (dim, term) posting list — the
// planner's selectivity estimate.
func (ix *Index) CountPostings(dim, term string) (int, error) {
	return ix.kv.Count(postingKeyPrefix(dim, term))
}

// errStop terminates a range scan early once past the upper bound.
var errStop = fmt.Errorf("index: stop scan")

// ScanTimeRange visits the storage keys of records asserted within the
// inclusive [since, until] range, in time order. A zero bound is
// unconstrained. The scan seeks straight to the lower bound's term and
// stops at the first term past the upper one, so it reads the window
// plus one key. An error from fn ends the scan and is returned as is.
//
// Terms sort chronologically only over years 0–9999 (UTC), the range
// Store.Record admits. A bound outside it is clamped: every indexed
// timestamp lies on one side of it.
func (ix *Index) ScanTimeRange(since, until time.Time, fn func(storageKey string) error) error {
	dimPrefix := postingPrefix + DimTime + "/"
	from, hi := "", ""
	if !since.IsZero() {
		switch y := since.UTC().Year(); {
		case y > core.MaxYear:
			return nil
		case y >= core.MinYear:
			from = dimPrefix + TimeTerm(since)
		}
	}
	if !until.IsZero() {
		switch y := until.UTC().Year(); {
		case y < core.MinYear:
			return nil
		case y <= core.MaxYear:
			hi = TimeTerm(until)
		}
	}
	err := ix.kv.ScanFrom(dimPrefix, from, func(key string, _ []byte) error {
		rest := key[len(dimPrefix):]
		slash := strings.IndexByte(rest, '/')
		if slash < 0 {
			return nil
		}
		if hi != "" && rest[:slash] > hi {
			return errStop
		}
		return fn(rest[slash+1:])
	})
	if err == errStop {
		return nil
	}
	return err
}

// Terms enumerates the distinct terms recorded under a dimension, in
// sorted order — e.g. Terms(DimSession) lists every session identifier
// in the store without touching a single record.
func (ix *Index) Terms(dim string) ([]string, error) {
	prefix := postingPrefix + dim + "/"
	var out []string
	last := ""
	err := ix.kv.ScanFrom(prefix, "", func(key string, _ []byte) error {
		rest := key[len(prefix):]
		slash := strings.IndexByte(rest, '/')
		if slash < 0 {
			return nil
		}
		if term := rest[:slash]; term != last || len(out) == 0 {
			last = term
			out = append(out, unescapeTerm(term))
		}
		return nil
	})
	return out, err
}

// Sessions lists the distinct session identifiers in the store, sorted
// by identifier value.
func (ix *Index) Sessions() ([]ids.ID, error) {
	terms, err := ix.Terms(DimSession)
	if err != nil {
		return nil, err
	}
	out := make([]ids.ID, 0, len(terms))
	for _, t := range terms {
		id, err := ids.Parse(t)
		if err != nil {
			return nil, fmt.Errorf("index: malformed session term %q: %w", t, err)
		}
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out, nil
}
