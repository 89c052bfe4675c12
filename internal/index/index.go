// Package index maintains secondary indexes over the provenance store's
// records so that queries scoped by session, service, state kind, data
// item or time range resolve without scanning the whole store — the
// leverage that keeps the paper's use cases (run comparison and semantic
// validation) fast as the store grows to many sessions. Only what a
// query reads is posted: a record's interaction and kind are told by its
// storage key, and a group or asserter constraint is checked on the
// records another constraint selects, so neither has postings.
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
// are content-free, index maintenance needs no read-modify-write: the
// store puts a record's postings (KeyBuilder) in the same backend batch
// as the record, and deletes them in the same batch as the record, so a
// crash keeps both or neither and the index needs no repair.
//
// The schema marker xm/schema reads schemaVersion. Open writes it into a
// fresh store and refuses any other — a store an earlier version indexed,
// or one that holds records with no marker — with core.ErrOldFormat. See
// DESIGN.md for the full layout.
package index

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/kv"
	"preserv/internal/reuse"
)

// Index dimensions. Each names one secondary index over the records.
const (
	// DimSession indexes by session group identifier; a record in
	// several sessions is posted under each.
	DimSession = "sess"
	// DimService indexes by the interaction's receiver (the service).
	DimService = "svc"
	// DimState indexes actor-state records by state kind.
	DimState = "state"
	// DimData indexes interaction records by the data identifiers their
	// message parts carry.
	DimData = "data"
	// DimTime indexes by assertion timestamp, in a fixed-width sortable
	// form so the backend's sorted scan doubles as a range scan.
	DimTime = "time"
)

const (
	postingPrefix = "x/"
	metaPrefix    = "xm/"
	schemaKey     = metaPrefix + "schema"
	// schemaVersion "4" marks an index without the group and actor
	// postings of "3", which had dropped the interaction and kind
	// postings of "2". Under "1" a crash could leave a record without
	// postings or postings without a record.
	schemaVersion = "4"
	// schema2Commit and schema3Commit are the last commits whose
	// binaries serve schemas "2" and "3".
	schema2Commit = "f59a0e5"
	schema3Commit = "c48f751"

	// timeLayout is fixed-width and zero-padded so lexicographic key
	// order equals chronological order.
	timeLayout = "20060102T150405.000000000"
)

// KV is the slice of the store Backend contract the index needs. It is
// satisfied by store.Backend (declared here to avoid an import cycle:
// the store maintains the index write-through on Record).
type KV interface {
	// PutBatch stores several pairs in one backend operation.
	PutBatch(kvs []kv.Pair) error
	Get(key string) (value []byte, ok bool, err error)
	// ScanFrom visits the keys with the prefix that are >= from (an empty
	// from is unconstrained), in order — what lets a posting iterator
	// resume a partially consumed list without re-reading its head.
	ScanFrom(prefix, from string, fn func(key string, value []byte) error) error
	Count(prefix string) (int, error)
}

// Index is an open secondary index over a backend.
type Index struct {
	kv KV
}

// Open attaches to the index stored in b. The schema marker alone
// decides: schemaVersion opens the index; no marker on a store with no
// record and no posting is a fresh store, which gets the marker; any
// other store is refused with core.ErrOldFormat, and nothing is written.
func Open(b KV) (*Index, error) {
	v, ok, err := b.Get(schemaKey)
	if err != nil {
		return nil, fmt.Errorf("index: reading schema marker: %w", err)
	}
	if ok && string(v) == schemaVersion {
		return &Index{kv: b}, nil
	}
	layout := "index schema " + string(v)
	if !ok {
		layout = "unindexed store"
		keys := 0
		for _, prefix := range []string{"i/", "s/", postingPrefix} {
			n, err := b.Count(prefix)
			if err != nil {
				return nil, fmt.Errorf("index: counting %s keys: %w", prefix, err)
			}
			keys += n
		}
		if keys == 0 {
			if err := b.PutBatch([]kv.Pair{{Key: schemaKey, Value: []byte(schemaVersion)}}); err != nil {
				return nil, fmt.Errorf("index: writing schema marker: %w", err)
			}
			return &Index{kv: b}, nil
		}
	}
	serve := func(server string) string {
		return "serve it with " + server + ", and `provq -store NEW -from OLD consolidate` moves its records into a schema " + schemaVersion + " store"
	}
	var move string
	switch {
	case !ok || string(v) == "1":
		move = "the binary of commit " + core.LastAdoptingCommit + " rebuilds its index to schema 2; then " + serve("the binary of commit "+schema2Commit)
	case string(v) == "2":
		move = serve("the binary of commit " + schema2Commit)
	case string(v) == "3":
		move = serve("the binary of commit " + schema3Commit)
	default:
		move = "this binary reads schema " + schemaVersion + " only; " + serve("a binary that reads it")
	}
	return nil, fmt.Errorf("%w: %s; %s", core.ErrOldFormat, layout, move)
}

// AddBatch puts the postings of records in one backend batch; only the frozen benchmark's index probe calls it, until the benchmark-only PR (ROADMAP direction 2).
func (ix *Index) AddBatch(records []*core.Record) error {
	var b KeyBuilder
	var keys []string
	for _, r := range records {
		keys, _ = b.PostingKeys(keys, r)
	}
	if len(keys) == 0 {
		return nil
	}
	pairs := make([]kv.Pair, len(keys))
	for i, k := range keys {
		pairs[i].Key = k
	}
	if err := ix.kv.PutBatch(pairs); err != nil {
		return fmt.Errorf("index: putting %d postings for %d records: %w", len(pairs), len(records), err)
	}
	return nil
}

// KeyBuilder builds records' posting keys, each record's in one buffer
// that it reuses from one record to the next: the keys of one record,
// and its storage key, are cut from one string, so they cost one
// allocation between them. The zero value is ready to use; a KeyBuilder
// serves one goroutine at a time.
type KeyBuilder struct {
	buf  []byte
	ends []int // where each key ends in buf
	skey []byte
	data []ids.ID
}

// PostingKeys appends the full posting key set of a record to keys — the
// keys the store writes and deletes together with the record — and
// returns the record's storage key too, cut from the same string: every
// posting key ends with it.
func (b *KeyBuilder) PostingKeys(keys []string, r *core.Record) ([]string, string) {
	b.buf, b.ends = reuse.Trim(b.buf), reuse.Trim(b.ends)
	b.skey = r.AppendStorageKey(reuse.Trim(b.skey))
	if recv := r.Receiver(); recv != "" {
		b.addTerm(DimService, string(recv))
	}
	for _, g := range r.Groups() {
		if g.Type == core.GroupSession {
			b.addID(DimSession, g.ID)
		}
	}
	if r.Kind == core.KindActorState && r.ActorState != nil {
		b.addTerm(DimState, r.ActorState.StateKind)
	}
	b.data = r.AppendDataIDs(reuse.Trim(b.data))
	for _, d := range b.data {
		b.addID(DimData, d)
	}
	if ts := r.Timestamp(); !ts.IsZero() {
		b.begin(DimTime)
		b.buf = appendTimeTerm(b.buf, ts)
		b.end()
	}
	if len(b.ends) == 0 {
		b.buf = append(b.buf, b.skey...)
	}
	all := string(b.buf)
	start := 0
	for _, end := range b.ends {
		keys = append(keys, all[start:end])
		start = end
	}
	return keys, all[len(all)-len(b.skey):]
}

// begin starts a posting key: x/<dim>/.
func (b *KeyBuilder) begin(dim string) {
	b.buf = append(append(append(b.buf, postingPrefix...), dim...), '/')
}

// end finishes the posting key begin started: /<storage key>.
func (b *KeyBuilder) end() {
	b.buf = append(append(b.buf, '/'), b.skey...)
	b.ends = append(b.ends, len(b.buf))
}

// addID adds the posting of an identifier term, which needs no escaping.
func (b *KeyBuilder) addID(dim string, id ids.ID) {
	b.begin(dim)
	b.buf = id.AppendString(b.buf)
	b.end()
}

// addTerm adds the posting of a free-form term, escaped only if it needs
// it.
func (b *KeyBuilder) addTerm(dim, term string) {
	b.begin(dim)
	if strings.ContainsAny(term, "/%") {
		term = escapeTerm(term)
	}
	b.buf = append(b.buf, term...)
	b.end()
}

// TimeTerm renders a timestamp as its index term: fixed-width UTC so
// that key order is chronological order.
func TimeTerm(t time.Time) string { return string(appendTimeTerm(nil, t)) }

// appendTimeTerm appends t's index term to dst: the bytes
// t.UTC().AppendFormat(dst, timeLayout) appends, written digit by digit
// rather than by interpreting the layout. A year outside 0–9999, which
// the layout does not hold to four digits, is left to AppendFormat.
func appendTimeTerm(dst []byte, t time.Time) []byte {
	t = t.UTC()
	year, month, day := t.Date()
	if year < 0 || year > 9999 {
		return t.AppendFormat(dst, timeLayout)
	}
	hour, min, sec := t.Clock()
	dst = appendDigits(dst, year, 4)
	dst = appendDigits(dst, int(month), 2)
	dst = appendDigits(append(appendDigits(dst, day, 2), 'T'), hour, 2)
	dst = appendDigits(appendDigits(dst, min, 2), sec, 2)
	return appendDigits(append(dst, '.'), t.Nanosecond(), 9)
}

// appendDigits appends v, which is not negative, as width decimal
// digits, zero-padded.
func appendDigits(dst []byte, v, width int) []byte {
	dst = append(dst, "000000000"[:width]...)
	for i := len(dst) - 1; v > 0; i-- {
		dst[i] = byte('0' + v%10)
		v /= 10
	}
	return dst
}

// postingKeyPrefix is the scan prefix covering one term's posting list.
func postingKeyPrefix(dim, term string) string {
	return postingPrefix + dim + "/" + escapeTerm(term) + "/"
}

// escapeTerm makes a term safe to embed between '/' separators: '/' and
// '%' are percent-encoded. Identifier terms (urn:pasoa:<hex>) pass
// through untouched; only free-form service names and state kinds can
// need escaping.
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
// when the next chunk is pulled, so an iterator may meet a Record call's
// postings in part. Queries tolerate that as they tolerate a posting
// whose record a delete has taken since it was read: a posting without a
// stored record is skipped at fetch time.
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
