package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"preserv/internal/core"
	"preserv/internal/index"
	"preserv/internal/prep"
	"preserv/internal/query"
	"preserv/internal/shard"
	"preserv/internal/soap"
	"preserv/internal/store"
)

// Direct probes: single layers called from outside, on payloads drawn
// from the workload's own traffic — held-out request batches (never
// sent to the store) for the write side, pushed into scratch stores of
// the workload's backend flavour, and fresh cold-mix replies for the
// read side.

// probeRecords is how many records each write-side probe pushes through
// its layer.
const probeRecords = 2000

// timed runs fn and returns its duration and mallocs.
func timed(fn func() error) (time.Duration, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return d, m1.Mallocs - m0.Mallocs, err
}

// probe holds what the probes share.
type probe struct {
	r       *runner
	cn      *conn
	m       map[string]float64
	rng     *rand.Rand
	batches [][]core.Record // held-out request batches
	nrec    float64         // records in them
	encoded [][]store.KV    // the same, as the store files them: key and encoded value
	ops     []readOp        // fresh cold-mix queries
	scratch string
	// soapPerQuery is what the server spends in soap on one query (us).
	soapPerQuery float64
}

func (r *runner) probes(cn *conn) error {
	p := &probe{
		r: r, cn: cn, m: r.rep.Metrics,
		rng: rand.New(rand.NewSource(r.cfg.seed + 1)),
	}
	var err error
	if p.scratch, err = os.MkdirTemp(r.root, "scratch-"); err != nil {
		return err
	}
	scale := min(1, 5*r.cfg.opsMul)
	for p.nrec < probeRecords*scale {
		b := r.nextBatch()
		p.batches = append(p.batches, b)
		p.nrec += float64(len(b))
	}
	p.ops = r.coldOps(max(10, int(100*scale)))
	for _, step := range []func() error{
		p.wire, p.codec, p.storeWrites, p.indexWrites, p.backend,
		p.storeReads, p.planner, p.router, p.reopen,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// roundTrip marshals each payload into an envelope and decodes it back
// into what into() returns, timing the two directions.
func roundTrip[T any](action string, payloads []T, into func() any) (marshal, decode time.Duration, allocs uint64, wire float64, err error) {
	envelopes := make([][]byte, len(payloads))
	marshal, a1, err := timed(func() error {
		for i, pl := range payloads {
			data, err := soap.Marshal(action, pl)
			if err != nil {
				return err
			}
			envelopes[i] = data
			wire += float64(len(data))
		}
		return nil
	})
	if err != nil {
		return
	}
	decode, a2, err := timed(func() error {
		for _, data := range envelopes {
			_, body, err := soap.Unmarshal(data)
			if err == nil {
				err = soap.DecodeBody(body, into())
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	return marshal, decode, a1 + a2, wire, err
}

// wire probes soap: the request side on Record envelopes, the reply
// side on planned-query replies fetched from the store, and from the
// two what the server spends in soap on one query.
func (p *probe) wire() error {
	requests := make([]*prep.RecordRequest, len(p.batches))
	for i, b := range p.batches {
		requests[i] = &prep.RecordRequest{Asserter: asserter, Records: b}
	}
	dm, dd, allocs, wire, err := roundTrip(prep.ActionRecord, requests, func() any { return &prep.RecordRequest{} })
	if err != nil {
		return err
	}
	p.m["soap.marshal_request_us_per_rec"] = us(dm) / p.nrec
	p.m["soap.decode_request_us_per_rec"] = us(dd) / p.nrec
	p.m["soap.wire_bytes_per_rec"] = wire / p.nrec
	p.m["soap.allocs_per_rec"] = float64(allocs) / p.nrec

	var replies []*prep.PlannedQueryResponse
	var queries []*prep.Query
	var nreply float64
	for i := range p.ops {
		op := &p.ops[i]
		recs, total, plan, err := p.cn.c.QueryPlanned(&op.q)
		if err == nil {
			err = checkReply(recs, total, op)
		}
		p.r.check("probe query", err)
		if err != nil {
			continue
		}
		replies = append(replies, &prep.PlannedQueryResponse{Total: total, Plan: *plan, Records: recs})
		queries = append(queries, &op.q)
		nreply += float64(len(recs))
	}
	if len(replies) == 0 {
		return fmt.Errorf("no reply to probe soap with")
	}
	dm, dd, _, _, err = roundTrip(prep.ActionPlannedQuery+"-response", replies, func() any { return &prep.PlannedQueryResponse{} })
	if err != nil {
		return err
	}
	p.m["soap.marshal_reply_us_per_rec"] = ratio(us(dm), nreply)
	p.m["soap.decode_reply_us_per_rec"] = ratio(us(dd), nreply)

	// Server side of one query: decode the request, marshal the reply.
	_, dq, _, _, err := roundTrip(prep.ActionPlannedQuery, queries, func() any { return &prep.Query{} })
	if err != nil {
		return err
	}
	p.soapPerQuery = (us(dq) + us(dm)) / float64(len(replies))
	return nil
}

// codec probes the storage codec, and keeps the encoded records for the
// backend probe.
func (p *probe) codec() error {
	var stored float64
	p.encoded = make([][]store.KV, len(p.batches))
	dEnc, _, err := timed(func() error {
		for i, b := range p.batches {
			p.encoded[i] = make([]store.KV, len(b))
			for j := range b {
				value, err := core.EncodeRecord(&b[j])
				if err != nil {
					return err
				}
				p.encoded[i][j].Value = value
				stored += float64(len(value))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	dDec, _, err := timed(func() error {
		for _, kvs := range p.encoded {
			for _, kv := range kvs {
				if _, err := core.DecodeRecord(kv.Value); err != nil {
					return err
				}
			}
		}
		return nil
	})
	for i, b := range p.batches {
		for j := range b {
			p.encoded[i][j].Key = b[j].StorageKey()
		}
	}
	p.m["core.encode_ns_per_rec"] = float64(dEnc) / p.nrec
	p.m["core.decode_ns_per_rec"] = float64(dDec) / p.nrec
	p.m["core.stored_bytes_per_rec"] = stored / p.nrec
	return err
}

// storeWrites records the held-out batches into a scratch store.
func (p *probe) storeWrites() error {
	dir := filepath.Join(p.scratch, "store")
	b, err := openBackend(p.r.w.Backend, dir)
	if err != nil {
		return err
	}
	s := store.New(b)
	d, _, err := timed(func() error {
		for _, batch := range p.batches {
			if n, _, err := s.Record(asserter, batch); err != nil || n != len(batch) {
				return fmt.Errorf("scratch store took %d of %d records: %v", n, len(batch), err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m["store.record_us_per_rec"] = us(d) / p.nrec
	postings, err := b.Count("x/")
	if err != nil {
		return err
	}
	p.m["index.postings_per_rec"] = float64(postings) / p.nrec
	if fb, ok := b.(*store.FileBackend); ok {
		p.m["file.segments_per_krec"] = float64(fb.Segments()) / p.nrec * 1000
	}
	if err := s.Close(); err != nil {
		return err
	}
	if p.r.w.Backend == "kvdb" {
		info, err := os.Stat(filepath.Join(dir, "data.log"))
		if err != nil {
			return err
		}
		p.m["kvdb.log_bytes_per_rec"] = float64(info.Size()) / p.nrec
	}
	return nil
}

// indexWrites posts the held-out batches into an index of its own.
func (p *probe) indexWrites() error {
	b, err := openBackend(p.r.w.Backend, filepath.Join(p.scratch, "index"))
	if err != nil {
		return err
	}
	ix, err := index.Open(b)
	if err != nil {
		return err
	}
	d, _, err := timed(func() error {
		for _, batch := range p.batches {
			ptrs := make([]*core.Record, len(batch))
			for i := range batch {
				ptrs[i] = &batch[i]
			}
			if err := ix.AddBatch(ptrs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m["index.addbatch_us_per_rec"] = us(d) / p.nrec
	return b.Close()
}

// backend writes the encoded records straight into the backend, one
// PutBatch per request batch, then reads them back in random order.
func (p *probe) backend() error {
	flavour := p.r.w.Backend
	b, err := openBackend(flavour, filepath.Join(p.scratch, "raw"))
	if err != nil {
		return err
	}
	var keys []string
	dPut, _, err := timed(func() error {
		for _, kvs := range p.encoded {
			if err := b.PutBatch(kvs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, kvs := range p.encoded {
		for _, kv := range kvs {
			keys = append(keys, kv.Key)
		}
	}
	p.rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	dGet, _, err := timed(func() error {
		for _, k := range keys {
			if _, ok, err := b.Get(k); err != nil || !ok {
				return fmt.Errorf("%s backend lost %s: %v", flavour, k, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	switch flavour {
	case "kvdb":
		p.m["kvdb.putbatch_us_per_rec"] = us(dPut) / p.nrec
	case "file":
		p.m["file.putbatch_us_per_batch"] = us(dPut) / float64(len(p.encoded))
	}
	p.m[flavour+".get_us"] = us(dGet) / p.nrec
	return b.Close()
}

// home is the store holding a session's records.
func (p *probe) home(s *session) *store.Store {
	stores := p.r.tp.stores
	return stores[shard.AffinityIndex(s.id.String(), len(stores))]
}

// storeReads reads base sessions out of the workload's own stores and
// walks the index under them.
func (p *probe) storeReads() error {
	small := p.r.model.small
	var dGet time.Duration
	var got float64
	for i := 0; i < 16; i++ {
		s := small[p.rng.Intn(len(small))]
		var keys []string
		for _, rec := range sessionRecords(s) {
			keys = append(keys, rec.StorageKey())
		}
		found := 0
		d, _, err := timed(func() error {
			_, present, err := p.home(s).GetBatch(keys)
			for _, ok := range present {
				if ok {
					found++
				}
			}
			return err
		})
		if err == nil && found != len(keys) {
			err = fmt.Errorf("%d of session %s's %d records in its home store", found, s.id.Short(), len(keys))
		}
		p.r.check("probe getbatch", err)
		dGet += d
		got += float64(found)
	}
	p.m["store.getbatch_us_per_rec"] = ratio(us(dGet), got)

	s := p.r.model.walkSessions()[0]
	ix, err := p.home(s).Index()
	if err != nil {
		return err
	}
	const counts = 1000
	dCount, _, err := timed(func() error {
		for i := 0; i < counts; i++ {
			if _, err := ix.CountPostings(index.DimSession, s.id.String()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m["index.count_postings_ns"] = float64(dCount) / counts
	iterated := 0
	dIter, _, err := timed(func() error {
		it := ix.Iter(index.DimSession, s.id.String())
		for {
			_, ok, err := it.Next()
			if err != nil || !ok {
				return err
			}
			iterated++
		}
	})
	if err == nil && iterated != s.records() {
		err = fmt.Errorf("session %s has %d postings, want %d", s.id.Short(), iterated, s.records())
	}
	p.r.check("probe iter", err)
	p.m["index.iter_ns_per_posting"] = ratio(float64(dIter), float64(iterated))
	return nil
}

// planner calls the query engine directly: one fresh engine per store,
// each query run on every store, which is what a fan-out does.
func (p *probe) planner() error {
	engines := make([]*query.Engine, len(p.r.tp.stores))
	for i, st := range p.r.tp.stores {
		engines[i] = query.New(st)
	}
	d, _, err := timed(func() error {
		for i := range p.ops {
			for _, eng := range engines {
				if _, _, _, err := eng.Query(&p.ops[i].q); err != nil {
					return err
				}
			}
		}
		return nil
	})
	p.m["query.exec_us"] = us(d) / float64(len(p.ops))
	return err
}

// router calls the shard router directly under a root span of its own:
// its self time is the call minus the cover of its child calls. The
// queries are fresh and distinct and the result cache is emptied first,
// so every call takes the whole cold path — generation probe, cache
// miss, fan-out, k-way merge, cache fill; a call that fanned out to no
// child is a failed operation. With that, preserv.dispatch_us is what is
// left of the service's self time on a query once the probed soap cost
// and the router are taken out. On a single store the shard seam does
// not exist (preserv.NewService builds its shard.Local itself), so the
// planner's time above the backend stays in there.
func (p *probe) router() error {
	var routeSelf float64
	if rt := p.r.tp.router(); rt != nil {
		rt.SetResultCacheSize(shard.DefaultResultCacheSize)
		ops := distinct(p.r.coldOps(len(p.ops)))
		tr := p.r.tr
		tr.on.Store(true)
		root := &seam{t: tr, name: spanClient, own: p.r.tp.frontScope}
		for i := range ops {
			sp := root.start("route")
			sp.Seq = p.r.seq.Add(1)
			recs, total, _, err := rt.QueryPlanned(&ops[i].q)
			root.finish(sp)
			if err == nil {
				err = checkReply(recs, total, &ops[i])
			}
			p.r.check("probe route", err)
		}
		tr.on.Store(false)
		for i, t := range analyse(tr.take()) {
			if t.Fanout == 0 {
				p.r.fail("probe route: request %d reached no shard", i)
			}
			routeSelf += us(time.Duration(t.Self[spanClient]))
		}
		routeSelf /= float64(len(ops))
	}
	p.m["shard.route_self_us"] = routeSelf
	p.m["preserv.dispatch_us"] = max(0, p.m["preserv.query_self_us"]-p.soapPerQuery-routeSelf)
	return nil
}

// reopen closes the topology and times the backends' own open on the
// workload's directories.
func (p *probe) reopen() error {
	if err := p.r.tp.Close(); err != nil {
		return err
	}
	var d time.Duration
	for _, dir := range p.r.tp.dirs {
		t0 := time.Now()
		b, err := openBackend(p.r.w.Backend, dir)
		d += time.Since(t0)
		if err != nil {
			return err
		}
		if err := b.Close(); err != nil {
			return err
		}
	}
	p.m[p.r.w.Backend+".open_s"] = d.Seconds()
	return nil
}
