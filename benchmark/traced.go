package main

import (
	"fmt"
	"time"

	"preserv/internal/shard"
	"preserv/internal/stats"
)

// The per-layer run. It sets up once, through the decorated seams, and
// runs two fifths of the ingest and cold-query operations with the
// tracer switched on for a random half of the requests — so the two p50s that
// make trace.overhead_ratio come from interleaved requests against the
// same store state — then the direct probes. End-to-end metrics never
// come from this run.

// tracedShare is the share of the untraced run's operation counts the
// traced run traces (and, interleaved, runs untraced).
const tracedShare = 0.2

func runTraced(w workload, cfg config) (rep *report, err error) {
	r := newRunner(w, cfg)
	r.tr = newTracer()
	defer func() {
		if terr := r.tearDown(); err == nil {
			err = terr
		}
	}()
	t0 := time.Now()
	if _, err := r.setUp(); err != nil {
		return nil, err
	}
	r.phase("setup", t0)
	w, m := r.w, r.rep.Metrics
	for _, pm := range perLayer {
		m[pm.Name] = 0 // a layer the topology lacks (router, other backend) reports zero
	}
	share := func(n int) int { return int(float64(n) * tracedShare) }
	// The overhead ratio is a ratio of two medians: give each at least
	// this many samples however short the workload's own phases are (a
	// hundred a side left it +-7%).
	const minAlternated = 200

	cn := r.newConn()
	r.ingest(cn, r.nextBatches(warmRequests))

	// ingest, a random half of the requests traced.
	t0 = time.Now()
	bloom0 := r.bloomStats()
	cn.alt = newAlternation()
	r.ingest(cn, r.nextBatches(2*max(share(w.IngestRequests+w.SoloRequests), int(minAlternated*min(1, 5*cfg.opsMul)))))
	overhead := cn.alt.overhead()
	cn.alt = nil
	r.tr.on.Store(false)
	bloom := r.bloomStats()
	m["store.bloom_skip_ratio"] = ratio(float64(bloom.skips-bloom0.skips), float64(bloom.lookups-bloom0.lookups))
	r.phase("ingest", t0)

	// async, untraced: the journal and flush costs are the recorder's own.
	t0 = time.Now()
	sh, err := r.newShipper(cn)
	if err != nil {
		return nil, err
	}
	if _, err := sh.ship(r.units(max(recordsPerUnit, share(w.AsyncRecords)))); err != nil {
		return nil, err
	}
	if err := sh.close(); err != nil {
		return nil, err
	}
	m["client.journal_append_us"] = stats.Median(sh.appendUS)
	m["client.flush_us_per_rec"] = ratio(us(sh.flush), float64(sh.records))
	r.phase("async", t0)

	// cold queries, a random half of the requests traced.
	t0 = time.Now()
	r.reads(cn, r.coldOps(warmRequests))
	cache0 := r.cacheStats()
	cn.alt = newAlternation()
	cold := r.reads(cn, r.coldOps(2*max(share(w.Queries+w.SoloQueries), int(minAlternated*min(1, 5*cfg.opsMul)))))
	m["trace.overhead_ratio"] = (overhead + cn.alt.overhead()) / 2
	cn.alt = nil
	r.tr.on.Store(false)
	m["query.candidates_per_result"] = ratio(float64(cold.candidates), float64(cold.results))
	m["query.postings_per_result"] = ratio(float64(cold.postings), float64(cold.results))
	cache1 := r.cacheStats()
	m["store.blockcache_hit_ratio"] = ratio(float64(cache1.blockHits-cache0.blockHits), float64(cache1.blockLookups-cache0.blockLookups))

	// What the result caches absorb: the hot mix, untraced. The live
	// workload instead traces a short concurrent window — its spans
	// replace the solo ones — and the window's own reads (cold then hot,
	// a writer invalidating under them) are what its caches are judged
	// on.
	cache0 = r.cacheStats()
	if w.Live {
		r.tr.take()
		r.tr.on.Store(true)
		n := max(4, share(w.IngestRequests))
		pool := &readPool{cold: r.coldOps(20 * n), hot: r.model.drawHot(r.rng, w.Mix, 20*n)}
		r.live(cn, r.newConn(), r.nextBatches(n), pool)
		r.tr.on.Store(false)
	} else {
		r.reads(cn, r.model.drawHot(r.rng, w.Mix, max(hotDistinct, share(w.HotOps))))
	}
	spans := r.tr.take()
	cache1 = r.cacheStats()
	m["shard.resultcache_hit_ratio"] = ratio(float64(cache1.routerHits-cache0.routerHits), float64(cache1.routerLookups-cache0.routerLookups))
	m["query.cache_hit_ratio"] = ratio(float64(cache1.engineHits-cache0.engineHits), float64(cache1.engineLookups-cache0.engineLookups))
	for _, s := range r.tp.stores {
		m["store.write_stall_p99_us"] = max(m["store.write_stall_p99_us"], s.WritePathStats().StallP99*1e6)
	}
	r.checkCount(cn)
	r.phase("query", t0)

	t0 = time.Now()
	r.spanMetrics(analyse(spans))
	if err := r.probes(cn); err != nil {
		return nil, err
	}
	m["preserv.faults"] = float64(r.faults)
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, spans); err != nil {
			return nil, err
		}
	}
	r.phase("probes", t0)
	return r.rep, nil
}

// spanMetrics reduces the request trees to the seam-span metrics.
func (r *runner) spanMetrics(reqs []requestTrace) {
	m := r.rep.Metrics
	var sums [2]map[string]float64 // 0: record requests, 1: query requests
	var n [2]float64
	sums[0], sums[1] = map[string]float64{}, map[string]float64{}
	var selfSum, childMax, fanout, calls, read, written, records float64
	for _, rt := range reqs {
		k := 0
		switch rt.Op {
		case "record":
			written += float64(rt.Written)
			records += float64(r.w.Batch)
		case "query":
			k = 1
			childMax += float64(rt.ChildMax)
			fanout += float64(rt.Fanout)
			calls += float64(rt.Backend)
			read += float64(rt.Read)
		default:
			continue
		}
		n[k]++
		covered := rt.Leak
		for name, ns := range rt.Self {
			sums[k][name] += float64(ns)
			covered += ns
		}
		selfSum += ratio(float64(covered), float64(rt.Total))
	}
	for k, op := range []string{"record", "query"} {
		for _, l := range []struct{ span, module, metric string }{
			{spanClient, "client", "self_us"},
			{spanTransport, "transport", "self_us"},
			{spanHandle, "preserv", "self_us"},
			{spanShard, "shard", "child_self_us"},
			{spanBackend, "backend", "busy_us"},
		} {
			m[l.module+"."+op+"_"+l.metric] = ratio(sums[k][l.span], n[k]) / 1000
		}
	}
	m["shard.child_max_us"] = ratio(childMax, n[1]) / 1000
	m["shard.fanout_width"] = ratio(fanout, n[1])
	m["backend.calls_per_op"] = ratio(calls, n[1])
	m["backend.bytes_read_per_op"] = ratio(read, n[1])
	m["backend.bytes_written_per_rec"] = ratio(written, records)
	m["trace.selfsum_ratio"] = ratio(selfSum, n[0]+n[1])
	r.rep.Samples["client.record_self_us"] = fmt.Sprintf("n=%.0f", n[0])
	r.rep.Samples["client.query_self_us"] = fmt.Sprintf("n=%.0f", n[1])
}

// bloomCounts and cacheCounts are cumulative counter snapshots, summed
// over the topology's stores.
type bloomCounts struct{ skips, lookups int64 }

func (r *runner) bloomStats() bloomCounts {
	var c bloomCounts
	for _, s := range r.tp.stores {
		st := s.ReadCacheStats()
		c.skips += st.BloomSkips
		c.lookups += st.BloomSkips + st.BloomFalsePositives + st.BloomHits
	}
	return c
}

type cacheCounts struct {
	blockHits, blockLookups   int64
	engineHits, engineLookups int64
	routerHits, routerLookups int64
}

func (r *runner) cacheStats() cacheCounts {
	var c cacheCounts
	for _, s := range r.tp.stores {
		st := s.ReadCacheStats()
		c.blockHits += st.BlockCacheHits
		c.blockLookups += st.BlockCacheHits + st.BlockCacheMisses
	}
	es := r.tp.front.Provenance().EngineStats()
	if r.w.Topo == topoRemote {
		// The front's view of remote engines is a TTL-cached stats poll;
		// read the children directly.
		es = shard.EngineStats{}
		for _, c := range r.tp.children {
			ces := c.Provenance().EngineStats()
			es.CacheHits += ces.CacheHits
			es.CacheMisses += ces.CacheMisses
		}
	}
	c.engineHits, c.engineLookups = es.CacheHits, es.CacheHits+es.CacheMisses
	if rt := r.tp.router(); rt != nil {
		hits, misses := rt.ResultCacheStats()
		c.routerHits, c.routerLookups = hits, hits+misses
	}
	return c
}
