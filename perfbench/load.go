package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spacebounds/internal/history"
	"spacebounds/internal/value"
)

// opSample is one finished workload operation.
type opSample struct {
	lat    time.Duration
	write  bool
	failed bool
}

// segStats summarizes one history segment's load. Raw samples are dropped
// once summarized, so the benchmark's own heap does not grow over a run and
// change how often the program collects garbage.
type segStats struct {
	dur               time.Duration
	attempted, failed int
	writes, reads     int        // completed
	writeLat, readLat [3]float64 // p50, p90, p99 in ms; 0 without samples
}

// quantiles are the latency quantiles segStats keeps.
var quantiles = [3]float64{0.50, 0.90, 0.99}

// collector gathers the samples of one closed-loop client; ops holds the
// current segment's only.
type collector struct {
	ops  []opSample
	self []time.Duration // traced, without batching: op time minus its rounds
	// Traced, without batching: quorum rounds attributed to finished ops.
	writeRounds, readRounds int
}

// runner drives one workload against one system and records what the
// correctness checks and metrics need.
type runner struct {
	w      *workload
	sys    system
	routes map[string]int
	taps   *roundTap // nil unless the run is traced over TCP

	base []byte      // bytes 8.. of every written value
	zero value.Value // history stand-in for the initial value
	bufs sync.Pool

	writeIDs  atomic.Int64
	clientIDs atomic.Int64 // barrier and read-back readers, after the clients

	// Per shard, the current segment's history and the value the barrier
	// read that opened it returned. Only touched between segments, while no
	// op runs; unfinished (failed writes) is guarded by umu.
	cur        []*history.Recorder
	v0         []value.Value
	next       []value.Value
	checked    int // shard-segment histories checked
	umu        sync.Mutex
	unfinished [][]value.Value

	inflight             []atomic.Int64
	infSum, infN, infMax atomic.Int64

	seg    atomic.Int64     // the segment under way, for the storage sampler
	traced bool             // read MemStats around each segment's load
	mem    runtime.MemStats // traced: TotalAlloc, Mallocs and NumGC deltas

	emu sync.Mutex
	err error // first wrong value a read returned
}

func newRunner(w *workload, sys system, routes map[string]int, seed int64, taps *roundTap) *runner {
	r := &runner{
		w:          w,
		sys:        sys,
		routes:     routes,
		taps:       taps,
		base:       make([]byte, w.valueSize),
		zero:       value.FromBytes(make([]byte, 8)),
		cur:        make([]*history.Recorder, w.shards),
		v0:         make([]value.Value, w.shards),
		next:       make([]value.Value, w.shards),
		unfinished: make([][]value.Value, w.shards),
		inflight:   make([]atomic.Int64, w.shards),
	}
	rand.New(rand.NewSource(seed ^ 0x5eed)).Read(r.base)
	for i := range r.next {
		r.next[i] = r.zero
	}
	r.bufs.New = func() any {
		b := make([]byte, w.valueSize)
		copy(b, r.base)
		return &b
	}
	r.clientIDs.Store(int64(w.clients))
	return r
}

func (r *runner) fail(err error) {
	r.emu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.emu.Unlock()
}

// identify maps a value a read returned to its history stand-in: the 8-byte
// ID of the write that produced it, or the initial value's stand-in. A value
// no write produced is an error.
func (r *runner) identify(b []byte) (value.Value, error) {
	if len(b) == r.w.valueSize {
		if bytes.Equal(b[8:], r.base[8:]) {
			return value.FromBytes(b[:8]), nil
		}
		if bytes.Count(b, []byte{0}) == len(b) {
			return r.zero, nil
		}
	}
	return value.Value{}, fmt.Errorf("read returned %d bytes that no write produced", len(b))
}

func (r *runner) pick(rng *rand.Rand) (key string, write bool) {
	return keyName(rng.Intn(r.w.keys)), rng.Float64() < r.w.writeFrac
}

// op runs one workload operation and records it in the shard's history.
func (r *runner) op(c *collector, client int, key string, write bool) {
	sh := r.routes[key]
	n := r.inflight[sh].Add(1)
	r.infSum.Add(n)
	r.infN.Add(1)
	for m := r.infMax.Load(); n > m && !r.infMax.CompareAndSwap(m, n); m = r.infMax.Load() {
	}
	start := time.Now()
	rec := r.cur[sh]
	var err error
	if write {
		id := r.writeIDs.Add(1)
		bp := r.bufs.Get().(*[]byte)
		binary.BigEndian.PutUint64(*bp, uint64(id))
		stand := value.FromBytes((*bp)[:8])
		hop := rec.BeginWrite(client, stand)
		err = r.sys.write(client, key, *bp)
		r.bufs.Put(bp)
		if err == nil {
			rec.EndWrite(hop)
		} else {
			// The write may still take effect later: it stays invoked and
			// unfinished in every later segment of the shard.
			r.umu.Lock()
			r.unfinished[sh] = append(r.unfinished[sh], stand)
			r.umu.Unlock()
		}
	} else {
		hop := rec.BeginRead(client)
		var b []byte
		b, err = r.sys.read(client, key)
		if err == nil {
			if v, verr := r.identify(b); verr != nil {
				r.fail(fmt.Errorf("shard %d: %w", sh, verr))
			} else {
				rec.EndRead(hop, v)
			}
		}
	}
	end := time.Now()
	r.inflight[sh].Add(-1)

	c.ops = append(c.ops, opSample{lat: end.Sub(start), write: write, failed: err != nil})
	// The batcher runs rounds under its lanes' client IDs, so rounds can be
	// attributed to ops only without it.
	if r.taps != nil && !r.w.batch {
		cr := r.taps.take(client)
		c.self = append(c.self, end.Sub(start)-cr.dur)
		if write {
			c.writeRounds += cr.n
		} else {
			c.readRounds += cr.n
		}
	}
}

// beginSegment opens a fresh history per shard, starting from the value the
// last barrier read.
func (r *runner) beginSegment() {
	r.umu.Lock()
	defer r.umu.Unlock()
	for sh := range r.cur {
		rec := history.NewRecorder()
		for _, v := range r.unfinished[sh] {
			rec.BeginWrite(0, v)
		}
		r.cur[sh] = rec
		r.v0[sh] = r.next[sh]
	}
}

// barrier runs while no op is in flight: one read per shard closes the
// segment, and its value opens the next one. Every write of the segment
// precedes that read, so checking segments one by one checks the whole run.
func (r *runner) barrier() error {
	for sh := range r.cur {
		client := int(r.clientIDs.Add(1))
		hop := r.cur[sh].BeginRead(client)
		b, err := r.sys.readShard(client, sh)
		if err != nil {
			return fmt.Errorf("barrier read of shard %d: %w", sh, err)
		}
		v, err := r.identify(b)
		if err != nil {
			return fmt.Errorf("barrier read of shard %d: %w", sh, err)
		}
		r.cur[sh].EndRead(hop, v)
		r.next[sh] = v
	}
	return nil
}

// readBack reads every key once more, into the last segment's histories. A
// read that fails is left unfinished in the history and tried again, up to
// three times; the retries are counted.
func (r *runner) readBack() (retries int, err error) {
	for i := 0; i < r.w.keys; i++ {
		key := keyName(i)
		sh := r.routes[key]
		for attempt := 1; ; attempt++ {
			client := int(r.clientIDs.Add(1))
			hop := r.cur[sh].BeginRead(client)
			b, err := r.sys.read(client, key)
			if err == nil {
				v, err := r.identify(b)
				if err != nil {
					return retries, fmt.Errorf("read-back of %s: %w", key, err)
				}
				r.cur[sh].EndRead(hop, v)
				break
			}
			if attempt == 3 {
				return retries, fmt.Errorf("read-back of %s: %w", key, err)
			}
			retries++
			time.Sleep(10 * time.Millisecond)
		}
	}
	return retries, nil
}

// load runs the workload for total load time, split into history segments
// separated by barriers. Every segment but the last is checked and dropped
// at its barrier, which then collects garbage, so each segment starts from
// the same state; the caller checks the last one. load returns each
// client's collector and the segments' summaries. Load time leaves the
// barriers out.
func (r *runner) load(seed int64, total time.Duration) ([]*collector, []segStats, error) {
	cols := make([]*collector, r.w.clients)
	rngs := make([]*rand.Rand, r.w.clients)
	for i := range cols {
		cols[i] = &collector{}
		rngs[i] = rand.New(rand.NewSource(seed*1000 + int64(i)))
	}
	var segs []segStats
	for loadTime := time.Duration(0); loadTime < total; {
		r.beginSegment()
		r.seg.Store(int64(len(segs)))
		var before runtime.MemStats
		if r.traced {
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		end := t0.Add(min(r.w.segment, total-loadTime))
		var wg sync.WaitGroup
		for i := range cols {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(end) {
					key, write := r.pick(rngs[i])
					r.op(cols[i], i+1, key, write)
				}
			}()
		}
		wg.Wait()
		dur := time.Since(t0)
		if r.traced {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			r.mem.TotalAlloc += after.TotalAlloc - before.TotalAlloc
			r.mem.Mallocs += after.Mallocs - before.Mallocs
			r.mem.NumGC += after.NumGC - before.NumGC
		}
		st := summarize(cols, dur)
		segs = append(segs, st)
		loadTime += st.dur
		if err := r.barrier(); err != nil {
			return cols, segs, err
		}
		if loadTime < total {
			if err := r.checkSegment(); err != nil {
				return cols, segs, err
			}
			runtime.GC()
		}
	}
	return cols, segs, nil
}

// summarize reduces the clients' samples of one segment to its statistics
// and empties the sample buffers for the next.
func summarize(cols []*collector, dur time.Duration) segStats {
	st := segStats{dur: dur}
	var writes, reads []time.Duration
	for _, c := range cols {
		for _, o := range c.ops {
			st.attempted++
			switch {
			case o.failed:
				st.failed++
			case o.write:
				writes = append(writes, o.lat)
			default:
				reads = append(reads, o.lat)
			}
		}
		c.ops = c.ops[:0]
	}
	st.writes, st.reads = len(writes), len(reads)
	for i, q := range quantiles {
		st.writeLat[i] = percentile(writes, q)
		st.readLat[i] = percentile(reads, q)
	}
	return st
}

// percentile is the nearest-rank q-quantile of d, in milliseconds.
func percentile(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)]) / 1e6
}

// checkSegment checks every shard's current history against strong
// regularity, and any wrong value a read returned.
func (r *runner) checkSegment() error {
	r.emu.Lock()
	err := r.err
	r.emu.Unlock()
	if err != nil {
		return err
	}
	for sh, rec := range r.cur {
		if err := history.CheckStrongRegularity(rec.History(r.v0[sh])); err != nil {
			return fmt.Errorf("shard %d, segment %d: %w", sh, r.seg.Load(), err)
		}
		r.checked++
	}
	return nil
}

// storageLog is the storage sampler's record.
type storageLog struct {
	mu        sync.Mutex
	totals    []int // base-object bits over all shards, per sample
	segs      []int // the history segment each sample fell in
	durs      []time.Duration
	violation error
}

// sample takes one Definition-2 storage sample and checks Theorem 2's peak
// bound: no adaptive shard stores more than 2(2f+k)·D bits.
func (r *runner) sample(l *storageLog, buf []int) {
	t0 := time.Now()
	r.sys.shardBits(buf)
	d := time.Since(t0)
	bound := 2 * r.w.layout().Span() * 8 * r.w.valueSize
	total := 0
	l.mu.Lock()
	defer l.mu.Unlock()
	for sh, bits := range buf {
		total += bits
		if bits > bound && l.violation == nil {
			l.violation = fmt.Errorf("shard %d stores %d bits, above the 2(2f+k)·D bound of %d", sh, bits, bound)
		}
	}
	l.totals = append(l.totals, total)
	l.segs = append(l.segs, int(r.seg.Load()))
	l.durs = append(l.durs, d)
}

// sampleEvery samples storage at a fixed period until stop closes.
func (r *runner) sampleEvery(period time.Duration, l *storageLog, stop <-chan struct{}) {
	buf := make([]int, r.w.shards)
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			r.sample(l, buf)
		}
	}
}

// awaitQuiescent waits for in-flight RMWs to drain and then requires every
// shard to hold exactly (2f+k)·D/k bits, Theorem 2's quiescent footprint.
func (r *runner) awaitQuiescent(timeout time.Duration) error {
	want := r.w.layout().Span() * 8 * r.w.valueSize / r.w.k
	buf := make([]int, r.w.shards)
	deadline := time.Now().Add(timeout)
	for {
		r.sys.shardBits(buf)
		settled := true
		for _, bits := range buf {
			settled = settled && bits == want
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("storage did not return to (2f+k)·D/k per shard after the load: per-shard bits %v, want %d each", buf, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
