// Command perfbench is the repository's benchmark. It runs one named
// workload against the real code for a given seed, checks that the store's
// outputs are correct, and prints every metric by name and unit; the last
// line of its output is one JSON object.
//
// Run it from the repository root (perfbench/run.sh builds it first):
//
//	bash perfbench/run.sh --workload inproc-coded --seed 1 --seconds 10 --trace 0
//
// Workloads, each a closed loop (a client issues its next op when the last
// one returns) with 64 uniform keys and the adaptive register:
//
//   - inproc-coded: 2 clients through the public facade. 8 shards, f=2,
//     k=2, 4 KiB values, 90% writes. The coding stack does the work;
//     transport, WAL and batcher are bypassed.
//   - tcp-durable: 8 clients over 2 loopback endpoints. 4 shards, f=1, k=2,
//     512 B values, 50% reads, client-side group commit (at most 16 ops per
//     round), and a WAL per endpoint that fsyncs every 512 records and
//     snapshots every 4096. After the load one endpoint restarts from its
//     WAL and every key is read back.
//   - tcp-contended: 4 clients against one register (1 shard, f=2, k=2,
//     1 KiB values, 90% writes) over 2 loopback endpoints, no WAL, no
//     batching, so writes overlap and the adaptive register falls back to
//     replication.
//
// The seed fixes the keys, the read/write mix and the written values; the
// store receives only these generated inputs. A run is split into history
// segments (1 s on inproc-coded, 0.5 s on the TCP workloads, so that the
// quadratic history check stays small): at each segment's end the clients
// stop, and one read per shard closes the segment. Every shard's history
// is checked segment by segment against strong regularity. Storage is
// sampled every 10 ms and checked against Theorem 2: no shard above
// 2(2f+k)·D bits, and exactly (2f+k)·D/k bits per shard once the load stops.
//
// Each end-to-end figure but setup_s (the median of 15 set-ups) is the
// median over segments of the segment's figure (throughput, latency
// percentile, mean or peak storage), so one stall of a shared machine moves
// one segment and not the result. Latency tails are gated at p90; p99s,
// also medians over segments, are printed beside them.
//
// With --trace 0 the run measures with nothing inside the program switched
// on and prints the end-to-end metrics. With --trace 1 it runs the same
// workload twice, untraced and then traced (round and journal wrappers,
// per-op round attribution, MemStats deltas and a CPU profile), then times
// the coding layers at the workload's own value size and (f, k). It prints
// both runs' end-to-end numbers side by side and the per-layer metrics; a
// per-layer metric reads 0 on a workload that does not exercise its layer.
//
// A failed check prints the reason and a result with "correct": false and
// no metrics, and exits with status 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// workload is one named traffic mix and deployment.
type workload struct {
	name                          string
	shards, f, k, valueSize, keys int
	writeFrac                     float64
	clients                       int // closed-loop clients
	endpoints                     int // 0: in-process facade
	walSyncEvery                  int // 0: no WAL
	batch                         bool
	segment                       time.Duration // history segment length
}

var workloads = []*workload{
	{name: "inproc-coded", shards: 8, f: 2, k: 2, valueSize: 4096, keys: 64, writeFrac: 0.9,
		clients: 2, segment: time.Second},
	{name: "tcp-durable", shards: 4, f: 1, k: 2, valueSize: 512, keys: 64, writeFrac: 0.5,
		clients: 8, endpoints: 2, walSyncEvery: 512, batch: true, segment: 500 * time.Millisecond},
	{name: "tcp-contended", shards: 1, f: 2, k: 2, valueSize: 1024, keys: 64, writeFrac: 0.9,
		clients: 4, endpoints: 2, segment: 500 * time.Millisecond},
}

const (
	setupRepeats = 15
	samplePeriod = 10 * time.Millisecond
	quiesceLimit = 10 * time.Second
	workRoot     = ".bench_build"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: inproc-coded, tcp-durable or tcp-contended")
	seed := flag.Int64("seed", 1, "seed for keys, read/write mix and values")
	seconds := flag.Int("seconds", 10, "load time in seconds")
	traced := flag.Int("trace", 0, "1: also run traced and print per-layer metrics")
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (inproc-coded, tcp-durable, tcp-contended), --seconds ≥ 1 and --trace 0|1\n")
		os.Exit(2)
	}
	// Two processors at most, so figures from a larger machine stay
	// comparable with the 2-vCPU ones the workloads were sized on.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res, err := run(os.Stdout, w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, dir)
	if rerr := os.RemoveAll(dir); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		fmt.Printf("FAILED: %v\n", err)
		res.Correct, res.Metrics = false, map[string]metric{}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

func run(out io.Writer, w *workload, seed int64, load time.Duration, traced bool, dir string) (result, error) {
	fmt.Fprintf(out, "perfbench %s seed=%d load=%v trace=%v\n", w.name, seed, load, traced)
	plain, err := runPass(w, seed, load, false, dir)
	res := result{Correct: err == nil, Attempted: plain.attempted, Failed: plain.failed}
	if err != nil {
		return res, err
	}
	e2e := plain.endToEnd(w)
	if !traced {
		printEndToEnd(out, w, plain, e2e, nil)
		res.Metrics = e2e
		return res, nil
	}
	tr, err := runPass(w, seed, load, true, dir)
	if err != nil {
		return res, fmt.Errorf("traced run: %w", err)
	}
	printEndToEnd(out, w, plain, e2e, tr.endToEnd(w))
	layers, err := tr.perLayer(w, plain)
	if err != nil {
		return res, err
	}
	printMetrics(out, "per-layer (traced run)", layers)
	res.Metrics = layers
	return res, nil
}

// pass is what one run of a workload measured.
type pass struct {
	setup                []time.Duration
	segs                 []segStats
	attempted, failed    int
	self                 []time.Duration
	writes, reads        int // completed
	writeRounds, readRds int // traced, per-op client IDs
	storage              *storageLog
	infMean              float64
	infMax               int64
	histories            int
	durableX             float64 // tcp-durable only
	readBackRetries      int     // tcp-durable only
	recovery, replay     time.Duration
	mem                  runtime.MemStats // traced: deltas over the load
	taps                 *roundTap
	journals             []*journalTap
	batchOps, batchRds   int
	profile              string
}

func runPass(w *workload, seed int64, load time.Duration, traced bool, dir string) (*pass, error) {
	p := &pass{storage: &storageLog{}}
	routes, err := keyRoutes(w)
	if err != nil {
		return p, err
	}
	// Set-up is timed several times; all but the last deployment are torn
	// down at once.
	var sys system
	var tcp *tcpSystem
	for i := 0; i < setupRepeats; i++ {
		walRoot := filepath.Join(dir, fmt.Sprintf("wal-%v-%d", traced, i))
		t0 := time.Now()
		if w.endpoints == 0 {
			sys, err = openInproc(w)
		} else {
			tcp, err = openTCP(w, walRoot, traced)
			sys = tcp
		}
		if err != nil {
			return p, fmt.Errorf("set-up: %w", err)
		}
		p.setup = append(p.setup, time.Since(t0))
		if i < setupRepeats-1 {
			if err := sys.close(); err != nil {
				return p, fmt.Errorf("tear-down: %w", err)
			}
		}
	}
	err = p.measure(w, seed, load, traced, dir, sys, tcp, routes)
	if cerr := sys.close(); err == nil && cerr != nil {
		err = fmt.Errorf("tear-down: %w", cerr)
	}
	return p, err
}

// measure runs the load on a deployment that is set up, then the checks.
func (p *pass) measure(w *workload, seed int64, load time.Duration, traced bool, dir string, sys system, tcp *tcpSystem, routes map[string]int) error {
	var taps *roundTap
	if tcp != nil {
		taps = tcp.taps
	}
	r := newRunner(w, sys, routes, seed, taps)
	r.traced = traced

	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		r.sampleEvery(samplePeriod, p.storage, stop)
	}()
	if traced {
		p.profile = filepath.Join(dir, "cpu.pprof")
		f, err := os.Create(p.profile)
		if err == nil {
			defer f.Close()
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			close(stop)
			<-sampled
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	cols, segs, loadErr := r.load(seed, load)
	if traced {
		pprof.StopCPUProfile()
	}
	close(stop)
	<-sampled
	p.segs = segs
	p.mem = r.mem
	for _, st := range segs {
		p.attempted += st.attempted
		p.failed += st.failed
		p.writes += st.writes
		p.reads += st.reads
	}
	for _, c := range cols {
		p.self = append(p.self, c.self...)
		p.writeRounds += c.writeRounds
		p.readRds += c.readRounds
	}
	if n := r.infN.Load(); n > 0 {
		p.infMean = float64(r.infSum.Load()) / float64(n)
	}
	p.infMax = r.infMax.Load()
	if loadErr != nil {
		return loadErr
	}
	if p.attempted == p.failed {
		return errors.New("no operation completed")
	}

	if err := r.awaitQuiescent(quiesceLimit); err != nil {
		return err
	}
	if p.storage.violation != nil {
		return p.storage.violation
	}
	if tcp != nil {
		st := tcp.client.BatchStats()
		p.batchOps, p.batchRds = st.Writes+st.Reads, st.WriteRounds+st.ReadRounds
		for _, ep := range tcp.eps {
			if ep.tap != nil {
				p.journals = append(p.journals, ep.tap)
			}
		}
		p.taps = tcp.taps
		if w.walSyncEvery > 0 {
			p.durableX = float64(tcp.durableBytes()) / float64(p.writes*w.valueSize)
			var err error
			p.recovery, p.replay, err = tcp.restart(0, traced)
			if err != nil {
				return fmt.Errorf("restart from WAL: %w", err)
			}
			if p.readBackRetries, err = r.readBack(); err != nil {
				return err
			}
		}
	}
	err := r.checkSegment()
	p.histories = r.checked
	return err
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// storageX returns the medians over segments of each segment's time-averaged
// and peak storage, per shard and in units of D.
func (p *pass) storageX(w *workload) (mean, peak float64) {
	unit := float64(w.shards * 8 * w.valueSize)
	sums := make([]float64, len(p.segs))
	peaks := make([]float64, len(p.segs))
	counts := make([]int, len(p.segs))
	for i, t := range p.storage.totals {
		if seg := p.storage.segs[i]; seg < len(sums) {
			sums[seg] += float64(t)
			peaks[seg] = max(peaks[seg], float64(t))
			counts[seg]++
		}
	}
	var means, highs []float64
	for i, n := range counts {
		if n > 0 {
			means = append(means, sums[i]/float64(n))
			highs = append(highs, peaks[i])
		}
	}
	return median(means) / unit, median(highs) / unit
}

// storageMax is the largest storage sample of the run, per shard in units
// of D.
func (p *pass) storageMax(w *workload) float64 {
	if len(p.storage.totals) == 0 {
		return 0
	}
	return float64(slices.Max(p.storage.totals)) / float64(w.shards*8*w.valueSize)
}

// segMedian is the median over segments, of those with samples, of the
// figure pick returns.
func (p *pass) segMedian(pick func(st segStats) (float64, int)) float64 {
	var xs []float64
	for _, st := range p.segs {
		if v, n := pick(st); n > 0 {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

func (p *pass) writeQ(i int) float64 {
	return p.segMedian(func(st segStats) (float64, int) { return st.writeLat[i], st.writes })
}

func (p *pass) readQ(i int) float64 {
	return p.segMedian(func(st segStats) (float64, int) { return st.readLat[i], st.reads })
}

// endToEnd returns the metrics BENCHMARK.json gates. Each but setup_s is the
// median over the run's history segments of that segment's figure, so a
// short stall moves one segment, not the result.
func (p *pass) endToEnd(w *workload) map[string]metric {
	setup := make([]float64, len(p.setup))
	for i, d := range p.setup {
		setup[i] = d.Seconds()
	}
	rate := p.segMedian(func(st segStats) (float64, int) {
		return float64(st.writes+st.reads) / st.dur.Seconds(), 1
	})
	mean, peak := p.storageX(w)
	return map[string]metric{
		"setup_s":        {median(setup), "s"},
		"ops_per_s":      {rate, "1/s"},
		"write_p50_ms":   {p.writeQ(0), "ms"},
		"write_p90_ms":   {p.writeQ(1), "ms"},
		"read_p50_ms":    {p.readQ(0), "ms"},
		"read_p90_ms":    {p.readQ(1), "ms"},
		"storage_mean_x": {mean, "x"},
		"storage_peak_x": {peak, "x"},
	}
}

// e2eOrder is the end-to-end metrics' print order.
var e2eOrder = []string{"setup_s", "ops_per_s", "write_p50_ms", "write_p90_ms", "read_p50_ms", "read_p90_ms", "storage_mean_x", "storage_peak_x"}

func (p *pass) samples(name string) string {
	segs := fmt.Sprintf("median of %d segments", len(p.segs))
	switch {
	case name == "setup_s":
		return fmt.Sprintf("median of %d set-ups", len(p.setup))
	case name == "ops_per_s":
		var total time.Duration
		for _, st := range p.segs {
			total += st.dur
		}
		return fmt.Sprintf("%d ops in %.3fs, %s", p.writes+p.reads, total.Seconds(), segs)
	case strings.HasPrefix(name, "write_"):
		return fmt.Sprintf("n=%d, %s", p.writes, segs)
	case strings.HasPrefix(name, "read_"):
		return fmt.Sprintf("n=%d, %s", p.reads, segs)
	default:
		return fmt.Sprintf("%d samples every %v, %s", len(p.storage.totals), samplePeriod, segs)
	}
}

// printEndToEnd prints the untraced run's end-to-end metrics with their
// sample counts, the metrics that live outside BENCHMARK.json, the checks
// that passed, and, after a traced run, its numbers and the overhead.
func printEndToEnd(out io.Writer, w *workload, p *pass, e2e, traced map[string]metric) {
	fmt.Fprintf(out, "end-to-end (untraced run)\n")
	for _, name := range e2eOrder {
		m := e2e[name]
		line := fmt.Sprintf("  %-16s %14.6f %-3s  (%s)", name, m.Value, m.Unit, p.samples(name))
		if traced != nil {
			t := traced[name].Value
			line += fmt.Sprintf("  traced %.6f (%+.1f%%)", t, pct(t, m.Value))
		}
		fmt.Fprintln(out, line)
	}
	// Printed but not gated: p99s, which stalls of a shared machine move by
	// more than any bound, and the peak of all samples.
	fmt.Fprintf(out, "  %-16s %14.6f ms   (n=%d, median of %d segments, not gated)\n", "write_p99_ms", p.writeQ(2), p.writes, len(p.segs))
	fmt.Fprintf(out, "  %-16s %14.6f ms   (n=%d, median of %d segments, not gated)\n", "read_p99_ms", p.readQ(2), p.reads, len(p.segs))
	fmt.Fprintf(out, "  %-16s %14.6f x    (all %d samples, not gated)\n", "storage_max_x", p.storageMax(w), len(p.storage.totals))
	fmt.Fprintf(out, "  %-16s %14.6f      (%d failed of %d attempted)\n", "failed_op_ratio",
		float64(p.failed)/float64(p.attempted), p.failed, p.attempted)
	if w.walSyncEvery > 0 {
		fmt.Fprintf(out, "  %-16s %14.6f x    (WAL+snapshot bytes / %d acknowledged writes × %d B)\n", "durable_x", p.durableX, p.writes, w.valueSize)
		fmt.Fprintf(out, "  %-16s %14.6f s    (reopen WAL → listening, one endpoint)\n", "recovery_s", p.recovery.Seconds())
	}
	fmt.Fprintf(out, "checks passed: strong regularity (%d shard-segment histories", p.histories)
	if w.walSyncEvery > 0 {
		fmt.Fprintf(out, ", every key read back after the restart with %d retried reads", p.readBackRetries)
	}
	fmt.Fprintf(out, "), every storage sample ≤ 2(2f+k)·D per shard, (2f+k)·D/k per shard at quiescence\n")
}

func pct(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (v - base) / base * 100
}

func printMetrics(out io.Writer, title string, ms map[string]metric) {
	fmt.Fprintln(out, title)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-32s %16.6f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// perLayer returns the traced run's per-layer metrics; plain is the untraced
// run, for the tracing overhead.
func (p *pass) perLayer(w *workload, plain *pass) (map[string]metric, error) {
	m := make(map[string]metric)
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	mt, err := microTimings(w)
	if err != nil {
		return nil, err
	}
	put("gf256.muladd_gbps", mt.mulAddGBps, "GB/s")
	put("erasure.encode_mbps", mt.encodeMBps, "MB/s")
	put("erasure.decode_mbps", mt.decodeMBps, "MB/s")
	put("register.encode_write_us", float64(mt.encodeWrite.NsPerOp())/1e3, "us")
	put("register.encode_write_allocs", float64(mt.encodeWrite.AllocsPerOp()), "count")
	put("register.encode_write_bytes", float64(mt.encodeWrite.AllocedBytesPerOp()), "B")
	put("register.decode_us", mt.decodeUs, "us")
	put("register.client_self_us_p50", percentile(p.self, 0.5)*1e3, "us")

	var roundDurs []time.Duration
	var rounds, rmws, writeLane, readLane int
	if t := p.taps; t != nil {
		t.mu.Lock()
		roundDurs = slices.Clone(t.durs)
		rounds, rmws, writeLane, readLane = len(t.durs), t.rmws, t.writeLane, t.readLane
		t.mu.Unlock()
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	put("dsys.rounds_per_write", ratio(p.writeRounds+writeLane, p.writes), "count")
	put("dsys.rounds_per_read", ratio(p.readRds+readLane, p.reads), "count")
	put("dsys.rmws_per_round", ratio(rmws, rounds), "count")
	put("transport.round_us_p50", percentile(roundDurs, 0.5)*1e3, "us")
	put("transport.round_us_p99", percentile(roundDurs, 0.99)*1e3, "us")
	put("shard.batch_ops_per_round", ratio(p.batchOps, p.batchRds), "count")

	var appends []time.Duration
	var walBytes int64
	var measured int
	for _, j := range p.journals {
		j.mu.Lock()
		appends = append(appends, j.durs...)
		walBytes += j.bytes
		measured += j.records
		j.mu.Unlock()
	}
	put("wal.append_us_p50", percentile(appends, 0.5)*1e3, "us")
	put("wal.append_us_p99", percentile(appends, 0.99)*1e3, "us")
	put("wal.records_per_write", ratio(len(appends), p.writes), "count")
	put("wal.bytes_per_record", float64(walBytes)/float64(max(measured, 1)), "B")
	put("wal.replay_s", p.replay.Seconds(), "s")
	put("wal.durable_x", p.durableX, "x")
	put("wal.recovery_s", p.recovery.Seconds(), "s")

	put("storagecost.sample_us_p50", percentile(p.storage.durs, 0.5)*1e3, "us")
	ops := float64(p.writes + p.reads)
	put("runtime.alloc_bytes_per_op", float64(p.mem.TotalAlloc)/ops, "B")
	put("runtime.allocs_per_op", float64(p.mem.Mallocs)/ops, "count")
	put("runtime.gc_per_kop", float64(p.mem.NumGC)/ops*1e3, "count")

	shares, err := cpuShares(p.profile)
	if err != nil {
		return nil, err
	}
	for _, b := range cpuBuckets {
		put("cpu_share."+b, shares[b], "fraction")
	}

	put("loadgen.inflight_mean", p.infMean, "count")
	put("loadgen.inflight_max", float64(p.infMax), "count")

	tp, pl := p.endToEnd(w), plain.endToEnd(w)
	put("tracing.ops_per_s_overhead_pct", -pct(tp["ops_per_s"].Value, pl["ops_per_s"].Value), "%")
	put("tracing.write_p50_overhead_pct", pct(tp["write_p50_ms"].Value, pl["write_p50_ms"].Value), "%")
	return m, nil
}
