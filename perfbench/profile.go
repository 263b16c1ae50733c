package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"spacebounds/internal/erasure"
	"spacebounds/internal/gf256"
	"spacebounds/internal/oracle"
	"spacebounds/internal/register"
	"spacebounds/internal/value"
)

// cpuBuckets are the cpu_share.* metrics, in output order.
var cpuBuckets = []string{
	"gf256", "erasure", "register", "dsys", "shard", "transport", "wal", "storagecost",
	"runtime_gc", "runtime_malloc", "syscall",
}

// bucketOf attributes one function's self time to a layer: the repository
// package it belongs to, or the runtime's collector, allocator or system
// calls. Anything else (the benchmark itself, the scheduler, other standard
// packages) is left unattributed.
func bucketOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "spacebounds/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/") // register/adaptive → register
		return pkg
	}
	switch {
	case strings.HasPrefix(fn, "syscall."), strings.HasPrefix(fn, "internal/runtime/syscall."),
		strings.HasPrefix(fn, "runtime/internal/syscall."), fn == "runtime.futex",
		fn == "runtime.epollwait", fn == "runtime.write1", fn == "runtime.read",
		fn == "runtime.usleep", fn == "runtime.nanotime1":
		return "syscall"
	case strings.HasPrefix(fn, "runtime.mallocgc"), strings.HasPrefix(fn, "runtime.(*mcache)"),
		strings.HasPrefix(fn, "runtime.(*mcentral)"), strings.HasPrefix(fn, "runtime.(*mheap)"),
		strings.HasPrefix(fn, "runtime.(*mspan)"), strings.HasPrefix(fn, "runtime.heapSetType"),
		strings.HasPrefix(fn, "runtime.nextFreeFast"), strings.HasPrefix(fn, "runtime.memclrNoHeapPointers"),
		strings.HasPrefix(fn, "runtime.newobject"), strings.HasPrefix(fn, "runtime.makeslice"),
		strings.HasPrefix(fn, "runtime.growslice"), strings.HasPrefix(fn, "runtime.(*gcBits)"),
		strings.HasPrefix(fn, "runtime.publicationBarrier"), strings.HasPrefix(fn, "runtime.makemap"):
		return "runtime_malloc"
	case strings.HasPrefix(fn, "runtime.gc"), strings.HasPrefix(fn, "runtime.scanobject"),
		strings.HasPrefix(fn, "runtime.scanblock"), strings.HasPrefix(fn, "runtime.scanstack"),
		strings.HasPrefix(fn, "runtime.greyobject"), strings.HasPrefix(fn, "runtime.findObject"),
		strings.HasPrefix(fn, "runtime.markroot"), strings.HasPrefix(fn, "runtime.(*gcWork)"),
		strings.HasPrefix(fn, "runtime.sweepone"), strings.HasPrefix(fn, "runtime.bgsweep"),
		strings.HasPrefix(fn, "runtime.wbBuf"), strings.HasPrefix(fn, "runtime.bulkBarrier"),
		strings.HasPrefix(fn, "runtime.typePointers"), strings.HasPrefix(fn, "runtime.spanOf"),
		strings.HasPrefix(fn, "runtime.(*gcControllerState)"), strings.HasPrefix(fn, "runtime.pageIndexOf"):
		return "runtime_gc"
	}
	return ""
}

// cpuShares reads a CPU profile with go tool pprof -top and returns each
// bucket's share of the profile's samples.
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-unit=ms", profile)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, errOut.String())
	}
	flat := make(map[string]float64)
	var total float64
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		// "  120ms 12.00% 12.00%   150ms 15.00%  pkg.Func"
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[0], "ms") || !strings.HasSuffix(f[1], "%") {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		total += ms
		if b := bucketOf(strings.Join(f[5:], " ")); b != "" {
			flat[b] += ms
		}
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = flat[b] / max(total, 1)
	}
	return shares, nil
}

// micro holds the coding layers' timings at one workload's value size and
// (f, k), each from testing.Benchmark.
type micro struct {
	mulAddGBps, encodeMBps, decodeMBps float64
	encodeWrite                        testing.BenchmarkResult
	decodeUs                           float64
}

func microTimings(w *workload) (micro, error) {
	var m micro
	cfg, err := register.Config{F: w.f, K: w.k, DataLen: w.valueSize}.Validate()
	if err != nil {
		return m, err
	}
	n := cfg.N()
	data := value.Sequenced(1, 1, w.valueSize).Bytes()
	block := (w.valueSize + w.k - 1) / w.k

	dst, src := make([]byte, block), data[:block]
	r := testing.Benchmark(func(b *testing.B) {
		for b.Loop() {
			gf256.MulAddSlice(0x8e, dst, src)
		}
	})
	m.mulAddGBps = float64(block) / float64(r.NsPerOp())

	rs, err := erasure.NewReedSolomon(w.k, n)
	if err != nil {
		return m, err
	}
	r = testing.Benchmark(func(b *testing.B) {
		for b.Loop() {
			rs.Encode(data)
		}
	})
	m.encodeMBps = float64(w.valueSize) * 1e3 / float64(r.NsPerOp())

	blocks, err := rs.Encode(data)
	if err != nil {
		return m, err
	}
	parity := blocks[n-w.k:] // decoding from parity blocks only inverts the full matrix
	r = testing.Benchmark(func(b *testing.B) {
		for b.Loop() {
			rs.Decode(w.valueSize, parity)
		}
	})
	m.decodeMBps = float64(w.valueSize) * 1e3 / float64(r.NsPerOp())

	v := value.FromBytes(data)
	m.encodeWrite = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			register.EncodeWrite(cfg, oracle.WriteID{Client: 1, Seq: 1}, v)
		}
	})

	chunks, _, err := register.EncodeWrite(cfg, oracle.WriteID{Client: 1, Seq: 1}, v)
	if err != nil {
		return m, err
	}
	chunks = chunks[n-w.k:]
	r = testing.Benchmark(func(b *testing.B) {
		for b.Loop() {
			register.DecodeChunks(cfg, chunks)
		}
	})
	m.decodeUs = float64(r.NsPerOp()) / 1e3
	return m, nil
}
