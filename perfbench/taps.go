package main

import (
	"context"
	"sync"
	"time"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/storagecost"
	"spacebounds/internal/transport"
	"spacebounds/internal/wal"
)

// laneClientBase is where the shard batcher starts its lane client IDs: the
// write lane of a shard uses an even ID and its read lane the next one.
const laneClientBase = 1 << 30

// clientRounds is the round time one client ID spent in the transport.
type clientRounds struct {
	n   int
	dur time.Duration
}

// roundTap wraps the TCP transport at the dsys.RoundInvoker seam: it times
// every quorum round and attributes rounds to the client ID that ran them.
// Traced runs only.
type roundTap struct {
	inner *transport.Client

	mu                  sync.Mutex
	durs                []time.Duration
	rmws                int
	writeLane, readLane int // rounds run by batcher lanes
	perClient           map[int]*clientRounds
}

func newRoundTap(inner *transport.Client) *roundTap {
	return &roundTap{inner: inner, perClient: make(map[int]*clientRounds)}
}

// InvokeRound implements dsys.RoundInvoker.
func (t *roundTap) InvokeRound(ctx context.Context, client int, targets []int, makeRMW func(obj int) dsys.RMW, quorum int) (map[int]any, error) {
	start := time.Now()
	resp, err := t.inner.InvokeRound(ctx, client, targets, makeRMW, quorum)
	d := time.Since(start)
	t.mu.Lock()
	t.durs = append(t.durs, d)
	t.rmws += len(targets)
	switch {
	case client >= laneClientBase && (client-laneClientBase)%2 == 0:
		t.writeLane++
	case client >= laneClientBase:
		t.readLane++
	default:
		cr := t.perClient[client]
		if cr == nil {
			cr = &clientRounds{}
			t.perClient[client] = cr
		}
		cr.n++
		cr.dur += d
	}
	t.mu.Unlock()
	return resp, err
}

// take removes and returns the rounds a finished op's client ID ran.
func (t *roundTap) take(client int) clientRounds {
	t.mu.Lock()
	defer t.mu.Unlock()
	cr := t.perClient[client]
	delete(t.perClient, client)
	if cr == nil {
		return clientRounds{}
	}
	return *cr
}

// Close closes the wrapped transport, so Set.Close tears it down as usual.
func (t *roundTap) Close() error { return t.inner.Close() }

// journalTap wraps an endpoint's WAL at the dsys.Journal seam: it times each
// journaled (mutating) apply and measures the log bytes it appended. Traced
// runs only.
type journalTap struct {
	inner *wal.Journal

	mu      sync.Mutex
	durs    []time.Duration
	bytes   int64
	records int // appends whose byte delta was measured
}

func newJournalTap(inner *wal.Journal) *journalTap { return &journalTap{inner: inner} }

// RecordApply implements dsys.Journal. It runs under the object's apply
// lock; the tap's mutex and the journal's are both innermost.
func (t *journalTap) RecordApply(object int, rmw dsys.RMW) {
	kind, ok := register.KindOf(rmw)
	if !ok || register.KindReadOnly(kind) {
		t.inner.RecordApply(object, rmw) // skipped by the journal itself
		return
	}
	before := t.inner.LogBytes()
	start := time.Now()
	t.inner.RecordApply(object, rmw)
	d := time.Since(start)
	delta := t.inner.LogBytes() - before
	t.mu.Lock()
	t.durs = append(t.durs, d)
	// A background snapshot truncating the log in between makes the delta
	// meaningless; such appends are left out of the byte count.
	if delta > 0 {
		t.bytes += delta
		t.records++
	}
	t.mu.Unlock()
}

// DurableBlocks implements dsys.Journal.
func (t *journalTap) DurableBlocks() []storagecost.BlockInfo { return t.inner.DurableBlocks() }
