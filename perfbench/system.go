package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"spacebounds"
	"spacebounds/internal/dsys"
	"spacebounds/internal/shard"
	"spacebounds/internal/transport"
	"spacebounds/internal/value"
	"spacebounds/internal/wal"
)

// system is one deployment of the store under test, as the load generator
// sees it: keyed reads and writes, a read addressed to one shard (for the
// history segment barriers), and a Definition-2 storage sample per shard.
type system interface {
	write(client int, key string, v []byte) error
	read(client int, key string) ([]byte, error)
	readShard(client, shard int) ([]byte, error)
	// shardBits fills out[i] with shard i's base-object bits.
	shardBits(out []int)
	close() error
}

func shardName(i int) string { return fmt.Sprintf("shard-%d", i) }

func (w *workload) layout() transport.Layout {
	return transport.Layout{Algorithm: "adaptive", Shards: w.shards, F: w.f, K: w.k, ValueSize: w.valueSize}
}

// keyRoutes maps every key of the workload to the index of the shard it
// routes to. Shards are named shard-0 … shard-N-1 on both deployments, and
// the epoch-0 routing is a pure function of the key and the shard list, so a
// throwaway shard set of the same layout answers for the facade as well.
func keyRoutes(w *workload) (map[string]int, error) {
	specs, err := w.layout().Specs()
	if err != nil {
		return nil, err
	}
	set, err := shard.New(specs)
	if err != nil {
		return nil, err
	}
	defer set.Close()
	index := make(map[string]int, w.shards)
	for i := 0; i < w.shards; i++ {
		index[shardName(i)] = i
	}
	routes := make(map[string]int, w.keys)
	for i := 0; i < w.keys; i++ {
		routes[keyName(i)] = index[set.ForKey(keyName(i)).Name]
	}
	return routes, nil
}

func keyName(i int) string { return fmt.Sprintf("key-%d", i) }

// inprocSystem is the public facade with every shard in this process.
type inprocSystem struct {
	store *spacebounds.Store
	span  int
}

func openInproc(w *workload) (*inprocSystem, error) {
	specs := make([]spacebounds.ShardSpec, w.shards)
	for i := range specs {
		specs[i].Name = shardName(i)
	}
	st, err := spacebounds.Open(spacebounds.Options{
		Algorithm: spacebounds.Adaptive,
		F:         w.f,
		K:         w.k,
		ValueSize: w.valueSize,
		Shards:    specs,
	})
	if err != nil {
		return nil, err
	}
	return &inprocSystem{store: st, span: w.layout().Span()}, nil
}

func (s *inprocSystem) write(client int, key string, v []byte) error {
	return s.store.WriteKey(client, key, v)
}

func (s *inprocSystem) read(client int, key string) ([]byte, error) {
	return s.store.ReadKey(client, key)
}

// readShard uses the facade rule that a key equal to a shard's name routes
// to that shard.
func (s *inprocSystem) readShard(client, shard int) ([]byte, error) {
	return s.store.ReadKey(client, shardName(shard))
}

func (s *inprocSystem) shardBits(out []int) {
	snap := s.store.StorageSnapshot()
	for i := range out {
		out[i] = 0
		for obj := i * s.span; obj < (i+1)*s.span; obj++ {
			out[i] += snap.PerObjectBits[obj]
		}
	}
}

func (s *inprocSystem) close() error { return s.store.Close() }

// endpoint is one server process's share of a TCP deployment, assembled the
// way cmd/spacenode assembles it: the full object table, hosting only the
// round-robin slice, with an optional write-ahead log replayed before the
// server listens.
type endpoint struct {
	set    *shard.Set
	srv    *transport.Server
	jour   *wal.Journal
	tap    *journalTap // attached in traced runs only
	dir    string      // WAL directory; empty without a WAL
	addr   string
	hosted []int
}

// tcpSystem is a set of loopback endpoints plus the client-side remote
// shard set, dialed as spacebench -connect dials a cluster.
type tcpSystem struct {
	w      *workload
	eps    []*endpoint
	client *shard.Set
	taps   *roundTap // wraps the transport in traced runs only
	span   int
}

// endpointOpts selects how openEndpoint builds an endpoint.
type endpointOpts struct {
	addr    string
	dir     string
	recover bool // restart after a crash: recovery mode, replayed objects repaired
	traced  bool
}

// openEndpoint builds endpoint node of the layout. It returns the time
// Journal.Replay took.
func openEndpoint(w *workload, node int, o endpointOpts) (*endpoint, time.Duration, error) {
	layout := w.layout()
	specs, err := layout.Specs()
	if err != nil {
		return nil, 0, err
	}
	set, err := shard.New(specs)
	if err != nil {
		return nil, 0, err
	}
	ep := &endpoint{set: set, dir: o.dir}
	for obj := 0; obj < layout.TotalObjects(); obj++ {
		if layout.HostedBy(w.endpoints, node)(obj) {
			ep.hosted = append(ep.hosted, obj)
		}
	}
	var replay time.Duration
	if o.dir != "" {
		ep.jour, err = wal.Open(wal.Config{Dir: o.dir, SyncEvery: w.walSyncEvery})
		if err != nil {
			set.Close()
			return nil, 0, err
		}
		t0 := time.Now()
		if _, err := ep.jour.Replay(set.Cluster()); err != nil {
			ep.close()
			return nil, 0, fmt.Errorf("wal replay: %w", err)
		}
		replay = time.Since(t0)
		ep.jour.Attach(set.Cluster())
		if o.traced {
			ep.tap = newJournalTap(ep.jour)
			set.Cluster().SetJournal(ep.tap)
		}
	}
	opts := []transport.ServerOption{transport.WithHosts(layout.HostedBy(w.endpoints, node))}
	if o.recover {
		opts = append(opts, transport.WithRecovery())
	}
	ep.srv = transport.NewServer(set.Cluster(), opts...)
	if o.recover && ep.jour != nil {
		for _, obj := range ep.hosted {
			if ep.jour.Covered(obj) {
				ep.srv.MarkRepaired(obj)
			}
		}
	}
	addr, err := ep.srv.Listen(o.addr)
	if err != nil {
		ep.close()
		return nil, 0, err
	}
	ep.addr = addr.String()
	return ep, replay, nil
}

// close stops serving first, so no apply races the journal's final sync.
func (ep *endpoint) close() error {
	var err error
	if ep.srv != nil {
		err = ep.srv.Close()
	}
	ep.set.Close()
	if ep.jour != nil {
		if jerr := ep.jour.Close(); err == nil {
			err = jerr
		}
	}
	return err
}

func openTCP(w *workload, walRoot string, traced bool) (*tcpSystem, error) {
	s := &tcpSystem{w: w, span: w.layout().Span()}
	addrs := make([]string, w.endpoints)
	for node := range addrs {
		o := endpointOpts{addr: "127.0.0.1:0", traced: traced}
		if w.walSyncEvery > 0 {
			o.dir = filepath.Join(walRoot, fmt.Sprintf("node-%d", node))
		}
		ep, _, err := openEndpoint(w, node, o)
		if err != nil {
			s.close()
			return nil, err
		}
		s.eps = append(s.eps, ep)
		addrs[node] = ep.addr
	}
	cli, err := transport.Dial(addrs)
	if err != nil {
		s.close()
		return nil, err
	}
	specs, err := w.layout().Specs()
	if err != nil {
		_ = cli.Close()
		s.close()
		return nil, err
	}
	var inv dsys.RoundInvoker = cli
	if traced {
		s.taps = newRoundTap(cli)
		inv = s.taps
	}
	set, err := shard.NewRemote(specs, inv)
	if err != nil {
		_ = cli.Close()
		s.close()
		return nil, err
	}
	s.client = set
	if w.batch {
		set.EnableBatching(shard.BatchConfig{MaxSize: 16})
	}
	return s, nil
}

func (s *tcpSystem) write(client int, key string, v []byte) error {
	return s.client.Write(client, key, value.FromBytes(v))
}

func (s *tcpSystem) read(client int, key string) ([]byte, error) {
	v, err := s.client.Read(client, key)
	if err != nil {
		return nil, err
	}
	return v.Bytes(), nil
}

func (s *tcpSystem) readShard(client, shard int) ([]byte, error) {
	v, err := s.client.ReadValue(client, s.client.Shard(shardName(shard)))
	if err != nil {
		return nil, err
	}
	return v.Bytes(), nil
}

// shardBits counts, per endpoint, only the objects that endpoint hosts: its
// other objects are placeholders holding the initial value.
func (s *tcpSystem) shardBits(out []int) {
	for i := range out {
		out[i] = 0
	}
	for _, ep := range s.eps {
		snap := ep.set.StorageSnapshot()
		for _, obj := range ep.hosted {
			out[obj/s.span] += snap.PerObjectBits[obj]
		}
	}
}

// durableBytes is the WAL log plus snapshot bytes on disk, summed over the
// endpoints.
func (s *tcpSystem) durableBytes() int64 {
	var total int64
	for _, ep := range s.eps {
		if ep.jour != nil {
			total += ep.jour.LogBytes() + ep.jour.SnapshotBytes()
		}
	}
	return total
}

// restart closes endpoint node and reopens it from its WAL directory on the
// same address, as spacenode -wal-dir -recover does after a crash. It
// returns the time from reopening the WAL to listening again and the replay
// time within it.
func (s *tcpSystem) restart(node int, traced bool) (recovery, replay time.Duration, err error) {
	old := s.eps[node]
	s.eps[node] = nil // closed: tear-down skips it unless the reopen succeeds
	if err := old.close(); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	ep, replay, err := openEndpoint(s.w, node, endpointOpts{addr: old.addr, dir: old.dir, recover: true, traced: traced})
	if err != nil {
		return 0, 0, err
	}
	recovery = time.Since(t0)
	s.eps[node] = ep
	return recovery, replay, nil
}

func (s *tcpSystem) close() error {
	if s.client != nil {
		s.client.Close()
	}
	var err error
	for _, ep := range s.eps {
		if ep == nil {
			continue
		}
		if cerr := ep.close(); err == nil {
			err = cerr
		}
		if ep.dir != "" {
			if rerr := os.RemoveAll(ep.dir); err == nil {
				err = rerr
			}
		}
	}
	return err
}
