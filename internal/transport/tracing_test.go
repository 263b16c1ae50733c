package transport_test

import (
	"testing"

	"spacebounds/internal/shard"
	"spacebounds/internal/trace"
	"spacebounds/internal/transport"
)

// TestTCPTracingStitchesAcrossProcesses runs a traced remote set against a
// TCP server with its own tracer — the two-recorder shape of a real
// deployment — and asserts the cross-process contract: the client records op,
// round, and rpc spans; the server records apply spans on the *client's*
// trace IDs, parented under client rpc span IDs it never saw except on the
// wire; and an untraced client adds no server spans (v1 frames carry no
// context).
func TestTCPTracingStitchesAcrossProcesses(t *testing.T) {
	backing, err := shard.New(specsFor(t))
	if err != nil {
		t.Fatal(err)
	}
	defer backing.Close()
	srvTr := trace.New(trace.Options{Sample: 1, Proc: "server", Node: 0})
	_, addr := startServer(t, backing, transport.WithServerTracer(srvTr))

	cliTr := trace.New(trace.Options{Sample: 1, Proc: "client", Node: -1})
	cli, err := transport.Dial([]string{addr}, transport.WithTracer(cliTr))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := shard.NewRemote(specsFor(t), cli)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	rs.SetTracer(cliTr)
	exerciseRemote(t, rs)

	rpcIDs := make(map[uint64]bool)
	traces := make(map[uint64]bool)
	var rounds, rpcs int
	for _, s := range cliTr.Snapshot() {
		switch s.Stage {
		case trace.StageOp:
			traces[s.Trace] = true
		case trace.StageRound:
			rounds++
		case trace.StageRPC:
			rpcs++
			rpcIDs[s.ID] = true
			// Served calls note the node; stragglers the round moved on from
			// are recorded as abandoned so their apply spans keep a parent.
			if s.Note != addr && s.Note != "abandoned" {
				t.Errorf("rpc span noted %q, want the node address %q or \"abandoned\"", s.Note, addr)
			}
		}
	}
	if len(traces) == 0 || rounds == 0 || rpcs == 0 {
		t.Fatalf("client recorded %d traces, %d rounds, %d rpcs; want all three stages",
			len(traces), rounds, rpcs)
	}
	if _, ok := cliTr.Exemplars()["spacebounds_transport_rpc_seconds"]; !ok {
		t.Error("no rpc latency exemplar on the client tracer")
	}

	applies := 0
	for _, s := range srvTr.Snapshot() {
		if s.Stage != trace.StageApply {
			t.Errorf("server recorded a %s span; servers only own the apply stage", s.Stage)
			continue
		}
		applies++
		if !traces[s.Trace] {
			t.Errorf("apply span on trace %016x, which no client op started", s.Trace)
		}
		if !rpcIDs[s.Parent] {
			t.Errorf("apply span parent %016x is not a client rpc span", s.Parent)
		}
	}
	if applies == 0 {
		t.Fatal("server recorded no apply spans from traced requests")
	}

	// An untraced client sends v1 frames: the server records nothing for
	// them. Stragglers of the traced client may still be applied meanwhile,
	// so every server span must belong to a trace the traced client started.
	cli2, err := transport.Dial([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := shard.NewRemote(specsFor(t), cli2)
	if err != nil {
		t.Fatal(err)
	}
	defer rs2.Close()
	exerciseRemote(t, rs2)
	for _, s := range srvTr.Snapshot() {
		if !traces[s.Trace] {
			t.Errorf("server span on trace %016x, which no traced client op started", s.Trace)
		}
	}
}
