package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"godsm/dsm"
	"godsm/internal/apps"
	"godsm/internal/event"
	"godsm/internal/stats"
)

// traceRun runs one SOR simulation in the paper's combined configuration
// (prefetching + multithreading) with a trace sink subscribed, returning the
// trace bytes.
func traceRun(t *testing.T) []byte {
	t.Helper()
	spec, err := apps.ByName("SOR")
	if err != nil {
		t.Fatal(err)
	}
	cfg := dsm.DefaultConfig()
	cfg.Procs = 4
	cfg.ThreadsPerProc = 4
	cfg.Prefetch = true
	var buf bytes.Buffer
	sys := dsm.NewSystem(cfg)
	tw := event.NewTraceWriter(&buf)
	sys.K.Bus().Subscribe(tw)
	inst := spec.Build(sys, apps.Options{Scale: apps.Unit})
	sys.Run(inst.Run)
	if err := inst.Err(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The determinism contract extends to the trace sink: same configuration,
// same seed, byte-identical trace JSON.
func TestTraceDeterministic(t *testing.T) {
	a := traceRun(t)
	b := traceRun(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical runs produced different traces (%d vs %d bytes)", len(a), len(b))
	}
	if !json.Valid(a) {
		t.Fatal("trace is not valid JSON")
	}
	out := string(a)
	// One track per processor plus the network track, all named.
	for _, frag := range []string{`"network"`, `"proc 0"`, `"proc 3"`, `"fault-remote"`, `"net-transmit"`} {
		if !strings.Contains(out, frag) {
			t.Errorf("trace lacks %q", frag)
		}
	}
}

// Table 1's row must surface the prefetch request/reply drop split from
// fabricated reports, so a regression in the counters or the rendering is
// caught without running a faulty network end to end.
func TestTable1RowDropSplit(t *testing.T) {
	repO := &stats.Report{Procs: 2, Nodes: make([]stats.Node, 2)}
	repO.Nodes[0].Misses = 100
	repO.Nodes[0].MissStall = 100 * 1700 * 1000 // 1700us avg, in ns
	repO.BytesTotal = 2048 * 1024

	repP := &stats.Report{Procs: 2, Nodes: make([]stats.Node, 2)}
	repP.Nodes[0] = stats.Node{
		Misses: 30, MissStall: 30 * 2000 * 1000,
		PfCalls: 80, PfUnnecessary: 20, PfMsgs: 60,
		PfReqDropped: 7,
		FaultNoPf:    10, FaultPfHit: 50, FaultPfLate: 5, FaultPfInvalided: 5,
	}
	repP.Nodes[1] = stats.Node{PfReplyDropped: 3}
	repP.BytesTotal = 1024 * 1024

	var buf strings.Builder
	o := Run{Cell: Cell{App: "SOR"}, Report: repO, N: repO.Sum()}
	o.Across = []Run{o, {Report: repP, N: repP.Sum()}}
	table1.writeRow(&buf, o)
	row := buf.String()
	for _, frag := range []string{
		"SOR", "25.00%", "85.71%", // 20/80 unnecessary, 60/70 covered
		"2048K", "1024K", "100", "30", "1700us", "2000us",
		"      7       3", // the request/reply drop split, right-aligned
	} {
		if !strings.Contains(row, frag) {
			t.Errorf("Table 1 row lacks %q:\n%s", frag, row)
		}
	}
}
