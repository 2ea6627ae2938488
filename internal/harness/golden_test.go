package harness

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"godsm/internal/apps"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/ from this tree")

const goldenPath = "testdata/fingerprints.golden"

// TestGoldenFingerprints pins the default machine across commits: the
// committed file holds, per cell, the elapsed virtual time, the traffic
// totals and a digest of Report.Fingerprint(). In-tree equivalence tests
// (TestTreeBarrierDegeneratesToCentral, the star/fat-tree netsim test) only
// compare two settings of today's code; this file is what says a refactor
// of the barrier, the network send path or the fetch lifecycle changed no
// simulated byte. Regenerate with `go test ./internal/harness -run
// TestGoldenFingerprints -update` only when a change is meant to move
// simulated results, and say so in CHANGES.md.
func TestGoldenFingerprints(t *testing.T) {
	var lines []string
	for _, procs := range []int{4, 8} {
		// One pinned simulation per app × backend × variant × procs, at unit
		// scale on the default machine.
		res, err := NewSession(Options{Procs: procs, Scale: apps.Unit}).RunGrid(
			Grid{Variants: ProtocolVariants, Axes: []Axis{protocolAxis}})
		if err != nil {
			t.Fatal(err)
		}
		// The file lists each application's cells protocol by protocol.
		perApp := len(ProtocolVariants)
		for rows := res.Pivot("protocol"); len(rows) > 0; rows = rows[perApp:] {
			for k, protocol := range ProtocolNames {
				for _, r := range column(rows[:perApp], k) {
					lines = append(lines, fmt.Sprintf("%s/%s/%s/%d elapsed=%d msgs=%d bytes=%d fp=%x",
						r.App, protocol, r.Variant, procs, r.Elapsed, r.MsgsTotal, r.BytesTotal,
						sha256.Sum256([]byte(r.Fingerprint()))))
				}
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%s has %d cells, this tree runs %d", goldenPath, len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("simulated result moved:\n golden: %s\n   this: %s", wantLines[i], lines[i])
		}
	}
}

const experimentsGoldenPath = "testdata/experiments-unit.golden"

// TestExperimentsGolden pins every rendered byte of every experiment: each
// entry of Experiments at unit scale, 4 processors, all eight applications,
// with the nodescale sweep cut to {8, 64}. The simulator is deterministic,
// so the text is too; this file is what lets a harness refactor say "no
// rendered byte moved". Regenerate with -update only when a change is meant
// to move a table, and say so in CHANGES.md.
func TestExperimentsGolden(t *testing.T) {
	s := NewSession(Options{Procs: 4, Scale: apps.Unit, NodeScaleProcs: []int{8, 64}})
	out := make([]bytes.Buffer, len(Experiments))
	if err := each(len(Experiments), func(i int) error {
		fmt.Fprintf(&out[i], "== %s: %s\n", Experiments[i].ID, Experiments[i].Title)
		return Experiments[i].Run(s, &out[i])
	}); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for i := range out {
		got = append(got, out[i].Bytes()...)
	}
	if *update {
		if err := os.WriteFile(experimentsGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(experimentsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("rendered output moved at %s:%d:\n golden: %s\n   this: %s",
				experimentsGoldenPath, i+1, wantLines[i], gotLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s has %d lines, this tree renders %d", experimentsGoldenPath, len(wantLines), len(gotLines))
	}
}
