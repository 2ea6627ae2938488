package harness

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"godsm/dsm"
	"godsm/internal/apps"
)

var update = flag.Bool("update", false, "rewrite testdata/fingerprints.golden from this tree")

const goldenPath = "testdata/fingerprints.golden"

// goldenCell is one pinned simulation: app × backend × variant × procs at
// unit scale on the default machine.
type goldenCell struct {
	App      string
	Protocol string
	Variant  Variant
	Procs    int
}

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
		s := NewSession(Options{Procs: procs, Scale: apps.Unit})
		var cells []goldenCell
		for _, app := range s.AppNames() {
			for _, protocol := range ProtocolNames {
				for _, v := range ProtocolVariants {
					cells = append(cells, goldenCell{app, protocol, v, procs})
				}
			}
		}
		reps, err := simGrid(s, cells, func(c goldenCell) (string, dsm.Config, bool) {
			cfg := s.Config(c.App, c.Variant)
			cfg.Protocol = c.Protocol
			return c.App, cfg, false
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			r := reps[c]
			lines = append(lines, fmt.Sprintf("%s/%s/%s/%d elapsed=%d msgs=%d bytes=%d fp=%x",
				c.App, c.Protocol, c.Variant, c.Procs, r.Elapsed, r.MsgsTotal, r.BytesTotal,
				sha256.Sum256([]byte(r.Fingerprint()))))
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
