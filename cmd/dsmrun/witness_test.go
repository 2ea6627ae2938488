package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the witness files in testdata from this tree's output")

// witnesses are the committed byte witnesses: each row is a dsmrun command
// line and the file in testdata holding the bytes it must print. The files
// come from the binary of an earlier commit, so a row that fails means a
// simulated number moved; regenerate them (-update) only in a change that is
// meant to move simulated results, and the diff then shows which moved.
var witnesses = []struct{ file, args string }{
	// The whole app grid on the default machine, per backend.
	{"kinds-lrc.txt", "-app all -scale unit -procs 4 -kinds -protocol lrc"},
	{"kinds-erc.txt", "-app all -scale unit -procs 4 -kinds -protocol erc"},
	{"kinds-hlrc.txt", "-app all -scale unit -procs 4 -kinds -protocol hlrc"},
	{"kinds-adp.txt", "-app all -scale unit -procs 4 -kinds -protocol adp"},
	// Every adp fill and hybrid path, and hlrc's on the same grid.
	{"small-hlrc.txt", "-app all -scale small -procs 8 -threads 4 -prefetch -kinds -protocol hlrc"},
	{"small-adp.txt", "-app all -scale small -procs 8 -threads 4 -prefetch -kinds -protocol adp"},
	// Fiat delivery, where congestion drops prefetch datagrams and
	// delivered diff requests and replies go back to the wire pool.
	{"small16-lrc.txt", "-app all -scale small -procs 16 -threads 4 -prefetch -kinds -protocol lrc"},
	{"small16-erc.txt", "-app all -scale small -procs 16 -threads 4 -prefetch -kinds -protocol erc"},
	// The heavy fault plan: retransmits, duplicates and reordering.
	{"faults-lrc.txt", "-app all -scale small -procs 8 -threads 4 -prefetch -faults heavy -kinds -verify -protocol lrc"},
	{"faults-erc.txt", "-app all -scale small -procs 8 -threads 4 -prefetch -faults heavy -kinds -verify -protocol erc"},
	{"faults-hlrc.txt", "-app all -scale small -procs 8 -threads 4 -prefetch -faults heavy -kinds -verify -protocol hlrc"},
	{"faults-adp.txt", "-app all -scale small -procs 8 -threads 4 -prefetch -faults heavy -kinds -verify -protocol adp"},
	// erc with gossip on 256 nodes, the fat tree and the combining tree.
	{"gossip256-erc.txt", "-app FFT,SOR -scale unit -procs 256 -topology fattree -barrier tree -protocol erc -gossip -kinds -verify"},
	// The whole grid on 64 nodes of the fat tree and the combining tree,
	// under lrc and under erc with gossip.
	{"fattree64-lrc.txt", "-app all -scale unit -procs 64 -topology fattree -barrier tree -kinds"},
	{"gossip64-erc.txt", "-app all -scale unit -procs 64 -topology fattree -barrier tree -kinds -protocol erc -gossip"},
	// Migrating homes under a binary barrier tree: releases land far apart.
	{"migrate8-hlrc.txt", "-app all -scale unit -procs 8 -protocol hlrc -home-policy migrate -barrier tree -barrier-fanout 2 -kinds -verify"},
	// A plain loss and duplication sweep point with prefetching.
	{"loss8-lrc.txt", "-app all -scale unit -procs 8 -prefetch -loss 0.05 -dup 0.02 -kinds"},
}

// unitGrid is the equivalence rows' run: three apps on the default
// machine's size, cheap enough to run twice a row.
const unitGrid = "-app SOR,FFT,OCEAN -scale unit -procs 4 -kinds"

// equivalences are witness rows of the other form: two dsmrun command lines
// that are spellings of one run, or runs a layer promises not to perturb,
// and must print the same bytes.
var equivalences = []struct{ name, args, same string }{
	// Naming the default machine is the default machine.
	{"default-machine", unitGrid, unitGrid + " -protocol lrc -topology single -barrier central"},
	// A static home policy disables every dynamic code path.
	{"home-policy-static", unitGrid + " -protocol hlrc", unitGrid + " -protocol hlrc -home-policy static"},
	// The race detector observes the machine without perturbing it.
	{"race-check", unitGrid, unitGrid + " -race-check"},
}

// TestWitnesses runs every witness row in process and compares its report
// with the committed bytes, or with the report of its equivalent command
// line, naming the first line that differs. The rows run in parallel: run
// keeps no package-level state, and two Systems share nothing but the
// applications' read-only inputs.
func TestWitnesses(t *testing.T) {
	for _, w := range witnesses {
		t.Run(strings.TrimSuffix(w.file, ".txt"), func(t *testing.T) {
			t.Parallel()
			got := dsmrun(t, w.args)
			path := filepath.Join("testdata", w.file)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if d := firstDiff(got, string(want)); d != "" {
				t.Errorf("dsmrun %s\nprints other bytes than %s:\n%s", w.args, path, d)
			}
		})
	}
	for _, eq := range equivalences {
		t.Run(eq.name, func(t *testing.T) {
			t.Parallel()
			if d := firstDiff(dsmrun(t, eq.same), dsmrun(t, eq.args)); d != "" {
				t.Errorf("dsmrun %s\nprints other bytes than\ndsmrun %s:\n%s", eq.same, eq.args, d)
			}
		})
	}
}

// dsmrun runs dsmrun with the given arguments in process and returns what
// it prints.
func dsmrun(t *testing.T, args string) string {
	t.Helper()
	fs := flag.NewFlagSet("dsmrun", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, err := parseFlags(fs, strings.Fields(args))
	if err != nil {
		t.Fatalf("dsmrun %s: %v", args, err)
	}
	var got bytes.Buffer
	if err := run(o, &got, nil); err != nil {
		t.Fatalf("dsmrun %s: %v", args, err)
	}
	return got.String()
}

// firstDiff describes the first line where got departs from want, after the
// lines before it for context; "" when the two are equal.
func firstDiff(got, want string) string {
	if got == want {
		return ""
	}
	g, w := strings.SplitAfter(got, "\n"), strings.SplitAfter(want, "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return fmt.Sprintf("%q", ls[i])
		}
		return "(end of output)"
	}
	var b strings.Builder
	for _, l := range w[max(0, i-3):i] {
		fmt.Fprintf(&b, "       %s", l)
	}
	fmt.Fprintf(&b, "line %d:\n  got  %s\n  want %s\n", i+1, line(g), line(w))
	return b.String()
}
