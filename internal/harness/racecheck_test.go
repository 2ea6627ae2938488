package harness

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"godsm/dsm"
	"godsm/internal/apps"
	"godsm/internal/event"
)

// TestRaceCheckedDeterminism proves the detector's two run-level claims:
// the race-checked grid renders byte-identically whether cells run
// sequentially (workers=1) or fanned out over 8 workers, and checking is
// observation-free — each checked cell's report fingerprint equals the
// unchecked run's for the same app/variant/protocol. The second claim is also
// the differential test of page views (dsm.Env.View): they are off under the
// detector, so the checked run makes every access one at a time and the
// unchecked run takes every all-hit row at once.
func TestRaceCheckedDeterminism(t *testing.T) {
	opt := Options{Procs: 4, Scale: apps.Unit}
	optSeq, optPar := opt, opt
	optSeq.Workers = 1
	optPar.Workers = 8
	seq, par := NewSession(optSeq), NewSession(optPar)

	var bufSeq, bufPar bytes.Buffer
	if err := render("racecheck", par, &bufPar); err != nil {
		t.Fatal(err)
	}
	if err := render("racecheck", seq, &bufSeq); err != nil {
		t.Fatal(err)
	}
	if bufSeq.String() != bufPar.String() {
		t.Errorf("racecheck output differs across worker counts:\nworkers=1:\n%s\nworkers=8:\n%s",
			bufSeq.String(), bufPar.String())
	}

	for _, proto := range ProtocolNames {
		for _, app := range seq.AppNames() {
			for _, v := range ProtocolVariants {
				raced := func(s *Session) (*dsm.Report, error) {
					cfg := s.Config(app, v)
					cfg.Protocol, cfg.RaceCheck = proto, true
					return s.Sim(app, cfg, true)
				}
				a, err := raced(seq)
				if err != nil {
					t.Fatal(err)
				}
				b, err := raced(par)
				if err != nil {
					t.Fatal(err)
				}
				off, err := protoSim(seq, app, v, proto, "")
				if err != nil {
					t.Fatal(err)
				}
				fa, fb, fo := a.Fingerprint(), b.Fingerprint(), off.Fingerprint()
				if fa != fb {
					t.Errorf("%s/%s under %s: race-checked reports differ across worker counts:\nseq: %s\npar: %s",
						app, v, proto, fa, fb)
				}
				if fa != fo {
					t.Errorf("%s/%s under %s: race checking perturbed the report:\nchecked:   %s\nunchecked: %s",
						app, v, proto, fa, fo)
				}
			}
		}
	}
}

// TestViewsLeaveNoTrace: at small scale on 8 processors — where matrix rows
// cross pages and two blocks share one, which unit scale never has — every
// application, its kernels on page views, emits the same events at the same
// virtual times, byte for byte, as when the detector forces every access
// through the accessors one at a time.
func TestViewsLeaveNoTrace(t *testing.T) {
	s := NewSession(Options{Procs: 8, Scale: apps.Small, Workers: 1})
	for _, spec := range apps.All {
		app := spec.Name
		for _, v := range []Variant{VarO, Var4TP} {
			for _, proto := range []string{"lrc", "hlrc"} {
				run := func(raceCheck bool) (string, []byte) {
					cfg := s.Config(app, v)
					cfg.Protocol, cfg.RaceCheck = proto, raceCheck
					var buf bytes.Buffer
					tw := event.NewTraceWriter(&buf)
					_, rep, err := spec.Run(cfg, apps.Options{Scale: apps.Small, Verify: true}, tw)
					if err != nil {
						t.Fatalf("%s/%s under %s, RaceCheck %v: %v", app, v, proto, raceCheck, err)
					}
					if err := tw.Close(); err != nil {
						t.Fatal(err)
					}
					return rep.Fingerprint(), buf.Bytes()
				}
				fpViews, traceViews := run(false)
				fpElems, traceElems := run(true)
				if fpViews != fpElems {
					t.Errorf("%s/%s under %s: views perturbed the report:\nviews:    %s\nelements: %s",
						app, v, proto, fpViews, fpElems)
				}
				if !bytes.Equal(traceViews, traceElems) {
					t.Errorf("%s/%s under %s: views perturbed the trace (%d vs %d bytes)",
						app, v, proto, len(traceViews), len(traceElems))
				}
			}
		}
	}
}

// TestRacyFixturesFailDeterministically: the intentionally racy fixtures
// fail under the detector with a structured two-site RaceError whose
// rendering is byte-identical on every rerun, and the exempt variant runs
// clean with its verification intact.
func TestRacyFixturesFailDeterministically(t *testing.T) {
	run := func(app string) (string, error) {
		s := NewSession(Options{Procs: 4, Scale: apps.Unit, Workers: 1})
		cfg := s.Config(app, VarO)
		cfg.RaceCheck = true
		_, err := s.Sim(app, cfg, false)
		if err == nil {
			return "", nil
		}
		var re *dsm.RaceError
		if !errors.As(err, &re) {
			t.Fatalf("%s: want a *dsm.RaceError, got %T: %v", app, err, err)
		}
		return err.Error(), err
	}

	for _, app := range []string{"RACY", "RACY-STALE"} {
		first, err := run(app)
		if err == nil {
			t.Fatalf("%s ran clean under the race detector", app)
		}
		if !strings.Contains(first, "data race detected") {
			t.Errorf("%s: report missing the race header:\n%s", app, first)
		}
		if !strings.Contains(first, "prev:") || !strings.Contains(first, "curr:") {
			t.Errorf("%s: report missing an access site:\n%s", app, first)
		}
		second, _ := run(app)
		if first != second {
			t.Errorf("%s: race report is not deterministic:\n1st:\n%s\n2nd:\n%s", app, first, second)
		}
	}

	if msg, err := run("RACY-EXEMPT"); err != nil {
		t.Errorf("RACY-EXEMPT: RaceExempt did not suppress the audited race:\n%s", msg)
	}
}
