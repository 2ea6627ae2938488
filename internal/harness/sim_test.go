package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"godsm/dsm"
	"godsm/internal/apps"
)

// TestSimKey guards the one-line cache key. The key is a %#v rendering of
// the configuration, which is stable and complete only while dsm.Config
// holds plain data: a pointer, map, func, chan or interface field would
// render as an address, in random order, or not at all. Beyond that, every
// leaf — including those nested in Net, Net.Faults and Costs — must change
// the key when it changes, or two different runs would share one result.
func TestSimKey(t *testing.T) {
	cfg := dsm.DefaultConfig()
	// One element per slice, so the walk reaches the element fields too.
	cfg.Net.Faults.Brownouts = []dsm.LinkFault{{}}
	cfg.Net.Faults.Stalls = []dsm.LinkFault{{}}
	base := simKey("SOR", cfg, false)

	leaves := 0
	flipped := func(path string, restore func()) {
		leaves++
		if simKey("SOR", cfg, false) == base {
			t.Errorf("%s: changing it does not change the cache key", path)
		}
		restore()
		if simKey("SOR", cfg, false) != base {
			t.Fatalf("%s: walk did not restore the configuration", path)
		}
	}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		if !v.CanSet() {
			t.Errorf("%s: unexported field; the walk cannot prove it reaches the key", path)
			return
		}
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		case reflect.Bool:
			old := v.Bool()
			v.SetBool(!old)
			flipped(path, func() { v.SetBool(old) })
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			old := v.Int()
			v.SetInt(old + 1)
			flipped(path, func() { v.SetInt(old) })
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			old := v.Uint()
			v.SetUint(old + 1)
			flipped(path, func() { v.SetUint(old) })
		case reflect.Float32, reflect.Float64:
			old := v.Float()
			v.SetFloat(old + 0.5)
			flipped(path, func() { v.SetFloat(old) })
		case reflect.String:
			old := v.String()
			v.SetString(old + "x")
			flipped(path, func() { v.SetString(old) })
		default:
			t.Errorf("%s: a %s field makes the rendered cache key unstable or incomplete", path, v.Kind())
		}
	}
	walk("Config", reflect.ValueOf(&cfg).Elem())
	if leaves < 50 {
		t.Errorf("walk visited only %d leaves; it is not reaching the nested structs", leaves)
	}

	if simKey("FFT", cfg, false) == base || simKey("SOR", cfg, true) == base {
		t.Error("application and verify must be part of the key")
	}
	// A longer slice is a different plan even when its new element is zero.
	cfg.Net.Faults.Stalls = append(cfg.Net.Faults.Stalls, dsm.LinkFault{})
	if simKey("SOR", cfg, false) == base {
		t.Error("appending a fault window does not change the cache key")
	}
}

// TestBadMachinesAreErrors: a configuration the simulator cannot build must
// come back from Sim — and from an experiment that derives it — as a plain
// error naming the problem, never as a NewSystem panic inside a worker
// goroutine (which used to take the whole process down with a goroutine
// dump; dsmbench -exp nodescale -nodescale-procs 12 reproduced it).
func TestBadMachinesAreErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
		want []string
	}{
		{"zero procs", Options{Procs: 0}, []string{"Procs", "positive"}},
		{"unknown protocol", Options{Procs: 4, Protocol: "bogus"}, []string{"unknown protocol", "bogus"}},
		{"home policy without hlrc", Options{Procs: 4, HomePolicy: "migrate"}, []string{"HomePolicy", "migrate"}},
		{"unknown home policy", Options{Procs: 4, Protocol: "hlrc", HomePolicy: "nearest"}, []string{"home policy", "nearest"}},
	} {
		tc.opt.Scale = apps.Unit
		s := NewSession(tc.opt)
		// dsmbench's up-front check and Sim report through the same Validate.
		errs := []error{s.Config("", VarO).Validate()}
		_, err := s.Run("SOR", VarO)
		errs = append(errs, err)
		for _, err := range errs {
			if err == nil {
				t.Fatalf("%s: accepted", tc.name)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s: error %q does not mention %q", tc.name, err, want)
				}
			}
		}
		if runs, _ := s.SimStats(); runs != 0 {
			t.Errorf("%s: %d simulations started for an invalid machine", tc.name, runs)
		}
	}

	s := NewSession(Options{Procs: 4, Scale: apps.Unit, Apps: []string{"SOR"}, NodeScaleProcs: []int{12}})
	err := render("nodescale", s, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "fattree: 12 nodes") {
		t.Errorf("nodescale over 12 procs: want the fat tree's power-of-two error, got %v", err)
	}
}

// TestExperimentsShareRuns: the configuration is the identity of a run, so
// experiments that ask for the same cell — the adaptive experiment's lrc,
// hlrc and adp columns are the protocols experiment's — simulate it once.
// One session rendering both must execute exactly as many simulations as
// there are distinct cells.
func TestExperimentsShareRuns(t *testing.T) {
	s := NewSession(Options{Procs: 4, Scale: apps.Unit, Apps: []string{"SOR", "FFT"}})
	if err := render("protocols", s, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	perBackend := int64(len(s.AppNames()) * len(ProtocolVariants))
	if runs, _ := s.SimStats(); runs != int64(len(ProtocolNames))*perBackend {
		t.Fatalf("protocols: %d simulations, want %d", runs, int64(len(ProtocolNames))*perBackend)
	}
	if err := render("adaptive", s, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	// A label names one backend in both experiments.
	distinct := map[string]bool{}
	for _, p := range slices.Concat(protocolAxis.Points, adaptiveAxis.Points) {
		distinct[p.Label] = true
	}
	if runs, _ := s.SimStats(); runs != int64(len(distinct))*perBackend {
		t.Errorf("protocols then adaptive: %d simulations, want %d (one per distinct cell)",
			runs, int64(len(distinct))*perBackend)
	}
}
