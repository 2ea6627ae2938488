package apps

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"godsm/dsm"
)

// inputRow is one input the memo shares: the application whose Build asks
// for it, the memo's live copy as bytes (nil when none is live), and a fresh
// generator call as bytes.
type inputRow struct {
	app           string
	shared, fresh func() []byte
}

func row[T any](app string, k inputKey, gen func() []T) inputRow {
	return inputRow{app: app,
		shared: func() []byte {
			inputs.Lock()
			w, _ := inputs.m[k].(weakSlice[T])
			inputs.Unlock()
			return bytesOf(w.get())
		},
		fresh: func() []byte { return bytesOf(gen()) },
	}
}

// bytesOf views s's backing array as bytes; nil for a nil slice.
func bytesOf[T any](s []T) []byte {
	if s == nil {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
}

// inputRows are the inputs the applications share at scale sc, under the
// keys their Builds use.
func inputRows(sc Scale) []inputRow {
	fm := sized(sc, fftSizes).m
	rx := sized(sc, radixSizes)
	luN := sized(sc, luNcontSizes).n
	wn := sized(sc, waterNsqSizes).n
	ws := sized(sc, waterSpSizes)
	lu := func() []float64 { return luInput(luN) }
	return []inputRow{
		row("FFT", inputKey{gen: "fft", n: fm * fm}, func() []complex128 { return fftInput(fm * fm) }),
		row("RADIX", inputKey{gen: "radix", n: rx.n, m: int(rx.maxKey)}, func() []int64 { return radixInput(rx.n, rx.maxKey) }),
		row("LU-NCONT", inputKey{gen: "lu", n: luN}, lu),
		row("LU-CONT", inputKey{gen: "lu", n: luN}, lu),
		row("WATER-NSQ", inputKey{gen: "water", n: wn}, func() [][3]float64 { return waterInitPos(wn) }),
		row("WATER-SP", inputKey{gen: "water-sp", n: ws.n, m: ws.ncell},
			func() [][3]float64 { return waterInitPosSorted(ws.n, ws.ncell) }),
	}
}

func build(t testing.TB, app string, sc Scale) *Instance {
	spec, err := ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	return spec.Build(dsm.NewSystem(testConfig(4, 1, false)), Options{Scale: sc, Verify: true})
}

// TestSharedInputWhileHeld: while one Instance holds an input, another
// Build of the same application and scale gets the same backing array, the
// two LU variants share theirs, and each scale has its own — bit for bit a
// fresh generator call.
func TestSharedInputWhileHeld(t *testing.T) {
	var held []*Instance
	for _, sc := range []Scale{Unit, Small} {
		var luArray *byte
		for _, r := range inputRows(sc) {
			held = append(held, build(t, r.app, sc))
			first := r.shared()
			if first == nil {
				t.Fatalf("%s/%v: no live shared input while its Instance is held", r.app, sc)
			}
			held = append(held, build(t, r.app, sc))
			if unsafe.SliceData(r.shared()) != unsafe.SliceData(first) {
				t.Errorf("%s/%v: a second Build generated its input again", r.app, sc)
			}
			if r.app == "LU-NCONT" {
				luArray = unsafe.SliceData(first)
			} else if r.app == "LU-CONT" && unsafe.SliceData(first) != luArray {
				t.Errorf("%v: LU-CONT does not share LU-NCONT's input", sc)
			}
		}
	}
	// Every scale's inputs are alive at once and each is its own.
	for _, sc := range []Scale{Unit, Small} {
		for _, r := range inputRows(sc) {
			if !bytes.Equal(r.shared(), r.fresh()) {
				t.Errorf("%s/%v: the shared input is not the generator's", r.app, sc)
			}
		}
	}
	runtime.KeepAlive(held)
}

// TestSharedInputsAreWeak: once no Instance is alive and the collector has
// run, the memo holds nothing.
func TestSharedInputsAreWeak(t *testing.T) {
	for _, spec := range All {
		build(t, spec.Name, Unit)
	}
	runtime.GC()
	runtime.GC()
	inputs.Lock()
	defer inputs.Unlock()
	if len(inputs.m) == 0 {
		t.Fatal("the memo never saw an input")
	}
	for k, w := range inputs.m {
		if w.live() {
			t.Errorf("%+v is still alive with no Instance holding it", k)
		}
	}
}

// TestSharedInputsConcurrent builds and runs every application on several
// goroutines at once, as the harness does; the shared inputs must come out
// bit for bit as generated. Under -race it also checks that nothing writes
// them.
func TestSharedInputsConcurrent(t *testing.T) {
	const goroutines = 4
	held := make([][]*Instance, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			order := slices.Clone(All)
			if g%2 == 1 {
				slices.Reverse(order)
			}
			for _, spec := range order {
				sys := dsm.NewSystem(testConfig(2, 2, g >= 2))
				inst := spec.Build(sys, Options{Scale: Unit, Verify: true})
				sys.Run(inst.Run)
				if err := inst.Err(); err != nil {
					errs[g] = fmt.Errorf("%s: %w", spec.Name, err)
					return
				}
				held[g] = append(held[g], inst)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range inputRows(Unit) {
		if got := r.shared(); got == nil || !bytes.Equal(got, r.fresh()) {
			t.Errorf("%s: the shared input is not the generator's after concurrent runs", r.app)
		}
	}
	runtime.KeepAlive(held)
}

// TestWaterSpCountingSort pins waterInitPosSorted's counting sort to a
// stable sort by cell at every scale.
func TestWaterSpCountingSort(t *testing.T) {
	for _, p := range waterSpSizes {
		want := waterInitPos(p.n)
		slices.SortStableFunc(want, func(a, b [3]float64) int { return cellOf(a, p.ncell) - cellOf(b, p.ncell) })
		if got := waterInitPosSorted(p.n, p.ncell); !slices.Equal(got, want) {
			t.Errorf("n=%d ncell=%d: the counting sort's order is not the stable sort's", p.n, p.ncell)
		}
	}
}

// BenchmarkBuild is each application's construction at small scale, as the
// bench's setup phase does it (a new System and a Build): warm while one
// Instance holds the input, and cold, the generator alone, which a Build
// adds when none does.
func BenchmarkBuild(b *testing.B) {
	rows := inputRows(Small)
	for _, spec := range All {
		b.Run(spec.Name+"/warm", func(b *testing.B) {
			b.ReportAllocs()
			held := build(b, spec.Name, Small)
			for b.Loop() {
				build(b, spec.Name, Small)
			}
			runtime.KeepAlive(held)
		})
		for _, r := range rows {
			if r.app == spec.Name {
				b.Run(spec.Name+"/cold", func(b *testing.B) {
					b.ReportAllocs()
					for b.Loop() {
						r.fresh()
					}
				})
			}
		}
	}
}
