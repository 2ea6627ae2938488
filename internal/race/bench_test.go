package race

import "testing"

// The benchmarks drive eight threads over 4096-word stripes of address
// space from 0, the shape of bench's race.access_word_ns rig, so
// `go test -bench DetectorAccess` and `bench -trace 1` measure the same
// thing (bench's figure includes the first, shadow-allocating sweep; these
// are warmed). A sweep is one barrier-phased iteration and returns how many
// accesses it made.
const benchThreads, benchStripe = 8, 4096

func benchBarrier(d *Detector) {
	for t := 0; t < benchThreads; t++ {
		d.BarrierArrive(t)
	}
}

// stencil: each thread writes its own stripe, all cross a barrier, each
// reads its neighbour's stripe, all cross a barrier.
func stencilSweep(d *Detector) int {
	for t := 0; t < benchThreads; t++ {
		for w := 0; w < benchStripe; w++ {
			d.Access(t, uint64(8*(t*benchStripe+w)), true)
		}
	}
	benchBarrier(d)
	for t := 0; t < benchThreads; t++ {
		nb := (t + 1) % benchThreads
		for w := 0; w < benchStripe; w++ {
			d.Access(t, uint64(8*(nb*benchStripe+w)), false)
		}
	}
	benchBarrier(d)
	return 2 * benchThreads * benchStripe
}

// readShared: thread 0 writes one stripe, all cross a barrier, every thread
// reads all of it, all cross a barrier — each word is promoted to
// read-shared and collapsed again every iteration.
func readSharedSweep(d *Detector) int {
	for w := 0; w < benchStripe; w++ {
		d.Access(0, uint64(8*w), true)
	}
	benchBarrier(d)
	for t := 0; t < benchThreads; t++ {
		for w := 0; w < benchStripe; w++ {
			d.Access(t, uint64(8*w), false)
		}
	}
	benchBarrier(d)
	return (1 + benchThreads) * benchStripe
}

func BenchmarkDetectorAccess(b *testing.B) {
	for _, bc := range []struct {
		name  string
		g     Granularity
		sweep func(*Detector) int
	}{
		{"word-stencil", Word, stencilSweep},
		{"word-readshared", Word, readSharedSweep},
		{"page-stencil", Page, stencilSweep},
	} {
		b.Run(bc.name, func(b *testing.B) {
			d, _ := newTest(benchThreads, bc.g)
			// Warm up: the first sweep touches the shadow pages and stripes,
			// the second sends the stripes through the free list.
			bc.sweep(d)
			bc.sweep(d)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += bc.sweep(d) {
			}
		})
	}
}
