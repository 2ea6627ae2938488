package harness

import (
	"fmt"
	"io"

	"godsm/dsm"
	"godsm/internal/sim"
)

// RunScaling regenerates a processor-count scaling table (an extension:
// the paper fixes 8 processors). For each application it reports elapsed
// time and self-relative speedup at 1, 2, 4 and 8 processors under the
// original and prefetching configurations — showing how communication
// grows with the machine and how much of it prefetching recovers. The
// whole app × config × procs grid simulates concurrently on the session's
// worker pool; rendering prints in table order.
func RunScaling(s *Session, w io.Writer) error {
	procs := []int{1, 2, 4, 8}
	variants := []Variant{VarO, VarP}
	type cell struct {
		app   string
		v     Variant
		procs int
	}
	var cells []cell
	for _, app := range s.AppNames() {
		for _, v := range variants {
			for _, p := range procs {
				cells = append(cells, cell{app, v, p})
			}
		}
	}
	reps, err := simGrid(s, cells, func(c cell) (string, dsm.Config, bool) {
		cfg := s.Config(c.app, c.v)
		cfg.Procs = c.procs
		return c.app, cfg, s.Opt.Verify
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Scaling: elapsed time and speedup vs processor count")
	fmt.Fprintf(w, "%-10s %-4s %12s %12s %12s %12s\n",
		"App", "Cfg", "1p", "2p", "4p", "8p")
	for _, app := range s.AppNames() {
		for _, v := range variants {
			fmt.Fprintf(w, "%-10s %-4s", app, v)
			for _, p := range procs {
				fmt.Fprintf(w, " %10dus", reps[cell{app, v, p}].Elapsed/sim.Microsecond)
			}
			fmt.Fprintln(w)
			fmt.Fprintf(w, "%-10s %-4s", "", "↳spd")
			one := reps[cell{app, v, procs[0]}].Elapsed
			for _, p := range procs {
				fmt.Fprintf(w, " %11.2fx", float64(one)/float64(reps[cell{app, v, p}].Elapsed))
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "(speedups are relative to the same configuration on 1 processor)")
	return nil
}
