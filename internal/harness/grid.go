package harness

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"godsm/dsm"
	"godsm/internal/stats"
)

// The paper's whole evaluation is one shape — applications × the eight
// configurations, read off as rows and ratio columns — and every extension
// is that shape with one or two more axes. An experiment declares a Grid;
// cross turns it into cells, RunGrid simulates them on the worker pool, and
// the table type in render.go prints the Results.

// Point is one position on an Axis: a labelled edit of a machine (nil: the
// machine as it stands).
type Point struct {
	Label string
	Edit  func(*dsm.Config)
}

// Axis is one dimension of a Grid beyond applications and variants.
type Axis struct {
	Name   string
	Points []Point
}

// axisOf makes an axis with one point per item.
func axisOf[T any](name string, items []T, point func(T) Point) Axis {
	ax := Axis{Name: name}
	for _, it := range items {
		ax.Points = append(ax.Points, point(it))
	}
	return ax
}

// Grid declares a set of simulations: Outer × applications × Variants ×
// Axes, crossed in that nesting order — the order tables print in, so an
// outer axis makes one table per point and an inner one sub-rows or
// columns. A cell's machine is Session.Config for its application and
// variant, edited by its point on each axis, Outer first.
type Grid struct {
	Outer []Axis
	// Apps is the default application subset (nil = all eight); -apps
	// replaces it. Pinned marks Apps as the applications a mechanism
	// matters for: -apps then filters the list instead.
	Apps     []string
	Pinned   bool
	Variants []Variant
	Axes     []Axis
	Verify   bool // golden-verify every cell whatever the session's option says
}

// Cell names one simulation: an application under one of the paper's
// variants and, inside a grid that has axes, its point on each as
// "axis=label" (Outer first). On the session's own machine Labels is zero.
type Cell struct {
	App     string
	Variant Variant
	Labels  [3]string
}

// String renders the cell as "SOR/O protocol=lrc procs=64".
func (c Cell) String() string {
	return strings.TrimRight(fmt.Sprintf("%s/%s %s", c.App, c.Variant, strings.Join(c.Labels[:], " ")), " ")
}

// Label returns the label of the cell's point on the named axis.
func (c Cell) Label(axis string) string {
	for _, l := range c.Labels {
		if label, ok := strings.CutPrefix(l, axis+"="); ok {
			return label
		}
	}
	panic("harness: cell " + c.String() + " has no axis " + axis)
}

// Run is one finished cell: its report, the report's node totals, and — in
// a row of Results.Pivot — the runs along the pivoted axis, the row itself
// (the baseline column) first.
type Run struct {
	Cell
	*dsm.Report
	N      stats.Node
	Across []Run
}

// Results are a grid's runs in cell order, the order its axes nest in.
type Results struct {
	axes []Axis // Outer…, "app", "cfg", Axes…
	Runs []Run
}

// cross is the one place a grid becomes cells, each with its machine.
func (s *Session) cross(g Grid) (Results, []dsm.Config) {
	apps := s.AppNames(g.Apps...)
	if g.Pinned {
		apps = slices.DeleteFunc(slices.Clone(g.Apps), func(app string) bool {
			return !slices.Contains(s.AppNames(), app)
		})
	}
	res := Results{axes: slices.Concat(g.Outer, []Axis{
		axisOf("app", apps, func(app string) Point { return Point{Label: app} }),
		axisOf("cfg", g.Variants, func(v Variant) Point { return Point{Label: string(v)} }),
	}, g.Axes)}
	n := 1
	for _, ax := range res.axes {
		n *= len(ax.Points)
	}
	res.Runs = make([]Run, n)
	cfgs := make([]dsm.Config, n)
	extra := slices.Concat(g.Outer, g.Axes)
	for i := range res.Runs {
		pts, rem := make([]Point, len(res.axes)), i
		for d := len(pts) - 1; d >= 0; d-- {
			pts[d] = res.axes[d].Points[rem%len(res.axes[d].Points)]
			rem /= len(res.axes[d].Points)
		}
		c, o := &res.Runs[i].Cell, len(g.Outer)
		c.App, c.Variant = pts[o].Label, Variant(pts[o+1].Label)
		cfgs[i] = s.Config(c.App, c.Variant)
		for d, ax := range extra {
			p := pts[d]
			if d >= o {
				p = pts[d+2] // past "app" and "cfg"
			}
			c.Labels[d] = ax.Name + "=" + p.Label
			if p.Edit != nil {
				p.Edit(&cfgs[i])
			}
		}
	}
	return res, cfgs
}

// RunGrid simulates every cell of a grid concurrently on the session's
// worker pool — cells with equal machines share one simulation — and
// returns the runs in cell order. The first failing cell (in that order) is
// the error, named by its labels.
func (s *Session) RunGrid(g Grid) (Results, error) {
	res, cfgs := s.cross(g)
	return res, each(len(res.Runs), func(i int) (err error) {
		r := &res.Runs[i]
		if r.Report, err = s.Sim(r.App, cfgs[i], s.Opt.Verify || g.Verify); err != nil {
			return fmt.Errorf("%s: %w", r.Cell, err)
		}
		r.N = r.Sum()
		return nil
	})
}

// Labels returns the named axis's point labels in order.
func (r Results) Labels(axis string) []string {
	d := slices.IndexFunc(r.axes, func(ax Axis) bool { return ax.Name == axis })
	labels := make([]string, len(r.axes[d].Points))
	for k, p := range r.axes[d].Points {
		labels[k] = p.Label
	}
	return labels
}

// Pivot turns an axis into columns: one row per cell of the remaining axes,
// in cell order — the run at the axis's first point, with Across holding
// the runs at every point.
func (r Results) Pivot(axis string) []Run {
	n, stride := len(r.Labels(axis)), 1
	for d := len(r.axes) - 1; r.axes[d].Name != axis; d-- {
		stride *= len(r.axes[d].Points)
	}
	var rows []Run
	for i, row := range r.Runs {
		if i/stride%n == 0 {
			for k := range n {
				row.Across = append(row.Across, r.Runs[i+k*stride])
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// column returns pivot rows' runs at one point of the pivoted axis: the
// table for one protocol, one schedule.
func column(rows []Run, k int) []Run {
	col := make([]Run, len(rows))
	for i, r := range rows {
		col[i] = r.Across[k]
	}
	return col
}

// Experiment regenerates one artifact: a declaration of what to simulate
// and a renderer of the results.
type Experiment struct {
	ID    string
	Title string
	// Grids declares the experiment's simulations for a session (whose
	// options may shape an axis, as -nodescale-procs does).
	Grids func(s *Session) []Grid
	// Render prints the artifact; res[i] holds Grids(s)[i]'s runs.
	Render func(s *Session, w io.Writer, res []Results) error
}

// Run simulates the experiment's grids — all at once, so the worker pool
// stays full across them — and renders the results. Experiments may run
// concurrently against one session; shared cells simulate once.
func (e Experiment) Run(s *Session, w io.Writer) error {
	grids := e.Grids(s)
	res := make([]Results, len(grids))
	if err := each(len(grids), func(i int) (err error) {
		res[i], err = s.RunGrid(grids[i])
		return err
	}); err != nil {
		return err
	}
	return e.Render(s, w, res)
}

// fixed declares grids that do not depend on the session; paper, one grid
// of the given variants on the session's own machine — the shape of each
// of the paper's seven artifacts.
func fixed(grids ...Grid) func(*Session) []Grid {
	return func(*Session) []Grid { return grids }
}
func paper(variants ...Variant) func(*Session) []Grid { return fixed(Grid{Variants: variants}) }

// Experiments lists every artifact: the paper's seven in paper order, then
// the extensions. It is the order `dsmbench -exp all` runs and prints them
// in, and the list its -exp help and ByID's error name.
var Experiments = []Experiment{
	{"fig1", "Figure 1: execution time breakdown, TreadMarks baseline", paper(VarO), renderFig1},
	{"fig2", "Figure 2: performance impact of prefetching", paper(VarO, VarP), renderFig2},
	{"table1", "Table 1: prefetching statistics", paper(VarO, VarP), renderTable1},
	{"fig3", "Figure 3: breakdown of the original remote misses", paper(VarP), renderFig3},
	{"fig4", "Figure 4: performance impact of multithreading", paper(VarO, Var2T, Var4T, Var8T), renderFig4},
	{"table2", "Table 2: multithreading statistics", paper(VarO, Var2T, Var4T, Var8T), renderTable2},
	{"fig5", "Figure 5: combining prefetching and multithreading", paper(AllVariants...), renderFig5},
	{"ablation", "Ablation study of the design mechanisms", ablationGrids, renderAblations},
	{"adaptive", "Adaptive coherence: home policies and per-page diff/home switching",
		fixed(adaptiveGrid), renderAdaptive},
	{"faults", "Chaos soak: fault injection vs the reliable transport", fixed(faultsGrid), renderFaults},
	{"nodescale", "Machine scaling: topologies, combining-tree barriers, gossip (extension)",
		nodeScaleGrid, renderNodeScale},
	{"protocols", "Protocol comparison: LRC vs ERC vs home-based LRC", fixed(protocolsGrid), renderProtocols},
	{"racecheck", "Race-checked grid: happens-before detection over every app x protocol",
		fixed(raceCheckGrid), renderRaceCheck},
	{"scaling", "Processor-count scaling (extension)", fixed(scalingGrid), renderScaling},
	{"netsweep", "Network latency/bandwidth sensitivity (extension)", fixed(netSweepGrid), renderNetSweep},
}

// PrewarmKeys returns the cells the given experiments simulate on the
// session's own machine — their grids without axes, which is every grid of
// the paper's seven — deduplicated, in first-use order.
func PrewarmKeys(s *Session, exps []Experiment) []Cell {
	var cells []Cell
	for _, e := range exps {
		for _, g := range e.Grids(s) {
			if len(g.Outer)+len(g.Axes) > 0 || g.Verify {
				continue
			}
			res, _ := s.cross(g)
			for _, r := range res.Runs {
				if !slices.Contains(cells, r.Cell) {
					cells = append(cells, r.Cell)
				}
			}
		}
	}
	return cells
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		if e.ID == id {
			return e, nil
		}
		ids[i] = e.ID
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (have: all, %s)", id, strings.Join(ids, ", "))
}
